"""Command-line plumbing: config parsing, snapshot and CSV formats, the
run/verify/ratefit commands, and their exit codes."""

import csv
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pslab
from pslab import cli, kernels, models, nonlocal_ops, stepper
from pslab.cli import (
    _PRESETS,
    LEDGER_CSV_CHUNK,
    ConfigError,
    RunConfig,
    build_initial_field,
    build_run_config,
    config_lines,
    main,
    parse_config_text,
    read_ledger_csv,
    read_snapshot,
    write_ledger_csv,
    write_snapshot,
)
from pslab.grid import NumericalFailure, PeriodicField
from pslab.models import Peskin2dModel
from pslab.stepper import (
    LEDGER_BLOCK,
    SCHEMES,
    EvolutionAbort,
    LedgerSpec,
    StepperConfig,
    check_pointwise,
    evolve,
    ledger_rows,
)


BASE_CONFIG = {
    "model.tag": "heat",
    "grid.N": "128",
    "stepper.dt": "1e-3",
    "run.T": "0.05",
    "initial.preset": "triangle",
    "initial.amplitude": "0.4",
    "ledger.stride": "5",
    "ledger.derivative_sup": "1,2",
    "output.dir": "out",
}


def config_text(overrides=None, drop=()):
    pairs = dict(BASE_CONFIG)
    pairs.update(overrides or {})
    for key in drop:
        pairs.pop(key, None)
    return "".join(f"{k} = {v}\n" for k, v in pairs.items())


def write_config(tmp_path, name="run.cfg", overrides=None, drop=()):
    path = tmp_path / name
    path.write_text(config_text(overrides, drop))
    return str(path)


CONTOUR_PRESETS = ("ellipse", "circle")
FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def run_configs(draw):
    """A RunConfig as build_run_config would accept it: any model with any
    subset of its parameters, a step count that divides run.T, a preset of
    the model's shape with some of its parameters or a restart file, and
    ledger lists in any order and with repeats."""
    tag = draw(st.sampled_from(list(models.MODELS)))
    cls = models.MODELS[tag]
    params = {name: draw(FINITE) for name in cls.params if draw(st.booleans())}
    n = 2 ** draw(st.integers(4, 11))
    length = (2.0 * np.pi if cls.needs_two_pi
              else draw(st.floats(1e-6, 1e6) | st.just(2.0 * np.pi)))
    schemes = list(SCHEMES)
    try:
        check_pointwise(cls, n, 2 if cls.is_contour else 1)
    except ValueError:
        schemes.remove("frozen_pointwise")
    dt = draw(st.floats(1e-9, 10.0))
    horizon = draw(st.integers(1, 10**5)) * dt

    if draw(st.booleans()):
        initial = {"file": draw(st.text("abc_/.-0123", min_size=1, max_size=12))}
    else:
        preset = draw(st.sampled_from(
            [p for p in _PRESETS if (p in CONTOUR_PRESETS) == cls.is_contour]))
        initial = {"preset": preset}
        for name, default in _PRESETS[preset].items():
            if draw(st.booleans()):
                number = st.integers(0, 64) if isinstance(default, int) else FINITE
                initial[name] = repr(draw(number))

    derivative_sup, holder, theta = [], [], None
    if cls.is_contour:
        theta = draw(st.sampled_from([None, True, False]))
    else:
        derivative_sup = draw(st.lists(st.integers(1, 8), max_size=5))
        kappa = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
        holder = draw(st.lists(st.tuples(st.integers(0, n // 4 - 2), kappa),
                               max_size=5))
        holder += draw(st.lists(st.sampled_from(holder), max_size=2)) if holder else []
    ledger = LedgerSpec(stride=draw(st.integers(1, 10**6)),
                        derivative_sup=derivative_sup, holder_targets=holder,
                        record_theta=theta)
    return RunConfig(
        tag=tag, params=params, n=n, domain_length=length,
        stepper=StepperConfig(dt, draw(st.sampled_from(schemes))),
        horizon=horizon, initial=initial, ledger=ledger,
        output_dir=draw(st.text("abc_/.-0123", min_size=1, max_size=12)),
        seed=draw(st.integers(0, 2**63)))


class TestConfigParsing:
    def test_comments_and_blanks_ignored(self):
        pairs = parse_config_text("# header\n\n a = 1 # trailing\nb=2\n")
        assert pairs == {"a": "1", "b": "2"}

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_text("just words\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("a = 1\na = 2\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown keys"):
            build_run_config(parse_config_text(
                config_text({"extra.knob": "1"})))

    def test_model_param_for_wrong_tag_rejected(self):
        # heat takes no parameters, so model.a must not pass silently
        with pytest.raises(ConfigError, match="unknown keys"):
            build_run_config(parse_config_text(config_text({"model.a": "0.5"})))

    def test_missing_required_key(self):
        with pytest.raises(ConfigError, match="grid.N"):
            build_run_config(parse_config_text(config_text(drop=["grid.N"])))

    def test_bad_grid_sizes(self):
        for n in ("100", "8", "-4", "131072"):
            with pytest.raises(ConfigError, match="power of two"):
                build_run_config(parse_config_text(config_text({"grid.N": n})))

    def test_unknown_tag(self):
        with pytest.raises(ConfigError, match="model.tag"):
            build_run_config(parse_config_text(
                config_text({"model.tag": "advection"})))

    def test_nonlocal_models_pin_domain_length(self):
        with pytest.raises(ConfigError, match="2\\*pi"):
            build_run_config(parse_config_text(config_text(
                {"model.tag": "muskat_st", "grid.L": "5.0"})))

    def test_initial_source_is_exclusive(self):
        with pytest.raises(ConfigError, match="exactly one"):
            build_run_config(parse_config_text(
                config_text({"initial.file": "x.bin"})))
        with pytest.raises(ConfigError, match="exactly one"):
            build_run_config(parse_config_text(
                config_text(drop=["initial.preset", "initial.amplitude"])))

    def test_bad_scheme_and_bool(self):
        with pytest.raises(ConfigError, match="scheme"):
            build_run_config(parse_config_text(
                config_text({"stepper.scheme": "rk4"})))

    def test_bad_ledger_entries(self):
        with pytest.raises(ConfigError, match="stride"):
            build_run_config(parse_config_text(
                config_text({"ledger.stride": "0"})))
        with pytest.raises(ConfigError, match="k:kappa"):
            build_run_config(parse_config_text(
                config_text({"ledger.holder": "1-0.5"})))

    def test_manifest_lists_ledger_targets_sorted_once(self):
        config = build_run_config(parse_config_text(config_text(
            {"ledger.derivative_sup": "3,1,3",
             "ledger.holder": "1:0.5,0:0.25,1:0.5"})))
        lines = config_lines(config)
        assert "ledger.derivative_sup = 1,3" in lines
        assert "ledger.holder = 0:0.25,1:0.5" in lines

    def test_effective_config_round_trips(self):
        config = build_run_config(parse_config_text(config_text(
            {"ledger.holder": "1:0.5", "seed": "7"})))
        text = "\n".join(config_lines(config))
        again = build_run_config(parse_config_text(text))
        assert again == config

    @given(config=run_configs())
    @settings(max_examples=200, deadline=None)
    def test_drawn_config_round_trips(self, config):
        text = "\n".join(config_lines(config))
        assert build_run_config(parse_config_text(text)) == config


class TestSnapshotFormat:
    def test_scalar_round_trip(self, tmp_path):
        path = str(tmp_path / "snap.bin")
        field = PeriodicField(np.sin(np.arange(64) * 0.1))
        write_snapshot(path, field, 0.25)
        back, t = read_snapshot(path)
        assert t == 0.25
        assert back.domain_length == field.domain_length
        np.testing.assert_array_equal(back.samples, field.samples)

    def test_contour_round_trip(self, tmp_path):
        path = str(tmp_path / "snap.bin")
        theta = 2.0 * np.pi * np.arange(32) / 32
        field = PeriodicField(np.stack([np.cos(theta), np.sin(theta)]))
        write_snapshot(path, field, 1.5)
        back, t = read_snapshot(path)
        assert back.components == 2
        np.testing.assert_array_equal(back.samples, field.samples)

    def test_file_size_is_header_plus_data(self, tmp_path):
        path = str(tmp_path / "snap.bin")
        write_snapshot(path, PeriodicField(np.zeros(64)), 0.0)
        assert os.path.getsize(path) == 64 + 8 * 64

    def test_corrupt_files_rejected(self, tmp_path):
        short = tmp_path / "short.bin"
        short.write_bytes(b"PLAB1\x00 too short")
        with pytest.raises(ConfigError, match="truncated"):
            read_snapshot(str(short))

        bad_magic = tmp_path / "magic.bin"
        good = tmp_path / "good.bin"
        write_snapshot(str(good), PeriodicField(np.zeros(64)), 0.0)
        raw = good.read_bytes()
        bad_magic.write_bytes(b"XXXXXX" + raw[6:])
        with pytest.raises(ConfigError, match="not a snapshot"):
            read_snapshot(str(bad_magic))

        clipped = tmp_path / "clipped.bin"
        clipped.write_bytes(raw[:-8])
        with pytest.raises(ConfigError, match="bytes"):
            read_snapshot(str(clipped))

        # the domain length sits at bytes 16-24 of the header
        nan_length = tmp_path / "nan_length.bin"
        nan_length.write_bytes(raw[:16] + np.float64(np.nan).tobytes()
                               + raw[24:])
        with pytest.raises(ConfigError, match="domain_length"):
            read_snapshot(str(nan_length))

        with pytest.raises(ConfigError, match="cannot read snapshot"):
            read_snapshot(str(tmp_path / "nothere.bin"))

    @given(contour=st.booleans(), n=st.sampled_from([16, 32]),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=4, deadline=None)
    def test_every_strict_prefix_exits_2_without_output(self, contour, n, seed):
        rng = np.random.default_rng(seed)
        field = PeriodicField(rng.standard_normal((2, n) if contour else n))
        overrides = {"grid.N": str(n)}
        if contour:
            overrides.update(ELLIPSE)
        with tempfile.TemporaryDirectory() as tmp:
            snap = os.path.join(tmp, "snap.bin")
            out = Path(tmp) / "out"
            write_snapshot(snap, field, 0.5)
            raw = Path(snap).read_bytes()
            overrides.update({"initial.file": snap, "output.dir": str(out)})
            cfg = write_config(Path(tmp), overrides=overrides,
                               drop=("initial.preset",) + NO_DERIVATIVES)
            assert np.array_equal(read_snapshot(snap)[0].samples, field.samples)
            for cut in range(len(raw)):
                Path(snap).write_bytes(raw[:cut])
                assert main(["run", cfg]) == 2, cut
                assert not out.exists(), cut


def csv_header(tmp_path, ledger):
    path = tmp_path / "ledger.csv"
    write_ledger_csv(str(path), ledger)
    return path.read_text().splitlines()[0].split(",")


class TestLedgerCsv:
    def test_column_order_fixed(self, tmp_path):
        # an unsorted spec with a repeated order still gives each column
        # once, in the fixed order
        spec = LedgerSpec(derivative_sup=(2, 1, 2),
                          holder_targets=((1, 0.5), (0, 0.5)))
        x = np.arange(64) * (2.0 * np.pi / 64)
        ledger, _ = ledger_rows([(0.0, PeriodicField(np.cos(x) + 0.3))], spec)
        assert csv_header(tmp_path, ledger) == [
            "t", "l2", "linf", "mean", "osc_linf", "d1_linf", "d2_linf",
            "holder_0_0.5", "holder_1_0.5"]

    def test_component_means_read_from_the_row(self, tmp_path):
        # a 3-component row keeps every mean column, in component order
        field = PeriodicField(np.arange(3.0)[:, None] + np.zeros((3, 32)))
        ledger, _ = ledger_rows([(0.0, field)], LedgerSpec())
        assert csv_header(tmp_path, ledger) == [
            "t", "l2", "linf", "mean_0", "mean_1", "mean_2"]
        table = read_ledger_csv(str(tmp_path / "ledger.csv"))
        assert [float(table[f"mean_{i}"][0]) for i in range(3)] == [0.0, 1.0, 2.0]
        # evolve appends theta after the contour's mean columns
        theta = 2.0 * np.pi * np.arange(32) / 32
        ellipse = PeriodicField(np.stack([1.1 * np.cos(theta),
                                          0.9 * np.sin(theta)]))
        traj = evolve(Peskin2dModel(), ellipse, 0.01, StepperConfig(dt=0.01),
                      LedgerSpec(record_theta=True))
        assert csv_header(tmp_path, traj.ledger) == [
            "t", "l2", "linf", "mean_0", "mean_1", "theta"]

    def test_round_trip(self, tmp_path):
        ledger = {"t": np.array([0.0, 0.1]), "l2": np.array([1.0, 0.9]),
                  "linf": np.array([0.5, 0.45]), "mean": np.array([0.1, 0.1]),
                  "osc_linf": np.array([0.4, 0.35])}
        path = str(tmp_path / "ledger.csv")
        write_ledger_csv(path, ledger)
        table = read_ledger_csv(path)
        np.testing.assert_array_equal(table["t"], [0.0, 0.1])
        np.testing.assert_array_equal(table["l2"], [1.0, 0.9])

    @pytest.mark.parametrize("case", ["scalar", "contour_theta", "abort"])
    def test_trajectory_ledger_round_trips(self, tmp_path, case):
        # the writer takes and the reader returns one format: the same
        # columns, in the same order, with equal values
        class FailsLater(models.McfGraphModel):
            calls = 0

            def remainder_from_rows(self, rows, uh, L):
                self.calls += 1
                if self.calls == 30:
                    raise NumericalFailure("a state the march cannot continue from")
                return super().remainder_from_rows(rows, uh, L)

        spec = LedgerSpec(stride=2, derivative_sup=(1, 2),
                          holder_targets=((0, 0.5), (1, 0.25)))
        kink = PeriodicField(0.4 * np.abs(np.sin(np.arange(64) * (np.pi / 32))))
        if case == "scalar":
            traj = evolve(models.McfGraphModel(), kink, 0.05, StepperConfig(dt=1e-3), spec)
        elif case == "contour_theta":
            theta = 2.0 * np.pi * np.arange(32) / 32
            ellipse = PeriodicField(np.stack([1.1 * np.cos(theta), 0.9 * np.sin(theta)]))
            traj = evolve(Peskin2dModel(), ellipse, 0.1, StepperConfig(dt=0.01),
                          LedgerSpec(record_theta=True))
        else:
            with pytest.raises(EvolutionAbort) as err:
                evolve(FailsLater(), kink, 0.05, StepperConfig(dt=1e-3), spec)
            traj = err.value.trajectory
        assert len(traj.snapshots) > 2
        path = str(tmp_path / "ledger.csv")
        write_ledger_csv(path, traj.ledger)
        table = read_ledger_csv(path)
        assert list(table) == list(traj.ledger)
        for name, col in traj.ledger.items():
            assert np.array_equal(table[name], col), name

    @pytest.mark.parametrize("width", [3, 9])
    def test_bytes_are_the_per_cell_format(self, tmp_path, width):
        # each line is one %-format of its row: its bytes must be those of
        # format(float(v), ".17g") cell by cell, the extremes included, and
        # read back to the same values
        values = [math.inf, -math.inf, math.nan, -0.0, 5e-324,
                  2.2250738585072014e-308, 1.7976931348623157e308, 0.1, 1.0]
        # row r of column i is value r + i, so every value lands in every column
        ledger = {f"c{i}": np.roll(values, -i) for i in range(width)}
        path = tmp_path / "ledger.csv"
        write_ledger_csv(str(path), ledger)
        want = ",".join(ledger) + "\n" + "".join(
            ",".join(format(float(col[r]), ".17g") for col in ledger.values()) + "\n"
            for r in range(len(values)))
        assert path.read_bytes() == want.encode()
        table = read_ledger_csv(str(path))
        for c, col in ledger.items():  # NaN reads back as NaN, -0.0 as -0.0
            assert table[c].tobytes() == col.tobytes()

    def test_non_numeric_entry_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,linf\n0.0,ouch\n")
        with pytest.raises(ConfigError, match="non-numeric"):
            read_ledger_csv(str(path))

    @pytest.mark.parametrize("text, line", [("t,l2\n0,1\n1,2,99\n", 3),
                                            ("t,l2\n0,1\n1\n", 3),
                                            ("t,l2\n\n0,1,2\n1,2\n", 3)],
                             ids=["extra_field", "short_row", "after_blank"])
    def test_row_with_other_field_count_rejected_by_line(self, tmp_path, capsys,
                                                         text, line):
        # an extra field was dropped and a short row called non-numeric
        path = tmp_path / "ragged.csv"
        path.write_text(text)
        with pytest.raises(ConfigError, match=f"line {line} has"):
            read_ledger_csv(str(path))
        assert main(["ratefit", str(path), "--column", "l2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"line {line}" in captured.err

    def test_repeated_header_name_rejected(self, tmp_path, capsys):
        # the later l2 column used to replace the earlier one, so ratefit
        # fitted [2, 4]
        path = tmp_path / "repeated.csv"
        path.write_text("t,l2,l2\n0,1,2\n1,3,4\n")
        with pytest.raises(ConfigError, match="column l2"):
            read_ledger_csv(str(path))
        assert main(["ratefit", str(path), "--column", "l2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "column l2" in captured.err

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text("t,l2\n\n0,1\n\n1,2\n\n")
        table = read_ledger_csv(str(path))
        assert table["t"].tolist() == [0.0, 1.0]
        assert table["l2"].tolist() == [1.0, 2.0]


def write_ledger_csv_at_once(path, ledger):
    """write_ledger_csv as it formatted every row in one pass, each whole
    column converted to Python floats first."""
    line = ",".join(["%.17g"] * len(ledger)) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(ledger) + "\n")
        fh.writelines(line % row for row in zip(*(col.tolist() for col in ledger.values())))


class TestLedgerCsvChunks:
    """write_ledger_csv formats LEDGER_CSV_CHUNK rows at a time and writes
    the bytes of the writer that formatted them all at once."""

    SCALAR = ("t", "l2", "linf", "mean", "osc_linf", "d1_linf", "d2_linf",
              "holder_0_0.5", "holder_1_0.25")
    CONTOUR = ("t", "l2", "linf", "mean_0", "mean_1", "theta")

    @pytest.mark.parametrize("names", [SCALAR, CONTOUR], ids=["scalar", "contour"])
    @pytest.mark.parametrize("rows", [1, LEDGER_CSV_CHUNK - 1, LEDGER_CSV_CHUNK,
                                      LEDGER_CSV_CHUNK + 1, 3 * LEDGER_CSV_CHUNK + 5])
    def test_bytes_are_the_one_pass_writer(self, tmp_path, names, rows):
        rng = np.random.default_rng(rows)
        ledger = {name: rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300, rows)
                  for name in names}
        ledger["t"] = np.arange(rows) * 1e-5
        got, want = tmp_path / "chunked.csv", tmp_path / "at_once.csv"
        write_ledger_csv(str(got), ledger)
        write_ledger_csv_at_once(str(want), ledger)
        assert got.read_bytes() == want.read_bytes()
        assert len(got.read_text().splitlines()) == rows + 1

    def test_empty_ledger_is_its_header(self, tmp_path):
        for ledger in ({}, {"t": np.empty(0), "l2": np.empty(0)}):
            got, want = tmp_path / "chunked.csv", tmp_path / "at_once.csv"
            write_ledger_csv(str(got), ledger)
            write_ledger_csv_at_once(str(want), ledger)
            assert got.read_bytes() == want.read_bytes()


def read_ledger_csv_by_csv_module(path):
    """read_ledger_csv as it was built on csv.reader, with one float() per
    cell: the oracle of the np.loadtxt reader."""
    try:
        with open(path, "r", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise ConfigError(f"{path}: empty CSV")
            rows = []
            for row in reader:
                if not row:
                    continue
                if len(row) != len(header):
                    raise ConfigError(f"{path}: line {reader.line_num} has {len(row)} "
                                      f"fields, the header {len(header)}")
                rows.append(row)
    except OSError as exc:
        raise ConfigError(f"cannot read CSV: {exc}")
    except csv.Error as exc:
        raise ConfigError(f"{path}: {exc}")
    if not rows:
        raise ConfigError(f"{path}: no data rows")
    out = {}
    for name, column in zip(header, zip(*rows)):
        if name in out:
            raise ConfigError(f"{path}: column {name} appears twice in the header")
        try:
            out[name] = np.fromiter(map(float, column), float, len(column))
        except ValueError:
            raise ConfigError(f"{path}: non-numeric entry in column {name}")
    return out


NUMBER_CELLS = st.one_of(
    st.floats().map(lambda v: "%.17g" % v), st.floats().map(repr),
    st.sampled_from(["inf", "-inf", "nan", "-nan", "+nan", "Infinity", "-INF",
                     "NaN", "1e999", "-1e-400", "5.", ".5", "+.5e-3", " 1.5",
                     "2.5 ", "\t3", "\x0b4\x0c", "\xa05"]))
OTHER_CELLS = st.sampled_from(["", " ", "\t", "ouch", "#", "# note", "1e", "e5",
                               ".", "0x10", "1 2", "--1", "1d0", "nan(1)", "\x00"])
HEADER_NAMES = st.sampled_from(["t", "l2", "linf", "d2_linf", "holder_1_0.5", "",
                                " t", "#t"])


@st.composite
def ledger_texts(draw):
    """Ledger texts as pslab writes them and as hands and tools alter them:
    %.17g or repr cells, inf and nan, other spellings and stray spaces,
    non-numeric cells, blank, whitespace-only and # lines, ragged rows,
    repeated header names and mixed \\n, \\r\\n and \\r endings."""
    if draw(st.integers(0, 19)) == 0:
        return ""
    width = draw(st.integers(1, 4))
    lines = [",".join(draw(st.lists(HEADER_NAMES, min_size=width, max_size=width)))
             if draw(st.integers(0, 19)) else ""]
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.integers(0, 19))
        if kind == 0:
            lines.append(draw(st.sampled_from(["", " ", "\t ", "# comment"])))
            continue
        cells = width if kind > 2 else draw(st.integers(1, 5))
        lines.append(",".join(draw(OTHER_CELLS if draw(st.integers(0, 29)) == 0
                                   else NUMBER_CELLS) for _ in range(cells)))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=len(lines),
                         max_size=len(lines)))
    if draw(st.booleans()):
        ends[-1] = ""
    return "".join(line + end for line, end in zip(lines, ends))


def read_outcome(read, path):
    """The column names and bytes a reader returns, or its ConfigError."""
    try:
        return [(name, column.dtype, column.tobytes())
                for name, column in read(path).items()]
    except ConfigError as exc:
        return str(exc)


class TestLedgerReader:
    """read_ledger_csv splits each line at its commas and parses the table
    with np.loadtxt: on every text pslab writes, and the texts below, it
    returns what the csv.reader reader returned, or raises its ConfigError."""

    @given(text=ledger_texts())
    @settings(max_examples=400, deadline=None)
    def test_reader_is_the_csv_module_reader(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("csv") / "ledger.csv"
        path.write_bytes(text.encode())
        assert read_outcome(read_ledger_csv, str(path)) == \
            read_outcome(read_ledger_csv_by_csv_module, str(path))

    @pytest.mark.parametrize("text, csv_module, loadtxt", [
        ('t,a\n0,"1"\n', [1.0], "non-numeric entry in column a"),
        ('t,a\n"0,1"\n', "line 2 has 1 fields, the header 2",
         "non-numeric entry in column t"),
        ("t,a\n0,1_5\n", [15.0], "non-numeric entry in column a"),
        ("t,a\n0,\u0661\n", [1.0], "non-numeric entry in column a"),
        ("t,a\n0,\x1c1\n", "non-numeric entry in column a", [1.0]),
        ("t,a\n0," + "1" * 131073 + "\n", "field larger than field limit (131072)",
         [np.inf]),
    ], ids=["quoted_cell", "quoted_comma", "underscores", "non_ascii_digit",
            "ascii_separator", "field_over_limit"])
    def test_inputs_pslab_never_writes(self, tmp_path, text, csv_module, loadtxt):
        # the only texts on which the readers part: quotes, digits grouped by
        # underscores, non-ASCII digits, the ASCII separators 0x1c-0x1f
        # beside a number, and a field over csv's limit
        path = tmp_path / "ledger.csv"
        path.write_bytes(text.encode())
        for read, want in [(read_ledger_csv_by_csv_module, csv_module),
                           (read_ledger_csv, loadtxt)]:
            if isinstance(want, str):
                with pytest.raises(ConfigError, match=re.escape(want)):
                    read(str(path))
            else:
                assert read(str(path))["a"].tolist() == want


class TestMainInOneProcess:
    def test_calls_behave_as_in_a_fresh_process(self, tmp_path, capsys):
        # main builds its parser once per process: run, ratefit and a bad
        # argument in turn must print, return and write what each prints,
        # returns and writes with the parser and version built afresh
        out = tmp_path / "out"
        cfg = write_config(tmp_path, overrides={"output.dir": str(out)})
        ledger = str(out / "ledger.csv")
        calls = [["run", cfg], ["ratefit", ledger, "--column", "l2", "--window", "1e-2:5e-2"],
                 ["ratefit", ledger, "--kind", "bogus"],
                 ["ratefit", ledger, "--kind", "exponential", "--window", "1e-2:5e-2",
                  "--expect", "rate=1,tol=0"],
                 ["verify"], ["run", cfg]]

        def outcome(argv):
            try:
                status = main(argv)
            except SystemExit as exc:
                status = ("exit", exc.code)
            printed = capsys.readouterr()
            files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
            return status, printed.out, printed.err, files

        fresh = []
        for argv in calls:
            cli._build_parser.cache_clear()
            cli._version.cache_clear()
            fresh.append(outcome(argv))
        assert [status for status, *_ in fresh] == [0, 0, ("exit", 2), 1, ("exit", 2), 0]
        assert "invalid choice: 'bogus'" in fresh[2][2]
        assert cli._build_parser() is cli._build_parser()
        assert [outcome(argv) for argv in calls] == fresh


class TestRunCommand:
    def test_heat_run_l2_decreases(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, overrides={"output.dir": str(out)})
        assert main(["run", cfg]) == 0
        for name in ("initial.bin", "final.bin", "ledger.csv",
                     "manifest.txt"):
            assert (out / name).exists()
        table = read_ledger_csv(str(out / "ledger.csv"))
        assert np.all(np.diff(table["l2"]) < 0)

    def test_identical_configs_give_identical_csv(self, tmp_path):
        cfg_a = write_config(tmp_path, "a.cfg",
                             {"output.dir": str(tmp_path / "a"),
                              "initial.preset": "random_band",
                              "initial.kmin": "1", "initial.kmax": "8",
                              "seed": "42"},
                             drop=["initial.amplitude"])
        cfg_b = write_config(tmp_path, "b.cfg",
                             {"output.dir": str(tmp_path / "b"),
                              "initial.preset": "random_band",
                              "initial.kmin": "1", "initial.kmax": "8",
                              "seed": "42"},
                             drop=["initial.amplitude"])
        assert main(["run", cfg_a]) == 0
        assert main(["run", cfg_b]) == 0
        assert (tmp_path / "a" / "ledger.csv").read_bytes() == \
            (tmp_path / "b" / "ledger.csv").read_bytes()
        assert (tmp_path / "a" / "final.bin").read_bytes() == \
            (tmp_path / "b" / "final.bin").read_bytes()

    def test_manifest_reproduces_run(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, overrides={"output.dir": str(out)})
        assert main(["run", cfg]) == 0
        first = (out / "ledger.csv").read_bytes()
        # point the manifest at a fresh directory and replay it
        manifest = (out / "manifest.txt").read_text().replace(
            f"output.dir = {out}", f"output.dir = {tmp_path / 'replay'}")
        replay_cfg = tmp_path / "replay.cfg"
        replay_cfg.write_text(manifest)
        assert main(["run", str(replay_cfg)]) == 0
        assert (tmp_path / "replay" / "ledger.csv").read_bytes() == first

    def test_manifest_reproduces_exact_holder_targets(self, tmp_path):
        # kappa beyond 6 significant digits, and two targets that agree to
        # 6 digits, each keep their own exact column through the manifest
        out = tmp_path / "out"
        cfg = write_config(tmp_path, overrides={
            "output.dir": str(out),
            "ledger.holder": "0:0.123456789,0:0.5,0:0.5000001"})
        assert main(["run", cfg]) == 0
        first = (out / "ledger.csv").read_bytes()
        assert [c for c in first.decode().splitlines()[0].split(",")
                if c.startswith("holder_")] == [
            "holder_0_0.123456789", "holder_0_0.5", "holder_0_0.5000001"]
        manifest = (out / "manifest.txt").read_text()
        assert "ledger.holder = 0:0.123456789,0:0.5,0:0.5000001\n" in manifest
        replay_cfg = tmp_path / "replay.cfg"
        replay_cfg.write_text(manifest.replace(
            f"output.dir = {out}", f"output.dir = {tmp_path / 'replay'}"))
        assert main(["run", str(replay_cfg)]) == 0
        assert (tmp_path / "replay" / "ledger.csv").read_bytes() == first

    def test_restart_from_snapshot(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, overrides={"output.dir": str(out)})
        assert main(["run", cfg]) == 0
        restart = write_config(
            tmp_path, "restart.cfg",
            {"output.dir": str(tmp_path / "out2"),
             "initial.file": str(out / "final.bin")},
            drop=["initial.preset", "initial.amplitude"])
        assert main(["run", restart]) == 0
        handoff, _ = read_snapshot(str(tmp_path / "out2" / "initial.bin"))
        final, _ = read_snapshot(str(out / "final.bin"))
        np.testing.assert_array_equal(handoff.samples, final.samples)

    def test_restart_runs_on_grid_length(self, tmp_path):
        # a snapshot length within the relative 1e-12 of grid.L but beyond
        # the 2pi-torus tolerance: the run and its snapshots use grid.L
        snap = str(tmp_path / "snap.bin")
        x = np.arange(64) * (2.0 * np.pi / 64)
        write_snapshot(snap, PeriodicField(0.01 * np.cos(x),
                                           domain_length=2.0 * np.pi + 5e-12), 0.0)
        out = tmp_path / "out"
        restart = write_config(
            tmp_path, "restart.cfg",
            {"model.tag": "muskat_st", "grid.N": "64", "stepper.dt": "1e-6",
             "run.T": "1e-5", "initial.file": snap, "output.dir": str(out)},
            drop=["initial.preset", "initial.amplitude"])
        assert main(["run", restart]) == 0
        for name in ("initial.bin", "final.bin"):
            field, _ = read_snapshot(str(out / name))
            assert field.domain_length == 2.0 * np.pi

    def test_snapshot_grid_mismatch_rejected(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, overrides={"output.dir": str(out)})
        assert main(["run", cfg]) == 0
        restart = write_config(
            tmp_path, "restart.cfg",
            {"output.dir": str(tmp_path / "out2"), "grid.N": "256",
             "initial.file": str(out / "final.bin")},
            drop=["initial.preset", "initial.amplitude"])
        assert main(["run", restart]) == 2

    @pytest.mark.parametrize("tag, samples", [
        ("heat", np.ones((3, 64))),
        ("peskin2d", np.ones(64)),
    ])
    def test_snapshot_component_mismatch_rejected(self, tmp_path, capsys,
                                                  tag, samples):
        snap = str(tmp_path / "snap.bin")
        write_snapshot(snap, PeriodicField(samples), 0.0)
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path, overrides={"model.tag": tag, "grid.N": "64",
                                 "initial.file": snap, "output.dir": str(out)},
            drop=["initial.preset", "initial.amplitude",
                  "ledger.derivative_sup"])
        assert main(["run", cfg]) == 2
        want = "scalar field" if tag == "heat" else "2-component contour"
        assert want in capsys.readouterr().err
        assert not out.exists()

    def test_output_root_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PLAB_OUTPUT_ROOT", str(tmp_path / "root"))
        cfg = write_config(tmp_path, overrides={"output.dir": "nested/run1"})
        assert main(["run", cfg]) == 0
        assert (tmp_path / "root" / "nested" / "run1" / "ledger.csv").exists()

    def test_unwritable_output_dir(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        cfg = write_config(
            tmp_path, overrides={"output.dir": str(blocker / "out")})
        assert main(["run", cfg]) == 2
        assert "output dir" in capsys.readouterr().err

    def test_parse_error_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, overrides={"extra.knob": "1"})
        assert main(["run", cfg]) == 2
        assert "unknown keys" in capsys.readouterr().err
        assert main(["run", str(tmp_path / "missing.cfg")]) == 2

    def test_contour_scalar_mismatch_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = write_config(tmp_path,
                           overrides={"initial.preset": "ellipse",
                                      "output.dir": str(out)},
                           drop=["initial.amplitude"])
        assert main(["run", cfg]) == 2
        assert "scalar" in capsys.readouterr().err
        assert not out.exists()

    def test_theta_abort_exits_3_with_diagnostics(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, overrides={
            "model.tag": "peskin2d", "model.theta_cap": "1.2",
            "initial.preset": "ellipse", "initial.a": "1.1",
            "initial.b": "0.9", "stepper.dt": "0.01", "run.T": "1.0",
            "output.dir": str(out)},
            drop=["initial.amplitude", "ledger.derivative_sup"])
        assert main(["run", cfg]) == 3
        assert "aborted" in capsys.readouterr().err
        diagnostics = (out / "diagnostics.txt").read_text()
        assert "stretch" in diagnostics
        assert (out / "manifest.txt").exists()

    def test_theta_column_recorded_on_request(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, overrides={
            "model.tag": "peskin2d", "initial.preset": "ellipse",
            "initial.a": "1.1", "initial.b": "0.9", "stepper.dt": "0.01",
            "run.T": "0.1", "ledger.theta": "true", "output.dir": str(out)},
            drop=["initial.amplitude", "ledger.derivative_sup"])
        assert main(["run", cfg]) == 0
        header = (out / "ledger.csv").read_text().splitlines()[0]
        assert "theta" in header.split(",")

    def test_internal_error_exits_4_without_diagnostics(self, tmp_path, capsys,
                                                        monkeypatch):
        # a bug in a model is neither a config error nor a numerical abort:
        # its traceback goes to stderr and the run leaves no diagnostics.txt
        class Unfinished(models.McfGraphModel):
            calls = 0

            def remainder_from_rows(self, rows, uh, L):
                self.calls += 1
                if self.calls == 5:
                    raise NotImplementedError("forgot a branch")
                return super().remainder_from_rows(rows, uh, L)

        monkeypatch.setitem(models.MODELS, "mcf_graph", Unfinished)
        out = tmp_path / "out"
        cfg = write_config(tmp_path, overrides={"model.tag": "mcf_graph",
                                                "output.dir": str(out)})
        assert main(["run", cfg]) == 4
        err = capsys.readouterr().err
        assert "Traceback" in err
        assert "NotImplementedError: forgot a branch" in err
        assert (out / "manifest.txt").exists()
        assert not (out / "diagnostics.txt").exists()

    def test_theta_abort_without_theta_column_exits_3(self, tmp_path, capsys):
        # the cap is checked on every accepted state, recorded or not
        out = tmp_path / "out"
        cfg = write_config(tmp_path, overrides={
            "model.tag": "peskin2d", "model.theta_cap": "1.2",
            "initial.preset": "ellipse", "stepper.dt": "0.01",
            "run.T": "0.1", "ledger.theta": "false", "output.dir": str(out)},
            drop=["initial.amplitude", "ledger.derivative_sup"])
        assert main(["run", cfg]) == 3
        assert "stretch" in capsys.readouterr().err
        assert "stretch" in (out / "diagnostics.txt").read_text()

    def test_fractional_step_count_exits_2_before_output(self, tmp_path,
                                                         capsys):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, overrides={
            "grid.N": "64", "stepper.dt": "0.01", "run.T": "0.015",
            "output.dir": str(out)})
        assert main(["run", cfg]) == 2
        assert "integer number" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("cap", ["nan", "0", "-1.5"])
    def test_bad_theta_cap_exits_2_before_output(self, tmp_path, capsys, cap):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, overrides={
            "model.tag": "peskin2d", "model.theta_cap": cap,
            "grid.N": "64", "initial.preset": "ellipse", "stepper.dt": "0.01",
            "run.T": "0.1", "output.dir": str(out)},
            drop=["initial.amplitude", "ledger.derivative_sup"])
        assert main(["run", cfg]) == 2
        assert "theta_cap" in capsys.readouterr().err
        assert not out.exists()

    def test_theta_on_scalar_model_exits_2_before_output(self, tmp_path,
                                                         capsys):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, overrides={
            "grid.N": "64", "ledger.theta": "true", "output.dir": str(out)})
        assert main(["run", cfg]) == 2
        assert "ledger.theta" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_ledger_row_exits_3(self, tmp_path, capsys):
        # a finite triangle whose second derivative overflows: the first
        # ledger row cannot be built, so no row is kept
        out = tmp_path / "out"
        cfg = write_config(tmp_path, overrides={
            "grid.N": "256", "initial.amplitude": "1e305",
            "ledger.derivative_sup": "2", "output.dir": str(out)})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["run", cfg]) == 3
        assert not [w for w in caught if w.category is RuntimeWarning]
        assert "ledger row" in capsys.readouterr().err
        assert set(os.listdir(out)) == {"manifest.txt", "diagnostics.txt"}
        assert "ledger row" in (out / "diagnostics.txt").read_text()

    def test_overflowing_norm_exits_3(self, tmp_path, capsys):
        # finite samples whose l2 is beyond the float range: the first
        # ledger row raises instead of recording inf
        snap = str(tmp_path / "snap.bin")
        write_snapshot(snap, PeriodicField(np.repeat([1.5e308, -1.5e308], 32)), 0.0)
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path, overrides={"grid.N": "64", "initial.file": snap,
                                 "output.dir": str(out)},
            drop=["initial.preset", "initial.amplitude",
                  "ledger.derivative_sup"])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["run", cfg]) == 3
        assert not [w for w in caught if w.category is RuntimeWarning]
        assert "ledger row" in capsys.readouterr().err
        assert set(os.listdir(out)) == {"manifest.txt", "diagnostics.txt"}

    @pytest.mark.parametrize("key, value", [("ledger.derivative_sup", "1"),
                                            ("ledger.holder", "1:0.5")])
    def test_contour_ledger_columns_exit_2(self, tmp_path, capsys, key, value):
        # a contour ledger has no derivative or Holder columns to write
        out = tmp_path / "out"
        contour = {"model.tag": "peskin2d", "initial.preset": "ellipse",
                   "stepper.dt": "0.01", "output.dir": str(out)}
        drop = ["initial.amplitude", "ledger.derivative_sup"]
        build_run_config(parse_config_text(config_text(contour, drop)))
        cfg = write_config(tmp_path, overrides=dict(contour, **{key: value}),
                           drop=[k for k in drop if k != key])
        assert main(["run", cfg]) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    def test_stability_refusal_exits_3(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, overrides={
            "model.tag": "mcf_graph", "grid.N": "256",
            "initial.amplitude": "1.5", "stepper.dt": "1.0",
            "run.T": "4.0", "output.dir": str(out)})
        assert main(["run", cfg]) == 3
        assert "stability" in capsys.readouterr().err
        assert "stability" in (out / "diagnostics.txt").read_text()

    def test_value_error_from_march_exits_2(self, tmp_path, monkeypatch,
                                            capsys):
        def fake_evolve(*args, **kwargs):
            raise ValueError("not a stability refusal, despite the word")

        monkeypatch.setattr("pslab.cli.evolve", fake_evolve)
        cfg = write_config(tmp_path,
                           overrides={"output.dir": str(tmp_path / "out")})
        assert main(["run", cfg]) == 2
        assert "stability" in capsys.readouterr().err
        assert not (tmp_path / "out" / "diagnostics.txt").exists()

    def test_refused_and_aborted_runs_leave_same_artifacts(self, tmp_path):
        refused, aborted = tmp_path / "refused", tmp_path / "aborted"
        cfg = write_config(tmp_path, "refused.cfg", overrides={
            "model.tag": "mcf_graph", "grid.N": "256",
            "initial.amplitude": "1.5", "stepper.dt": "1.0",
            "run.T": "4.0", "output.dir": str(refused)})
        assert main(["run", cfg]) == 3
        # h < 0 somewhere at t = 0: the guard's remainder call raises
        # PositivityError before the first step
        cfg = write_config(tmp_path, "aborted.cfg", overrides={
            "model.tag": "surface_diffusion_axi", "model.hbar0": "2.0",
            "initial.preset": "sd_cylinder", "initial.mean": "1.0",
            "initial.amplitude": "1.5", "output.dir": str(aborted)},
            drop=["ledger.derivative_sup"])
        assert main(["run", cfg]) == 3
        expected = {"manifest.txt", "diagnostics.txt", "initial.bin",
                    "final.bin", "ledger.csv"}
        assert set(os.listdir(refused)) == expected
        assert set(os.listdir(aborted)) == expected

        def keys(run):
            text = (run / "diagnostics.txt").read_text()
            return [line.partition(" = ")[0] for line in text.splitlines()]

        assert keys(refused) == keys(aborted) == ["aborted_at", "reason"]
        assert "positive" in (aborted / "diagnostics.txt").read_text()

    def test_reused_dir_after_abort_keeps_no_stale_diagnostics(self, tmp_path):
        # an exit-3 run that keeps no row, then a complete run into its
        # directory: the old diagnostics.txt (aborted_at = 0) goes
        out = tmp_path / "out"
        out.mkdir()
        (out / "notes.txt").write_text("kept")
        overflow = write_config(tmp_path, "overflow.cfg", overrides={
            "grid.N": "256", "initial.amplitude": "1e305", "output.dir": str(out)})
        assert main(["run", overflow]) == 3
        assert "aborted_at = 0" in (out / "diagnostics.txt").read_text()
        assert main(["run", write_config(tmp_path, overrides={"output.dir": str(out)})]) == 0
        assert set(os.listdir(out)) == {"manifest.txt", "initial.bin", "final.bin",
                                        "ledger.csv", "notes.txt"}

    def test_reused_dir_after_success_keeps_no_stale_outputs(self, tmp_path):
        # the reverse order: only manifest.txt and diagnostics.txt are left
        out = tmp_path / "out"
        assert main(["run", write_config(tmp_path, overrides={"output.dir": str(out)})]) == 0
        overflow = write_config(tmp_path, "overflow.cfg", overrides={
            "grid.N": "256", "initial.amplitude": "1e305", "output.dir": str(out)})
        assert main(["run", overflow]) == 3
        assert set(os.listdir(out)) == {"manifest.txt", "diagnostics.txt"}
        assert "initial.amplitude = 1e305" in (out / "manifest.txt").read_text()

    def test_pointwise_dt_guard_then_reused_dir(self, tmp_path):
        # muskat_st's frozen_pointwise march: dt = 1e-3 is over the guard's
        # bound and refused before the first step, dt = 1e-4 runs to the
        # end; an overflow abort into that run's directory then leaves only
        # its own manifest and diagnostics
        pointwise = {"model.tag": "muskat_st", "grid.N": "256",
                     "stepper.scheme": "frozen_pointwise",
                     "initial.preset": "cosine", "initial.amplitude": "0.5"}
        defaults = ("ledger.stride", "ledger.derivative_sup")
        refused, reused = tmp_path / "refused", tmp_path / "reused"
        cfg = write_config(tmp_path, "refused.cfg", drop=defaults, overrides=dict(
            pointwise, **{"stepper.dt": "1e-3", "output.dir": str(refused)}))
        assert main(["run", cfg]) == 3
        diagnostics = (refused / "diagnostics.txt").read_text()
        assert "aborted_at = 0" in diagnostics.splitlines()
        assert "stability bound" in diagnostics
        cfg = write_config(tmp_path, "accepted.cfg", drop=defaults, overrides=dict(
            pointwise, **{"stepper.dt": "1e-4", "output.dir": str(reused)}))
        assert main(["run", cfg]) == 0
        overflow = write_config(tmp_path, "overflow.cfg", drop=("ledger.stride",), overrides={
            "grid.N": "256", "initial.amplitude": "1e305", "ledger.derivative_sup": "2",
            "output.dir": str(reused)})
        assert main(["run", overflow]) == 3
        assert set(os.listdir(reused)) == {"manifest.txt", "diagnostics.txt"}

    def test_unremovable_stale_artifact_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        (out / "ledger.csv").mkdir(parents=True)
        cfg = write_config(tmp_path, overrides={"output.dir": str(out)})
        assert main(["run", cfg]) == 2
        assert "output dir" in capsys.readouterr().err
        assert set(os.listdir(out)) == {"ledger.csv"}

    def test_surface_diffusion_run_records_theta_never(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, overrides={
            "model.tag": "surface_diffusion_axi", "model.hbar0": "2.0",
            "initial.preset": "sd_cylinder", "initial.mean": "2.0",
            "initial.amplitude": "0.01", "stepper.dt": "1e-3",
            "run.T": "0.01", "output.dir": str(out)},
            drop=["ledger.derivative_sup"])
        assert main(["run", cfg]) == 0
        table = read_ledger_csv(str(out / "ledger.csv"))
        assert "theta" not in table
        assert "mean" in table


class TestRunMemory:
    def test_stride_one_run_holds_a_bounded_number_of_states(self, tmp_path,
                                                              monkeypatch):
        # a run writes only its first and last states, so of the 400 states
        # its steps build it holds the latest, the one before it and those
        # waiting for ledger rows, never every kept state
        built, most = [], 0
        step = stepper.imex_frozen_phi_step

        def counting_step(*args):
            nonlocal most
            result = step(*args)
            built.append(weakref.ref(result[0]))
            most = max(most, sum(ref() is not None for ref in built))
            return result

        monkeypatch.setattr(stepper, "imex_frozen_phi_step", counting_step)
        out = tmp_path / "out"
        cfg = write_config(tmp_path, overrides={
            "model.tag": "mcf_graph", "grid.N": "64", "stepper.dt": "1e-4",
            "run.T": "0.04", "ledger.stride": "1", "output.dir": str(out)})
        assert main(["run", cfg]) == 0
        assert len(built) == 400
        assert most <= LEDGER_BLOCK + 3
        table = read_ledger_csv(str(out / "ledger.csv"))
        assert len(table["t"]) == 401
        _, t = read_snapshot(str(out / "final.bin"))
        assert t == table["t"][-1]


ELLIPSE = {"model.tag": "peskin2d", "initial.preset": "ellipse",
           "stepper.dt": "0.01", "run.T": "0.1"}
NO_DERIVATIVES = ("initial.amplitude", "ledger.derivative_sup")


def run_python_output(cwd, code, *args):
    """`code` run with `args` as its sys.argv[1:] by a fresh interpreter
    that imports this pslab: (exit code, stdout bytes, stderr)."""
    env = dict(os.environ)
    src = str(Path(pslab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code, *args], cwd=cwd, env=env,
                          capture_output=True, timeout=300)
    return proc.returncode, proc.stdout, proc.stderr.decode(errors="replace")


def run_python(cwd, code, *args):
    """run_python_output without the stdout: (exit code, stderr)."""
    code, _, err = run_python_output(cwd, code, *args)
    return code, err


def run_pslab(cwd, *args):
    """The pslab console entry point in a fresh interpreter that imports
    this pslab: (exit code, stderr)."""
    return run_python(cwd, "import sys; from pslab.cli import main; sys.exit(main())",
                      *args)


THINFILM_CFG = """model.tag = thinfilm_exp
grid.N = 512
stepper.dt = 1e-5
run.T = 1e-3
initial.preset = triangle
initial.amplitude = 2e-3
ledger.derivative_sup = 3
"""

SD_CFG = """model.tag = surface_diffusion_axi
model.hbar0 = 2
grid.N = 256
stepper.dt = 1e-3
run.T = 0.1
initial.preset = sd_cylinder
"""

BLOCKS_CFG = """model.tag = mcf_graph
grid.N = 512
stepper.dt = 1e-4
run.T = 3.6e-3
initial.preset = triangle
initial.amplitude = 0.4
ledger.derivative_sup = 1,2
ledger.holder = 0:0.5,1:0.5
"""

POINTWISE_CFG = """model.tag = mcf_graph
grid.N = 512
stepper.dt = 1e-4
stepper.scheme = frozen_pointwise
run.T = 1e-2
initial.preset = triangle
initial.amplitude = 0.4
ledger.derivative_sup = 2
"""


class TestRerunsInFreshInterpreters:
    """A config run twice, each time by a new interpreter, exits 0 without
    a RuntimeWarning and writes the same final.bin and ledger.csv bytes; a
    verify suite run so prints the same stdout bytes."""

    @staticmethod
    def run_twice(tmp_path, name, text):
        for run in "ab":
            cfg = tmp_path / f"{name}-{run}.cfg"
            cfg.write_text(f"{text}output.dir = runs/{name}-{run}\n")
            code, err = run_pslab(tmp_path, "run", cfg.name)
            assert code == 0, err
            assert "RuntimeWarning" not in err
        a, b = (tmp_path / "runs" / f"{name}-{run}" for run in "ab")
        for out in ("final.bin", "ledger.csv"):
            assert (a / out).read_bytes() == (b / out).read_bytes()
        return a

    @pytest.mark.parametrize("name, text", [("thinfilm", THINFILM_CFG),
                                            ("sd", SD_CFG)], ids=["thinfilm", "sd"])
    def test_spectral_space_remainders(self, tmp_path, name, text):
        self.run_twice(tmp_path, name, text)

    def test_pointwise_frozen_march(self, tmp_path):
        self.run_twice(tmp_path, "pointwise", POINTWISE_CFG)

    @pytest.mark.parametrize("suite", ["kernels", "operators", "models"])
    def test_verify_suites(self, tmp_path, suite):
        outs = []
        for _ in "ab":
            code, out, err = run_python_output(
                tmp_path, "import sys; from pslab.cli import main; sys.exit(main())",
                "verify", suite)
            assert code == 0, err
            assert "RuntimeWarning" not in err
            outs.append(out)
        assert outs[0] == outs[1]
        assert len(outs[0].splitlines()) >= 4

    def test_stride_one_ledger_rows_built_in_blocks(self, tmp_path):
        out = self.run_twice(tmp_path, "blocks", BLOCKS_CFG)
        assert len((out / "ledger.csv").read_text().splitlines()) - 1 == 37
        code, err = run_pslab(tmp_path, "ratefit", str(out / "ledger.csv"),
                              "--column", "d2_linf", "--window", "3e-4:3.6e-3",
                              "--expect", "exponent=-0.5,tol=0.1")
        assert code == 0, err
        assert "RuntimeWarning" not in err


# with scipy blocked, so that importing any of it fails with the importer's
# traceback: `pslab run` of each config in sys.argv, a ratefit of the heat
# ledger, `pslab verify models` and one Dirichlet-Neumann call per backend in
# one interpreter, which then fails naming every scipy module it holds
RUNS_THEN_SCIPY_MODULES = """import sys
sys.modules["scipy"] = None
import numpy as np
from pslab.cli import main
from pslab.grid import PeriodicField
from pslab.nonlocal_ops import dirichlet_neumann_op
for cfg in sys.argv[1:]:
    assert main(["run", cfg]) == 0, cfg
assert main(["ratefit", "runs/heat/ledger.csv", "--column", "d2_linf",
             "--window", "5e-3:5e-2"]) == 0
assert main(["verify", "models"]) == 0
f = PeriodicField(np.cos(np.arange(64) * (2 * np.pi / 64)))
for backend in ("fourier", "quadrature", "checked"):
    dirichlet_neumann_op(f, 0.5, +1, backend=backend)
loaded = sorted(name for name, module in sys.modules.items()
                if name.partition(".")[0] == "scipy" and module is not None)
sys.exit(f"scipy loaded: {loaded}" if loaded else 0)
"""


class TestScipyLoadedOnDemand:
    """scipy is imported only by the quadratures of `pslab verify kernels`
    and `verify operators`: no model run, ratefit, `verify models` or
    Dirichlet-Neumann backend loads it."""

    RUNS = {
        "heat": {},
        "varcoef_heat": {},
        "mcf_graph": {},
        "thinfilm_exp": {"initial.amplitude": "2e-3", "stepper.dt": "1e-5",
                         "run.T": "1e-4"},
        "surface_diffusion_axi": {"model.hbar0": "2.0", "run.T": "0.01",
                                  "initial.preset": "sd_cylinder",
                                  "initial.amplitude": "0.01"},
        "muskat_st": {"initial.preset": "cosine", "initial.amplitude": "0.01",
                      "stepper.dt": "1e-4", "run.T": "1e-3"},
    }

    def write_runs(self, tmp_path):
        names = []
        for tag, overrides in self.RUNS.items():
            names.append(write_config(tmp_path, f"{tag}.cfg", overrides=dict(
                overrides, **{"model.tag": tag, "grid.N": "64",
                              "output.dir": f"runs/{tag}"})))
        names.append(write_config(tmp_path, "peskin2d.cfg", overrides=dict(
            ELLIPSE, **{"grid.N": "64", "output.dir": "runs/peskin2d"}),
            drop=NO_DERIVATIVES))
        for a in ("0.5", "0.25"):
            names.append(write_config(tmp_path, f"nonlocal_mcf_{a}.cfg", overrides={
                "model.tag": "nonlocal_mcf", "model.a": a, "grid.N": "64",
                "run.T": "0.005", "output.dir": f"runs/nonlocal_mcf_{a}"}))
        return names

    def test_runs_and_ratefit_never_import_scipy(self, tmp_path):
        code, err = run_python(tmp_path, RUNS_THEN_SCIPY_MODULES,
                               *self.write_runs(tmp_path))
        assert code == 0, err

    def test_operators_that_need_scipy_still_run(self, tmp_path):
        cfg = write_config(tmp_path, "frac.cfg", overrides={
            "model.tag": "nonlocal_mcf", "model.a": "0.5", "grid.N": "64",
            "run.T": "0.005", "output.dir": "runs/frac"})
        code, err = run_pslab(tmp_path, "run", cfg)
        assert code == 0, err
        code, err = run_pslab(tmp_path, "verify", "operators")
        assert code == 0, err


class TestConfigErrorsBeforeOutput:
    """Each bad config exits 2 with its reason on stderr, writes nothing
    and raises no numpy warning."""

    def run_rejected(self, tmp_path, capsys, overrides, drop=(), words=()):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, overrides=dict(overrides,
                                                     **{"output.dir": str(out)}),
                           drop=drop)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["run", cfg]) == 2
        assert not [w for w in caught if w.category is RuntimeWarning]
        err = capsys.readouterr().err
        assert "Traceback" not in err
        for word in words:
            assert word in err
        assert not out.exists()

    def test_grid_size_above_the_cap(self, tmp_path, capsys):
        # 2^34 samples passed every check and then ran out of memory
        self.run_rejected(tmp_path, capsys, {"grid.N": "17179869184"}, (),
                          ["grid.N must be a power of two from 16 to 65536"])
        pairs = parse_config_text(config_text({"grid.N": "65536"}))
        assert build_run_config(pairs).n == 65536

    @pytest.mark.parametrize("overrides, drop", [
        ({"initial.amplitude": "nan"}, ()),
        (dict(ELLIPSE, **{"initial.a": "nan"}), NO_DERIVATIVES),
        ({"initial.preset": "cosine", "initial.mean": "1e308",
          "initial.amplitude": "1e308"}, ()),
    ], ids=["triangle_nan_amplitude", "ellipse_nan_axis", "cosine_overflow"])
    def test_non_finite_preset(self, tmp_path, capsys, overrides, drop):
        self.run_rejected(tmp_path, capsys, overrides, drop, ["NaN/Inf"])

    @pytest.mark.parametrize("length", ["inf", "nan"])
    def test_non_finite_domain_length(self, tmp_path, capsys, length):
        self.run_rejected(tmp_path, capsys, {"grid.L": length}, (),
                          ["grid.L"])

    @pytest.mark.parametrize("overrides", [
        {"stepper.dt": "1e-320", "run.T": "1"},
    ], ids=["tiny_dt"])
    def test_overflowing_step_count(self, tmp_path, capsys, overrides):
        self.run_rejected(tmp_path, capsys, overrides, (), ["integer number"])

    @pytest.mark.parametrize("dt, horizon", [("1e-10", "1.5e-10"), ("1e-9", "2.4e-9")])
    def test_fractional_step_count_at_small_dt(self, tmp_path, capsys, dt, horizon):
        self.run_rejected(tmp_path, capsys, {"stepper.dt": dt, "run.T": horizon}, (),
                          ["run.T must be an integer number of steps"])

    @pytest.mark.parametrize("horizon", ["nan", "inf"])
    def test_non_finite_T(self, tmp_path, capsys, horizon):
        self.run_rejected(tmp_path, capsys, {"run.T": horizon}, (),
                          ["run.T must be positive and finite"])

    @pytest.mark.parametrize("dt", ["nan", "inf"])
    def test_non_finite_dt(self, tmp_path, capsys, dt):
        self.run_rejected(tmp_path, capsys, {"stepper.dt": dt}, (),
                          ["stepper.dt must be positive and finite"])

    def test_missing_restart_snapshot(self, tmp_path, capsys):
        snap = str(tmp_path / "nothere.bin")
        self.run_rejected(tmp_path, capsys, {"initial.file": snap},
                          ("initial.preset", "initial.amplitude"),
                          ["nothere.bin"])

    def test_negative_seed(self, tmp_path, capsys):
        self.run_rejected(tmp_path, capsys,
                          {"initial.preset": "random_band", "seed": "-1"},
                          ("initial.amplitude",), ["seed"])

    @pytest.mark.parametrize("target", ["1:1.5", "1:nan", "3:0.5"])
    def test_holder_target_out_of_range(self, tmp_path, capsys, target):
        self.run_rejected(tmp_path, capsys,
                          {"grid.N": "16", "ledger.holder": target}, (),
                          ["ledger.holder", target])

    @pytest.mark.parametrize("overrides, drop", [
        ({"model.tag": "thinfilm_exp"}, ()),
        (ELLIPSE, NO_DERIVATIVES),
        ({"grid.N": "2048"}, ()),
    ], ids=["no_profile", "contour", "above_max_n"])
    def test_frozen_pointwise_unsupported(self, tmp_path, capsys, overrides,
                                          drop):
        overrides = dict(overrides, **{"stepper.scheme": "frozen_pointwise"})
        self.run_rejected(tmp_path, capsys, overrides, drop, ["pointwise"])

    @pytest.mark.parametrize("overrides, key", [
        ({"initial.preset": "cosine", "initial.mode": "1.5"}, "initial.mode"),
        ({"initial.preset": "random_band", "initial.kmax": "3.9"},
         "initial.kmax"),
        ({"initial.preset": "random_band", "initial.kmin": "inf"},
         "initial.kmin"),
    ], ids=["mode", "kmax", "kmin"])
    def test_non_integer_wavenumber(self, tmp_path, capsys, overrides, key):
        self.run_rejected(tmp_path, capsys, overrides, (), [key, "integer"])

    @pytest.mark.parametrize("overrides, key", [
        ({"model.tag": "surface_diffusion_axi", "model.hbar0": "nan",
          "initial.preset": "sd_cylinder"}, "radius"),
        ({"model.tag": "muskat_st", "model.rho0": "nan"}, "rho0"),
    ], ids=["hbar0", "rho0"])
    def test_nan_model_parameter(self, tmp_path, capsys, overrides, key):
        self.run_rejected(tmp_path, capsys, overrides, ("initial.amplitude",),
                          [key])

    @pytest.mark.parametrize("tag", ["heat", "muskat_st"])
    def test_restart_length_must_match_grid(self, tmp_path, capsys, tag):
        snap = str(tmp_path / "snap.bin")
        write_snapshot(snap, PeriodicField(np.zeros(64), domain_length=3.0),
                       0.0)
        self.run_rejected(
            tmp_path, capsys,
            {"model.tag": tag, "grid.N": "64", "stepper.dt": "1e-6",
             "run.T": "1e-5", "initial.file": snap},
            ("initial.preset", "initial.amplitude"), ["grid.L"])

    @pytest.mark.parametrize("overrides, drop", [
        ({"model.tag": "muskat_st"}, ()),
        ({"model.tag": "nonlocal_mcf"}, ()),
        (ELLIPSE, NO_DERIVATIVES),
    ], ids=["muskat_st", "nonlocal_mcf", "peskin2d"])
    def test_near_two_pi_length_rejected(self, tmp_path, capsys, overrides,
                                         drop):
        # 2pi + 2.4e-12: within a relative 1e-12 of 2pi, beyond the absolute
        # 1e-12 that the quadrature folds allow
        overrides = dict(overrides, **{"grid.L": "6.283185307182"})
        self.run_rejected(tmp_path, capsys, overrides, drop, ["grid.L = 2*pi"])

    def test_integral_float_wavenumber_accepted(self):
        config = build_run_config(parse_config_text(config_text(
            {"initial.preset": "cosine", "initial.mode": "2.0"},
            drop=["initial.amplitude"])))
        field = build_initial_field(config)
        x = field.nodes()
        np.testing.assert_array_equal(field.samples, np.cos(2 * x))


def old_random_band_field(rng):
    """The band field the operators suite built before it shared the preset's
    band builder: modes 1..20 at 256 nodes, divided by sqrt(20)."""
    x = np.arange(256) * (2 * np.pi / 256)
    samples = np.zeros(256)
    for k in range(1, 21):
        samples += rng.standard_normal() * np.cos(k * x)
        samples += rng.standard_normal() * np.sin(k * x)
    return PeriodicField(samples / np.sqrt(20))


def old_random_band_preset(n, length, seed, kmin, kmax, amplitude):
    """The random_band preset as its own loop wrote it, phase (2pi/L) k x."""
    x = np.arange(n) * (length / n)
    rng = np.random.default_rng(seed)
    samples = np.zeros(n)
    for k in range(kmin, kmax + 1):
        phase = (2 * np.pi / length) * k * x
        samples += rng.standard_normal() * np.cos(phase)
        samples += rng.standard_normal() * np.sin(phase)
    samples *= amplitude / max(float(np.max(np.abs(samples))), 1e-300)
    return samples


class TestBandFields:
    def test_verify_band_fields_match_the_old_loop(self, monkeypatch, capsys):
        seen = []
        dn = nonlocal_ops.dirichlet_neumann_op

        def spy(field, b, sign, backend="fourier"):
            if backend == "fourier":
                seen.append(field.samples.tobytes())
            return dn(field, b, sign, backend=backend)

        monkeypatch.setattr(nonlocal_ops, "dirichlet_neumann_op", spy)
        assert main(["verify", "operators"]) == 0
        rng = np.random.default_rng(1)
        assert seen == [old_random_band_field(rng).samples.tobytes()
                        for _ in range(8)]

    @pytest.mark.parametrize("length", [2 * np.pi, 3.7])
    @pytest.mark.parametrize("n, seed, kmin, kmax, amplitude", [
        (64, 0, 1, 8, 1.0), (256, 42, 3, 20, 0.3), (1024, 7, 1, 511, 2.5)])
    def test_preset_matches_the_old_loop(self, length, n, seed, kmin, kmax,
                                         amplitude):
        config = build_run_config(parse_config_text(config_text({
            "grid.N": str(n), "grid.L": repr(length), "seed": str(seed),
            "initial.preset": "random_band", "initial.kmin": str(kmin),
            "initial.kmax": str(kmax), "initial.amplitude": repr(amplitude)})))
        got = build_initial_field(config)
        want = old_random_band_preset(n, length, seed, kmin, kmax, amplitude)
        assert got.samples.tobytes() == want.tobytes()


class TestVerifyCommand:
    @pytest.mark.parametrize("suite", ["kernels", "operators", "models"])
    def test_suite_passes_and_emits_ndjson(self, suite, capsys):
        assert main(["verify", suite]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) >= 4
        for line in lines:
            record = json.loads(line)
            assert record["status"] == "pass"
            assert record["schema_version"] == 1
            assert set(record) >= {"check", "measured", "expected",
                                   "tolerance"}

    def test_kernels_suite_membership(self, capsys):
        main(["verify", "kernels"])
        names = [json.loads(line)["check"]
                 for line in capsys.readouterr().out.strip().splitlines()]
        assert any(name.startswith("poisson_aniso_mass") for name in names)
        assert "frozen_kernel_frobenius_excess" in names
        assert "frozen_kernel_refine_gap" in names

    def test_refine_gap_is_the_largest_tabulation_gap(self, monkeypatch, capsys):
        tabulate = kernels.frozen_kernel_hat
        gaps = []

        def recorded(*args, **kwargs):
            khat = tabulate(*args, **kwargs)
            gaps.append(khat.gap)
            return khat

        monkeypatch.setattr(kernels, "frozen_kernel_hat", recorded)
        assert main(["verify", "kernels"]) == 0
        records = [json.loads(line)
                   for line in capsys.readouterr().out.strip().splitlines()]
        record, = [r for r in records if r["check"] == "frozen_kernel_refine_gap"]
        assert len(gaps) == 5 and 0.0 < max(gaps) < kernels.REFINE_TOL
        assert record == {"check": "frozen_kernel_refine_gap", "status": "pass",
                          "measured": max(gaps), "expected": 0.0,
                          "tolerance": kernels.REFINE_TOL, "schema_version": 1}

    def test_nan_refine_gap_fails(self, monkeypatch, capsys):
        tabulate = kernels.frozen_kernel_hat
        calls = []

        def third_is_nan(*args, **kwargs):
            calls.append(None)
            khat = tabulate(*args, **kwargs)
            return dataclasses.replace(khat, gap=math.nan) if len(calls) == 3 else khat

        monkeypatch.setattr(kernels, "frozen_kernel_hat", third_is_nan)
        assert main(["verify", "kernels"]) == 1
        records = [json.loads(line)
                   for line in capsys.readouterr().out.strip().splitlines()]
        record, = [r for r in records if r["check"] == "frozen_kernel_refine_gap"]
        assert len(calls) == 5
        assert record["status"] == "fail" and math.isnan(record["measured"])

    def test_nan_frozen_kernel_excess_fails(self, monkeypatch, capsys):
        # max(1.0, nan) is 1.0, so a worst case taken with max() passed
        excess = kernels.FrozenKernelHat.frobenius_excess
        calls = []

        def third_is_nan(khat):
            calls.append(None)
            return math.nan if len(calls) == 3 else excess(khat)

        monkeypatch.setattr(kernels.FrozenKernelHat, "frobenius_excess", third_is_nan)
        assert main(["verify", "kernels"]) == 1
        records = [json.loads(line)
                   for line in capsys.readouterr().out.strip().splitlines()]
        record, = [r for r in records if r["check"] == "frozen_kernel_frobenius_excess"]
        assert len(calls) == 5
        assert record["status"] == "fail" and math.isnan(record["measured"])

    def test_operators_suite_membership(self, capsys):
        main(["verify", "operators"])
        names = [json.loads(line)["check"]
                 for line in capsys.readouterr().out.strip().splitlines()]
        assert "dirichlet_neumann_backend_gap" in names
        assert any(name.startswith("lemz0") for name in names)

    def test_models_suite_membership(self, capsys):
        main(["verify", "models"])
        names = [json.loads(line)["check"]
                 for line in capsys.readouterr().out.strip().splitlines()]
        assert "peskin_circle_stationary" in names
        assert "surface_diffusion_volume_flux" in names

    def test_unknown_suite_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "everything"])
        assert exc.value.code == 2


class TestRatefitCommand:
    def write_power_csv(self, tmp_path, exponent=-0.5):
        path = tmp_path / "series.csv"
        t = np.geomspace(1e-3, 1.0, 40)
        lines = ["t,linf"]
        lines += [f"{ti:.17g},{ti**exponent:.17g}" for ti in t]
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    def test_synthetic_power_law_passes(self, tmp_path, capsys):
        path = self.write_power_csv(tmp_path)
        code = main(["ratefit", path, "--expect", "exponent=-0.5,tol=0.05"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        record = json.loads(lines[0])
        assert record["kind"] == "power_law"
        assert abs(record["estimate"] + 0.5) < 1e-10
        verdict = json.loads(lines[1])
        assert verdict["status"] == "pass"

    def test_exponential_kind(self, tmp_path, capsys):
        path = tmp_path / "decay.csv"
        t = np.linspace(0.0, 4.0, 50)
        lines = ["t,linf"] + [f"{ti:.17g},{np.exp(-0.75*ti):.17g}"
                              for ti in t]
        path.write_text("\n".join(lines) + "\n")
        code = main(["ratefit", str(path), "--kind", "exponential",
                     "--window", "0:4", "--expect", "rate=0.75,tol=0.01"])
        assert code == 0
        record = json.loads(capsys.readouterr().out.strip().splitlines()[0])
        assert abs(record["estimate"] - 0.75) < 1e-10

    def test_failed_expectation_exits_1(self, tmp_path, capsys):
        path = self.write_power_csv(tmp_path)
        code = main(["ratefit", path, "--expect", "exponent=-1.0,tol=0.05"])
        assert code == 1
        verdict = json.loads(
            capsys.readouterr().out.strip().splitlines()[1])
        assert verdict["status"] == "fail"

    def test_bad_inputs_exit_2(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        assert main(["ratefit", str(empty)]) == 2

        path = self.write_power_csv(tmp_path)
        assert main(["ratefit", path, "--column", "absent"]) == 2
        assert main(["ratefit", path, "--expect", "huh"]) == 2
        assert main(["ratefit", path, "--window", "0.5"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("spec", ["exponent=nan,tol=0.05",
                                      "exponent=-inf,tol=0.05",
                                      "rate=0.75,tol=nan",
                                      "exponent=-0.5,tol=inf",
                                      "exponent=-0.5,tol=-1"])
    def test_unusable_expectation_exits_2_before_output(self, tmp_path, capsys,
                                                        spec):
        # a NaN would print an invalid-JSON verdict, tol=inf would pass
        # every fit and a negative tol fail every fit
        path = self.write_power_csv(tmp_path)
        assert main(["ratefit", path, "--expect", spec]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--expect" in captured.err

    @pytest.mark.parametrize("spec", ["exponent=-0.5,rate=3,tol=0.1",
                                      "rate=3,exponent=-0.5,tol=0.1",
                                      "exponent=-0.5,exponent=3,tol=0.1",
                                      "rate=0.75,rate=0.75,tol=0.1",
                                      "exponent=-0.5,tol=0.1,tol=0.2"])
    def test_repeated_or_mixed_expectation_exits_2(self, tmp_path, capsys,
                                                   spec):
        # a later entry must not silently replace an earlier one:
        # exponent=-0.5,rate=3 would check the fit against 3
        path = self.write_power_csv(tmp_path)
        assert main(["ratefit", path, "--expect", spec]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--expect" in captured.err

    @pytest.mark.parametrize("kind", ["power_law", "exponential"])
    def test_nan_in_window_exits_2(self, tmp_path, capsys, kind):
        path = tmp_path / "nan.csv"
        path.write_text("t,linf\n0.1,1.0\n0.2,0.9\n0.3,nan\n0.4,0.7\n0.5,0.6\n")
        code = main(["ratefit", str(path), "--kind", kind, "--window", "0.1:0.5"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "non-finite" in captured.err

    def test_heat_run_exponent_via_cli(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, overrides={
            "grid.N": "512", "stepper.dt": "1e-5", "run.T": "1e-2",
            "initial.amplitude": "0.47", "ledger.stride": "10",
            "ledger.derivative_sup": "2", "output.dir": str(out)})
        assert main(["run", cfg]) == 0
        code = main(["ratefit", str(out / "ledger.csv"),
                     "--column", "d2_linf", "--window", "1e-4:1e-2",
                     "--expect", "exponent=-0.5,tol=0.05"])
        assert code == 0
        capsys.readouterr()


class TestNonUtf8Input:
    """A snapshot handed to a command that reads text: the decode error was
    an internal error, exit 4 with a traceback."""

    @pytest.mark.parametrize("argv, message", [
        (["run"], "cannot read config"),
        (["ratefit"], "cannot read CSV"),
    ], ids=["run", "ratefit"])
    def test_snapshot_as_text_exits_2(self, tmp_path, capsys, argv, message):
        path = tmp_path / "final.bin"
        samples = np.linspace(-1.0, 1.0, 64, endpoint=False) ** 3
        write_snapshot(str(path), PeriodicField(samples), 0.25)
        with pytest.raises(UnicodeDecodeError):
            path.read_bytes().decode("utf-8")
        assert main([*argv, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err
        assert "Traceback" not in captured.err
