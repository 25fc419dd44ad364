import concurrent.futures
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import re
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nemlab import cli, traceio, verifier
from nemlab.cli import main
from nemlab.config import ConfigError, canonical_text, parse_config
from nemlab.dynamics import SolverError, State
from nemlab.constitutive import ConstitutiveError, Params, System
from nemlab.functionals import ENERGY_WINDOW, FunctionalError, energy_dissipation
from nemlab.grid import Grid1D
from nemlab.traceio import (
    COLUMNS,
    TraceFormatError,
    read_columns,
    read_trace,
    write_columns,
    write_trace,
)
from nemlab.verifier import EnergyReport, EntropyTrace, Perturbation, VerifierError, run_twin

MINIMAL_GL = {
    "system": "gl",
    "gamma": 2.0,
    "a": 1.0,
    "sigma0": 1.0,
    "grid_reference": {"n": 65},
    "grid_candidate": {"n": 65},
    "dt": 2e-4,
    "t_end": 0.02,
    "initial_preset": "gl-smooth",
}


# lambda = 1e300 on equal 33-node grids, the configs of the overflow tests
LAMBDA_33 = dict(MINIMAL_GL, **{"lambda": 1e300, "x_max": 1e5, "t_end": 0.002,
                                "grid_reference": {"n": 33}, "grid_candidate": {"n": 33}})


def cfg_text(**overrides):
    doc = dict(MINIMAL_GL)
    doc.update(overrides)
    return json.dumps(doc)


class TestParseConfig:
    def test_minimal_fills_defaults(self):
        cfg = parse_config(cfg_text())
        assert cfg.params.mu == cfg.params.lam == cfg.params.theta == 1.0
        assert cfg.params.system is System.GL
        assert cfg.gronwall.c_h is None
        assert cfg.gronwall.slack == 0.0
        assert cfg.density_floor == 1e-8
        assert cfg.perturbation.amplitude == 0.0
        assert cfg.dt_reference == cfg.dt_candidate == 2e-4
        assert cfg.resolved_sample_interval() == pytest.approx(0.02 / 50)

    def test_gamma_at_most_one_rejected(self):
        with pytest.raises(ConfigError, match="gamma must exceed 1"):
            parse_config(cfg_text(gamma=0.9))

    def test_removed_keys_are_unknown(self, tmp_path, capsys):
        # the director rows follow from the system, and the integrator has
        # no flux diffusion: even the values that used to be accepted fail
        path = tmp_path / "cfg.json"
        for key, value in (("director_bc", "dirichlet_d0"), ("artificial_viscosity", 0.0)):
            path.write_text(cfg_text(**{key: value}))
            assert main(["twin", "-c", str(path), "-o", str(tmp_path / "t.csv"),
                         "--manifest", str(tmp_path / "m.json")]) == 2
            assert capsys.readouterr() == ("", f"config error: unknown key(s): {key}\n")

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown key.*viscosity_model"):
            parse_config(cfg_text(viscosity_model="newtonian"))

    def test_unknown_nested_keys(self):
        with pytest.raises(ConfigError, match="grid_reference"):
            parse_config(cfg_text(grid_reference={"n": 65, "kind": "uniform"}))
        with pytest.raises(ConfigError, match="perturbation"):
            parse_config(cfg_text(perturbation={"amp": 1e-3}))
        with pytest.raises(ConfigError, match="gronwall"):
            parse_config(cfg_text(gronwall={"c_h": 1.0, "mu": 2}))

    def test_every_required_key_reported_when_missing(self):
        for key in MINIMAL_GL:
            doc = dict(MINIMAL_GL)
            del doc[key]
            with pytest.raises(ConfigError, match=key):
                parse_config(json.dumps(doc))

    def test_every_required_key_reported_on_type_garbage(self):
        garbage = {"system": 7, "gamma": "big", "a": None, "sigma0": [],
                   "grid_reference": 5, "grid_candidate": "fine",
                   "dt": "fast", "t_end": {}, "initial_preset": 3}
        for key, bad in garbage.items():
            with pytest.raises(ConfigError, match=key):
                parse_config(cfg_text(**{key: bad}))

    def test_value_constraint_messages(self):
        cases = {
            "a": (-1.0, "a must be positive"),
            "sigma0": (0.0, "sigma0 must be positive"),
            "dt": (0.0, "dt must be positive"),
            "t_end": (-0.5, "t_end must be finite and positive"),
            "density_floor": (0.0, "density_floor must be finite and positive"),
            "x_max": (-2.0, "x_max must exceed x_min"),
        }
        for key, (bad, msg) in cases.items():
            with pytest.raises(ConfigError, match=msg):
                parse_config(cfg_text(**{key: bad}))

    def test_preset_system_mismatch(self):
        with pytest.raises(ConfigError, match="initial_preset"):
            parse_config(cfg_text(initial_preset="sphere-smooth"))

    def test_invalid_json(self):
        with pytest.raises(ConfigError, match="JSON"):
            parse_config("{not json")

    def test_canonical_text_rejects_invalid_json(self):
        # parse_config rejects such a document first, so main never gets here
        with pytest.raises(ConfigError, match="^not valid JSON: Expecting property name"):
            canonical_text("{not json")

    @pytest.mark.parametrize("text, message", [
        ("[1, 2]", "top level must be a JSON object"),
        (cfg_text(grid_candidate={}), "grid_candidate.n is required"),
        (cfg_text(system="smectic"),
         "system: unknown system 'smectic'; expected one of: gl, sphere"),
        (cfg_text(perturbation={"amplitude": 1e-3, "mode": 2.5}),
         "perturbation.mode must be a positive integer, got 2.5"),
    ], ids=["not-an-object", "grid-without-n", "unknown-system", "non-integer-mode"])
    def test_document_shape_errors_name_the_cause(self, text, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            parse_config(text)

    def test_perturbation_and_gronwall_sections(self):
        cfg = parse_config(cfg_text(
            perturbation={"amplitude": 1e-3, "mode": 4},
            gronwall={"c_h": 2.5, "slack": 1e-12},
        ))
        assert cfg.perturbation.mode == 4
        assert cfg.gronwall.c_h == 2.5
        # delta was never read by any computation and is no longer a key;
        # even its old default is rejected by name
        with pytest.raises(ConfigError, match="gronwall has unknown key.*delta"):
            parse_config(cfg_text(gronwall={"delta": 0.125}))
        with pytest.raises(ConfigError, match="mode"):
            parse_config(cfg_text(perturbation={"amplitude": 1e-3, "mode": 0}))

    @pytest.mark.parametrize("overrides, message", [
        ({"gamma": 1}, r"^gamma must exceed 1"),
        # the square overflows, or underflows to 0
        ({"sigma0": 1e200}, r"^sigma0 is out of range: sigma0\*\*2 is not a finite positive"),
        ({"sigma0": 1e-200}, r"^sigma0 is out of range: sigma0\*\*2 is not a finite positive"),
        ({"perturbation": {"mode": 0}}, r"^perturbation\.mode must be a positive integer"),
        ({"perturbation": {"amplitude": -1}}, r"^perturbation\.amplitude must be >= 0"),
        ({"gronwall": {"c_h": 0}}, r"^gronwall\.c_h must be positive"),
        ({"gronwall": {"slack": -1}}, r"^gronwall\.slack must be >= 0"),
        ({"initial_preset": "bogus"}, r"^initial_preset\b.*'bogus'"),
        ({"sample_interval": 1e-9}, r"^sample_interval yields more than 10000 samples"),
        ({"initial_preset": "sphere-smooth"}, r"^initial_preset 'sphere-smooth'.*\bsphere\b"),
    ])
    def test_domain_range_errors_name_the_key(self, tmp_path, capsys, overrides, message):
        text = cfg_text(**overrides)
        with pytest.raises(ConfigError, match=message) as info:
            parse_config(text)
        path = tmp_path / "cfg.json"
        path.write_text(text)
        assert main(["twin", "-c", str(path), "-o", str(tmp_path / "t.csv"),
                     "--manifest", str(tmp_path / "m.json")]) == 2
        assert capsys.readouterr() == ("", f"config error: {info.value}\n")

    @pytest.mark.parametrize("mode", [10**400, 10**308])
    @pytest.mark.parametrize("system", ["gl", "sphere"])
    def test_mode_whose_phase_leaves_the_float_range_exits_2(self, tmp_path, capsys,
                                                             system, mode):
        # 10**400 does not convert to a float, 2*pi*10**308 overflows to inf
        path = tmp_path / "cfg.json"
        path.write_text(cfg_text(system=system, initial_preset=f"{system}-smooth",
                                 perturbation={"amplitude": 1e-3, "mode": mode}))
        assert main(["twin", "-c", str(path), "-o", str(tmp_path / "t.csv"),
                     "--manifest", str(tmp_path / "m.json")]) == 2
        assert capsys.readouterr() == ("", (
            "config error: perturbation.mode is too large: 2*pi*mode is not a finite float\n"
        ))


class TestTraceIo:
    def test_empty_trace_header_only(self, tmp_path):
        nan = np.array([])
        tr = EntropyTrace(
            system=System.GL, times=nan, entropy=nan, h_hat=nan,
            energy_candidate=nan, energy_reference=nan,
            dissipation_candidate=nan, dissipation_reference=nan,
            mass_candidate=nan, sphere_defect=nan,
            r_d=nan, r_c=nan, r_bar_d=nan, r_bar_c=nan,
            r_1d=nan, r_1c=nan, r_1c_a=nan, r_1c_b=nan,
        )
        path = tmp_path / "empty.csv"
        write_trace(tr, str(path))
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1
        assert lines[0] == ",".join(COLUMNS)

    def test_header_only_file_reads_as_empty_columns(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_columns({}, str(path))
        cols = read_columns(str(path))
        assert tuple(cols) == COLUMNS
        assert all(col.dtype == float and col.shape == (0,) for col in cols.values())

    @staticmethod
    def _blocks_file(path):
        """Columns of two full blocks and a partial third, some of them empty
        in one block only, written to path."""
        n = 2 * traceio._ROWS_PER_BLOCK + 37
        rng = np.random.default_rng(3)
        cols = {name: rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
                for name in COLUMNS}
        cols["t"] = np.arange(n) / 7
        cols["entropy"][:traceio._ROWS_PER_BLOCK] = np.nan  # the first block's fields empty
        cols["h_hat"][::3] = np.nan
        cols["sphere_defect"][:] = np.nan
        write_columns(cols, str(path))
        return cols

    def test_columns_of_several_blocks_read_back_bit_for_bit(self, tmp_path):
        path = tmp_path / "t.csv"
        cols = self._blocks_file(path)
        back = read_columns(str(path))
        for name in COLUMNS:
            assert back[name].tobytes() == cols[name].tobytes(), name

    @pytest.mark.parametrize("edits, message", [
        ({258: "short"}, "row 258 has 5 fields"),
        ({550: "entropy"}, "row 550, column entropy: not a number: 'x1'"),
        ({300: "r_1c", 520: "short"}, "row 300, column r_1c: not a number: 'x1'"),
        ({520: "t", 300: "short"}, "row 300 has 5 fields"),
    ], ids=["short-in-block-2", "number-in-block-3", "block-2-before-3", "short-first"])
    def test_malformed_row_in_a_later_block_names_its_file_row(self, tmp_path, edits,
                                                               message):
        # file row 1 is the header, so block k starts at row 2 + (k - 1) * 256
        assert traceio._ROWS_PER_BLOCK == 256
        path = tmp_path / "t.csv"
        self._blocks_file(path)
        lines = path.read_text().splitlines()
        for row, edit in edits.items():
            fields = lines[row - 1].split(",")
            if edit == "short":
                fields = fields[:5]
            else:
                fields[COLUMNS.index(edit)] = "x1"
            lines[row - 1] = ",".join(fields)
        path.write_text("\r\n".join(lines) + "\r\n")
        assert _cell_by_cell_error(str(path)) == f"{path}: {message}"
        with pytest.raises(TraceFormatError) as info:
            read_columns(str(path))
        assert str(info.value) == f"{path}: {message}"

    def test_three_samples_make_four_lines(self, tmp_path):
        n = 3
        zeros = np.zeros(n)
        nan = np.full(n, np.nan)
        tr = EntropyTrace(
            system=System.GL, times=np.array([0.0, 0.1, 0.2]),
            entropy=np.array([0.0, 1e-5, 2e-5]), h_hat=np.ones(n),
            energy_candidate=np.ones(n), energy_reference=np.ones(n),
            dissipation_candidate=zeros, dissipation_reference=zeros,
            mass_candidate=np.ones(n), sphere_defect=nan,
            r_d=zeros, r_c=zeros, r_bar_d=zeros, r_bar_c=zeros,
            r_1d=nan, r_1c=nan, r_1c_a=nan, r_1c_b=nan,
        )
        path = tmp_path / "t.csv"
        write_trace(tr, str(path))
        assert len(path.read_text().strip().splitlines()) == 4

    def test_round_trip_bit_exact(self, tmp_path):
        from nemlab.config import parse_config as pc

        text = cfg_text(system="sphere", initial_preset="sphere-smooth",
                        t_end=0.01, perturbation={"amplitude": 1e-3, "mode": 2})
        trace = run_twin(pc(text))
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        write_trace(trace, str(p1))
        back = read_trace(str(p1))
        assert back.system is System.SPHERE
        write_trace(back, str(p2))
        c1 = read_columns(str(p1))
        c2 = read_columns(str(p2))
        for name in COLUMNS:
            assert np.array_equal(c1[name], c2[name], equal_nan=True)
        assert np.array_equal(back.entropy, trace.entropy)
        assert np.array_equal(back.r_1c_b, trace.r_1c_b)
        # the per-term columns stay in memory
        assert "reorg_mismatch" in trace.terms and back.terms == {}

    @pytest.mark.parametrize("text, message", [
        ("", "empty file"),
        ("t,entropy\r\n0.0,0.0\r\n", "unexpected header ('t', 'entropy')"),
    ], ids=["empty", "wrong-header"])
    def test_malformed_file_names_path_and_cause(self, tmp_path, text, message):
        path = tmp_path / "t.csv"
        path.write_text(text)
        with pytest.raises(TraceFormatError, match=f"^{re.escape(f'{path}: {message}')}$"):
            read_trace(str(path))

    @pytest.mark.parametrize("columns, message", [
        ({"t": [0.0], "entropy_gap": [0.0]}, "unknown trace column 'entropy_gap'"),
        ({"t": [0.0, 0.1], "entropy": [0.0]}, "column 'entropy' has inconsistent length"),
    ], ids=["unknown-column", "unequal-lengths"])
    def test_write_columns_rejects_before_writing(self, tmp_path, columns, message):
        path = tmp_path / "t.csv"
        with pytest.raises(TraceFormatError, match=f"^{re.escape(message)}$"):
            write_columns(columns, str(path))
        assert not path.exists()

    def test_unparsable_cell_names_path_row_and_column(self, tmp_path):
        path = tmp_path / "t.csv"
        row = ["0.0"] * len(COLUMNS)
        row[COLUMNS.index("entropy")] = "abc"
        path.write_text(",".join(COLUMNS) + "\n" + ",".join(["0.0"] * len(COLUMNS)) + "\n"
                        + ",".join(row) + "\n")
        with pytest.raises(TraceFormatError,
                           match=re.escape(f"{path}: row 3, column entropy: not a number: 'abc'")):
            read_columns(str(path))

    def test_empty_time_cell_rejected(self, tmp_path):
        n = 3
        zeros = np.zeros(n)
        nan = np.full(n, np.nan)
        tr = EntropyTrace(
            system=System.GL, times=np.array([0.0, 0.1, 0.2]),
            entropy=zeros, h_hat=zeros,
            energy_candidate=np.ones(n), energy_reference=np.ones(n),
            dissipation_candidate=zeros, dissipation_reference=zeros,
            mass_candidate=np.ones(n), sphere_defect=nan,
            r_d=zeros, r_c=zeros, r_bar_d=zeros, r_bar_c=zeros,
            r_1d=nan, r_1c=nan, r_1c_a=nan, r_1c_b=nan,
        )
        path = tmp_path / "t.csv"
        write_trace(tr, str(path))
        lines = path.read_text().splitlines()
        assert lines[2].startswith("0.1,")
        lines[2] = lines[2][len("0.1"):]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(VerifierError, match="column times contains non-finite"):
            read_trace(str(path))


_EXTREMES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
             1.7976931348623157e308]
_FINITE = st.one_of(st.sampled_from(_EXTREMES), st.floats(allow_nan=False, allow_infinity=False))
# strictly increasing times whose differences stay finite
_TIMES = st.lists(st.one_of(st.sampled_from(_EXTREMES[:5]), st.floats(-8e307, 8e307)),
                  unique=True, max_size=6).map(sorted)


# 17 significant digits, subnormals and -0.0: values whose repr the writer
# must give exactly
_DIGITS = [0.30000000000000004, 1.0000000000000002, 123456789.12345679, 5e-324,
           -2.2250738585072014e-308 / 3, -0.0, 9007199254740993.0]


def _csv_writer_bytes(columns, path):
    """The trace file as csv.writer writes it, row by row: the reference
    write_columns keeps."""
    n = max((len(v) for v in columns.values()), default=0)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(COLUMNS)
        for k in range(n):
            w.writerow(["" if name not in columns or math.isnan(columns[name][k])
                        else repr(float(columns[name][k])) for name in COLUMNS])
    with open(path, "rb") as fh:
        return fh.read()


def _cell_by_cell_error(path):
    """The TraceFormatError message of a malformed trace file as a reader
    that checks row by row, then cell by cell, reports it."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    for r, row in enumerate(rows[1:], start=2):
        if len(row) != len(COLUMNS):
            return f"{path}: row {r} has {len(row)} fields"
        for name, cell in zip(COLUMNS, row):
            try:
                float(cell or "nan")
            except ValueError:
                return f"{path}: row {r}, column {name}: not a number: {cell!r}"
    return None


class TestTraceRoundTrip:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(n=st.integers(0, 40), data=st.data())
    def test_columns_are_csv_writers_bytes_and_read_back_bit_for_bit(self, n, data):
        value = st.one_of(st.sampled_from(_DIGITS + _EXTREMES), st.floats(allow_nan=False))
        cols = {}
        for name in data.draw(st.lists(st.sampled_from(COLUMNS), unique=True)):
            kind = data.draw(st.sampled_from(["finite", "some NaN", "all NaN"]))
            cells = (st.just(math.nan) if kind == "all NaN" else
                     st.one_of(value, st.just(math.nan)) if kind == "some NaN" else value)
            cols[name] = np.array(data.draw(st.lists(cells, min_size=n, max_size=n)), dtype=float)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "t.csv")
            expected = _csv_writer_bytes(cols, os.path.join(tmp, "ref.csv"))
            cli.write_columns(cols, path)
            with open(path, "rb") as fh:
                assert fh.read() == expected
            back = read_columns(path)
            n = n if cols else 0  # no column: no row
            for name in COLUMNS:
                want = cols.get(name, np.full(n, np.nan))
                assert back[name].tobytes() == np.where(np.isnan(want), np.nan, want).tobytes()
            # a malformed file: the reader names the first bad row and column
            lines = expected.decode().split("\r\n")
            for _ in range(data.draw(st.integers(0, 3)) if n else 0):
                r = data.draw(st.integers(1, n))
                fields = lines[r].split(",")
                if data.draw(st.booleans()):
                    fields[data.draw(st.integers(0, len(COLUMNS) - 1))] = "x1"
                else:
                    fields = fields[:data.draw(st.integers(1, len(COLUMNS) - 1))]
                lines[r] = ",".join(fields)
            with open(path, "w", newline="") as fh:
                fh.write("\r\n".join(lines))
            message = _cell_by_cell_error(path)
            if message is None:
                read_columns(path)
            else:
                with pytest.raises(TraceFormatError) as info:
                    read_columns(path)
                assert str(info.value) == message

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(system=st.sampled_from([System.GL, System.SPHERE]), data=st.data())
    def test_write_read_write_is_bit_exact(self, system, data):
        times = np.array(data.draw(_TIMES), dtype=float)
        n = len(times)
        inactive = {"sphere_defect", "r_1d", "r_1c", "r_1c_a", "r_1c_b"} \
            if system is System.GL else {"r_d", "r_c", "r_bar_d", "r_bar_c"}
        cols = {"t": times}
        for name in COLUMNS[1:]:
            cols[name] = (np.full(n, np.nan) if name in inactive else
                          np.array(data.draw(st.lists(_FINITE, min_size=n, max_size=n)),
                                   dtype=float))
        fields = {k: v for k, v in cols.items() if k != "t"}
        trace = EntropyTrace(system=system, times=times, **fields)
        with tempfile.TemporaryDirectory() as tmp:
            first, second = os.path.join(tmp, "a.csv"), os.path.join(tmp, "b.csv")
            write_trace(trace, first)
            back = read_trace(first)
            write_trace(back, second)
            with open(first, "rb") as fa, open(second, "rb") as fb:
                assert fa.read() == fb.read()
        assert back.system is system or n == 0
        for name in COLUMNS:
            got = back.times if name == "t" else getattr(back, name)
            assert np.array_equal(got, cols[name], equal_nan=True), name
            assert got.tobytes() == cols[name].tobytes(), name  # signs of zeros


class TestMain:
    def test_unknown_subcommand_exits_2(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_missing_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "none.json"
        assert main(["twin", "-c", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"config error: cannot read config {path}: No such file or directory\n"
        )

    def test_config_that_is_not_utf8_exits_2(self, tmp_path, capsys):
        path = tmp_path / "utf16.json"
        path.write_bytes(b'\xff\xfe{"system": "gl"}')
        assert main(["twin", "-c", str(path)]) == 2
        assert capsys.readouterr() == ("", (
            f"config error: cannot read config {path}: 'utf-8' codec can't decode "
            "byte 0xff in position 0: invalid start byte\n"))

    @pytest.mark.parametrize("text", [
        "[" * 100_000 + "]" * 100_000,
        '{"a":' * 100_000 + "1" + "}" * 100_000,
    ], ids=["arrays", "objects"])
    def test_config_nested_beyond_the_recursion_limit_exits_2(self, tmp_path, capsys, text):
        path = tmp_path / "deep.json"
        path.write_text(text)
        assert main(["twin", "-c", str(path), "-o", str(tmp_path / "t.csv"),
                     "--manifest", str(tmp_path / "m.json")]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith("config error: not valid JSON: maximum recursion depth exceeded")

    def test_invalid_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(cfg_text(gamma=0.5))
        assert main(["twin", "-c", str(path)]) == 2
        assert "gamma" in capsys.readouterr().err

    def test_twin_zero_perturbation_entropy_floor(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(cfg_text())
        out = tmp_path / "trace.csv"
        man = tmp_path / "man.json"
        code = main(["twin", "-c", str(path), "-o", str(out), "--manifest", str(man)])
        assert code == 0
        cols = read_columns(str(out))
        assert np.nanmax(cols["entropy"]) <= 1e-12
        doc = json.loads(man.read_text())
        assert doc["passes"] is True
        assert doc["config_sha256"] == hashlib.sha256(canonical_text(cfg_text()).encode()).hexdigest()
        assert doc["peak_rss_mb"] > 0

    @pytest.mark.parametrize("text", [cfg_text(), '{"system": "gl", "note": "été γ > 3/2 ✓"}'],
                             ids=["ascii", "non-ascii"])
    def test_digest_is_hashlibs_sha256_of_the_canonical_text(self, text):
        want = hashlib.sha256(canonical_text(text).encode()).hexdigest()
        assert cli._digest(text) == want

    def test_gronwall_command(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(cfg_text(perturbation={"amplitude": 1e-3, "mode": 2}))
        out = tmp_path / "trace.csv"
        man = tmp_path / "man.json"
        code = main(["gronwall", "-c", str(path), "-o", str(out),
                     "--manifest", str(man)])
        assert code == 0
        out, err = capsys.readouterr()
        assert out.startswith("[PASS] gronwall: ") and err == ""
        doc = json.loads(man.read_text())
        assert doc["checks"]["gronwall"] is True

    def test_energy_command(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(cfg_text())
        code = main(["energy", "-c", str(path),
                     "-o", str(tmp_path / "t.csv"),
                     "--manifest", str(tmp_path / "m.json")])
        assert code == 0
        out, err = capsys.readouterr()
        assert out.splitlines()[0].endswith(" first_violation=none")
        assert out.startswith("[PASS] energy: ") and err == ""

    def test_energy_command_names_the_first_violation(self, tmp_path, capsys, monkeypatch):
        report = EnergyReport(passes=False, tol=1e-3, max_violation_candidate=0.5,
                              max_violation_reference=0.0, first_violation_time=0.0125)
        monkeypatch.setattr(cli, "check_energy", lambda trace: report)
        path = tmp_path / "cfg.json"
        path.write_text(cfg_text())
        assert main(["energy", "-c", str(path), "-o", str(tmp_path / "t.csv"),
                     "--manifest", str(tmp_path / "m.json")]) == 1
        assert capsys.readouterr().out.splitlines()[0] == (
            "[FAIL] energy: max_violation candidate=5.000e-01 reference=0.000e+00 tol=0.001 "
            "first_violation=0.0125")

    def test_uniqueness_prints_an_infinite_order_as_inf(self, tmp_path, capsys):
        # the finest level has the reference's grid and step, so its entropy
        # is identically zero and the last order infinite
        dx = 1.0 / 64.0
        path = tmp_path / "cfg.json"
        path.write_text(cfg_text(dt=0.4 * dx * dx, t_end=0.01))
        code = main(["uniqueness", "-c", str(path), "--levels", "17,33,65",
                     "--manifest", str(tmp_path / "m.json")])
        assert code == 0
        assert re.search(r"orders=\[\d+\.\d\d inf\]", capsys.readouterr().out)

    def test_repeated_levels_exit_2_before_any_run(self, tmp_path, capsys, monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("evolve ran before the levels were checked")

        monkeypatch.setattr(verifier, "evolve", no_run)
        path = tmp_path / "cfg.json"
        path.write_text(cfg_text(grid_reference={"n": 65}, grid_candidate={"n": 17},
                                 t_end=0.004))
        assert main(["uniqueness", "-c", str(path), "--levels", "17,17,33",
                     "--manifest", str(tmp_path / "m.json")]) == 2
        assert capsys.readouterr() == ("", (
            "invalid experiment: refinement levels must be strictly increasing "
            "node counts, got [17, 17, 33]\n"
        ))

    @pytest.mark.parametrize("doc, err", [
        # the length overflowed, so the nodes would not be finite
        ({"x_min": -1e308, "x_max": 1e308},
         "x_min/x_max: domain length of [-1e+308, 1e+308] is not finite"),
        # dx*dx underflowed: ZeroDivisionError in the implicit matrices
        ({"x_max": 1e-200},
         "x_min/x_max: grid spacing dx=1.562e-202 is too small: 1/dx^2 is not finite"),
        ({"x_max": -2.0}, "x_min/x_max: x_max must exceed x_min, got [0.0, -2.0]"),
    ], ids=["overflow", "underflow", "reversed"])
    def test_degenerate_grid_spacing_exits_2(self, tmp_path, capsys, doc, err):
        path = tmp_path / "cfg.json"
        path.write_text(cfg_text(**doc))
        assert main(["twin", "-c", str(path), "-o", str(tmp_path / "t.csv"),
                     "--manifest", str(tmp_path / "m.json")]) == 2
        assert capsys.readouterr() == ("", f"config error: {err}\n")

    def test_simulate_command(self, tmp_path, capsys):
        # every positive horizon, however short, ends with a sample at t_end:
        # t_end = 2e-12 is 50 windows of t_end / 50 after the sample at t = 0
        for t_end in (0.02, 2e-12):
            path = tmp_path / "cfg.json"
            path.write_text(cfg_text(t_end=t_end))
            out = tmp_path / "sim.csv"
            code = main(["simulate", "-c", str(path), "-o", str(out),
                         "--manifest", str(tmp_path / "m.json")])
            assert code == 0 and capsys.readouterr().err == ""
            cols = read_columns(str(out))
            assert len(cols["t"]) == 51 and cols["t"][-1] == t_end
            assert np.all(np.isnan(cols["entropy"]))
            assert np.all(np.isfinite(cols["energy_candidate"]))
            drift = np.max(np.abs(cols["mass_candidate"] - cols["mass_candidate"][0]))
            assert drift <= 1e-12

    def test_simulate_columns_match_the_twin_candidate(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(cfg_text(system="sphere", initial_preset="sphere-smooth",
                                 perturbation={"amplitude": 1e-3, "mode": 2}))
        for cmd in ("simulate", "twin"):
            assert main([cmd, "-c", str(path), "-o", str(tmp_path / f"{cmd}.csv"),
                         "--manifest", str(tmp_path / "m.json")]) == 0
        sim = read_columns(str(tmp_path / "simulate.csv"))
        twin = read_columns(str(tmp_path / "twin.csv"))
        for name in ("t", "energy_candidate", "dissipation_candidate",
                     "mass_candidate", "sphere_defect"):
            assert np.array_equal(sim[name], twin[name]), name

    @pytest.mark.parametrize("count", [2, ENERGY_WINDOW - 1, ENERGY_WINDOW, ENERGY_WINDOW + 1,
                                       2 * ENERGY_WINDOW + 3])
    @pytest.mark.parametrize("system", list(System))
    def test_simulate_energies_are_energy_dissipation_bit_for_bit(self, tmp_path, monkeypatch,
                                                                   system, count):
        samples = []
        original = cli.evolve

        def recording(*args, observer, **kwargs):
            def observe(state, t):
                samples.append(state)
                observer(state, t)

            return original(*args, observer=observe, **kwargs)

        monkeypatch.setattr(cli, "evolve", recording)
        path = tmp_path / "cfg.json"
        path.write_text(cfg_text(system=system.value, initial_preset=f"{system.value}-smooth",
                                 grid_candidate={"n": 33}, t_end=0.004,
                                 sample_interval=0.004 / (count - 1)))
        assert main(["simulate", "-c", str(path), "-o", str(tmp_path / "s.csv"),
                     "--manifest", str(tmp_path / "m.json")]) == 0
        cols = read_columns(str(tmp_path / "s.csv"))
        expected = np.array([energy_dissipation(state, Params(system=system))
                             for state in samples])
        assert len(samples) == count
        assert cols["energy_candidate"].tobytes() == expected[:, 0].tobytes()
        assert cols["dissipation_candidate"].tobytes() == expected[:, 1].tobytes()

    @pytest.mark.parametrize("doc, err", [
        # Infinity used to pass: gronwall printed [PASS] on a one-sample trace
        ({"t_end": math.inf}, "t_end must be finite, got inf"),
        # and -Infinity ended in a GridError traceback
        ({"x_min": -math.inf}, "x_min must be finite, got -inf"),
        ({"gronwall": {"c_h": math.inf}}, "gronwall.c_h must be finite, got inf"),
        ({"dt": math.nan}, "dt must be finite, got nan"),
        ({"perturbation": {"amplitude": math.nan}},
         "perturbation.amplitude must be finite, got nan"),
        # an integer beyond the float range
        ({"mu": 10**400}, f"mu must be finite, got {10**400!r}"),
        ({"density_floor": math.inf}, "density_floor must be finite, got inf"),
    ], ids=["t_end", "x_min", "gronwall.c_h", "dt", "perturbation.amplitude", "mu",
            "density_floor"])
    def test_non_finite_number_exits_2(self, tmp_path, capsys, doc, err):
        path = tmp_path / "cfg.json"
        path.write_text(cfg_text(**doc))
        assert main(["gronwall", "-c", str(path), "-o", str(tmp_path / "t.csv"),
                     "--manifest", str(tmp_path / "m.json")]) == 2
        assert capsys.readouterr() == ("", f"config error: {err}\n")
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize("command", ["twin", "simulate", "uniqueness"])
    @pytest.mark.parametrize("doc", [{"dt": 1e-320}, {"t_end": 1e308}], ids=["dt", "t_end"])
    def test_step_count_beyond_the_float_range_exits_2(self, tmp_path, capsys, command, doc):
        path = tmp_path / "cfg.json"
        path.write_text(cfg_text(**{"grid_reference": {"n": 33}, "grid_candidate": {"n": 17},
                                    "t_end": 0.004, **doc}))
        out = [] if command == "uniqueness" else ["-o", str(tmp_path / "t.csv")]
        assert main([command, "-c", str(path), *out,
                     "--manifest", str(tmp_path / "m.json")]) == 2
        assert capsys.readouterr() == (
            "", "config error: t_end / dt_reference is not a finite float\n")

    @pytest.mark.parametrize("command", ["twin", "simulate", "uniqueness"])
    def test_step_count_beyond_the_budget_exits_2(self, tmp_path, capsys, command):
        # a finite step count and 1000 samples, but 1e304 steps
        path = tmp_path / "cfg.json"
        path.write_text(cfg_text(**{"grid_reference": {"n": 33}, "grid_candidate": {"n": 17},
                                    "t_end": 1e300, "sample_interval": 1e297}))
        out = [] if command == "uniqueness" else ["-o", str(tmp_path / "t.csv")]
        assert main([command, "-c", str(path), *out,
                     "--manifest", str(tmp_path / "m.json")]) == 2
        assert capsys.readouterr() == ("", (
            "config error: the reference and candidate take 1e+304 steps (t_end / dt summed), "
            "more than MAX_STEPS = 1000000\n"))

    @pytest.mark.parametrize("command", ["twin", "uniqueness"])
    def test_spacing_whose_square_overflows_exits_2(self, tmp_path, capsys, command):
        path = tmp_path / "cfg.json"
        path.write_text(cfg_text(**{"grid_reference": {"n": 33}, "grid_candidate": {"n": 17},
                                    "x_min": -1e300, "x_max": 1e300}))
        out = [] if command == "uniqueness" else ["-o", str(tmp_path / "t.csv")]
        assert main([command, "-c", str(path), *out,
                     "--manifest", str(tmp_path / "m.json")]) == 2
        assert capsys.readouterr() == ("", (
            "config error: x_min/x_max: grid spacing dx=6.250e+298 is too large: "
            "dx^2 is not finite\n"))

    @pytest.mark.parametrize("command", ["twin", "uniqueness"])
    def test_tiny_domain_preset_runs_to_a_solver_abort(self, tmp_path, capsys, command):
        # on [0, 1e-5] the last node lies an ulp past x_max; the preset's
        # velocity is still 0 there, and dt = 2e-4 is beyond the CFL bound
        path = tmp_path / "cfg.json"
        path.write_text(cfg_text(**{"grid_reference": {"n": 21}, "grid_candidate": {"n": 21},
                                    "x_max": 1e-5}))
        out = [] if command == "uniqueness" else ["-o", str(tmp_path / "t.csv")]
        assert main([command, "-c", str(path), *out,
                     "--manifest", str(tmp_path / "m.json")]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("solver abort: reference trajectory: at t=0: dt=2.000e-04 "
                              "exceeds stability bound")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command, flag", [
        ("twin", "-o"), ("simulate", "-o"), ("twin", "--manifest"),
    ])
    def test_unwritable_output_exits_2(self, tmp_path, capsys, monkeypatch, command, flag):
        # the paths are probed before the experiment starts
        def no_run(*args, **kwargs):
            raise AssertionError("the experiment ran before its outputs were probed")

        monkeypatch.setattr(cli, "run_twin", no_run)
        monkeypatch.setattr(cli, "evolve", no_run)
        path = tmp_path / "cfg.json"
        path.write_text(cfg_text())
        paths = {"-o": str(tmp_path / "t.csv"), "--manifest": str(tmp_path / "m.json")}
        paths[flag] = str(tmp_path / "no" / "such" / "out")
        argv = [command, "-c", str(path)]
        for opt, target in paths.items():
            argv += [opt, target]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"config error: cannot write {paths[flag]}: No such file or directory\n"
        )

    def test_unwritable_suite_output_dir_exits_2(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert main(["suite", "--preset", "gl-smoke", "--output-dir", str(blocker)]) == 2
        assert capsys.readouterr().err == f"config error: cannot write {blocker}: File exists\n"

    def test_invalid_levels_exit_2(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(cfg_text())
        assert main(["uniqueness", "-c", str(path), "--levels", "2,3,4",
                     "--manifest", str(tmp_path / "m.json")]) == 2
        assert capsys.readouterr() == (
            "", "config error: --levels: n_nodes must be >= 5, got 2\n"
        )

    def test_non_integer_level_exits_2(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(cfg_text())
        assert main(["uniqueness", "-c", str(path), "--levels", "33,x",
                     "--manifest", str(tmp_path / "m.json")]) == 2
        assert capsys.readouterr() == (
            "", "config error: --levels must be comma-separated integers: '33,x'\n"
        )

    @pytest.mark.parametrize("n, reason", [
        (4, "must be >= 5, got 4"),
        (5.5, "must be an integer, got 5.5"),
        (True, "must be an integer, got True"),
        ("33", "must be an integer, got '33'"),
    ], ids=["four", "float", "bool", "string"])
    @pytest.mark.parametrize("key", ["grid_reference", "grid_candidate"])
    def test_invalid_node_count_exits_2_with_grid1d_message(self, tmp_path, capsys, key,
                                                            n, reason):
        path = tmp_path / "cfg.json"
        path.write_text(cfg_text(**{key: {"n": n}}))
        assert main(["twin", "-c", str(path), "-o", str(tmp_path / "t.csv"),
                     "--manifest", str(tmp_path / "m.json")]) == 2
        assert capsys.readouterr() == ("", f"config error: {key}.n: n_nodes {reason}\n")

    @pytest.mark.parametrize("key", ["grid_reference", "grid_candidate"])
    @pytest.mark.parametrize("command", ["twin", "uniqueness"])
    def test_node_count_beyond_the_float_range_exits_2(self, tmp_path, capsys, command, key):
        path = tmp_path / "cfg.json"
        path.write_text(cfg_text(**{key: {"n": 10**400}}))
        out = [] if command == "uniqueness" else ["-o", str(tmp_path / "t.csv")]
        assert main([command, "-c", str(path), *out,
                     "--manifest", str(tmp_path / "m.json")]) == 2
        assert capsys.readouterr() == ("", (
            f"config error: {key}.n: n_nodes is too large: n_nodes - 1 is beyond the "
            "float range\n"))

    @pytest.mark.parametrize("n", [10**9, 10**15])
    @pytest.mark.parametrize("key", ["grid_reference", "grid_candidate"])
    @pytest.mark.parametrize("command", ["twin", "uniqueness"])
    def test_node_count_beyond_max_nodes_exits_2_before_any_allocation(
            self, tmp_path, capsys, monkeypatch, command, key, n):
        def no_nodes(grid):
            raise AssertionError(f"the nodes of a {grid.n_nodes}-node grid were built")

        monkeypatch.setattr(Grid1D, "nodes", no_nodes)
        path = tmp_path / "cfg.json"
        path.write_text(cfg_text(**{key: {"n": n}}))
        out = [] if command == "uniqueness" else ["-o", str(tmp_path / "t.csv")]
        assert main([command, "-c", str(path), *out,
                     "--manifest", str(tmp_path / "m.json")]) == 2
        assert capsys.readouterr() == ("", (
            f"config error: {key}.n must be at most MAX_NODES = 16385, got {n}\n"))

    def test_node_count_of_more_digits_than_json_parses_exits_2(self, tmp_path, capsys):
        # json.loads raises a plain ValueError for an integer of over 4300 digits
        path = tmp_path / "cfg.json"
        path.write_text(cfg_text(grid_candidate={"n": 0}).replace('{"n": 0}',
                                                                  '{"n": 1%s}' % ("0" * 5000)))
        assert main(["twin", "-c", str(path), "-o", str(tmp_path / "t.csv"),
                     "--manifest", str(tmp_path / "m.json")]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith("config error: not valid JSON: Exceeds the limit (4300 digits)")

    def test_level_beyond_the_float_range_exits_2(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(cfg_text())
        assert main(["uniqueness", "-c", str(path), "--levels", f"33,65,{10**400}",
                     "--manifest", str(tmp_path / "m.json")]) == 2
        assert capsys.readouterr() == ("", (
            "config error: --levels: n_nodes is too large: n_nodes - 1 is beyond the "
            "float range\n"))

    def test_levels_checked_on_the_config_domain(self, tmp_path, capsys):
        # on [0, 1e-150] a level of 20001 nodes has 1/dx^2 beyond the float range
        path = tmp_path / "cfg.json"
        path.write_text(cfg_text(x_max=1e-150))
        assert main(["uniqueness", "-c", str(path), "--levels", "5,9,20001",
                     "--manifest", str(tmp_path / "m.json")]) == 2
        assert capsys.readouterr() == ("", "config error: --levels: grid spacing "
                                           "dx=5.000e-155 is too small: 1/dx^2 is not finite\n")

    def test_solver_abort_exits_3(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        # one sample window of 0.02 forces an effective step far beyond the
        # advective/acoustic bound
        path.write_text(cfg_text(dt=0.5, sample_interval=0.02))
        assert main(["twin", "-c", str(path), "-o", str(tmp_path / "t.csv"),
                     "--manifest", str(tmp_path / "m.json")]) == 3
        assert "solver abort" in capsys.readouterr().err
        # the output probe leaves nothing behind
        assert not (tmp_path / "t.csv").exists()
        assert not (tmp_path / "m.json").exists()

    def test_output_probe_keeps_existing_files(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(cfg_text(dt=0.5, sample_interval=0.02))
        for name in ("t.csv", "m.json"):
            (tmp_path / name).write_text("earlier run\n")
        assert main(["twin", "-c", str(path), "-o", str(tmp_path / "t.csv"),
                     "--manifest", str(tmp_path / "m.json")]) == 3
        for name in ("t.csv", "m.json"):
            assert (tmp_path / name).read_text() == "earlier run\n"

    def test_rejected_experiment_exits_2(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(cfg_text(perturbation={"amplitude": 2.0}))
        assert main(["twin", "-c", str(path), "-o", str(tmp_path / "t.csv"),
                     "--manifest", str(tmp_path / "m.json")]) == 2
        err = capsys.readouterr().err
        assert err == ("invalid experiment: perturbation drove the initial "
                       "density nonpositive\n")

    def test_unnormalizable_sphere_director_exits_2(self, tmp_path, capsys):
        # mode 64 on 33 nodes keeps the density positive at every node,
        # while the director's squared length leaves the float range
        path = tmp_path / "cfg.json"
        path.write_text(cfg_text(system="sphere", initial_preset="sphere-smooth",
                                 grid_reference={"n": 33}, grid_candidate={"n": 33},
                                 perturbation={"amplitude": 1e200, "mode": 64}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # and no numpy warning on the way
            code = main(["twin", "-c", str(path), "-o", str(tmp_path / "t.csv"),
                         "--manifest", str(tmp_path / "m.json")])
        assert code == 2
        assert capsys.readouterr() == ("", (
            "invalid experiment: perturbation.amplitude 1e+200 is too large to "
            "normalize the SPHERE director\n"
        ))

    @pytest.mark.parametrize("error", [FunctionalError, ConstitutiveError])
    def test_functional_failure_exits_3(self, tmp_path, capsys, monkeypatch, error):
        def failing(pair, params):
            raise error("remainder rejected the pair")

        monkeypatch.setattr(verifier, "remainder", failing)
        path = tmp_path / "cfg.json"
        path.write_text(cfg_text(perturbation={"amplitude": 1e-3, "mode": 2}))
        assert main(["gronwall", "-c", str(path), "-o", str(tmp_path / "t.csv"),
                     "--manifest", str(tmp_path / "m.json")]) == 3
        assert capsys.readouterr().err == "numerical abort: remainder rejected the pair\n"

    def test_suite_records_a_functional_failure(self, tmp_path, capsys, monkeypatch):
        def failing(pair, params):
            raise FunctionalError("remainder rejected the pair")

        monkeypatch.setattr(verifier, "remainder", failing)
        code = main(["suite", "--preset", "gl-smoke", "--output-dir", str(tmp_path)])
        assert code == 1
        out = capsys.readouterr().out
        assert "[FAIL] gl-gronwall: numerical abort: remainder rejected the pair" in out
        doc = json.loads((tmp_path / "gl-smoke-manifest.json").read_text())
        assert doc["checks"] == {"gl-identical-twin": False, "gl-gronwall": False}

    def test_gamma_regime_recorded(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(cfg_text(gamma=1.2))
        man = tmp_path / "m.json"
        main(["twin", "-c", str(path), "-o", str(tmp_path / "t.csv"),
              "--manifest", str(man)])
        doc = json.loads(man.read_text())
        assert "uniqueness-only" in doc["gamma_regime"]

    def test_suite_smoke(self, tmp_path, capsys):
        code = main(["suite", "--preset", "gl-smoke",
                     "--output-dir", str(tmp_path)])
        assert code == 0
        doc = json.loads((tmp_path / "gl-smoke-manifest.json").read_text())
        assert doc["passes"] is True
        assert doc["outputs"]

    def test_suite_manifest_lists_only_its_own_traces(self, tmp_path):
        # traces of another battery and an unrelated file share the directory
        for name in ("gl-smoke-identical-twin.csv", "gl-smoke-gronwall.csv",
                     "unrelated-notes.csv"):
            (tmp_path / name).write_text("not this run's\n")
        assert main(["suite", "--preset", "sphere-smoke", "--output-dir", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "sphere-smoke-manifest.json").read_text())
        assert doc["outputs"] == [str(tmp_path / f"sphere-smoke-{check}.csv")
                                  for check in ("gronwall", "identical-twin")]

    def test_suite_manifest_leaves_out_traces_of_aborted_checks(self, tmp_path, capsys,
                                                                monkeypatch):
        def failing(pair, params):
            raise FunctionalError("remainder rejected the pair")

        monkeypatch.setattr(verifier, "remainder", failing)
        (tmp_path / "gl-smoke-gronwall.csv").write_text("an earlier run's\n")
        assert main(["suite", "--preset", "gl-smoke", "--output-dir", str(tmp_path)]) == 1
        doc = json.loads((tmp_path / "gl-smoke-manifest.json").read_text())
        assert doc["outputs"] == []

    @pytest.mark.parametrize("error, code, prefix", [
        (SolverError("reference trajectory: at t=0: diverged"), 3, "solver abort: "),
        (VerifierError("sample time mismatch: 0.1 vs 0.2"), 2, "invalid experiment: "),
    ])
    def test_suite_task_reports_an_error_as_main_does(self, tmp_path, capsys, monkeypatch,
                                                      error, code, prefix):
        def failing(cfg):
            raise error

        monkeypatch.setattr(cli, "run_twin", failing)
        path = tmp_path / "cfg.json"
        path.write_text(cfg_text())
        assert main(["twin", "-c", str(path), "-o", str(tmp_path / "t.csv"),
                     "--manifest", str(tmp_path / "m.json")]) == code
        printed = capsys.readouterr().err
        for task in cli._suite_tasks("gl-smoke", str(tmp_path)):
            name, ok, detail = cli._suite_task(task)
            assert not ok
            assert printed == f"{detail}\n" == f"{prefix}{error}\n"

    def test_full_suite_tasks_carry_their_configs(self, tmp_path, monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("building the suite tasks runs nothing")

        monkeypatch.setattr(verifier, "evolve", no_run)
        tasks = cli._suite_tasks("full", str(tmp_path))
        assert [t[0] for t in tasks] == [
            f"{s}-{check}" for s in ("gl", "sphere")
            for check in ("identical-twin", "gronwall", "collapse")
        ]
        by_name = {name: (check, cfg, arg) for name, check, cfg, arg in tasks}
        for s in ("gl", "sphere"):
            check, twin, trace_path = by_name[f"{s}-identical-twin"]
            assert check is cli._check_twin_floor
            assert trace_path == os.path.join(str(tmp_path), f"full-{s}-identical-twin.csv")
            assert twin.grid_reference.n_nodes == twin.grid_candidate.n_nodes == 257
            assert twin.dt_reference == twin.dt_candidate == 5e-5
            assert (twin.t_end, twin.sample_interval) == (0.2, 1e-3)
            assert twin.perturbation.amplitude == 0.0

            check, gronwall, trace_path = by_name[f"{s}-gronwall"]
            assert check is cli._check_gronwall_cert
            assert trace_path == os.path.join(str(tmp_path), f"full-{s}-gronwall.csv")
            assert gronwall.grid_reference.n_nodes == gronwall.grid_candidate.n_nodes == 257
            assert gronwall.dt_reference == gronwall.dt_candidate == 0.4 / 256**2
            assert gronwall.t_end == 0.1
            assert gronwall.resolved_sample_interval() == 0.1 / 50
            assert gronwall.perturbation == Perturbation(amplitude=1e-3, mode=2)

            check, collapse, levels = by_name[f"{s}-collapse"]
            assert check is cli._check_collapse and levels == [65, 129, 257]
            assert collapse.grid_candidate.n_nodes == 65
            assert collapse.grid_reference.n_nodes == 1025
            assert collapse.dt_candidate == 0.4 / 64**2
            assert collapse.dt_reference == 4.0 * 0.4 / 1024**2
            assert collapse.resolved_sample_interval() == 0.1 / 50

            for cfg in (twin, gronwall, collapse):
                assert cfg.params.system is System.from_name(s)
                assert cfg.initial_preset == f"{s}-smooth"

    @pytest.mark.parametrize("workers", ["2", "two"])
    def test_suite_starts_no_process_and_reads_no_environment(self, tmp_path, capsys,
                                                               monkeypatch, workers):
        def no_pool(*args, **kwargs):
            raise AssertionError("a suite started a process pool")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        # enough cores for a pool of two, on any machine
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(cli, "_suite_task", lambda task: (task[0], True, "stub"))
        monkeypatch.setenv("NEMLAB_WORKERS", workers)
        assert main(["suite", "--preset", "gl-smoke", "--output-dir", str(tmp_path)]) == 0
        assert capsys.readouterr() == ("[PASS] gl-identical-twin: stub\n"
                                       "[PASS] gl-gronwall: stub\n"
                                       f"manifest: {tmp_path / 'gl-smoke-manifest.json'}\n", "")

    @pytest.mark.parametrize("sigma0, code", [(0.01, 3), (0.02, 0)])
    def test_gl_penalization_bound_exits_3(self, tmp_path, capsys, sigma0, code):
        path = tmp_path / "cfg.json"
        path.write_text(cfg_text(sigma0=sigma0, grid_reference={"n": 97},
                                 grid_candidate={"n": 97}, t_end=0.05,
                                 perturbation={"amplitude": 1e-3, "mode": 2}))
        assert main(["twin", "-c", str(path), "-o", str(tmp_path / "t.csv"),
                     "--manifest", str(tmp_path / "m.json")]) == code
        if code:
            assert capsys.readouterr().err == (
                "solver abort: reference trajectory: dt=2.000e-04 exceeds the GL "
                "penalization bound sigma0^2/theta=1.000e-04 (the explicit reaction "
                "has linearized rate 2*theta/sigma0^2)\n"
            )

    @pytest.mark.parametrize("n_candidate", [33, 17], ids=["lockstep", "streamed"])
    def test_initial_density_below_floor_exits_3(self, tmp_path, capsys, n_candidate):
        # the preset's least density is 0.9, at node 24 of 33; evolve checks
        # it before the first sample, whether or not the candidate joins the
        # reference's evolve
        path = tmp_path / "cfg.json"
        path.write_text(cfg_text(grid_reference={"n": 33}, grid_candidate={"n": n_candidate},
                                 density_floor=0.95))
        assert main(["twin", "-c", str(path), "-o", str(tmp_path / "t.csv"),
                     "--manifest", str(tmp_path / "m.json")]) == 3
        assert capsys.readouterr().err == (
            "solver abort: reference trajectory: at t=0: density 9.000e-01 below floor "
            "9.5e-01 at node 24\n"
        )

    @pytest.mark.parametrize("overrides, bound", [({"gamma": 8000.0}, "0.000e+00"),
                                                  ({"x_max": 1e-100}, "8.153e-103")],
                             ids=["gamma", "x_max"])
    @pytest.mark.parametrize("system", ["gl", "sphere"])
    @pytest.mark.parametrize("n_candidate", [33, 17], ids=["lockstep", "streamed"])
    def test_first_step_beyond_the_stability_bound_exits_3(self, tmp_path, capsys, n_candidate,
                                                           system, overrides, bound):
        # a sound speed beyond the float range (1.1 ** 7999) or a tiny dx:
        # evolve checks the first step's bound before the first sample, whose
        # pressure and certificate row would overflow, on either pairing path
        path = tmp_path / "cfg.json"
        path.write_text(cfg_text(system=system, initial_preset=f"{system}-smooth",
                                 grid_reference={"n": 33}, grid_candidate={"n": n_candidate},
                                 **overrides))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["twin", "-c", str(path), "-o", str(tmp_path / "t.csv"),
                         "--manifest", str(tmp_path / "m.json")])
        assert code == 3
        assert capsys.readouterr().err == (
            "solver abort: reference trajectory: at t=0: dt=2.000e-04 exceeds stability "
            f"bound {bound} (0.4*dx over max wave speed)\n"
        )

    @pytest.mark.parametrize("command, doc, err", [
        (command, LAMBDA_33, "numerical abort: non-finite |g~/rho~|^3 integral at t=0")
        for command in ("twin", "gronwall", "energy")
    ] + [
        # the streamed candidate is paired over the reference's stored
        # samples before the reference's error propagates: lockstep's message
        ("twin", dict(LAMBDA_33, grid_candidate={"n": 17}),
         "numerical abort: non-finite |g~/rho~|^3 integral at t=0"),
        ("simulate", LAMBDA_33, "numerical abort: non-finite candidate energy at t=4e-05"),
        # level 129 is paired over the reference's stored samples too, and
        # its own abort at t=1e-05 comes before the reference's after 4e-05
        ("uniqueness", LAMBDA_33, "solver abort: candidate trajectory: at t=1e-05: dt=1.000e-05 "
                                  "exceeds stability bound 2.597e-279 (0.4*dx over max wave speed)"),
    ] + [
        # x_max = 1e-5: the first step's stress lam |d_x|^2 overflows; the
        # end-of-step finite check is its one report, with no numpy warning
        (command, dict(LAMBDA_33, system=system, initial_preset=f"{system}-smooth",
                       x_max=1e-5, t_end=1e-13), err)
        for system in ("gl", "sphere")
        for command, err in (
            ("uniqueness", "solver abort: reference trajectory: at t=0: "
                           "non-finite values after step"),
            ("simulate", "numerical abort: non-finite candidate energy at t=0"),
            *((c, "numerical abort: non-finite reference energy at t=0")
              for c in ("twin", "gronwall", "energy")))
    ], ids=["twin", "gronwall", "energy", "twin-streamed", "simulate", "uniqueness"] + [
        f"{system}-tiny-domain-{command}" for system in ("gl", "sphere")
        for command in ("uniqueness", "simulate", "twin", "gronwall", "energy")])
    def test_overflowing_values_exit_3_with_one_line(self, tmp_path, capsys, command, doc, err):
        # lambda = 1e300: at t=0 the reference's |g~/rho~|^3 leaves the float
        # range; after one window the velocity is about 1e300 and so are the
        # kinetic energies; the next step then exceeds the stability bound
        path = tmp_path / "cfg.json"
        path.write_text(cfg_text(**doc))
        # the default levels are finer than the 33-node reference of x_max = 1e-5
        levels = ["--levels", "9,17,33"] if doc["x_max"] == 1e-5 else []
        out = levels if command == "uniqueness" else ["-o", str(tmp_path / "t.csv")]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([command, "-c", str(path), *out, "--manifest", str(tmp_path / "m.json")])
        assert [str(w.message) for w in caught] == []
        assert code == 3
        assert capsys.readouterr().err == err + "\n"

    def test_overflowing_entropy_without_an_abort_exits_3(self, tmp_path, capsys):
        # lambda = 1e300 over one sample interval: no trajectory aborts, but
        # at t=4e-05 the relative entropy of levels 41 and 65 leaves the
        # float range (level 33 joins the reference, and its entropy is 0)
        path = tmp_path / "cfg.json"
        path.write_text(cfg_text(**{"lambda": 1e300, "x_max": 1e5, "t_end": 4e-05,
                                    "sample_interval": 4e-05, "grid_reference": {"n": 33},
                                    "grid_candidate": {"n": 33}}))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["uniqueness", "-c", str(path), "--levels", "33,41,65",
                         "--manifest", str(tmp_path / "m.json")])
        assert code == 3
        assert capsys.readouterr() == (
            "", "numerical abort: non-finite relative entropy of level 41 at t=4e-05\n")

    @pytest.mark.parametrize("gamma", [1.01, 1.001])
    @pytest.mark.parametrize("system", ["gl", "sphere"])
    @pytest.mark.parametrize("n_candidate", [33, 17], ids=["lockstep", "streamed"])
    def test_gamma_near_one_twin_passes(self, tmp_path, capsys, n_candidate, system, gamma):
        # Pi = a/(gamma-1) rho^gamma is 100 to 1000 times P: the Bregman
        # gap's round-off is held to its scaled tolerance, not to 1e-14
        path = tmp_path / "cfg.json"
        path.write_text(cfg_text(system=system, initial_preset=f"{system}-smooth",
                                 grid_reference={"n": 33}, grid_candidate={"n": n_candidate},
                                 gamma=gamma, t_end=0.002,
                                 perturbation={"amplitude": 1e-3, "mode": 2}))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["twin", "-c", str(path), "-o", str(tmp_path / "t.csv"),
                         "--manifest", str(tmp_path / "m.json")])
        assert code == 0
        assert capsys.readouterr().err == ""


def _dip_density(rho, u, d):
    rho[5] = 1e-9


def _tilt_director(rho, u, d):
    d *= 1.001


def _blow_up_velocity(rho, u, d):
    u *= 1e120


def _peak_velocity(rho, u, d):
    # the square of the peak, a norm factor of h_hat, leaves the float
    # range; the velocity exchange term overflows as well and is named first
    u[len(u) // 2] = 1e200


# fault -> (system, config overrides, edit of the restricted reference,
# exception type, message)
PAIR_FAULTS = {
    "density-below-floor": ("gl", {}, _dip_density, FunctionalError,
                            "reference density 1.000e-09 below lower bound 1.0e-08"),
    "director-off-sphere": ("sphere", {}, _tilt_director, FunctionalError,
                            "reference director is not unit length"),
    "non-finite-term": ("gl", {}, _blow_up_velocity, FunctionalError,
                        "non-finite remainder term rd_velocity_exchange"),
    "overflowing-square": ("gl", {}, _peak_velocity, FunctionalError,
                           "non-finite remainder term rd_velocity_exchange"),
}


class TestPairFaults:
    """A bad pair reaches the user with its own error, whatever order the
    certificate row evaluates its pieces in."""

    @pytest.mark.parametrize("fault", list(PAIR_FAULTS))
    def test_error_type_message_and_exit_code(self, tmp_path, capsys, monkeypatch, fault):
        system, overrides, edit, exc_type, message = PAIR_FAULTS[fault]
        original = verifier.restrict_state

        def edited(state, grid_to, system_):
            out = original(state, grid_to, system_)
            rho, u, d = (np.array(f) for f in (out.rho, out.u, out.d))
            edit(rho, u, d)
            return State(grid_to, rho, u, d)

        monkeypatch.setattr(verifier, "restrict_state", edited)
        text = cfg_text(**{"system": system, "initial_preset": f"{system}-smooth",
                           "grid_candidate": {"n": 33}, "t_end": 4e-4, **overrides})
        path = tmp_path / "cfg.json"
        path.write_text(text)
        with np.errstate(all="ignore"):  # the blown-up velocity overflows
            with pytest.raises(exc_type) as info:
                run_twin(parse_config(text))
            assert info.type is exc_type and str(info.value) == message
            assert main(["gronwall", "-c", str(path), "-o", str(tmp_path / "t.csv"),
                         "--manifest", str(tmp_path / "m.json")]) == 3
        assert capsys.readouterr().err == f"numerical abort: {message}\n"


# A valid base document, and each key's pool of edge values, of which a
# document takes up to three.  The values behind the defects mended so far
# are among them: gamma 8000, lambda 1e300 on x_max 1e5 and 1e-5, t_end
# 1e-13 and 1e300, a mode beyond the float range, non-finite numbers, a
# floor above the initial density, levels that are no grids, a node count
# (a grid's or a level's) beyond the float range, a grid's beyond MAX_NODES.  Every run has
# n <= 33 and, where its config is valid, a few thousand steps at most
# (uniqueness's finest level takes up to 16 times the candidate's steps).
_FUZZ_BASE = dict(MINIMAL_GL, grid_reference={"n": 33}, grid_candidate={"n": 17},
                  t_end=2e-3, perturbation={"amplitude": 1e-3, "mode": 2})
_FUZZ_EDGES = {
    "gamma": [1.4, 1.001, 3.0, 8000.0, 1.0],
    "a": [1e-300, 1e300, 0.0],
    "sigma0": [0.3, 1e-150, 1e200],
    "mu": [0.005, 1e300, 1e-300],
    "lambda": [1e300, 1e-300, 0.0],
    "theta": [0.001, 1e300, 1e-300],
    "x_min": [-1.0, -1e300],
    "x_max": [1e5, 1e-5, 1e300, 1e-160],
    "grid_reference": [{"n": 5}, {"n": 9}, {"n": 4}, {"n": 10**400}, {"n": 10**9},
                       {"n": 10**15}],
    "grid_candidate": [{"n": 33}, {"n": 9}, {"n": 5}, {"n": 10**400}, {"n": 10**9},
                       {"n": 10**15}],
    "dt": [5e-5, 1e-3, 0.04, -1.0],
    "dt_candidate": [1e-5, math.inf],
    "t_end": [4e-5, 1e-13, 0.01, 1e300],
    "sample_interval": [4e-5, 1e-3, math.nan, 1e-297],
    "perturbation": [{"amplitude": 0.5, "mode": 16}, {"amplitude": 1e-3, "mode": 10**400},
                     {"amplitude": 1.5}, {}],
    "density_floor": [0.95, 1e-300],
    "gronwall": [{"c_h": 1.0}, {"c_h": 1e-300, "slack": 1e300}],
}
_FUZZ_PREFIXES = ("config error: ", "invalid experiment: ", "solver abort: ", "numerical abort: ")


@st.composite
def _fuzz_cases(draw):
    """(command, --levels, config document)."""
    doc = dict(_FUZZ_BASE, **draw(st.sampled_from(
        [{}, {"system": "sphere", "initial_preset": "sphere-smooth"},
         {"initial_preset": "sphere-smooth"}])))
    for key in draw(st.lists(st.sampled_from(sorted(_FUZZ_EDGES)), max_size=3, unique=True)):
        doc[key] = draw(st.sampled_from(_FUZZ_EDGES[key]))
    command = draw(st.sampled_from(["twin", "gronwall", "energy", "simulate", "uniqueness"]))
    levels = ["9,17,33", "5,9,17", "2,3,4", "17,9,33", f"9,17,{10**400}"]
    return command, draw(st.sampled_from(levels)), doc


class TestConfigFuzz:
    """Every config document reaches the user as an exit code 0-3 and at most
    one stderr line, without a numpy warning or an inf in a trace.  The
    example count is the active Hypothesis profile's (tests/conftest.py):
    tier-1 runs a few dozen, the "ci" profile a few hundred."""

    @settings(derandomize=True, deadline=None)
    @given(case=_fuzz_cases())
    def test_documents_exit_0_to_3_with_one_line(self, case):
        command, levels, doc = case
        with tempfile.TemporaryDirectory() as tmp:
            path, trace = os.path.join(tmp, "cfg.json"), os.path.join(tmp, "t.csv")
            with open(path, "w") as fh:
                json.dump(doc, fh)
            extra = ["--levels", levels] if command == "uniqueness" else ["-o", trace]
            err = io.StringIO()
            with warnings.catch_warnings(record=True) as caught, \
                    contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                warnings.simplefilter("always")
                code = main([command, "-c", path, *extra, "--manifest", os.path.join(tmp, "m.json")])
            assert [str(w.message) for w in caught] == []
            assert code in (0, 1, 2, 3)
            lines = err.getvalue().splitlines()
            assert lines == [] or (len(lines) == 1 and lines[0].startswith(_FUZZ_PREFIXES)), lines
            if os.path.exists(trace):
                with open(trace) as fh:
                    assert "inf" not in fh.read()
                # a column is empty throughout (the inactive system's) or finite
                for name, col in read_columns(trace).items():
                    assert np.isnan(col).all() or np.isfinite(col).all(), name
