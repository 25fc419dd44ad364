import json
import math

import numpy as np
import pytest

from nemlab.cli import main
from nemlab.config import ConfigError, parse_config
from nemlab.constitutive import System
from nemlab.traceio import COLUMNS, read_columns, read_trace, write_trace
from nemlab.verifier import EntropyTrace, run_twin

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
        assert cfg.solver.density_floor == 1e-8
        assert cfg.solver.artificial_viscosity == 0.0
        assert cfg.perturbation.amplitude == 0.0
        assert cfg.dt_reference == cfg.dt_candidate == 2e-4
        assert cfg.resolved_sample_interval() == pytest.approx(0.02 / 50)

    def test_gamma_at_most_one_rejected(self):
        with pytest.raises(ConfigError, match="gamma must exceed 1"):
            parse_config(cfg_text(gamma=0.9))

    def test_bc_system_conflict(self):
        text = cfg_text(
            system="sphere", initial_preset="sphere-smooth",
            director_bc="dirichlet_d0",
        )
        with pytest.raises(ConfigError, match="conflicts with system"):
            parse_config(text)

    def test_matching_bc_accepted(self):
        cfg = parse_config(cfg_text(director_bc="dirichlet_d0"))
        assert cfg.params.system is System.GL

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
            "t_end": (-0.5, "t_end must be positive"),
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


class TestMain:
    def test_unknown_subcommand_exits_2(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_missing_config_exits_2(self, tmp_path, capsys):
        assert main(["twin", "-c", str(tmp_path / "none.json")]) == 2

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
        assert len(doc["config_sha256"]) == 64

    def test_gronwall_command(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(cfg_text(perturbation={"amplitude": 1e-3, "mode": 2}))
        out = tmp_path / "trace.csv"
        man = tmp_path / "man.json"
        code = main(["gronwall", "-c", str(path), "-o", str(out),
                     "--manifest", str(man)])
        assert code == 0
        assert "[PASS] gronwall" in capsys.readouterr().out
        doc = json.loads(man.read_text())
        assert doc["checks"]["gronwall"] is True

    def test_energy_command(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(cfg_text())
        code = main(["energy", "-c", str(path),
                     "-o", str(tmp_path / "t.csv"),
                     "--manifest", str(tmp_path / "m.json")])
        assert code == 0

    def test_uniqueness_command_exact(self, tmp_path, capsys):
        dx = 1.0 / 64.0
        path = tmp_path / "cfg.json"
        path.write_text(cfg_text(dt=0.4 * dx * dx, t_end=0.01))
        code = main(["uniqueness", "-c", str(path), "--levels", "65,65,65",
                     "--manifest", str(tmp_path / "m.json")])
        assert code == 0
        assert "exact" in capsys.readouterr().out

    def test_simulate_command(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(cfg_text())
        out = tmp_path / "sim.csv"
        code = main(["simulate", "-c", str(path), "-o", str(out),
                     "--manifest", str(tmp_path / "m.json")])
        assert code == 0
        cols = read_columns(str(out))
        assert np.all(np.isnan(cols["entropy"]))
        assert np.all(np.isfinite(cols["energy_candidate"]))
        drift = np.max(np.abs(cols["mass_candidate"] - cols["mass_candidate"][0]))
        assert drift <= 1e-12

    def test_solver_abort_exits_3(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        # one sample window of 0.02 forces an effective step far beyond the
        # advective/acoustic bound
        path.write_text(cfg_text(dt=0.5, sample_interval=0.02))
        assert main(["twin", "-c", str(path), "-o", str(tmp_path / "t.csv"),
                     "--manifest", str(tmp_path / "m.json")]) == 3
        assert "solver abort" in capsys.readouterr().err

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

    def test_suite_worker_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("NEMLAB_WORKERS", "2")
        code = main(["suite", "--preset", "sphere-smoke",
                     "--output-dir", str(tmp_path)])
        assert code == 0
