import hashlib
import json
import time

import numpy as np
import pytest

from weylrg.cli import MAX_PROPAGATOR_ROWS, dispatch
from weylrg.lattice import build_params
from weylrg.propagator import GridSpec, PropagatorGrid, build_propagator_grid

BASE = {
    "model": {"t": 1.0, "t_perp": 0.5, "t_prime": 2.0, "r": 0.5, "U": 0.05, "kappa": 1.0},
    "grid": {"L": 4, "beta": 8.0, "M": 6},
    "flow": {"U": 0.05, "h_min": -3, "n_k": 8},
}


def write_cfg(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_weyl_example(tmp_path):
    cfg = write_cfg(tmp_path, BASE)
    out = tmp_path / "o"
    assert dispatch(["weyl", "--config", cfg, "--out", str(out)]) == 0
    data = json.loads((out / "weyl.json").read_text())
    assert data["phase"] == "semimetal"
    assert data["p_F"] == pytest.approx(1.047198, abs=1e-6)
    assert data["v30"] == pytest.approx(0.433013, abs=1e-6)


def test_phase_insulator(tmp_path):
    cfg = dict(BASE, model=dict(BASE["model"], r=-0.2))
    path = write_cfg(tmp_path, cfg)
    out = tmp_path / "o"
    assert dispatch(["phase", "--config", path, "--out", str(out)]) == 0
    data = json.loads((out / "phase.json").read_text())
    assert data["phase"] == "insulator"
    assert data["weyl_points"] is None


def test_flow_u_zero_constant_rows(tmp_path):
    cfg = dict(BASE, flow={"U": 0.0, "h_min": -3, "n_k": 8})
    path = write_cfg(tmp_path, cfg)
    out = tmp_path / "o"
    assert dispatch(["flow", "--config", path, "--out", str(out)]) == 0
    lines = (out / "flow.csv").read_text().strip().splitlines()
    assert lines[0].startswith("# manifest:")
    assert lines[1] == "h,Z,v,v3,nu,beta_nu,regime"
    rows = [l.split(",") for l in lines[2:]]
    assert all(float(r[1]) == 1.0 for r in rows)       # Z frozen
    assert all(float(r[4]) == 0.0 for r in rows)       # nu frozen
    assert {r[6] for r in rows} <= {"1", "2"}


def test_unknown_config_key_rejected(tmp_path):
    cfg = dict(BASE, extra={"x": 1})
    path = write_cfg(tmp_path, cfg)
    assert dispatch(["weyl", "--config", path, "--out", str(tmp_path / "o")]) == 1


def test_invalid_model_rejected(tmp_path):
    cfg = dict(BASE, model=dict(BASE["model"], t_perp=1.0, t_prime=1.0))
    path = write_cfg(tmp_path, cfg)
    assert dispatch(["weyl", "--config", path, "--out", str(tmp_path / "o")]) == 1


def test_unknown_subcommand_usage_error(tmp_path):
    cfg = write_cfg(tmp_path, BASE)
    assert dispatch(["frobnicate", "--config", cfg]) == 1


def test_missing_config_is_validation_error(tmp_path):
    assert dispatch(["weyl", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "o")]) == 1


def test_determinism_byte_identical(tmp_path):
    cfg = write_cfg(tmp_path, BASE)
    outs = []
    for name in ("o1", "o2"):
        out = tmp_path / name
        assert dispatch(["scales", "--config", cfg, "--out", str(out),
                         "--seed", "11"]) == 0
        outs.append((out / "scales.json").read_bytes())
    assert outs[0] == outs[1]

    outs = []
    for name in ("b1", "b2"):
        out = tmp_path / name
        assert dispatch(["bbf-verify", "--config", cfg, "--out", str(out),
                         "--seed", "5"]) == 0
        outs.append((out / "bbf.json").read_bytes())
    assert outs[0] == outs[1]


def test_outputs_cross_reference_manifest(tmp_path):
    cfg = write_cfg(tmp_path, BASE)
    out = tmp_path / "o"
    assert dispatch(["trees", "--config", cfg, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    body = json.loads((out / "trees.json").read_text())
    assert body["manifest"] == manifest["config_sha"]
    assert "trees.json" in manifest["outputs"]


def test_propagator_output(tmp_path):
    cfg = dict(BASE, grid={"L": 2, "beta": 4.0, "M": 3})
    path = write_cfg(tmp_path, cfg)
    out = tmp_path / "o"
    assert dispatch(["propagator", "--config", path, "--out", str(out)]) == 0
    lines = (out / "propagator.csv").read_text().splitlines()
    assert lines[1].split(",")[:4] == ["k0", "k1", "k2", "k3"]
    assert len(lines[1].split(",")) == 12
    meta = json.loads((out / "propagator.json").read_text())
    assert meta["conjugation_defect"] < 1e-12


def test_propagator_csv_hash_and_roundtrip(tmp_path):
    cfg = dict(BASE, grid={"L": 2, "beta": 4.0, "M": 3})
    path = write_cfg(tmp_path, cfg)
    out = tmp_path / "o"
    assert dispatch(["propagator", "--config", path, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    data = (out / "propagator.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == manifest["outputs"]["propagator.csv"]
    grid = GridSpec(**cfg["grid"])
    back = PropagatorGrid.from_csv(out / "propagator.csv", grid)
    m = cfg["model"]
    pg = build_propagator_grid(grid, build_params(m["t"], m["t_perp"], m["t_prime"],
                                                  r=m["r"], U=m["U"], kappa=m["kappa"]))
    assert np.array_equal(back.momenta, pg.momenta)
    assert np.array_equal(back.values, pg.values)


@pytest.mark.parametrize("grid", [{"L": 4096, "beta": 8.0, "M": 12},
                                  {"L": 4, "beta": 8.0, "M": 60},
                                  {"L": 4, "beta": float("inf"), "M": 12}])
def test_propagator_oversized_grid_fails_fast(tmp_path, grid):
    path = write_cfg(tmp_path, dict(BASE, grid=grid))
    t0 = time.perf_counter()
    assert dispatch(["propagator", "--config", path, "--out", str(tmp_path / "o")]) == 1
    assert time.perf_counter() - t0 < 1.0
    assert not (tmp_path / "o" / "propagator.csv").exists()


def test_readme_grid_well_under_row_cap():
    assert GridSpec(L=4, beta=8.0, M=12).row_bound() < MAX_PROPAGATOR_ROWS / 4


def test_bounds_check_runs(tmp_path):
    cfg = dict(BASE, audit={"regime": 2, "h_top": -2, "h_bottom": -4, "N": 20,
                            "x_points": 15})
    path = write_cfg(tmp_path, cfg)
    out = tmp_path / "o"
    assert dispatch(["bounds-check", "--config", path, "--out", str(out)]) == 0
    summary = json.loads((out / "decay.json").read_text())
    assert summary["sup_exponent"] == pytest.approx(3.0, abs=0.3)


def test_solve_nu_subcommand(tmp_path):
    cfg = write_cfg(tmp_path, BASE)
    out = tmp_path / "o"
    assert dispatch(["solve-nu", "--config", cfg, "--out", str(out)]) == 0
    data = json.loads((out / "flow.json").read_text())
    assert data["solved_nu"] is not None
    assert data["termination"] == "completed"
