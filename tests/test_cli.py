import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from weylrg import cli, propagator
from weylrg.cli import (_SCHEMA, H_MIN_FLOOR, MAX_GRID_L, MAX_N_K, MAX_PROPAGATOR_ROWS,
                        MAX_VERIFY_CASES, dispatch, load_config)
from weylrg.lattice import build_params, dispersion
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


def test_flow_deep_insulator_stops(tmp_path):
    # r = -0.3 gaps out the whole scale-0 band: one trivial step, exit 0
    cfg = dict(BASE, model=dict(BASE["model"], r=-0.3))
    path = write_cfg(tmp_path, cfg)
    out = tmp_path / "o"
    assert dispatch(["flow", "--config", path, "--out", str(out)]) == 0
    assert json.loads((out / "flow.json").read_text())["termination"] == "insulator-stop"
    rows = (out / "flow.csv").read_text().strip().splitlines()[2:]
    assert [row.split(",")[0] for row in rows] == ["0", "-1"]  # the step, then the final couplings


@pytest.mark.parametrize("kappa,cause", [(1e-7, "couplings left the eps0 = 0.5 window"),
                                         (1e-9, "wavefunction update 1 + b0 = nan")])
def test_flow_tiny_kappa_exits_2_with_its_cause(tmp_path, capsys, kappa, cause):
    # kappa = 1e-7 used to exit 0 with v3 = 6.196 from h = -1 on (bare 0.433);
    # kappa = 1e-9 exited 2 with "band empty", which hid the NaN couplings
    path = write_cfg(tmp_path, dict(BASE, model=dict(BASE["model"], kappa=kappa)))
    assert dispatch(["flow", "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith(f"computation error: {cause}")


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


def test_module_entry_point(tmp_path):
    """python -m weylrg.cli runs the subcommand and returns dispatch's exit code."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))

    def run(cfg, out):
        return subprocess.run([sys.executable, "-m", "weylrg.cli", "band", "--config", cfg,
                               "--out", str(out)], env=env, capture_output=True, text=True)
    done = run(write_cfg(tmp_path, BASE), tmp_path / "o")
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "o" / "band.csv").read_text().startswith("# manifest:")
    empty = tmp_path / "empty.json"
    empty.write_text("")
    done = run(str(empty), tmp_path / "bad")
    assert done.returncode == 1 and "cannot read config" in done.stderr
    assert not (tmp_path / "bad" / "band.csv").exists()


@pytest.mark.parametrize("t_perp", [1e-160, 1e-170])
@pytest.mark.parametrize("sub", ["scales", "flow"])
def test_non_finite_b0_exits_2_with_one_line(tmp_path, capsys, sub, t_perp):
    """a0^2 underflows: b0 = 4/a0^2 is inf (1e-160) or a division by zero
    (1e-170).  Either is a computation error, and scales.json is not written
    with an Infinity in it.  mu = t' is given, not r = 1/2, which such a t_perp
    cannot store."""
    model = {k: v for k, v in BASE["model"].items() if k != "r"}
    path = write_cfg(tmp_path, dict(BASE, model=dict(model, t_perp=t_perp, mu=2.0)))
    assert dispatch([sub, "--config", path, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("computation error: b0 = 4/a0^2 is not finite") and err.count("\n") == 1
    assert not any((tmp_path / "o").iterdir())


@pytest.mark.parametrize("t_perp", [1e-160, 1e-12])
def test_r_that_cannot_be_stored_is_a_config_error(tmp_path, capsys, t_perp):
    """mu = t' + t_perp (r - 1) rounds: r = 1/2 would be stored as 1 (1e-160)
    or as 0.49996 (1e-12).  The model is rejected with both values named."""
    path = write_cfg(tmp_path, dict(BASE, model=dict(BASE["model"], t_perp=t_perp)))
    assert dispatch(["weyl", "--config", path, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: model: r = 0.5 is stored as r = ")
    assert err.count("\n") == 1


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
    assert manifest["peak_rss_mb"] > 0 and manifest["children_peak_rss_mb"] >= 0


def test_manifest_counts_warnings(tmp_path):
    # |r| > 1/2 is admissible but warned about; the warning goes to the manifest
    for r, warned in ((0.75, {"|r| = 0.75 > 1/2: outside the narrow crossover window": 1}),
                      (0.5, {})):
        path = write_cfg(tmp_path, dict(BASE, model=dict(BASE["model"], r=r)))
        out = tmp_path / f"o{r}"
        assert dispatch(["phase", "--config", path, "--out", str(out)]) == 0
        assert json.loads((out / "manifest.json").read_text())["warnings"] == warned


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


@pytest.mark.parametrize("sub", ["band", "propagator"])
@pytest.mark.parametrize("L", [MAX_GRID_L + 1, 10 ** 30])  # 10^30 used to exit 2 in band
def test_oversized_grid_L_rejected_up_front(tmp_path, sub, L):
    path = write_cfg(tmp_path, dict(BASE, grid=dict(BASE["grid"], L=L)))
    t0 = time.perf_counter()
    assert dispatch([sub, "--config", path, "--out", str(tmp_path / "o")]) == 1
    assert time.perf_counter() - t0 < 1.0
    assert list((tmp_path / "o").iterdir()) == []


def test_band_csv_matches_per_row_dispersion(tmp_path):
    """band.csv from one array dispersion call per axis against the scalar
    call per row.  At L = 8192 six planar-diagonal values differ in the last
    bit (vectorized against scalar sin/cos); the k3 axis is bit-identical."""
    L = 8192
    path = write_cfg(tmp_path, dict(BASE, grid=dict(BASE["grid"], L=L)))
    out = tmp_path / "o"
    assert dispatch(["band", "--config", path, "--out", str(out)]) == 0
    got = np.loadtxt(out / "band.csv", delimiter=",", skiprows=2)
    p = build_params(**BASE["model"])
    ks = 2.0 * np.pi * np.arange(L) / L
    want = np.array([(0.0, 0.0, k3, dispersion((0.0, 0.0, k3), p)) for k3 in ks]
                    + [(k, k, 0.0, dispersion((k, k, 0.0), p)) for k in ks])
    assert np.array_equal(got[:, :3], want[:, :3])
    assert np.array_equal(got[:L, 3], want[:L, 3])
    np.testing.assert_array_max_ulp(got[:, 3], want[:, 3], maxulp=1)


@pytest.mark.parametrize("chunk_rows", [None, 7])
def test_propagator_csv_pinned_bytes(tmp_path, monkeypatch, cpus, chunk_rows):
    """propagator.csv of an L = 3 grid (540 rows), byte for byte, on one and
    on three CPUs.  The sha256 was computed by running the per-row repr writer
    of commit e90b2b6, before the writer formatted each distinct float once;
    7-row chunks cross 77 chunk boundaries, and on three CPUs two forked
    children write the later two of the runs of those 80 boxes."""
    if chunk_rows is not None:
        monkeypatch.setattr(propagator, "_CHUNK_ROWS", chunk_rows)
    path = write_cfg(tmp_path, dict(BASE, grid={"L": 3, "beta": 4.0, "M": 3}))
    for n in (1, 3):
        cpus(n)
        out = tmp_path / f"cpus{n}"
        assert dispatch(["propagator", "--config", path, "--out", str(out)]) == 0
        assert hashlib.sha256((out / "propagator.csv").read_bytes()).hexdigest() == \
            "837b4ed0b57a84d9f297ce228dda134c83018b483bd78e2ca730958acd88b9d0"


def test_manifest_records_peak_memory(tmp_path):
    """Every manifest records the peak RSS of the run's process (VmHWM on
    Linux) and of the children it reaped (ru_maxrss).  propagator on two CPUs
    forks one child to write the later of its two boxes: run in a fresh
    interpreter, whose only children those are, the children's peak is 0 on
    one CPU and above 0 on two, and the data files are the same.  A run
    launched by a process that holds 200 MB records its own peak, not that
    process's."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    script = ("import os, sys; from weylrg import cli; "
              "os.sched_getaffinity = lambda pid: set(range(int(sys.argv[1]))); "
              "sys.exit(cli.dispatch(sys.argv[2:]))")
    path = write_cfg(tmp_path, dict(BASE, grid={"L": 4, "beta": 8.0, "M": 6}))  # 20,864 rows
    manifests = {}
    for n in (1, 2):
        out = tmp_path / f"cpus{n}"
        done = subprocess.run([sys.executable, "-c", script, str(n), "propagator",
                               "--config", path, "--out", str(out)], env=env,
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        manifests[n] = json.loads((out / "manifest.json").read_text())
        assert manifests[n]["peak_rss_mb"] > 20  # numpy alone takes more
    assert manifests[1]["outputs"] == manifests[2]["outputs"]
    assert manifests[1]["children_peak_rss_mb"] == 0 < manifests[2]["children_peak_rss_mb"]
    launcher = ("import subprocess, sys; held = b'x' * (200 << 20); "
                "sys.exit(subprocess.run(sys.argv[1:]).returncode)")
    out = tmp_path / "launched"
    done = subprocess.run([sys.executable, "-c", launcher, sys.executable, "-c", script, "1",
                           "weyl", "--config", path, "--out", str(out)], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert 20 < json.loads((out / "manifest.json").read_text())["peak_rss_mb"] < 100


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


@pytest.mark.parametrize("bad", [
    {"regime": 3},           # used to escape dispatch as TypeError (h_star None)
    {"regime": 0},
    {"regime": "2"},
    {"N": "abc"},            # used to exit 2: invalid literal for int()
    {"N": 4.7},              # used to be truncated to 4
    {"h_top": 4.7},
    {"h_bottom": True},
    {"x_points": True},
    {"x_points": 15.0},
    {"h_top": -4, "h_bottom": -2},  # h_bottom above h_top
    {"r": 0.0},              # regime 2 at the critical point: used to escape as ZeroDivisionError
    {"r": -0.2},             # regime 2 in the insulator: used to exit 2
    {"h_top": 0, "h_bottom": -2},   # regime 2 at h* = 0: used to exit 2
    {"regime": 1, "h_top": -2, "h_bottom": -5},  # regime 1 below h* = 0: used to exit 2
])
def test_audit_input_rejected_up_front(tmp_path, bad):
    audit = {"regime": 2, "h_top": -2, "h_bottom": -4, "N": 20, "x_points": 15}
    model = dict(BASE["model"], **{k: v for k, v in bad.items() if k == "r"})
    audit.update({k: v for k, v in bad.items() if k != "r"})
    path = write_cfg(tmp_path, dict(BASE, model=model, audit=audit))
    t0 = time.perf_counter()
    assert dispatch(["bounds-check", "--config", path, "--out", str(tmp_path / "o")]) == 1
    assert time.perf_counter() - t0 < 1.0
    assert not (tmp_path / "o" / "decay.csv").exists()


@pytest.mark.parametrize("bad", ["abc", 4.7, True])
@pytest.mark.parametrize("sub, block, key, out", [
    ("trees", "trees", "n_max", "trees.json"),   # "abc" used to exit 2, 4.7 to run as 4
    ("trees", "trees", "l", "trees.json"),
    ("trees", "trees", "regime", "trees.json"),
    ("trees", "trees", "h", "trees.json"),
    ("bbf-verify", "verify", "n_s2", "bbf.json"),
    ("bbf-verify", "verify", "n_s3", "bbf.json"),
    ("bbf-verify", "verify", "n_gram", "bbf.json"),
    ("band", "grid", "L", "band.csv"),           # 4.7 used to run as L = 4
    ("band", "grid", "M", "band.csv"),
    ("propagator", "grid", "L", "propagator.csv"),
    ("propagator", "grid", "M", "propagator.csv"),
])
def test_integer_key_rejected_up_front(tmp_path, sub, block, key, out, bad):
    cfg = dict(BASE, **{block: dict(BASE.get(block, {}), **{key: bad})})
    path = write_cfg(tmp_path, cfg)
    t0 = time.perf_counter()
    assert dispatch([sub, "--config", path, "--out", str(tmp_path / "o")]) == 1
    assert time.perf_counter() - t0 < 1.0
    assert not (tmp_path / "o" / out).exists()


@pytest.mark.parametrize("verify", [
    {"n_s2": -3, "n_s3": -1, "n_gram": -7},  # used to exit 0 having checked nothing
    {"n_s2": -1},
    {"n_s3": -1},
    {"n_gram": -1},
    {"n_s2": 0, "n_s3": 0},                  # used to write worst_deviation 0.0 unchecked
    {"n_s2": MAX_VERIFY_CASES + 1},
    {"n_s3": MAX_VERIFY_CASES + 1},
    {"n_gram": MAX_VERIFY_CASES + 1},
    {"n_gram": 0},                           # used to write gram_all_hold true unchecked
])
def test_verify_counts_rejected_up_front(tmp_path, verify):
    path = write_cfg(tmp_path, dict(BASE, verify=verify))
    t0 = time.perf_counter()
    assert dispatch(["bbf-verify", "--config", path, "--out", str(tmp_path / "o")]) == 1
    assert time.perf_counter() - t0 < 1.0
    assert not (tmp_path / "o" / "bbf.json").exists()


@pytest.mark.parametrize("beta", [True, "8", [8], None, 10 ** 400])
@pytest.mark.parametrize("sub", ["band", "propagator"])
def test_grid_beta_rejected_up_front(tmp_path, sub, beta):
    # true and "8" used to run at beta = 1 and 8; [8] and null escaped dispatch
    # as TypeError, an integer beyond the float range as OverflowError
    path = write_cfg(tmp_path, dict(BASE, grid=dict(BASE["grid"], beta=beta)))
    t0 = time.perf_counter()
    assert dispatch([sub, "--config", path, "--out", str(tmp_path / "o")]) == 1
    assert time.perf_counter() - t0 < 1.0
    assert list((tmp_path / "o").iterdir()) == []


def test_solve_nu_subcommand(tmp_path):
    cfg = write_cfg(tmp_path, BASE)
    out = tmp_path / "o"
    assert dispatch(["solve-nu", "--config", cfg, "--out", str(out)]) == 0
    data = json.loads((out / "flow.json").read_text())
    assert data["solved_nu"] is not None
    assert data["termination"] == "completed"


@pytest.mark.parametrize("sub", ["flow", "solve-nu"])
@pytest.mark.parametrize("bad", [
    {"n_k": 0},              # used to escape dispatch as ZeroDivisionError
    {"n_k": 1},              # used to exit 2: crossover band empty
    {"n_k": 12.7},           # used to be truncated to 12
    {"n_k": "12"},
    {"n_k": True},
    {"h_min": 1},            # used to exit 2 from run_flow
    {"h_min": -3.5},
    {"h_min": H_MIN_FLOOR - 1},
    {"tol": 0.0},
    {"tol": -1e-10},
    {"tol": float("inf")},
    {"tol": float("nan")},
    {"tol": "small"},
    {"damping": 0.5},        # solver keys of the old damped iteration
    {"max_iter": 200},
    {"n_k": MAX_N_K + 1},    # band memory grows as n_k^3
    {"U": "abc"},            # used to exit 2: could not convert string to float
    {"U": float("nan")},     # used to exit 2: regime-2 band empty
    {"U": float("inf")},
    {"U": True},
    {"U": -10 ** 400},       # used to escape dispatch as OverflowError
    {"eps0": "x"},           # used to exit 2: could not convert string to float
    {"eps0": float("nan")},  # used to exit 0 with the coupling window off
    {"eps0": 0.0},
    {"eps0": -0.5},
    {"eps0": float("inf")},
    {"eps0": False},
])
def test_flow_input_rejected_up_front(tmp_path, sub, bad):
    path = write_cfg(tmp_path, dict(BASE, flow=dict(BASE["flow"], **bad)))
    t0 = time.perf_counter()
    assert dispatch([sub, "--config", path, "--out", str(tmp_path / "o")]) == 1
    assert time.perf_counter() - t0 < 1.0
    assert not (tmp_path / "o" / "flow.csv").exists()


def test_flow_input_edges_accepted(tmp_path):
    # the smallest n_k and the deepest h_min allowed still run; h_min = 0 is
    # an empty flow
    for flow in ({"U": 0.05, "h_min": -3, "n_k": 2},
                 {"U": 0.05, "h_min": 0, "n_k": 8},
                 {"U": 0.05, "h_min": H_MIN_FLOOR, "n_k": 2, "tol": 1}):
        path = write_cfg(tmp_path, dict(BASE, flow=flow))
        assert dispatch(["solve-nu", "--config", path, "--out", str(tmp_path / "o")]) == 0
        data = json.loads((tmp_path / "o" / "flow.json").read_text())
        assert data["solver"] == {"tol": float(flow.get("tol", 1e-10))}
    # integer U and eps0 are numbers too; a tiny eps0 reaches run_flow's window
    for U, eps0, code in ((0, 1, 0), (0.05, 1e-12, 2)):
        path = write_cfg(tmp_path, dict(BASE, flow={"U": U, "h_min": -3, "n_k": 8, "eps0": eps0}))
        assert dispatch(["flow", "--config", path, "--out", str(tmp_path / "o")]) == code


def test_threads_flag_gone(tmp_path):
    cfg = write_cfg(tmp_path, BASE)
    out = tmp_path / "o"
    assert dispatch(["weyl", "--config", cfg, "--out", str(out), "--threads", "2"]) == 1
    assert dispatch(["weyl", "--config", cfg, "--out", str(out)]) == 0
    assert "threads" not in json.loads((out / "manifest.json").read_text())


def test_top_level_seed_rejected(tmp_path):
    # seeds come only from --seed; a "seed" key used to be accepted and ignored
    path = write_cfg(tmp_path, dict(BASE, seed=7))
    assert dispatch(["trees", "--config", path, "--out", str(tmp_path / "o")]) == 1
    assert list((tmp_path / "o").iterdir()) == []


#: sha256 of every data file the nine non-propagator subcommands write on the
#: README config (propagator.csv: test_propagator_csv_pinned_bytes), recorded
#: with numpy 2.4.6 and OpenBLAS on x86-64; another BLAS or libm may move the
#: last digit of a float and so a digest.
_README_DIGESTS = {
    "band/band.csv": "dd5dcfa3246ef5c19a974c8e43b2899bfb49ec48d20eae7c75b7652e605913fe",
    "weyl/weyl.json": "0589171bd97fca171c931cb6699af2047562375af21a5698f80fa337cd9124e8",
    "phase/phase.json": "bf18843aa056f39b3fc59e4e9a5f28996e9fb32ed5429989e9fecdf6dcbad9dc",
    "scales/scales.json": "c9ce40e956f8d25217dafa81f2be8a7840c4551a9691beed0f626e67ffe775ca",
    "flow/flow.csv": "50ad419beae31ec03596d04692809c68f4ca970e4efad07ddbbd413d81e69803",
    "flow/flow.json": "bd00ef8f6427fe562fdf1db99b718a396de7149cf384c6552ca2ad89b3d0da6a",
    "solve-nu/flow.csv": "c33f2feb6d4cb70b134934d3e89650ff83e966ec92ac0a368e120014bc5311c5",
    "solve-nu/flow.json": "415f310dfd79c7ec7441b59bbcdbba0ac547122d390084e6bed77c5c4c3b1b52",
    "bounds-check/decay.csv": "9699e49ba763ffd52e230f2374c7800849b39c4cc75a42dc8815bf753b6e9e8c",
    "bounds-check/decay.json": "bf6b154439e9cecb06144577c182ce6f6ea133f58c6593d7a08b2db8e06f3d9f",
    "trees/trees.json": "1e86ee429eb1cb4a4a93a26477e1a7cb3dbedb1dc7117fcf33b678e3718f35a6",
    "bbf-verify/bbf.json": "0dd282645f2ef27a012d0f84abedc9cea1cf261d5690f1ee57f4d9fe742d0c4a",
}


def test_readme_example_config(tmp_path):
    """The README config loads as written, and every subcommand but propagator
    writes its data files byte for byte as pinned in _README_DIGESTS."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"## CLI\n.*?```json\n(.*?)```", readme, re.S).group(1)
    path = tmp_path / "cfg.json"
    path.write_text(block)
    cfg = load_config(str(path))
    assert cfg.written == json.loads(block)
    got = {}
    for sub in dict.fromkeys(name.split("/")[0] for name in _README_DIGESTS):
        out = tmp_path / sub
        assert dispatch([sub, "--config", str(path), "--out", str(out)]) == 0
        got.update((f"{sub}/{f.name}", hashlib.sha256(f.read_bytes()).hexdigest())
                   for f in out.iterdir() if f.name != "manifest.json")
    assert got == _README_DIGESTS


def test_flow_u_defaults_to_model_u(tmp_path):
    cfg = load_config(write_cfg(tmp_path, dict(BASE, flow={"h_min": -3})))
    assert cfg["flow"]["U"] == BASE["model"]["U"]
    assert cfg.written["flow"] == {"h_min": -3}  # the manifest hashes the config as written


# the subcommands that read each block; every run also tries one that does not,
# since load_config checks every block the config has
_READERS = {
    "model": ("band", "weyl", "phase", "propagator", "scales", "flow", "solve-nu",
              "bounds-check", "trees"),
    "grid": ("band", "propagator", "weyl"),
    "flow": ("flow", "solve-nu", "weyl"),
    "audit": ("bounds-check", "weyl"),
    "trees": ("trees", "weyl"),
    "verify": ("bbf-verify", "weyl"),
}


def _bad_values(kind, bounds):
    """Values of the wrong JSON type, non-finite, or outside the bounds."""
    bad = st.one_of(st.text(max_size=3), st.booleans(), st.none(),
                    st.lists(st.integers(), max_size=2),
                    st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
                    st.sampled_from([math.nan, math.inf, -math.inf]))
    if kind in ("int", "even"):
        lo, hi = bounds
        bad |= st.floats() | st.integers(max_value=lo - 1)  # 15.0 is no JSON integer
        if hi < math.inf:
            bad |= st.integers(min_value=hi + 1)
        if kind == "even":
            bad |= st.integers(lo // 2, 10 ** 6).map(lambda n: 2 * n + 1)
    else:
        bad |= st.integers(min_value=2 ** 1024) | st.integers(max_value=-2 ** 1024)
        if kind == "pos":
            bad |= st.floats(max_value=0.0) | st.integers(max_value=0)
    return bad


def _with(block, values):
    return dict(BASE, **{block: dict(BASE.get(block, {}), **values)})


@pytest.mark.parametrize("row", _SCHEMA, ids=[f"{r[0]}.{r[1]}" for r in _SCHEMA])
@settings(max_examples=20, deadline=None, derandomize=True)
@given(data=st.data())
def test_schema_rejects_bad_values_up_front(row, data):
    block, key, kind, default, bounds = row
    bad = data.draw(_bad_values(kind, bounds), label=f"{block}.{key}")
    with tempfile.TemporaryDirectory() as tmp:
        path = write_cfg(Path(tmp), _with(block, {key: bad}))
        for sub in _READERS[block]:
            out = Path(tmp) / sub
            t0 = time.perf_counter()
            assert dispatch([sub, "--config", path, "--out", str(out)]) == 1
            assert time.perf_counter() - t0 < 1.0
            assert list(out.iterdir()) == []


@pytest.mark.parametrize("row", _SCHEMA, ids=[f"{r[0]}.{r[1]}" for r in _SCHEMA])
def test_schema_accepts_edge_values(tmp_path, row):
    block, key, kind, default, bounds = row
    big, tiny = sys.float_info.max, 5e-324
    if kind == "num":
        edges = [-big, -tiny, 0, big]
    elif kind == "pos":
        edges = [tiny, 1, big]
    else:
        lo, hi = bounds
        edges = [lo, lo + 1 if kind == "int" else lo + 2] + ([hi] if hi < math.inf else [])
    for edge in edges:
        # an audit scale range needs h_bottom <= h_top
        values = {"h_top": edge, "h_bottom": edge} if key in ("h_top", "h_bottom") else {key: edge}
        cfg = _with(block, values)
        if block == "audit" and values.get("regime") != 2:
            # a regime-1 window needs h_bottom >= h*, which every h is at r = 0
            # (h* = -inf); the regime-2 default window lies below BASE's h* = 0
            cfg["model"] = dict(BASE["model"], r=0.0)
        cfg = load_config(write_cfg(tmp_path, cfg))
        assert cfg[block][key] == edge
