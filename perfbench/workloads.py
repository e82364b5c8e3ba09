"""The benchmark workloads: inputs made from a seed, the jobs of one pass, and
the oracle check of every job.

A job's `run` is the timed call into weylrg; its `check` runs afterwards,
untimed, and raises CheckFailed when the answer is outside its oracle's
tolerance.  Reference answers that have no closed form were stored from the
seed commit in reference.json (see reference.py).

Why each workload:
  cli_readme   - the path users take: all ten CLI subcommands on the README
                 config, each in its own subprocess through weylrg.cli.main.
                 The propagator subcommand dominates; peak RSS lives here.
  flow_sweep   - library flows: band construction (multiscale) and kernel
                 evaluation and localization (rgflow) dominate; no file I/O,
                 and grassmann and trees are never called.
  oracle_audit - the same propagator and multiscale modules used another way
                 (Matsubara reductions, position-space transforms), plus the
                 pure-Python grassmann and trees code, timed only here.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

from weylrg import grassmann as gr
from weylrg import multiscale as ms
from weylrg import propagator as pr
from weylrg import rgflow as rg
from weylrg import trees as tr
from weylrg.cli import load_config
from weylrg.lattice import build_params, weyl_points
from weylrg.propagator import GridSpec

from layers import SUBCOMMANDS

HERE = Path(__file__).resolve().parent
SIZES = ("full", "tiny")

#: relative tolerance against answers stored from the seed commit
RTOL = 1e-9

# the README example config, verbatim
README_CONFIG = {
    "model": {"t": 1.0, "t_perp": 0.5, "t_prime": 2.0, "r": 0.5, "U": 0.05, "kappa": 1.0},
    "grid": {"L": 4, "beta": 8.0, "M": 12},
    "flow": {"U": 0.05, "h_min": -6, "n_k": 12},
    "audit": {"regime": 2, "h_top": -2, "h_bottom": -5},
    "trees": {"n_max": 3, "l": 4, "regime": 1, "h": -6},
    "verify": {"n_s2": 100, "n_s3": 20, "n_gram": 200},
}
TINY_CONFIG = {
    "model": README_CONFIG["model"],
    "grid": {"L": 2, "beta": 4.0, "M": 4},
    "flow": {"U": 0.05, "h_min": -2, "n_k": 6},
    "audit": {"regime": 2, "h_top": -2, "h_bottom": -4},
    "trees": {"n_max": 2, "l": 4, "regime": 1, "h": -4},
    "verify": {"n_s2": 4, "n_s3": 1, "n_gram": 4},
}
OUTPUT_FILES = {
    "band": ("band.csv",), "weyl": ("weyl.json",), "phase": ("phase.json",),
    "propagator": ("propagator.csv", "propagator.json"), "scales": ("scales.json",),
    "flow": ("flow.csv", "flow.json"), "solve-nu": ("flow.csv", "flow.json"),
    "bounds-check": ("decay.csv", "decay.json"), "trees": ("trees.json",),
    "bbf-verify": ("bbf.json",),
}
# little Schroeder numbers: plane trees with n leaves and no unary vertex
SCHROEDER = {1: 1, 2: 1, 3: 3, 4: 11, 5: 45, 6: 197}

INTER = rg.exponential_interaction(1.0)
P_STAR = build_params(1.0, 0.5, 2.0, r=0.5, U=0.05)
# criterion 1's time separations
X0_SET = (-7.5, -3.25, -0.5, 0.25, 0.5, 2.0, 7.5)


class CheckFailed(AssertionError):
    """A job's answer is outside its oracle's tolerance."""


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    check: Callable[[object], None]


@dataclass
class Workload:
    name: str
    jobs: list
    key_job: str                               # the job timed as key_job_s
    state: dict = field(default_factory=dict)  # answers later jobs build on


def _require(ok, msg):
    if not ok:
        raise CheckFailed(msg)


def _close(got, want, where, rtol=RTOL):
    """Recursive comparison: floats to rtol relative, everything else exact."""
    if isinstance(want, dict):
        _require(isinstance(got, dict) and sorted(got) == sorted(want),
                 f"{where}: keys {sorted(got) if isinstance(got, dict) else '-'} "
                 f"!= {sorted(want)}")
        for k in want:
            _close(got[k], want[k], f"{where}.{k}", rtol)
    elif isinstance(want, (list, tuple)):
        _require(isinstance(got, (list, tuple)) and len(got) == len(want),
                 f"{where}: length {len(got) if isinstance(got, (list, tuple)) else '-'} "
                 f"!= {len(want)}")
        for i, (g, w) in enumerate(zip(got, want)):
            _close(g, w, f"{where}[{i}]", rtol)
    elif isinstance(want, float) and not isinstance(got, str):
        _require(abs(got - want) <= rtol * abs(want),
                 f"{where}: {got!r} differs from the reference {want!r} beyond rtol {rtol:g}")
    else:
        _require(got == want, f"{where}: {got!r} != reference {want!r}")


def load_reference(size):
    path = HERE / "reference.json"
    return json.loads(path.read_text())[size] if path.exists() else {}


def build(name, size, seed, workdir: Path) -> Workload:
    """Make the inputs of workload `name` from `seed` and return its jobs."""
    ref = load_reference(size)
    tiny = size == "tiny"
    if name == "cli_readme":
        return _cli_readme(tiny, seed, workdir, ref)
    if name == "flow_sweep":
        return _flow_sweep(tiny, seed, ref)
    if name == "oracle_audit":
        return _oracle_audit(tiny, seed, ref)
    raise ValueError(f"unknown workload {name!r}")


# --- cli_readme -----------------------------------------------------------------

def _dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.iterdir() if f.is_file())


def _run_cli(sub, cfg_path, out_dir: Path, seed, trace):
    """One subcommand in a fresh interpreter; returns exit code, peak RSS and
    what clirun.py recorded (import time, trace)."""
    stats = out_dir.parent / f"{sub}.stats.json"
    log = out_dir.parent / f"{sub}.stderr"
    cmd = [sys.executable, str(HERE / "clirun.py"), "--stats", str(stats)]
    if trace:
        cmd.append("--trace")
    cmd += ["--", sub, "--config", str(cfg_path), "--out", str(out_dir), "--seed", str(seed)]
    with open(log, "wb") as err:
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    info = json.loads(stats.read_text()) if stats.exists() else {}
    return {"code": proc.returncode, "rss_mb": info.get("peak_rss_mb", usage.ru_maxrss / 1024.0),
            "import_s": info.get("import_s"), "trace": info.get("trace"),
            "stderr": log.read_text(errors="replace")[-2000:]}


def read_csv(path: Path):
    lines = path.read_text().splitlines()
    _require(lines and lines[0].startswith("# manifest:"), f"{path.name}: no manifest line")
    return lines[1].split(","), [[float(c) for c in ln.split(",")] for ln in lines[2:]]


def _count_lines(path: Path) -> int:
    n = 0
    with open(path, "rb") as f:
        while chunk := f.read(1 << 24):
            n += chunk.count(b"\n")
    return n


def _cli_oracles(cfg, ref):
    """Per-subcommand checks of the files in an output directory."""
    m = cfg["model"]
    mu = m["t_prime"] + m["t_perp"] * (-1.0 + m["r"])
    p_f = math.acos((m["t_prime"] - mu) / m["t_perp"])  # pi/3 on the README model

    def band(out: Path):
        _, rows = read_csv(out / "band.csv")
        _require(len(rows) == 2 * cfg["grid"]["L"], f"band.csv has {len(rows)} rows")
        for k1, k2, k3, lam in rows:
            kp, km = (k1 + k2) / 2, (k1 - k2) / 2
            m3 = mu + m["t_perp"] * math.cos(k3) - 0.5 * m["t_prime"] * (math.cos(k1) + math.cos(k2))
            exact = math.sqrt(m["t"] ** 2 * (math.sin(kp) ** 2 + math.sin(km) ** 2) + m3 ** 2)
            _require(abs(lam - exact) <= 1e-12, f"band lambda {lam} != closed form {exact}")

    def weyl(out: Path):
        d = json.loads((out / "weyl.json").read_text())
        _require(abs(d["p_F"] - p_f) <= 1e-12, f"p_F {d['p_F']} != {p_f}")
        _require(abs(d["v30"] - m["t_perp"] * math.sin(p_f)) <= 1e-12, f"v30 {d['v30']}")
        _require(d["phase"] == "semimetal", f"phase {d['phase']}")

    def phase(out: Path):
        d = json.loads((out / "phase.json").read_text())
        _require(d["phase"] == "semimetal", f"phase {d['phase']}")
        _require(abs(d["r"] - m["r"]) <= 1e-12, f"r {d['r']}")
        _require(abs(d["weyl_points"]["p_F"] - p_f) <= 1e-12, "p_F")

    def propagator(out: Path):
        d = json.loads((out / "propagator.json").read_text())
        _require(d["rows"] == ref["propagator_rows"],
                 f"propagator rows {d['rows']} != {ref['propagator_rows']}")
        _require(d["conjugation_defect"] <= 1e-12,
                 f"conjugation defect {d['conjugation_defect']:g} > 1e-12")
        lines = _count_lines(out / "propagator.csv")
        _require(lines == d["rows"] + 2, f"propagator.csv has {lines} lines")

    def scales(out: Path):
        d = json.loads((out / "scales.json").read_text())
        h_star = math.floor(min(math.log2(abs(m["r"]) * 10.0 / (m["t_perp"] / 10.0)), 0.0))
        _require(d["h_star"] == h_star, f"h* {d['h_star']} != {h_star}")
        _require(d["telescoping_worst"] <= 1e-12, f"telescoping {d['telescoping_worst']:g}")

    def flow_files(out: Path, key):
        header, rows = read_csv(out / "flow.csv")
        _require(header == ["h", "Z", "v", "v3", "nu", "beta_nu", "regime"], f"header {header}")
        want = ref[key]["rows"]
        # every column but nu against the reference; nu through nu_0 and the
        # recurrence nu_(h-1) = 2 nu_h + beta_nu, since on a solved flow its
        # deep values are cancellation residues
        _close([r[:4] + r[5:] for r in rows], [r[:4] + r[5:] for r in want], f"{key}.csv")
        _close(rows[0][4], want[0][4], f"{key}.csv nu_0")
        for a, b in zip(rows, rows[1:]):
            step = 2.0 * a[4] + a[5]
            _require(abs(b[4] - step) <= 1e-12 * (2.0 * abs(a[4]) + abs(a[5])),
                     f"{key}.csv: nu at h={b[0]:g} breaks the recurrence")
        d = json.loads((out / "flow.json").read_text())
        _require(d["termination"] == ref[key]["termination"], "termination")
        _close(d["max_dimensionless_beta"], ref[key]["max_dimensionless_beta"], key)
        return d

    def flow(out: Path):
        flow_files(out, "cli.flow")

    def solve_nu(out: Path):
        d = flow_files(out, "cli.solve-nu")
        _close(d["solved_nu"], ref["cli.solve-nu"]["solved_nu"], "solved_nu")

    def bounds_check(out: Path):
        d = json.loads((out / "decay.json").read_text())
        want = 2.5 if cfg["audit"]["regime"] == 1 else 3.0
        _require(abs(d["sup_exponent"] - want) <= 0.3,
                 f"sup-norm exponent {d['sup_exponent']:.3f} not {want} +- 0.3")

    def trees(out: Path):
        d = json.loads((out / "trees.json").read_text())
        n_max = cfg["trees"]["n_max"]
        _require(d["shape_counts"] == {str(n): SCHROEDER[n] for n in range(1, n_max + 1)},
                 f"shape counts {d['shape_counts']}")
        _close({k: len(v) for k, v in d["tree_sets"].items()}, ref["cli.trees"]["tree_sets"],
               "tree_sets")
        _close(d["scale_sums"], ref["cli.trees"]["scale_sums"], "scale_sums")

    def bbf_verify(out: Path):
        d = json.loads((out / "bbf.json").read_text())
        _require(d["worst_deviation"] <= 1e-10, f"BBF deviation {d['worst_deviation']:g}")
        _require(d["gram_all_hold"] is True, "a Gram-Hadamard audit failed")

    return {"band": band, "weyl": weyl, "phase": phase, "propagator": propagator,
            "scales": scales, "flow": flow, "solve-nu": solve_nu,
            "bounds-check": bounds_check, "trees": trees, "bbf-verify": bbf_verify}


def _cli_readme(tiny, seed, workdir: Path, ref):
    cfg = TINY_CONFIG if tiny else README_CONFIG
    workdir.mkdir(parents=True, exist_ok=True)
    cfg_path = workdir / "config.json"
    cfg_path.write_text(json.dumps(cfg, indent=1))
    load_config(str(cfg_path))  # the program's own validation of the input
    oracles = _cli_oracles(cfg, ref)
    wl = Workload("cli_readme", [], key_job="propagator")

    def job(sub):
        out = workdir / "out" / sub

        def run():
            if out.exists():
                shutil.rmtree(out)
            out.mkdir(parents=True)
            return _run_cli(sub, cfg_path, out, seed, wl.state.get("trace", False))

        def check(ans):
            try:
                _require(ans["code"] == 0, f"exit code {ans['code']}: {ans['stderr']}")
                missing = [f for f in OUTPUT_FILES[sub] + ("manifest.json",)
                           if not (out / f).is_file()]
                _require(not missing, f"missing output files {missing}")
                ans["bytes_out"] = _dir_bytes(out)
                oracles[sub](out)
            finally:
                shutil.rmtree(out, ignore_errors=True)

        return Job(sub, run, check)

    wl.jobs = [job(sub) for sub in SUBCOMMANDS]
    return wl


# --- flow_sweep -------------------------------------------------------------------

def _records(traj):
    return [[r.beta.h, r.beta.regime, r.beta.b0, r.beta.bplus, r.beta.bminus, r.beta.b3,
             r.beta.beta_nu, r.beta.max_dimensionless, r.beta.band_points]
            for r in traj.rows if r.beta is not None]


def _flow_answer(traj):
    # nu_h is left out: it follows from nu0 and the beta_nu records, and on a
    # solved flow it is a cancellation residue (about 1e-21) with no digits to compare
    f = traj.final
    return {"h_star": str(traj.h_star), "termination": traj.termination,
            "records": _records(traj), "final": [f.Z, f.v, f.v3, f.h, f.regime]}


def flow_sweep_plan(tiny):
    """(run_flow jobs as (r, n_k), h_min, solve_nu args, det-scan L, asymptotic grid)."""
    if tiny:
        return ([(0.5, 6), (3.125e-4, 6), (-0.2, 6), (0.0, 6), (0.5, 8)], -3,
                dict(h_min=-3, n_k=6), 8, GridSpec(L=4, beta=16.0, M=4))
    flows = [(r, 12) for r in (0.5, 0.05, 0.005, 3.125e-4, -0.2, 0.0)]
    flows += [(r, 24) for r in (0.5, 3.125e-4)]
    return flows, -8, dict(h_min=-6, n_k=10), 16, GridSpec(L=8, beta=32.0, M=5)


def _flow_sweep(tiny, seed, ref):
    flows, h_min, solve_args, det_l, asym_grid = flow_sweep_plan(tiny)
    rng = np.random.default_rng(seed)
    # seeded probe momenta for the dressed two-point function: a random
    # direction and valley at each of three distances from the Weyl point
    probes = []
    for scale in (0.02, 0.005, 0.00125):
        d = rng.standard_normal(4)
        probes.append((tuple(float(x) for x in scale * d / np.linalg.norm(d)),
                       int(rng.choice([1, -1]))))
    wl = Workload("flow_sweep", [], key_job="solve_nu")
    jobs = []

    for r, n_k in flows:
        key = f"run_flow[r={r:g},n_k={n_k}]"
        p = build_params(1.0, 0.5, 2.0, r=r)

        def run(p=p, n_k=n_k):
            return _flow_answer(rg.run_flow(p, 0.05, INTER, h_min, n_k=n_k))

        jobs.append(Job(key, run, lambda ans, key=key: _close(ans, ref[key], key)))

    def solve():
        nu, traj = rg.solve_nu(P_STAR, 0.05, INTER, solve_args["h_min"],
                               n_k=solve_args["n_k"], tol=1e-10)
        wl.state["solved"] = traj
        return {"nu": nu, "flow": _flow_answer(traj)}

    jobs.append(Job("solve_nu", solve, lambda ans: _close(ans, ref["solve_nu"], "solve_nu")))

    def det_scan():
        k3s, dets = rg.dressed_det_scan(wl.state["solved"], INTER, det_l)
        return {"k3s": k3s.tolist(), "dets": dets.tolist()}

    def check_det_scan(ans):
        _close(ans["dets"], ref["dressed_det_scan"]["dets"], "dets")
        # criterion 8: the |det| minimizer sits within one k3 cell of a Weyl point
        p_f = weyl_points(P_STAR).p_F
        k3 = ans["k3s"][int(np.argmin(ans["dets"]))]
        dist = min(abs(math.remainder(k3 - s * p_f, 2 * math.pi)) for s in (1, -1))
        _require(dist <= 2 * math.pi / det_l, f"det minimizer {k3} is {dist:.3f} from p_F")

    jobs.append(Job("dressed_det_scan", det_scan, check_det_scan))

    def two_point():
        return [rg.dressed_two_point(kkp, om, wl.state["solved"], INTER)[1:]
                for kkp, om in probes]

    def check_two_point(ans):
        for (kkp, om), (ratio, bound, within) in zip(probes, ans):
            _require(within and ratio <= bound,
                     f"remainder {ratio:g} above the bound |k'|/v30 = {bound:g} at {kkp}")

    jobs.append(Job("dressed_two_point", two_point, check_two_point))

    def asym():
        return list(rg.asymptotic_constants(P_STAR, INTER, asym_grid))

    jobs.append(Job("asymptotic_constants", asym,
                    lambda ans: _close(ans, ref["asymptotic_constants"], "asymptotic_constants")))
    wl.jobs = jobs
    return wl


# --- oracle_audit -----------------------------------------------------------------

def _rand_clusters(rng, sizes):
    idx = 0
    out = []
    for sz in sizes:
        eps = [-1] * (sz // 2) + [1] * (sz - sz // 2)
        rng.shuffle(eps)
        out.append(tuple((idx + i, int(e)) for i, e in enumerate(eps)))
        idx += sz
    return tuple(out)


def _bbf_cases(rng, s, count):
    cases = []
    for _ in range(count):
        while True:
            sizes = [int(x) for x in rng.choice([2, 4], size=s)]
            if sum(sizes) <= 10:
                break
        cls = _rand_clusters(rng, sizes)
        nf = sum(sizes)
        cases.append((cls, rng.standard_normal((nf, nf))))
    return cases


def _wick_cases(rng, count):
    """Monomials of 2..12 fields in random order over random Fraction covariances."""
    cases = []
    for i in range(count):
        nf = 2 * (1 + i % 6)
        g = [[Fraction(int(rng.integers(-4, 5)), int(rng.integers(1, 4))) for _ in range(nf)]
             for _ in range(nf)]
        eps = [-1] * (nf // 2) + [1] * (nf // 2)
        rng.shuffle(eps)
        order = rng.permutation(nf)
        cases.append((tuple((int(a), e) for a, e in zip(order, eps)), g))
    return cases


def oracle_audit_plan(tiny):
    if tiny:
        return dict(Ls=(4,), sample=8, N=28, s2=5, s3=2, wick=12, gram=10,
                    trees=((3, -4), (4, -3)), ssa_n=2)
    return dict(Ls=(4, 8, 12), sample=63, N=40, s2=200, s3=40, wick=120, gram=200,
                trees=((4, -8), (5, -6)), ssa_n=4)


def _oracle_audit(tiny, seed, ref):
    plan = oracle_audit_plan(tiny)
    rng = np.random.default_rng(seed)
    jobs = []

    # criterion 1: Matsubara sums against the exact time-domain closed form,
    # on a seeded sample of nonzero lattice displacements per time separation
    for L in plan["Ls"]:
        grid = GridSpec(L=L, beta=8.0, M=12)
        disp = [x for x in itertools.product(range(L), repeat=3) if x != (0, 0, 0)]
        size = min(plan["sample"], len(disp))
        picks = [[disp[i] for i in sorted(rng.choice(len(disp), size=size, replace=False))]
                 for _ in X0_SET]

        def run(grid=grid, picks=picks):
            worst = 0.0
            for x0, xs in zip(X0_SET, picks):
                reg = pr.regularized_all_spatial(x0, grid, P_STAR, M=12)
                for x in xs:
                    exact = pr.schwinger_time_domain((x0,) + x, grid, P_STAR)
                    worst = max(worst, float(np.max(np.abs(reg[x] - exact))))
            return worst

        jobs.append(Job(f"propagator_oracle[L={L}]", run, lambda w: _require(
            w <= 1e-10, f"Matsubara sum off the closed form by {w:g}")))

    # criterion 4: decay-bound audits in both regimes
    p1 = build_params(1.0, 0.5, 2.0, r=0.5 / 25600)  # h* = -8: deep regime 1
    c1 = ms.initial_couplings(p1, regime=1)
    c2 = ms.initial_couplings(P_STAR, regime=2)

    def decay1():
        rep = ms.decay_audit(range(-5, -1), lambda h: c1.replace(h=h), p1, regime=1,
                             N=plan["N"])
        return rep.sup_exponent, rep.width_x3_exponent

    def decay2():
        rep = ms.decay_audit(range(-5, -1), lambda h: c2.replace(h=h), P_STAR, regime=2,
                             h_star=0, N=plan["N"])
        return rep.sup_exponent

    def check_decay1(ans):
        _require(abs(ans[0] - 2.5) <= 0.3, f"regime-1 sup exponent {ans[0]:.3f} not 5/2")
        _require(abs(ans[1] + 0.5) <= 0.1, f"regime-1 x3 width exponent {ans[1]:.3f} not -1/2")

    jobs.append(Job("decay_audit[regime=1]", decay1, check_decay1))
    jobs.append(Job("decay_audit[regime=2]", decay2, lambda e: _require(
        abs(e - 3.0) <= 0.3, f"regime-2 sup exponent {e:.3f} not 3")))

    # criterion 7: BBF against the cumulant oracle, Wick det against the
    # exhaustive expansion over Fractions, Gram-Hadamard audits
    for s, count in ((2, plan["s2"]), (3, plan["s3"])):
        cases = _bbf_cases(rng, s, count)

        def bbf(cases=cases):
            return max(abs(float(gr.truncated_expectation_oracle(cls, g))
                           - gr.bbf_evaluate(cls, g)) for cls, g in cases)

        jobs.append(Job(f"bbf[s={s}]", bbf, lambda w: _require(
            w <= 1e-10, f"BBF off the cumulant oracle by {w:g}")))

    wick = _wick_cases(rng, plan["wick"])

    def run_wick():
        return [gr.wick_expectation(m, g, method="det") == gr.wick_expectation(
            m, g, method="expansion") for m, g in wick]

    jobs.append(Job("wick_det_vs_expansion", run_wick, lambda ok: _require(
        all(ok), f"{ok.count(False)} Wick determinants differ from the expansion")))
    gram = []
    for _ in range(plan["gram"]):
        n = int(rng.integers(1, 9))
        d = n + int(rng.integers(0, 5))
        gram.append((rng.standard_normal((n, d)), rng.standard_normal((n, d))))

    def run_gram():
        return [gr.gram_hadamard_audit(f, g).holds for f, g in gram]

    jobs.append(Job("gram_hadamard", run_gram, lambda ok: _require(
        all(ok), f"{ok.count(False)} Gram-Hadamard audits fail")))

    # trees: enumeration counts and convergent scale sums (criterion 6)
    for n, h in plan["trees"]:
        key = f"enumerate_trees[n={n},h={h}]"
        jobs.append(Job(key, lambda n=n, h=h: len(tr.enumerate_trees(n, h)),
                        lambda count, key=key: _close(count, ref[key], key)))

    def ssa():
        out = {}
        for n in range(1, plan["ssa_n"] + 1):
            for h in (-6, -8):
                audit = tr.scale_sum_audit(n, 4, 1, h=h)
                out[f"{n},{h}"] = [audit.value, audit.term_count]
        return out

    def check_ssa(ans):
        _close(ans, ref["scale_sum_audit"], "scale_sum_audit")
        tail = abs(ans["1,-8"][0] - ans["1,-6"][0]) / ans["1,-8"][0]
        _require(tail < 1e-2, f"n=1 floor tail {tail:g} not geometric")

    jobs.append(Job("scale_sum_audit", ssa, check_ssa))

    wl = Workload("oracle_audit", jobs, key_job=f"propagator_oracle[L={plan['Ls'][-1]}]")
    # one-time lazy work before the first job: on the first BBF evaluation the
    # seed code calibrates its sign on a shipped reference case
    gr.bbf_evaluate((((0, -1), (1, 1)),), np.eye(2))
    return wl

