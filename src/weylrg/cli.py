"""Batch front door: subcommands over every module, strict JSON configs,
deterministic CSV/JSON outputs and a run manifest.

Exit codes: 0 success, 1 usage/validation error, 2 computation error.  Every
output file embeds the manifest hash (sha256 of the canonical config JSON);
identical config + seed reproduce outputs byte for byte.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from .lattice import ParameterError, build_params, classify_phase, dispersion, weyl_points
from .propagator import GridSpec, build_propagator_grid
from .multiscale import (ConfigurationError, crossover_scale, decay_audit,
                         default_cutoff, initial_couplings, scale_support)
from .rgflow import (FlowBlowupError, QuadratureError, exponential_interaction,
                     run_flow, solve_nu)
from . import grassmann, trees

SUBCOMMANDS = ("band", "weyl", "phase", "propagator", "scales", "flow",
               "solve-nu", "bounds-check", "trees", "bbf-verify")


class ConfigError(ValueError):
    pass


#: Largest GridSpec.row_bound() the propagator subcommand accepts.  A row
#: costs about 234 bytes of CSV and 197 bytes of peak RSS (the README grid:
#: 1.33M rows, 311.6 MB of CSV, 250.8 MiB peak, set by building the grid), so
#: the cap is about 2.0 GB of CSV and 1.7 GB of RSS.
MAX_PROPAGATOR_ROWS = 2 ** 23


#: Deepest scale the flow subcommands accept.  On a solved flow nu_h is a
#: rounding residue of nu that doubles at each scale, about 2^(-h-53) |nu|:
#: 2^-13 |nu| at h = -40, and |nu| itself by h = -53, where the counterterm
#: no longer bounds the flow in double precision.
H_MIN_FLOOR = -40


#: Largest flow.n_k the flow subcommands accept.  Bands are tables on (k0,
#: lambda^2) over 3-D boxes, so memory grows as n_k^3: the README flow peaks
#: at 51 MB at n_k = 24, 70 MB at 32, 104 MB at 40, 151 MB at 48 and 330 MB at
#: 64, and the deepest flow (h_min = -40) keeps its bands at 1.1 GB at 64.
MAX_N_K = 64


#: Largest verify.n_s2, n_s3 and n_gram bbf-verify accepts.  Memory does not
#: grow with the counts (38 MB peak); time does, by 2.8 ms per s = 3 case,
#: 0.38 ms per s = 2 case and 0.05 ms per Gram audit on a 2-core Xeon, so
#: all three counts at the cap take about 32 s.
MAX_VERIFY_CASES = 10_000


_MODEL_KEYS = {"t", "t_perp", "t_prime", "r", "mu", "U", "kappa"}
_GRID_KEYS = {"L", "beta", "M"}
_FLOW_KEYS = {"U", "h_min", "n_k", "tol", "eps0"}
_AUDIT_KEYS = {"h_top", "h_bottom", "regime", "N", "x_points"}
_TREE_KEYS = {"n_max", "l", "regime", "h"}
_VERIFY_KEYS = {"n_s2", "n_s3", "n_gram"}
_TOP_KEYS = {"model", "grid", "flow", "audit", "trees", "verify", "seed"}


def _check_keys(block: dict, allowed: set, where: str):
    unknown = set(block) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in '{where}'")


def load_config(path: str) -> dict:
    try:
        raw = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    try:
        cfg = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    _check_keys(cfg, _TOP_KEYS, "top level")
    for name, keys in (("model", _MODEL_KEYS), ("grid", _GRID_KEYS),
                       ("flow", _FLOW_KEYS), ("audit", _AUDIT_KEYS),
                       ("trees", _TREE_KEYS), ("verify", _VERIFY_KEYS)):
        if name in cfg:
            if not isinstance(cfg[name], dict):
                raise ConfigError(f"'{name}' must be an object")
            _check_keys(cfg[name], keys, name)
    return cfg


def _params(cfg):
    if "model" not in cfg:
        raise ConfigError("config needs a 'model' block")
    m = cfg["model"]
    for key in ("t", "t_perp", "t_prime"):
        if key not in m:
            raise ConfigError(f"model.{key} is required")
    try:
        return build_params(m["t"], m["t_perp"], m["t_prime"],
                            r=m.get("r"), mu=m.get("mu"),
                            U=m.get("U", 0.0), kappa=m.get("kappa", 1.0))
    except ParameterError as exc:
        raise ConfigError(f"model: {exc}") from exc


def _grid(cfg) -> GridSpec:
    if "grid" not in cfg:
        raise ConfigError("config needs a 'grid' block")
    g = cfg["grid"]
    for key in ("L", "beta"):
        if key not in g:
            raise ConfigError(f"grid.{key} is required")
    try:
        return GridSpec(L=_int_key(g, "grid", "L", None),
                        beta=_float_key(g, "grid", "beta", None, positive=True),
                        M=_int_key(g, "grid", "M", 12))
    except ValueError as exc:
        raise ConfigError(f"grid: {exc}") from exc


def config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _fmt(x) -> str:
    if isinstance(x, (bool, int, np.integer)):
        return str(int(x))
    return repr(float(x))


class _HashingFile:
    """Text sink over a binary file that hashes every byte it writes."""

    def __init__(self, f):
        self._f = f
        self.sha = hashlib.sha256()

    def write(self, text: str):
        data = text.encode()
        self.sha.update(data)
        self._f.write(data)

    def tell(self) -> int:
        """Bytes written so far, as on a file; perfbench's to_csv hook reads it."""
        return self._f.tell()


class RunWriter:
    """Collects deterministic output files plus the manifest."""

    def __init__(self, out_dir: str, cfg: dict, subcommand: str, seed: int):
        self.dir = Path(out_dir)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.hash = config_hash(cfg)
        self.cfg = cfg
        self.subcommand = subcommand
        self.seed = seed
        self.outputs = {}
        self.t0 = time.time()

    def write_csv(self, name: str, header, rows):
        lines = [f"# manifest: {self.hash}", ",".join(header)]
        for row in rows:
            lines.append(",".join(_fmt(c) for c in row))
        payload = ("\n".join(lines) + "\n").encode()
        (self.dir / name).write_bytes(payload)
        self.outputs[name] = hashlib.sha256(payload).hexdigest()

    def write_json(self, name: str, obj: dict):
        body = dict(obj)
        body["manifest"] = self.hash
        payload = (json.dumps(body, sort_keys=True, indent=1) + "\n").encode()
        (self.dir / name).write_bytes(payload)
        self.outputs[name] = hashlib.sha256(payload).hexdigest()

    def finish(self):
        manifest = {
            "config_sha": self.hash,
            "config": self.cfg,
            "subcommand": self.subcommand,
            "seed": self.seed,
            "tool": f"weylrg {__version__}",
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "elapsed_s": round(time.time() - self.t0, 3),
            "outputs": self.outputs,
        }
        (self.dir / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=1) + "\n")


# --- subcommands ----------------------------------------------------------------

def _cmd_band(cfg, w: RunWriter):
    p = _params(cfg)
    grid = _grid(cfg)
    ks = 2.0 * np.pi * np.arange(grid.L) / grid.L
    rows = []
    for k3 in ks:
        rows.append((0.0, 0.0, k3, dispersion((0.0, 0.0, k3), p)))
    for k in ks:  # planar diagonal
        rows.append((k, k, 0.0, dispersion((k, k, 0.0), p)))
    w.write_csv("band.csv", ("k1", "k2", "k3", "lambda"), rows)


def _cmd_weyl(cfg, w: RunWriter):
    p = _params(cfg)
    wp = weyl_points(p)
    out = {"phase": classify_phase(p).value,
           "p_F": None if wp is None else wp.p_F,
           "v0": None if wp is None else wp.v0,
           "v30": None if wp is None else wp.v30,
           "degenerate": None if wp is None else wp.degenerate}
    w.write_json("weyl.json", out)


def _cmd_phase(cfg, w: RunWriter):
    p = _params(cfg)
    wp = weyl_points(p)
    out = {"phase": classify_phase(p).value,
           "r": p.r,
           "weyl_points": None if wp is None else
           {"p_F": wp.p_F, "v0": wp.v0, "v30": wp.v30}}
    w.write_json("phase.json", out)


def _cmd_propagator(cfg, w: RunWriter):
    p = _params(cfg)
    grid = _grid(cfg)
    if grid.row_bound() > MAX_PROPAGATOR_ROWS:
        raise ConfigError(f"grid L={grid.L}, beta={grid.beta}, M={grid.M} tabulates up to "
                          f"{grid.row_bound():.3g} rows, above the cap of {MAX_PROPAGATOR_ROWS}")
    pg = build_propagator_grid(grid, p)
    with open(w.dir / "propagator.csv", "wb") as f:
        out = _HashingFile(f)
        out.write(f"# manifest: {w.hash}\n")
        pg.to_csv(out)
    w.outputs["propagator.csv"] = out.sha.hexdigest()
    w.write_json("propagator.json", {
        "rows": len(pg), "conjugation_defect": pg.conjugation_defect(),
        "sup_norm": pg.sup_norm()})


def _cmd_scales(cfg, w: RunWriter):
    p = _params(cfg)
    h_star = crossover_scale(p)
    cut = default_cutoff(p)
    c = initial_couplings(p)
    rng = np.random.default_rng(w.seed)
    kk = [tuple(x) for x in np.column_stack([
        rng.uniform(-0.05, 0.05, 16), rng.uniform(-0.3, 0.3, 16),
        rng.uniform(-0.3, 0.3, 16), rng.uniform(-1.0, 1.0, 16)])]
    worst = 0.0
    for k in kk:
        total = 0.0
        for h in range(0, -7, -1):
            _, f = scale_support(k, h, c, p, cut)
            total += f
        chi0, _ = scale_support(k, 0, c, p, cut)
        chim, _ = scale_support(k, -7, c, p, cut)
        worst = max(worst, abs(total + chim - chi0))
    w.write_json("scales.json", {
        "h_star": None if h_star == float("-inf") else h_star,
        "a0": cut.a0, "b0": cut.b0,
        "telescoping_worst": worst})


def _int_key(block: dict, where: str, key: str, default: int) -> int:
    """block[key] (default if absent), which must be a JSON integer, not a boolean."""
    val = block.get(key, default)
    if isinstance(val, bool) or not isinstance(val, int):
        raise ConfigError(f"{where}.{key} must be an integer, got {val!r}")
    return val


def _float_key(block: dict, where: str, key: str, default: float, positive: bool = False) -> float:
    """block[key] (default if absent), which must be a JSON number within the
    float range, not a boolean, and > 0 if positive."""
    val = block.get(key, default)
    if (isinstance(val, bool) or not isinstance(val, (int, float))
            or not abs(val) <= sys.float_info.max or (positive and not val > 0)):
        raise ConfigError(f"{where}.{key} must be a finite number{' > 0' if positive else ''}, "
                          f"got {val!r}")
    return float(val)


def _flow_inputs(f: dict, U_default: float):
    """(h_min, n_k, tol, U, eps0) of the 'flow' block, checked before any work.

    n_k and h_min must be JSON integers with 2 <= n_k <= MAX_N_K = 64 and
    H_MIN_FLOOR = -40 <= h_min <= 0; U must be a finite number, tol and
    eps0 finite positive numbers.
    """
    h_min, n_k = _int_key(f, "flow", "h_min", -6), _int_key(f, "flow", "n_k", 12)
    if not 2 <= n_k <= MAX_N_K:
        raise ConfigError(f"flow.n_k = {n_k} lies outside [2, {MAX_N_K}]: below 2 the "
                          f"bands cannot be resolved, above {MAX_N_K} a deep flow takes "
                          "over 1 GB")
    if not H_MIN_FLOOR <= h_min <= 0:
        raise ConfigError(f"flow.h_min = {h_min} lies outside [{H_MIN_FLOOR}, 0]")
    return (h_min, n_k, _float_key(f, "flow", "tol", 1e-10, positive=True),
            _float_key(f, "flow", "U", U_default), _float_key(f, "flow", "eps0", 0.5, positive=True))


def _cmd_flow(cfg, w: RunWriter, solve: bool = False):
    p = _params(cfg)
    f = cfg.get("flow", {})
    h_min, n_k, tol, U, eps0 = _flow_inputs(f, p.U)
    inter = exponential_interaction(p.kappa)
    if solve:
        nu, traj = solve_nu(p, U, inter, h_min, n_k=n_k, tol=tol)
    else:
        nu, traj = 0.0, run_flow(p, U, inter, h_min, n_k=n_k, eps0=eps0)
    w.write_csv("flow.csv", ("h", "Z", "v", "v3", "nu", "beta_nu", "regime"),
                traj.csv_rows())
    snap = [r.beta.snap_offset for r in traj.rows if r.beta is not None]
    w.write_json("flow.json", {
        "U": U, "h_min": h_min, "n_k": n_k,
        "h_star": None if traj.h_star == float("-inf") else traj.h_star,
        "nu0": traj.nu0, "solved_nu": nu if solve else None,
        "v3_crossover": traj.v3_crossover,
        "termination": traj.termination,
        "max_dimensionless_beta": traj.max_dimensionless_beta,
        "snap_offsets": snap,
        "solver": {"tol": tol}})


def _cmd_bounds_check(cfg, w: RunWriter):
    p = _params(cfg)
    a = cfg.get("audit", {})
    regime, h_top, h_bot, N, x_points = (_int_key(a, "audit", key, default) for key, default in (
        ("regime", 1), ("h_top", -2), ("h_bottom", -5), ("N", 28), ("x_points", 25)))
    if regime not in (1, 2):
        raise ConfigError(f"audit.regime must be 1 or 2, got {regime}")
    if h_bot > h_top:
        raise ConfigError(f"audit.h_bottom = {h_bot} lies above audit.h_top = {h_top}")
    if regime == 2 and not p.r > 0:
        raise ConfigError(f"audit.regime = 2 needs a semimetal (r > 0), got r = {p.r:g}")
    c0 = initial_couplings(p, regime=regime)
    rep = decay_audit(range(h_bot, h_top + 1), lambda h: c0.replace(h=h), p,
                      regime=regime, N=N, x_points=x_points,
                      h_star=crossover_scale(p) if regime == 2 else None)
    w.write_csv("decay.csv",
                ("h", "sup_norm", "fitted_constant", "width_x0", "width_x3", "l1_mass"),
                rep.to_rows())
    w.write_json("decay.json", rep.summary())


def _cmd_trees(cfg, w: RunWriter):
    t = cfg.get("trees", {})
    n_max, regime, l, h = (_int_key(t, "trees", key, default) for key, default in (
        ("n_max", 3), ("regime", 1), ("l", 4), ("h", -6)))
    counts = {n: trees.count_shapes(n) for n in range(1, n_max + 1)}
    dims = {str(ll): str(trees.scaling_dimension(regime, ll)) for ll in (2, 4, 6)}
    sums = {n: trees.scale_sum_audit(n, l, regime, h=h).value
            for n in range(1, min(n_max, 4) + 1)}
    listing = {n: [trees.serialize_tree(t) for t in trees.enumerate_trees(n, max(h, -4))]
               for n in range(1, min(n_max, 3) + 1)}
    w.write_json("trees.json", {
        "shape_counts": counts, "dimensions": dims,
        "scale_sums": {str(k): v for k, v in sums.items()},
        "tree_sets": {str(k): v for k, v in listing.items()},
        "l": l, "regime": regime, "h": h})


def _cmd_bbf_verify(cfg, w: RunWriter):
    v = cfg.get("verify", {})
    n_s2, n_s3, n_gram = (_int_key(v, "verify", key, default) for key, default in (
        ("n_s2", 100), ("n_s3", 20), ("n_gram", 200)))
    for key, n in (("n_s2", n_s2), ("n_s3", n_s3), ("n_gram", n_gram)):
        if not 0 <= n <= MAX_VERIFY_CASES:
            raise ConfigError(f"verify.{key} = {n} lies outside [0, {MAX_VERIFY_CASES}]")
    if n_s2 + n_s3 < 1:
        raise ConfigError("verify.n_s2 + verify.n_s3 must be at least 1: "
                          "otherwise no BBF case is checked")
    rng = np.random.default_rng(w.seed)

    def rand_clusters(sizes):
        idx = 0
        out = []
        for sz in sizes:
            nm = sz // 2
            eps = [-1] * nm + [1] * (sz - nm)
            rng.shuffle(eps)
            out.append(tuple((idx + i, int(e)) for i, e in enumerate(eps)))
            idx += sz
        return tuple(out)

    worst = 0.0
    for s, count in ((2, n_s2), (3, n_s3)):
        for _ in range(count):
            while True:
                sizes = list(rng.choice([2, 4], size=s))
                if sum(sizes) <= 10:
                    break
            cls = rand_clusters(sizes)
            nf = sum(len(c) for c in cls)
            gm = rng.standard_normal((nf, nf))
            o = float(grassmann.truncated_expectation_oracle(cls, gm))
            b = grassmann.bbf_evaluate(cls, gm)
            worst = max(worst, abs(o - b))
    gram_ok = True
    for _ in range(n_gram):
        n = int(rng.integers(1, 9))
        d = n + int(rng.integers(0, 4))
        fv = rng.standard_normal((n, d))
        gv = rng.standard_normal((n, d))
        gram_ok &= grassmann.gram_hadamard_audit(fv, gv).holds
    w.write_json("bbf.json", {"worst_deviation": worst,
                              "gram_all_hold": bool(gram_ok), "seed": w.seed})


_DISPATCH = {
    "band": _cmd_band,
    "weyl": _cmd_weyl,
    "phase": _cmd_phase,
    "propagator": _cmd_propagator,
    "scales": _cmd_scales,
    "flow": lambda cfg, w: _cmd_flow(cfg, w, solve=False),
    "solve-nu": lambda cfg, w: _cmd_flow(cfg, w, solve=True),
    "bounds-check": _cmd_bounds_check,
    "trees": _cmd_trees,
    "bbf-verify": _cmd_bbf_verify,
}


def dispatch(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="weylrg",
        description="Numerical toolkit for the two-regime multiscale analysis "
                    "of an interacting lattice Weyl semimetal")
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", required=True, help="JSON config path")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--seed", type=int, default=0)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    writer = RunWriter(args.out, cfg, args.subcommand, args.seed)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            _DISPATCH[args.subcommand](cfg, writer)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (FlowBlowupError, QuadratureError, ConfigurationError,
            ValueError, RuntimeError) as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        return 2
    writer.finish()
    return 0


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))
