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
import math
import sys
import time
import warnings
from collections import Counter
from pathlib import Path

import numpy as np

try:
    import resource
except ImportError:  # Windows
    resource = None

from . import __version__
from .lattice import ParameterError, build_params, classify_phase, dispersion, weyl_points
from .propagator import GridSpec, build_propagator_grid
from .multiscale import (MIN_X_POINTS, crossover_scale, decay_audit, default_cutoff,
                         initial_couplings, scale_support)
from .rgflow import exponential_interaction, run_flow, solve_nu
from . import grassmann, trees

class ConfigError(ValueError):
    pass


#: Largest GridSpec.row_bound() the propagator subcommand accepts.  A row
#: costs about 240 bytes of CSV and, written on two CPUs, 1.6 us; the peak RSS
#: does not grow with the rows, since the grid is tabulated box by box as it
#: is written (the README grid: 1.33M rows, 311.6 MB of CSV, 60 MiB peak;
#: L=8, beta=8, M=11: 5.34M rows, 1.31 GB, 8.6 s against 9.3 s when each box
#: was formatted alone, 60 MiB peak, on a 2-core Xeon), so the cap bounds the
#: CSV at about 2.0 GB and the run at about 14 s on two CPUs, 21 s on one.
MAX_PROPAGATOR_ROWS = 2 ** 23


#: Largest grid.L.  band costs about 5 us, 105 bytes of CSV and 0.76 KB of
#: peak RSS per L, nearly all of it formatting and holding the rows (L = 10^6:
#: 5.2 s, 106 MB, 759 MB peak on a 2-core Xeon); the propagator's row cap
#: already rejects every L above 161.
MAX_GRID_L = 2 ** 20


#: Deepest scale the flow subcommands accept.  On a solved flow nu_h is a
#: rounding residue of nu that doubles at each scale, about 2^(-h-53) |nu|:
#: 2^-13 |nu| at h = -40, and |nu| itself by h = -53, where the counterterm
#: no longer bounds the flow in double precision.
H_MIN_FLOOR = -40


#: Largest flow.n_k the flow subcommands accept.  Bands are tables on (k0,
#: box orbit) over 3-D boxes, so memory grows as n_k^3.  At n_k = 64 `flow`
#: peaks at 127 MB on the README model, and at 131, 178 and 177 MB at t_perp
#: = 1, 2 and 8 (t' = 2 t_perp, r = 1/2), where the bridge band's box is wider
#: in k3; at h_min = -40 at 286 MB on the README model and 345 MB at t_perp =
#: 8, the worst case (VmHWM, two runs each within 0.3 MB, 2-core Xeon).
MAX_N_K = 64


#: Largest verify.n_s2, n_s3 and n_gram bbf-verify accepts.  Memory does not
#: grow with the counts (38 MB peak); time does, by 2.8 ms per s = 3 case,
#: 0.38 ms per s = 2 case and 0.05 ms per Gram audit on a 2-core Xeon, so
#: all three counts at the cap take about 32 s.
MAX_VERIFY_CASES = 10_000


#: Deepest audit.h_bottom bounds-check accepts.  Regime-2 single-scale
#: propagators lose their 2^(3h) sup-norm scaling to rounding below it: a
#: two-scale fit gives 3 +- 1e-5 down to h = -28 at every r in {1e-4, 0.005,
#: 0.5, 1, 1.9}, then 2.97 at h = -30 and 2.0 at h = -33 (r = 0.5).
MIN_AUDIT_H = -28


#: Largest audit.N and audit.x_points bounds-check accepts.  Memory grows about
#: as N^3 per scale (position_values pairs its k0 sums, 32 x0 at a time, and
#: meets the phases on the band's columns), time also with x_points and the
#: scales: the README audit (4 scales) peaks at 43 MB at N = 28, 55 MB at 40,
#: 68-74 MB at 48, 122 MB at 64 and 54 MB at x_points = 100; both caps over all
#: 28 scales (h = -28..-1) take 6.5 s and 138 MB on a 2-core Xeon (ru_maxrss).
#: At N = 5 a regime-2 band resolves 50 momenta (< MIN_BAND_POINTS).
MAX_AUDIT_N = 64
MAX_X_POINTS = 100


#: Every config key: (block, key, kind, default, bounds).  Kinds: "int" a JSON
#: integer, "even" an even one, "num" a finite JSON number, "pos" a finite
#: number > 0; booleans are none of these.  Bounds (lo, hi) are inclusive; None
#: allows every value of the kind.  A default of ... marks a required key, whose
#: block is left out of Config unless written; None leaves the key unset
#: (build_params takes exactly one of r and mu), and flow.U unset takes model.U.
_SCHEMA = (
    ("model", "t", "pos", ..., None),
    ("model", "t_perp", "pos", ..., None),
    ("model", "t_prime", "pos", ..., None),
    ("model", "r", "num", None, None),
    ("model", "mu", "num", None, None),
    ("model", "U", "num", 0.0, None),
    ("model", "kappa", "pos", 1.0, None),
    ("grid", "L", "int", ..., (1, MAX_GRID_L)),
    ("grid", "beta", "pos", ..., None),
    ("grid", "M", "int", 12, (0, math.inf)),
    ("flow", "U", "num", None, None),
    ("flow", "h_min", "int", -6, (H_MIN_FLOOR, 0)),
    ("flow", "n_k", "int", 12, (2, MAX_N_K)),
    ("flow", "tol", "pos", 1e-10, None),
    ("flow", "eps0", "pos", 0.5, None),
    ("audit", "regime", "int", 1, (1, 2)),
    ("audit", "h_top", "int", -2, (MIN_AUDIT_H, 0)),
    ("audit", "h_bottom", "int", -5, (MIN_AUDIT_H, 0)),
    ("audit", "N", "int", 28, (6, MAX_AUDIT_N)),
    ("audit", "x_points", "int", 25, (MIN_X_POINTS, MAX_X_POINTS)),
    ("trees", "n_max", "int", 3, (1, trees.MAX_ENDPOINTS)),
    ("trees", "l", "even", 4, (2, math.inf)),
    ("trees", "regime", "int", 1, (1, 2)),
    ("trees", "h", "int", -6, (trees.MIN_ROOT_SCALE, -1)),
    ("verify", "n_s2", "int", 100, (0, MAX_VERIFY_CASES)),
    ("verify", "n_s3", "int", 20, (0, MAX_VERIFY_CASES)),
    ("verify", "n_gram", "int", 200, (1, MAX_VERIFY_CASES)),
)
_BLOCKS = {block: {r[1] for r in _SCHEMA if r[0] == block} for block, *_ in _SCHEMA}
_REQUIRED_BLOCKS = {block for block, _, _, default, _ in _SCHEMA if default is ...}
_KINDS = {"int": ("an integer", lambda v: type(v) is int),
          "even": ("an even integer", lambda v: type(v) is int and v % 2 == 0),
          "num": ("a finite number",
                  lambda v: type(v) in (int, float) and abs(v) <= sys.float_info.max),
          "pos": ("a finite number > 0",
                  lambda v: type(v) in (int, float) and 0 < v <= sys.float_info.max)}


class Config(dict):
    """{block: {key: checked value}} with defaults filled in; `written` is the
    config as written, which the manifest copies and hashes."""

    def __init__(self, written: dict):
        super().__init__()
        self.written = written

    def __missing__(self, block):
        raise ConfigError(f"config needs a '{block}' block")


def load_config(path: str) -> Config:
    """Read and check a config against _SCHEMA; every present block is checked,
    whichever subcommand runs."""
    try:
        written = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(written, dict):
        raise ConfigError("config must be a JSON object")
    for where, given, keys in [("top level", written, _BLOCKS)] + [
            (f"'{block}'", written.get(block, {}), keys) for block, keys in _BLOCKS.items()]:
        if not isinstance(given, dict):
            raise ConfigError(f"{where} must be an object")
        if set(given) - set(keys):
            raise ConfigError(f"unknown key(s) {sorted(set(given) - set(keys))} in {where}")
    cfg = Config(written)
    for block, key, kind, default, bounds in _SCHEMA:
        if block in _REQUIRED_BLOCKS and block not in written:
            continue
        given = written.get(block, {})
        val = given.get(key, default)
        if val is ...:
            raise ConfigError(f"{block}.{key} is required")
        if key in given:
            what, ok = _KINDS[kind]
            if not ok(val):
                raise ConfigError(f"{block}.{key} must be {what}, got {val!r}")
            lo, hi = bounds or (-math.inf, math.inf)
            if not lo <= val <= hi:
                raise ConfigError(f"{block}.{key} = {val} lies outside [{lo}, {hi}]")
            val = float(val) if kind in ("num", "pos") else val
        cfg.setdefault(block, {})[key] = val
    if cfg["flow"]["U"] is None and "model" in cfg:
        cfg["flow"]["U"] = cfg["model"]["U"]
    a, v = cfg["audit"], cfg["verify"]
    if a["h_bottom"] > a["h_top"]:
        raise ConfigError(f"audit.h_bottom = {a['h_bottom']} lies above audit.h_top = {a['h_top']}")
    if "audit" in written and "model" in cfg:
        _check_audit_window(cfg)
    if v["n_s2"] + v["n_s3"] < 1:
        raise ConfigError("verify.n_s2 + verify.n_s3 must be at least 1: "
                          "otherwise no BBF case is checked")
    return cfg


def _check_audit_window(cfg: Config):
    """Regime 1 holds the scales h >= h* (all at r = 0), regime 2 h <= h* - 1 (r > 0)."""
    a, p = cfg["audit"], _params(cfg)
    if a["regime"] == 2 and not p.r > 0:
        raise ConfigError("audit.regime = 2 needs a semimetal (r > 0)")
    h_star = crossover_scale(p)
    if (a["h_bottom"] < h_star) if a["regime"] == 1 else (a["h_top"] > h_star - 1):
        raise ConfigError(f"audit scales {a['h_bottom']}..{a['h_top']} leave regime "
                          f"{a['regime']} (h* = {h_star})")


def _params(cfg: Config):
    try:
        return build_params(**cfg["model"])
    except ParameterError as exc:
        raise ConfigError(f"model: {exc}") from exc


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


def _peak_rss_mb():
    """[own, children] peak RSS in MB (None without `resource`).  The own peak
    is VmHWM where /proc has it: ru_maxrss survives exec, so it would report
    the peak of a larger process that launched the run."""
    if resource is None:
        return [None, None]
    unit = 2 ** 20 if sys.platform == "darwin" else 2 ** 10  # ru_maxrss: bytes or kB
    peaks = [resource.getrusage(who).ru_maxrss / unit
             for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
    try:
        with open("/proc/self/status") as f:
            hwm = [line.split()[1] for line in f if line.startswith("VmHWM:")]
        peaks[0] = int(hwm[0]) / 2 ** 10  # kB
    except (OSError, IndexError):
        pass
    return [round(peak, 3) for peak in peaks]


class RunWriter:
    """Collects deterministic output files plus the manifest in an existing directory."""

    def __init__(self, out_dir: str, cfg: dict, subcommand: str, seed: int):
        self.dir = Path(out_dir)
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

    def finish(self, warned: dict):
        peaks = _peak_rss_mb()
        manifest = {
            "config_sha": self.hash,
            "config": self.cfg,
            "subcommand": self.subcommand,
            "seed": self.seed,
            "tool": f"weylrg {__version__}",
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "elapsed_s": round(time.time() - self.t0, 3),
            "peak_rss_mb": peaks[0],
            "children_peak_rss_mb": peaks[1],
            "outputs": self.outputs,
            "warnings": warned,
        }
        (self.dir / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=1) + "\n")


# --- subcommands ----------------------------------------------------------------

def _cmd_band(cfg, w: RunWriter):
    p = _params(cfg)
    grid = GridSpec(**cfg["grid"])
    ks = 2.0 * np.pi * np.arange(grid.L) / grid.L
    rows = [(0.0, 0.0, k3, lam) for k3, lam in zip(ks, dispersion((0.0, 0.0, ks), p))]
    # the planar diagonal
    rows += [(k, k, 0.0, lam) for k, lam in zip(ks, dispersion((ks, ks, 0.0), p))]
    w.write_csv("band.csv", ("k1", "k2", "k3", "lambda"), rows)


def _cmd_weyl(cfg, w: RunWriter):
    p = _params(cfg)
    wp = weyl_points(p)
    out = {key: None if wp is None else getattr(wp, key)
           for key in ("p_F", "v0", "v30", "degenerate")}
    w.write_json("weyl.json", dict(out, phase=classify_phase(p).value))


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
    grid = GridSpec(**cfg["grid"])
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
        total = sum(scale_support(k, h, c, p, cut)[1] for h in range(0, -7, -1))
        chi0, _ = scale_support(k, 0, c, p, cut)
        chim, _ = scale_support(k, -7, c, p, cut)
        worst = max(worst, abs(total + chim - chi0))
    w.write_json("scales.json", {
        "h_star": None if h_star == float("-inf") else h_star,
        "a0": cut.a0, "b0": cut.b0,
        "telescoping_worst": worst})


def _cmd_flow(cfg, w: RunWriter, solve: bool = False):
    p = _params(cfg)
    f = cfg["flow"]
    U, h_min, n_k = f["U"], f["h_min"], f["n_k"]
    inter = exponential_interaction(p.kappa)
    if solve:
        nu, traj = solve_nu(p, U, inter, h_min, n_k=n_k, tol=f["tol"])
    else:
        nu, traj = 0.0, run_flow(p, U, inter, h_min, n_k=n_k, eps0=f["eps0"])
    w.write_csv("flow.csv", ("h", "Z", "v", "v3", "nu", "beta_nu", "regime"),
                traj.csv_rows())
    snap = [r.beta.snap_offset for r in traj.rows]
    w.write_json("flow.json", {
        "U": U, "h_min": h_min, "n_k": n_k,
        "h_star": None if traj.h_star == float("-inf") else traj.h_star,
        "nu0": traj.nu0, "solved_nu": nu if solve else None,
        "v3_crossover": traj.v3_crossover,
        "termination": traj.termination,
        "max_dimensionless_beta": traj.max_dimensionless_beta,
        "snap_offsets": snap,
        "solver": {"tol": f["tol"]}})


def _cmd_bounds_check(cfg, w: RunWriter):
    _check_audit_window(cfg)  # also when the audit block takes its defaults
    p = _params(cfg)
    a = cfg["audit"]
    regime = a["regime"]
    c0 = initial_couplings(p, regime=regime)
    rep = decay_audit(range(a["h_bottom"], a["h_top"] + 1), lambda h: c0.replace(h=h), p,
                      regime=regime, N=a["N"], x_points=a["x_points"])
    w.write_csv("decay.csv",
                ("h", "sup_norm", "fitted_constant", "width_x0", "width_x3", "l1_mass"),
                rep.to_rows())
    w.write_json("decay.json", rep.summary())


def _cmd_trees(cfg, w: RunWriter):
    n_max, regime, l, h = (cfg["trees"][key] for key in ("n_max", "regime", "l", "h"))
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
    n_s2, n_s3, n_gram = (cfg["verify"][key] for key in ("n_s2", "n_s3", "n_gram"))
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
    parser.add_argument("subcommand", choices=_DISPATCH)
    parser.add_argument("--config", required=True, help="JSON config path")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--seed", type=int, default=0)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    Path(args.out).mkdir(parents=True, exist_ok=True)  # left empty if the config is rejected
    try:
        # every warning is counted into the manifest instead of printed
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            cfg = load_config(args.config)
            writer = RunWriter(args.out, cfg.written, args.subcommand, args.seed)
            _DISPATCH[args.subcommand](cfg, writer)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, RuntimeError) as exc:  # the flow's and the cutoffs' errors subclass these
        print(f"computation error: {exc}", file=sys.stderr)
        return 2
    writer.finish(Counter(str(w.message) for w in caught))
    return 0


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
