"""Per-layer metrics: the hooks that count work at the layer boundaries, and
the reduction of a traced pass to the named metrics.

Each metric's comment names the end-to-end metric and workload it should move.
"""

from __future__ import annotations

import math
import os

from tracer import Tracer

SUBCOMMANDS = ("band", "weyl", "phase", "propagator", "scales", "flow",
               "solve-nu", "bounds-check", "trees", "bbf-verify")

# (name, unit, better)
PER_LAYER = [
    # wall_s on flow_sweep: weyl_points runs once per kernel evaluation
    ("lattice.weyl_points.calls", "count", "lower"),
    ("lattice.self_s", "s", "lower"),
    # wall_s on flow_sweep and oracle_audit
    ("cutoff.smooth_cutoff.calls", "count", "lower"),
    ("cutoff.smooth_cutoff.elements", "count", "lower"),
    ("cutoff.smooth_cutoff.self_s", "s", "lower"),
    # key_job_s (the propagator subprocess) and peak_rss_mb on cli_readme
    ("propagator.build_propagator_grid.self_s", "s", "lower"),
    ("propagator.rows_kept_ratio", "ratio", "higher"),
    ("propagator.conjugation_defect.self_s", "s", "lower"),
    ("propagator.to_csv.self_s", "s", "lower"),
    ("propagator.to_csv.bytes", "bytes", "lower"),
    # wall_s on oracle_audit
    ("propagator.regularized_all_spatial.self_s", "s", "lower"),
    ("propagator.schwinger_time_domain.self_s", "s", "lower"),
    # wall_s on flow_sweep
    ("multiscale.band_grid.calls", "count", "lower"),
    ("multiscale.band_grid.self_s", "s", "lower"),
    ("multiscale.band_grid.fill_ratio", "ratio", "higher"),
    # wall_s and key_job_s (solve_nu) on flow_sweep
    ("multiscale.entries.calls", "count", "lower"),
    ("multiscale.entries.self_s", "s", "lower"),
    ("multiscale.entries_per_band", "count", "lower"),
    # wall_s on oracle_audit
    ("multiscale.decay_audit.self_s", "s", "lower"),
    ("multiscale.position_values.self_s", "s", "lower"),
    ("multiscale.sparse_band_warnings", "count", "lower"),
    # wall_s on flow_sweep
    ("rgflow.band_self_energy.calls", "count", "lower"),
    ("rgflow.band_self_energy.self_s", "s", "lower"),
    ("rgflow.localize_kernel.calls", "count", "lower"),
    ("rgflow.localize_kernel.self_s", "s", "lower"),
    ("rgflow.flow_step.calls", "count", "lower"),
    ("rgflow.run_flow.calls", "count", "lower"),
    ("rgflow.run_flow.self_s", "s", "lower"),
    # key_job_s on flow_sweep
    ("rgflow.solve_nu.flows_per_solve", "count", "lower"),
    ("rgflow.dressed_det_scan.self_s", "s", "lower"),
    ("rgflow.dressed_two_point.self_s", "s", "lower"),
    ("rgflow.asymptotic_constants.self_s", "s", "lower"),
    # wall_s on oracle_audit
    ("trees.enumerate_trees.self_s", "s", "lower"),
    ("trees.enumerate_trees.trees", "count", "higher"),
    ("trees.scale_sum_audit.self_s", "s", "lower"),
    ("trees.scale_sum_audit.terms", "count", "higher"),
    ("grassmann.bbf_evaluate.calls", "count", "lower"),
    ("grassmann.bbf_evaluate.self_s", "s", "lower"),
    ("grassmann.bbf_evaluate.p50_ms", "ms", "lower"),
    ("grassmann.bbf_evaluate.tail_ms", "ms", "lower"),
    ("grassmann.truncated_expectation_oracle.self_s", "s", "lower"),
    ("grassmann.wick_expectation.self_s", "s", "lower"),
    ("grassmann.gram_hadamard_audit.self_s", "s", "lower"),
    # setup_s
    ("grassmann.calibrate_bbf_sign.calls", "count", "lower"),
]
# wall_s, peak_rss_mb and setup_s on cli_readme
for _sub in SUBCOMMANDS:
    PER_LAYER += [(f"cli.{_sub}.wall_s", "s", "lower"),
                  (f"cli.{_sub}.peak_rss_mb", "MB", "lower"),
                  (f"cli.{_sub}.bytes_out", "bytes", "lower")]
PER_LAYER += [
    ("cli.import_s", "s", "lower"),
    # the traced pass itself, and what tracing added to it
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


# --- hooks: counts taken where the work happens -----------------------------

def _add(stat, key, value):
    stat.extra[key] = stat.extra.get(key, 0) + value


def _smooth_cutoff(stat, args, kwargs, result):
    _add(stat, "elements", int(getattr(args[0], "size", 1)))


def _build_propagator_grid(stat, args, kwargs, result):
    grid = args[0]
    m = kwargs.get("M", args[2] if len(args) > 2 else None)
    built = grid.matsubara_frequencies(grid.M if m is None else m).size * grid.L ** 3
    _add(stat, "rows_kept", len(result))
    _add(stat, "rows_built", int(built))


def _to_csv(stat, args, kwargs, result):
    target = args[1]
    size = target.tell() if hasattr(target, "tell") else os.path.getsize(target)
    _add(stat, "bytes", int(size))


def _band_grid(stat, args, kwargs, result):
    _add(stat, "support_points", int(result.support_points))
    _add(stat, "box_points", int(result.weight.size))


def _enumerate_trees(stat, args, kwargs, result):
    _add(stat, "trees", len(result))


def _scale_sum_audit(stat, args, kwargs, result):
    _add(stat, "terms", int(result.term_count))


def new_tracer() -> Tracer:
    """A Tracer installed on every weylrg layer, with the counting hooks."""
    t = Tracer().install()
    t.hook("cutoff.smooth_cutoff", _smooth_cutoff)
    t.hook("propagator.build_propagator_grid", _build_propagator_grid)
    t.hook("propagator.PropagatorGrid.to_csv", _to_csv)
    t.hook("multiscale.band_grid_r1", _band_grid)
    t.hook("multiscale.band_grid_r2", _band_grid)
    t.hook("trees.enumerate_trees", _enumerate_trees)
    t.hook("trees.scale_sum_audit", _scale_sum_audit)
    return t


# --- reduction ---------------------------------------------------------------

def percentile(values, q):
    """Nearest-rank percentile of a non-empty list."""
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def tail(values):
    """The highest of p99.9/p99/p95/p90/p50 with at least ten samples beyond
    it (p95 for the 241 BBF calls of oracle_audit); the maximum when there are
    too few samples, 0 when there are none."""
    for q in (0.999, 0.99, 0.95, 0.9, 0.5):
        if len(values) * (1.0 - q) >= 10:
            return percentile(values, q)
    return max(values, default=0.0)


def span_metrics(dump) -> dict:
    """Per-layer metrics from a merged tracer dump (every span of one pass)."""
    spans = dump["spans"]
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "callers": {},
             "durations": [], "extra": {}}

    def sp(name):
        return spans.get(name, empty)

    def group(prefix):
        acc = dict(empty, extra={})
        for name, s in spans.items():
            if name.startswith(prefix):
                acc["calls"] += s["calls"]
                acc["self_s"] += s["self_s"]
                for k, v in s["extra"].items():
                    acc["extra"][k] = acc["extra"].get(k, 0) + v
        return acc

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    m["lattice.weyl_points.calls"] = sp("lattice.weyl_points")["calls"]
    m["lattice.self_s"] = group("lattice.")["self_s"]
    cut = sp("cutoff.smooth_cutoff")
    m["cutoff.smooth_cutoff.calls"] = cut["calls"]
    m["cutoff.smooth_cutoff.elements"] = cut["extra"].get("elements", 0)
    m["cutoff.smooth_cutoff.self_s"] = cut["self_s"]
    bpg = sp("propagator.build_propagator_grid")
    m["propagator.build_propagator_grid.self_s"] = bpg["self_s"]
    m["propagator.rows_kept_ratio"] = ratio(bpg["extra"].get("rows_kept", 0),
                                            bpg["extra"].get("rows_built", 0))
    m["propagator.conjugation_defect.self_s"] = \
        sp("propagator.PropagatorGrid.conjugation_defect")["self_s"]
    csv = sp("propagator.PropagatorGrid.to_csv")
    m["propagator.to_csv.self_s"] = csv["self_s"]
    m["propagator.to_csv.bytes"] = csv["extra"].get("bytes", 0)
    for f in ("regularized_all_spatial", "schwinger_time_domain"):
        m[f"propagator.{f}.self_s"] = sp(f"propagator.{f}")["self_s"]
    bands = group("multiscale.band_grid")
    m["multiscale.band_grid.calls"] = bands["calls"]
    m["multiscale.band_grid.self_s"] = bands["self_s"]
    m["multiscale.band_grid.fill_ratio"] = ratio(bands["extra"].get("support_points", 0),
                                                 bands["extra"].get("box_points", 0))
    ent = sp("multiscale.BandGrid.entries")
    m["multiscale.entries.calls"] = ent["calls"]
    m["multiscale.entries.self_s"] = ent["self_s"]
    m["multiscale.entries_per_band"] = ratio(ent["calls"], bands["calls"])
    m["multiscale.decay_audit.self_s"] = sp("multiscale.decay_audit")["self_s"]
    m["multiscale.position_values.self_s"] = sp("multiscale.BandGrid.position_values")["self_s"]
    m["multiscale.sparse_band_warnings"] = dump["warnings"]
    for f in ("band_self_energy", "localize_kernel", "run_flow"):
        m[f"rgflow.{f}.calls"] = sp(f"rgflow.{f}")["calls"]
        m[f"rgflow.{f}.self_s"] = sp(f"rgflow.{f}")["self_s"]
    m["rgflow.flow_step.calls"] = sp("rgflow.flow_step")["calls"]
    m["rgflow.solve_nu.flows_per_solve"] = ratio(
        sp("rgflow.run_flow")["callers"].get("rgflow.solve_nu", 0),
        sp("rgflow.solve_nu")["calls"])
    for f in ("dressed_det_scan", "dressed_two_point", "asymptotic_constants"):
        m[f"rgflow.{f}.self_s"] = sp(f"rgflow.{f}")["self_s"]
    et = sp("trees.enumerate_trees")
    m["trees.enumerate_trees.self_s"] = et["self_s"]
    m["trees.enumerate_trees.trees"] = et["extra"].get("trees", 0)
    ssa = sp("trees.scale_sum_audit")
    m["trees.scale_sum_audit.self_s"] = ssa["self_s"]
    m["trees.scale_sum_audit.terms"] = ssa["extra"].get("terms", 0)
    bbf = sp("grassmann.bbf_evaluate")
    m["grassmann.bbf_evaluate.calls"] = bbf["calls"]
    m["grassmann.bbf_evaluate.self_s"] = bbf["self_s"]
    durations = bbf["durations"]
    m["grassmann.bbf_evaluate.p50_ms"] = 1e3 * percentile(durations, 0.5) if durations else 0.0
    m["grassmann.bbf_evaluate.tail_ms"] = 1e3 * tail(durations)
    for f in ("truncated_expectation_oracle", "wick_expectation", "gram_hadamard_audit"):
        m[f"grassmann.{f}.self_s"] = sp(f"grassmann.{f}")["self_s"]
    m["grassmann.calibrate_bbf_sign.calls"] = sp("grassmann.calibrate_bbf_sign")["calls"]
    return m
