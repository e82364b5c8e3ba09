import json
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_export.py"
MACHINE = {"nproc": 2, "numpy": "2.4.6"}


def _record(directory, workload, seed, trace, metrics, machine=MACHINE, results=()):
    directory.mkdir(exist_ok=True)
    rec = {"workload": workload, "seed": seed, "trace": trace, "machine": machine,
           "failed": 0, "metrics": {k: {"value": v, "unit": "s"} for k, v in metrics.items()},
           "results": list(results)}
    (directory / f"{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(rec))


def _export(tmp_path):
    return subprocess.run([sys.executable, str(SCRIPT), "--parent", str(tmp_path / "p"),
                           "--change", str(tmp_path / "c"), "--out", str(tmp_path / "b.json")],
                          capture_output=True, text=True)


def test_pairs_by_seed_and_copies_machine(tmp_path):
    for seed, (p, c) in enumerate([(4.0, 0.5), (4.2, 0.4), (4.1, 4.3)], start=1):
        _record(tmp_path / "p", "flow_sweep", seed, 0, {"wall_s": p})
        _record(tmp_path / "c", "flow_sweep", seed, 0, {"wall_s": c})
    _record(tmp_path / "c", "flow_sweep", 9, 0, {"wall_s": 0.1})  # no parent run: unpaired
    _record(tmp_path / "c", "flow_sweep", 901, 1, {"cutoff.smooth_cutoff.self_s": 0.01})
    assert _export(tmp_path).returncode == 0
    bench = json.loads((tmp_path / "b.json").read_text())
    assert bench["machine"] == MACHINE
    entry = bench["workloads"]["flow_sweep"]
    wall = entry["metrics"]["wall_s"]
    assert entry["seeds"] == [1, 2, 3]
    assert wall["pairs"] == [[4.0, 0.5], [4.2, 0.4], [4.1, 4.3]]
    assert wall["change_wins"] == 2
    assert wall["parent"]["median"] == 4.1 and wall["change"]["median"] == 0.5
    assert entry["traced"] == {"change": {"cutoff.smooth_cutoff.self_s": 0.01}}


def test_traced_metrics_are_medians_over_every_traced_run_per_side(tmp_path):
    for side, runs in (("p", {901: (0.5, 7.0), 902: (0.25, 9.0)}),
                       ("c", {903: (0.125, 8.0), 904: (0.375, None)})):
        _record(tmp_path / side, "flow_sweep", 1, 0, {"wall_s": 1.0})
        for seed, (self_s, calls) in runs.items():
            metrics = {"multiscale.band_grid.self_s": self_s}
            if calls is not None:  # a metric one traced run lacks
                metrics["multiscale.band_grid.calls"] = calls
            _record(tmp_path / side, "flow_sweep", seed, 1, metrics)
    assert _export(tmp_path).returncode == 0
    entry = json.loads((tmp_path / "b.json").read_text())["workloads"]["flow_sweep"]
    assert entry["traced_seeds"] == {"parent": [901, 902], "change": [903, 904]}
    assert entry["traced"] == {
        "parent": {"multiscale.band_grid.calls": 8.0, "multiscale.band_grid.self_s": 0.375},
        "change": {"multiscale.band_grid.calls": 8.0, "multiscale.band_grid.self_s": 0.25}}


def _passes(*walls):
    """A set-up probe, a worker that died, then one pass per {job: wall_s}."""
    return [{"setup_s": 0.2}, None] + [
        {"jobs": [{"name": k, "ok": True, "wall_s": v} for k, v in w.items()]} for w in walls]


def test_job_medians_per_side_over_paired_untraced_passes(tmp_path):
    _record(tmp_path / "p", "oracle_audit", 1, 0, {"wall_s": 1.0},
            results=_passes({"a": 0.5, "b": 0.1}, {"a": 0.7, "b": 0.3}))
    _record(tmp_path / "p", "oracle_audit", 2, 0, {"wall_s": 1.0}, results=_passes({"a": 0.6}))
    _record(tmp_path / "c", "oracle_audit", 1, 0, {"wall_s": 0.8},
            results=_passes({"a": 0.2, "b": 0.1}))
    _record(tmp_path / "c", "oracle_audit", 2, 0, {"wall_s": 0.8},
            results=_passes({"a": 0.4}, {"a": 0.3}))
    _record(tmp_path / "c", "oracle_audit", 3, 0, {"wall_s": 0.8},  # no parent run: unpaired
            results=_passes({"a": 9.0}))
    _record(tmp_path / "c", "oracle_audit", 901, 1, {"trace.wall_s": 2.0},  # traced: skipped
            results=_passes({"a": 9.0}))
    assert _export(tmp_path).returncode == 0
    row = json.loads((tmp_path / "b.json").read_text())["workloads"]["oracle_audit"]
    assert row["job_wall_s"] == {"parent": {"a": 0.6, "b": 0.2}, "change": {"a": 0.3, "b": 0.1}}


def test_refuses_runs_from_two_machines(tmp_path):
    _record(tmp_path / "p", "flow_sweep", 1, 0, {"wall_s": 4.0})
    _record(tmp_path / "c", "flow_sweep", 1, 0, {"wall_s": 0.5}, machine={"nproc": 8})
    result = _export(tmp_path)
    assert result.returncode == 1 and "machine" in result.stderr
    assert not (tmp_path / "b.json").exists()


BOUNDS = {m["name"]: m["bound"] for m in json.loads(
    (SCRIPT.parents[1] / "BENCHMARK.json").read_text())["end_to_end"]}
_STEADY = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0]  # q3 - q1 = 0.02
_WIDE = [1.0, 2.0] * 5                                             # q3 - q1 = 1.0


@pytest.mark.parametrize("metric,parent,change,want", [
    ("wall_s", _STEADY, [0.8] * 10, "gain"),
    ("wall_s", _STEADY, [0.8] * 8 + [1.5] * 2, "no_worse"),       # 8 wins in 10
    ("wall_s", _WIDE, [1.0] * 10, "unresolved"),                   # gap 0.5 < q3 - q1
    ("wall_s", _WIDE, [0.9] * 10, "no_worse"),                     # every change run beats
    ("wall_s", _STEADY, [1.15] * 10, "no_worse"),                  # +15% within 0.24
    ("peak_rss_mb", _STEADY, [1.15] * 10, "worse"),                # +15% past 0.1
    ("wall_s", _STEADY, [1.3] * 10, "worse"),
])
def test_verdict_per_metric_bound(tmp_path, metric, parent, change, want):
    assert BOUNDS["wall_s"] > 0.15 > BOUNDS["peak_rss_mb"]
    for seed, (p, c) in enumerate(zip(parent, change), start=1):
        _record(tmp_path / "p", "oracle_audit", seed, 0, {metric: p})
        _record(tmp_path / "c", "oracle_audit", seed, 0, {metric: c})
    assert _export(tmp_path).returncode == 0
    row = json.loads((tmp_path / "b.json").read_text())["workloads"]["oracle_audit"]
    assert row["metrics"][metric]["bound"] == BOUNDS[metric]
    assert row["metrics"][metric]["verdict"] == want
