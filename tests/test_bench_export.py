import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_export.py"
MACHINE = {"nproc": 2, "numpy": "2.4.6"}


def _record(directory, workload, seed, trace, metrics, machine=MACHINE):
    directory.mkdir(exist_ok=True)
    rec = {"workload": workload, "seed": seed, "trace": trace, "machine": machine,
           "failed": 0, "metrics": {k: {"value": v, "unit": "s"} for k, v in metrics.items()}}
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


def test_refuses_runs_from_two_machines(tmp_path):
    _record(tmp_path / "p", "flow_sweep", 1, 0, {"wall_s": 4.0})
    _record(tmp_path / "c", "flow_sweep", 1, 0, {"wall_s": 0.5}, machine={"nproc": 8})
    result = _export(tmp_path)
    assert result.returncode == 1 and "machine" in result.stderr
    assert not (tmp_path / "b.json").exists()
