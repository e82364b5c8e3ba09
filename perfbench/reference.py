"""Write reference.json: the answers of the jobs that have no closed-form
oracle, computed by the program as it stands.

    PYTHONPATH=src python3 perfbench/reference.py

The stored file was made at the seed commit and is what later commits are
checked against; regenerating it on changed code would defeat that purpose.
"""

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads as wk  # noqa: E402
from weylrg.cli import dispatch  # noqa: E402


def cli_answers(cfg):
    out = {}
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        tmp = Path(tmp)
        (tmp / "cfg.json").write_text(json.dumps(cfg))
        for sub in ("propagator", "flow", "solve-nu", "trees"):
            assert dispatch([sub, "--config", str(tmp / "cfg.json"), "--out", str(tmp / sub),
                             "--seed", "0"]) == 0, sub
        out["propagator_rows"] = json.loads((tmp / "propagator" / "propagator.json")
                                            .read_text())["rows"]
        for sub in ("flow", "solve-nu"):
            d = json.loads((tmp / sub / "flow.json").read_text())
            out[f"cli.{sub}"] = {"rows": wk.read_csv(tmp / sub / "flow.csv")[1],
                                 "termination": d["termination"],
                                 "max_dimensionless_beta": d["max_dimensionless_beta"]}
        out["cli.solve-nu"]["solved_nu"] = d["solved_nu"]
        d = json.loads((tmp / "trees" / "trees.json").read_text())
        out["cli.trees"] = {"tree_sets": {k: len(v) for k, v in d["tree_sets"].items()},
                            "scale_sums": d["scale_sums"]}
    return out


def job_answers(name, size, keep):
    wl = wk.build(name, size, 0, HERE)
    out = {}
    for job in wl.jobs:
        ans = job.run()
        if keep(job.name):
            out[job.name] = ans
    return out


def main():
    ref = {}
    for size in wk.SIZES:
        cfg = wk.TINY_CONFIG if size == "tiny" else wk.README_CONFIG
        r = cli_answers(cfg)
        flows = job_answers("flow_sweep", size, lambda n: n != "dressed_two_point")
        flows["dressed_det_scan"] = {"dets": flows["dressed_det_scan"]["dets"]}
        r.update(flows)
        r.update(job_answers("oracle_audit", size, lambda n: n.startswith(
            ("enumerate_trees", "scale_sum_audit"))))
        ref[size] = r
    (HERE / "reference.json").write_text(json.dumps(ref, indent=1) + "\n")


if __name__ == "__main__":
    main()
