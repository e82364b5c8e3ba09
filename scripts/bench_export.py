"""Collect paired perfbench runs into one BENCH_<n>.json.

    python3 scripts/bench_export.py --parent PARENT/.perfbench_out \
        --change .perfbench_out --out BENCH_7.json

perfbench/run.py leaves one record per run in the checkout's .perfbench_out/,
named <workload>-seed<seed>-trace<0|1>.json.  Runs of the parent commit and of
the change with the same workload and seed form a pair.  For each workload and
end-to-end metric this copies every pair's medians (each run's median over its
passes), each side's median and quartiles, how many pairs the change wins
(lower is better for every end-to-end metric) and a verdict against the
metric's bound in BENCHMARK.json:

  gain        the change wins at least 9 pairs in 10 and its median is below
              the parent's by more than the parent's q3 - q1;
  worse       the change median exceeds the parent median by more than the
              bound (relative);
  unresolved  the parent's own q3 - q1 exceeds the bound times its median,
              and not every change run beats every parent run;
  no_worse    any other case.

Each side's job times go to `job_wall_s`: per job, the median of its wall
time over every pass of that side's paired untraced runs, so the jobs that
moved can be named without a traced run.  Each side's traced runs (trace 1)
go to `traced`: per per-layer metric, its median over every traced run of
that side that reports it, one run's figure being too noisy to compare; their
seeds go to `traced_seeds`.  The machine record is copied once; runs from
different machines are refused.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def load(directory: Path) -> dict:
    """{(workload, seed, trace): record} of the run records in `directory`."""
    out = {}
    for path in sorted(directory.glob("*-seed*-trace*.json")):
        rec = json.loads(path.read_text())
        out[(rec["workload"], rec["seed"], rec["trace"])] = rec
    return out


def spread(values) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def job_medians(records) -> dict:
    """{job: median wall_s over every pass of the run records}."""
    times = {}
    for rec in records:
        for p in rec.get("results") or ():
            for j in (p or {}).get("jobs", ()):  # set-up probes run no jobs; None died
                times.setdefault(j["name"], []).append(j["wall_s"])
    return {name: statistics.median(t) for name, t in sorted(times.items())}


def traced_medians(records) -> dict:
    """{per-layer metric: median of its value over the records that report it}."""
    values = {}
    for rec in records:
        for name, m in rec["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    return {name: statistics.median(v) for name, v in sorted(values.items())}


def compare(pairs, bound: float) -> dict:
    """Spreads, change wins and verdict of (parent, change) pairs of a
    lower-is-better metric; the verdicts are in the module docstring."""
    parent, change = spread([p for p, _ in pairs]), spread([c for _, c in pairs])
    iqr = parent["q3"] - parent["q1"]
    wins = sum(c < p for p, c in pairs)
    if 10 * wins >= 9 * len(pairs) and parent["median"] - change["median"] > iqr:
        verdict = "gain"
    elif change["median"] > parent["median"] * (1 + bound):
        verdict = "worse"
    elif iqr > bound * parent["median"] and max(c for _, c in pairs) >= min(p for p, _ in pairs):
        verdict = "unresolved"
    else:
        verdict = "no_worse"
    return {"parent": parent, "change": change, "change_wins": wins,
            "bound": bound, "verdict": verdict}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in json.loads(BENCHMARK.read_text())["end_to_end"]}
    parent, change = load(args.parent), load(args.change)
    machines = {json.dumps(r["machine"], sort_keys=True)
                for r in (*parent.values(), *change.values()) if r["machine"]}
    if len(machines) != 1:
        print(f"runs come from {len(machines)} machine records; need exactly 1",
              file=sys.stderr)
        return 1
    bench = {"machine": json.loads(machines.pop()), "workloads": {}}
    for wl in sorted({k[0] for k in change}):
        seeds = sorted(k[1] for k in change if k[0] == wl and k[2] == 0
                       and (wl, k[1], 0) in parent)
        pairs = [(parent[wl, s, 0], change[wl, s, 0]) for s in seeds]
        entry = {"seeds": seeds, "failed": {"parent": sum(p["failed"] for p, _ in pairs),
                                            "change": sum(c["failed"] for _, c in pairs)},
                 "metrics": {},
                 "job_wall_s": {"parent": job_medians(p for p, _ in pairs),
                                "change": job_medians(c for _, c in pairs)}}
        for m, bound in bounds.items():
            vals = [(p["metrics"][m]["value"], c["metrics"][m]["value"]) for p, c in pairs
                    if m in p["metrics"] and m in c["metrics"]]
            if vals:
                entry["metrics"][m] = {"unit": pairs[0][1]["metrics"][m]["unit"],
                                       "pairs": vals, **compare(vals, bound)}
        entry["traced"], entry["traced_seeds"] = {}, {}
        for side, runs in (("parent", parent), ("change", change)):
            traced = [runs[k] for k in sorted(runs) if k[0] == wl and k[2] == 1]
            if traced:
                entry["traced"][side] = traced_medians(traced)
                entry["traced_seeds"][side] = [r["seed"] for r in traced]
        bench["workloads"][wl] = entry
    args.out.write_text(json.dumps(bench, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
