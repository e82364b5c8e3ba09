"""Run every workload, untraced and traced, print each metric by name and
unit, and check that the result lines carry exactly the metrics BENCHMARK.json
names, with their units.

    python3 perfbench/report.py [--seed N] [--seconds S]   # full size
    python3 perfbench/report.py --tiny                       # fast self-check

Run from the root of a checkout.  It also prints two counts of the traced
program: BandGrid.entries calls and bands in one run_flow (r=1/2, h_min=-6,
n_k=12), and flows per solve_nu, which ROADMAP item 2 sets out to reduce.
Exits non-zero if any metric is missing or mislabelled or any job failed.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from layers import PER_LAYER  # noqa: E402
from run import END_TO_END, THREADS_ENV, WORKLOADS  # noqa: E402

COUNTS = """
import layers, workloads as wk
from weylrg import rgflow as rg
t = layers.new_tracer()
rg.run_flow(wk.P_STAR, 0.05, wk.INTER, -6, n_k=12)
m = layers.span_metrics(t.dump())
print("run_flow(r=1/2, h_min=-6, n_k=12): %d BandGrid.entries calls over %d bands (%.1f per band)"
      % (m["multiscale.entries.calls"], m["multiscale.band_grid.calls"],
         m["multiscale.entries_per_band"]))
"""


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--tiny", action="store_true", help="tiny inputs: a fast self-check")
    args = ap.parse_args()
    bench = json.loads(Path("BENCHMARK.json").read_text())
    seconds = args.seconds or (1 if args.tiny else bench["run_seconds"])
    want = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
            1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    problems = []
    if want[0] != dict(END_TO_END) or want[1] != {n: u for n, u, _ in PER_LAYER}:
        problems.append("BENCHMARK.json lists other metrics than run.py reports")
    if [w["name"] for w in bench["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json lists other workloads than run.py runs")
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = bench["command"] + ["--workload", workload, "--seed", str(args.seed),
                                      "--seconds", str(seconds), "--trace", str(trace)]
            if args.tiny:
                cmd += ["--size", "tiny"]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=180)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(ln for ln in lines[:-1] if not ln.startswith("# machine")))
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                problems.append(f"{workload} trace {trace}: no result line ({proc.stderr[-500:]})")
                continue
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want[trace]:
                problems.append(f"{workload} trace {trace}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(got.items()) ^ set(want[trace].items()))}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload} trace {trace}: {result['failed']} of "
                                f"{result['attempted']} jobs failed\n{proc.stderr[-2000:]}")
    if not args.tiny:
        env = {"PYTHONPATH": f"src:{HERE}", **THREADS_ENV}
        subprocess.run([sys.executable, "-c", COUNTS], env=env, check=True)
    for p in problems:
        print("PROBLEM:", p)
    print("self-check", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
