"""weylrg benchmark.

    python3 perfbench/run.py --workload cli_readme|flow_sweep|oracle_audit
        --seed N --seconds S --trace 0|1 [--size full|tiny]

Run from the root of a source checkout: the program is imported from ./src.
Every job runs closed-loop, one at a time, with the BLAS/OpenMP pools pinned
to one thread.  A pass runs every job of the workload once in a fresh
interpreter (worker.py), so its peak RSS is its own; passes repeat until
--seconds have elapsed, and at least one always runs.

--trace 0 reports the end-to-end metrics, medians over the passes:
  wall_s       wall time of one pass (sum of its jobs, checks excluded)
  key_job_s    wall time of the workload's key job: the propagator
               subprocess (cli_readme), solve_nu (flow_sweep), the L=12
               Matsubara oracle (oracle_audit)
  peak_rss_mb  peak resident memory of a pass, CLI subprocesses included
  setup_s      fresh interpreter to first job: imports, inputs, lazy work;
               the median of nine set-up-only processes and every pass
--trace 1 runs one untraced and one traced pass and reports the per-layer
metrics (layers.py) and the tracing overhead.

Every job's answer is checked against its oracle; `failed` counts the jobs
that raised, exited non-zero, missed an output file or answered outside
tolerance.  The last line of stdout is the JSON result; the full record,
with the machine, goes to .perfbench_out/ in the checkout.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402

WORKLOADS = ("cli_readme", "flow_sweep", "oracle_audit")
END_TO_END = [("wall_s", "s"), ("key_job_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s")]
# job times reported beside the metrics, by workload
REPORTED_JOBS = {"cli_readme": {"propagator_s": "propagator", "solve_nu_s": "solve-nu"},
                 "flow_sweep": {"solve_nu_s": "solve_nu"}}
SETUP_PROBES = 9
DEADLINE_S = 170.0   # the whole run ends well inside 180 s
THREADS_ENV = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}


class Runner:
    def __init__(self, args, root: Path):
        self.args = args
        self.t_start = time.monotonic()
        self.workdir = root / ".perfbench_out" / (
            f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}")
        self.workdir.mkdir(parents=True, exist_ok=True)
        src = str(root / "src")
        self.env = dict(os.environ, **THREADS_ENV, PYTHONHASHSEED="0",
                        PYTHONPATH=os.pathsep.join(
                            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        self.n = 0

    def left(self):
        return DEADLINE_S - (time.monotonic() - self.t_start)

    def worker(self, mode):
        """One fresh worker process; its result dict, or None if it died."""
        self.n += 1
        result = self.workdir / f"result-{self.n}.json"
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.args.workload,
               "--seed", str(self.args.seed), "--size", self.args.size, "--mode", mode,
               "--workdir", str(self.workdir / f"w{self.n}"), "--result", str(result)]
        t_spawn = time.monotonic()
        proc = subprocess.Popen(cmd + ["--t-spawn", repr(t_spawn)], env=self.env,
                                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE, start_new_session=True)
        try:
            _, err = proc.communicate(timeout=max(self.left(), 1.0))
        except subprocess.TimeoutExpired:
            err = b"worker timed out"
        finally:  # also on SIGTERM: the worker's session goes with this run
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
        shutil.rmtree(self.workdir / f"w{self.n}", ignore_errors=True)
        if proc.returncode != 0 or not result.exists():
            sys.stderr.write(err.decode(errors="replace")[-4000:])
            return None
        return json.loads(result.read_text())

    def passes(self, seconds):
        """Passes until `seconds` have gone by (at least one), stopping early
        rather than risk the deadline."""
        t0 = time.monotonic()
        out = [self.worker("pass")]
        while time.monotonic() - t0 < seconds:
            longest = max((p["pass_s"] for p in out if p), default=0.0)
            if self.left() < 1.5 * longest + 5.0:
                break
            out.append(self.worker("pass"))
        return out


def tally(passes):
    """(attempted, failed, failures) over the jobs of a list of passes."""
    attempted = failed = 0
    failures = []
    for p in passes:
        if p is None:  # the worker died: its pass counts as one failed job
            attempted += 1
            failed += 1
            failures.append("worker process failed")
            continue
        for j in p.get("jobs", ()):
            attempted += 1
            if not j["ok"]:
                failed += 1
                failures.append(f"{j['name']}: {j['error']}")
    return attempted, failed, failures


def job_time(p, name):
    return next(j["wall_s"] for j in p["jobs"] if j["name"] == name)


def end_to_end(runner):
    probes = [runner.worker("setup") for _ in range(SETUP_PROBES)]
    passes = runner.passes(runner.args.seconds)
    good = [p for p in passes if p]
    attempted, failed, failures = tally(probes + passes)
    setups = [p["setup_s"] for p in probes + good if p]
    metrics = {}
    if good:
        metrics = {
            "wall_s": statistics.median(sum(j["wall_s"] for j in p["jobs"]) for p in good),
            "key_job_s": statistics.median(job_time(p, p["key_job"]) for p in good),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in good),
            "setup_s": statistics.median(setups),
        }
    info = {"passes": len(passes), "setup_samples": len(setups)}
    for name, job in REPORTED_JOBS.get(runner.args.workload, {}).items():
        if good:
            info[name] = statistics.median(job_time(p, job) for p in good)
    units = dict(END_TO_END)
    return ({k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            attempted, failed, failures, probes + passes, info)


def per_layer(runner):
    plain = runner.worker("pass")
    traced = runner.worker("traced") if runner.left() > 10 else None
    attempted, failed, failures = tally([plain, traced])
    metrics = {}
    if plain and traced:
        metrics = layers.span_metrics(traced["trace"])
        plain_wall = sum(j["wall_s"] for j in plain["jobs"])
        traced_wall = sum(j["wall_s"] for j in traced["jobs"])
        metrics["trace.wall_s"] = traced_wall
        metrics["trace.overhead_s"] = traced_wall - plain_wall
        # process-level CLI numbers come from the untraced pass
        cli = {j["name"]: j for j in plain["jobs"] if "cli" in j}
        imports = []
        for sub in layers.SUBCOMMANDS:
            j = cli.get(sub)
            c = j["cli"] if j else {}
            metrics[f"cli.{sub}.wall_s"] = j["wall_s"] if j else 0.0
            metrics[f"cli.{sub}.peak_rss_mb"] = c.get("rss_mb") or 0.0
            metrics[f"cli.{sub}.bytes_out"] = c.get("bytes_out") or 0
            if c.get("import_s") is not None:
                imports.append(c["import_s"])
        metrics["cli.import_s"] = statistics.median(imports) if imports else 0.0
    units = {name: unit for name, unit, _ in layers.PER_LAYER}
    return ({k: {"value": metrics[k], "unit": units[k]} for k in units if k in metrics},
            attempted, failed, failures, [plain, traced], {})


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    args = ap.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "weylrg" / "__init__.py").is_file():
        print(f"no weylrg source under {root / 'src'}: run from the root of a checkout",
              file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    runner = Runner(args, root)
    measure = per_layer if args.trace else end_to_end
    try:
        metrics, attempted, failed, failures, results, info = measure(runner)
    finally:
        shutil.rmtree(runner.workdir, ignore_errors=True)
    machine = next((r["machine"] for r in results if r), None)
    for f in failures:
        print(f"FAILED {f}", file=sys.stderr)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "size": args.size, "machine": machine,
              "metrics": metrics, "info": info, "attempted": attempted, "failed": failed,
              "failures": failures, "results": results}
    out = root / ".perfbench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1))
    print(f"# machine {json.dumps(machine)} seed {args.seed}")
    for k, v in metrics.items():
        print(f"# {args.workload} {k} = {v['value']:.6g} {v['unit']}")
    for k, v in info.items():
        print(f"# {args.workload} {k} = {v:.6g}" + (" s" if k.endswith("_s") else ""))
    print(f"# {args.workload} failed_ratio = {failed / max(attempted, 1):.6g} "
          f"({failed} of {attempted} jobs)")
    print(json.dumps({"correct": failed == 0 and bool(metrics), "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
