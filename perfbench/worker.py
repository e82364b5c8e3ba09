"""One benchmark process: set up a workload, then (unless --mode setup) run one
pass of its jobs and write the result as JSON.

run.py starts a fresh interpreter per pass, so the peak RSS read here belongs
to that pass alone, and the set-up time counts from the interpreter's start.

    python3 perfbench/worker.py --workload W --seed N --size full|tiny
        --mode setup|pass|traced --workdir DIR --result FILE --t-spawn T
"""

import argparse
import json
import os
import platform
import time
import traceback
from pathlib import Path

from clirun import peak_rss_mb
from tracer import merge


def machine():
    """What the result was measured on."""
    import numpy as np
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = "unknown"
    try:
        cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{cfg.get('name')} {cfg.get('version')}"
    except (TypeError, KeyError, AttributeError):
        pass
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu": cpu, "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "thread_pins": {k: v for k, v in os.environ.items() if "THREADS" in k}}


def run_pass(wl, tracer):
    jobs = []
    for job in wl.jobs:
        rec = {"name": job.name, "ok": False, "error": None}
        answer = None
        t0 = time.perf_counter()
        try:
            answer = tracer.span(f"job.{job.name}", job.run) if tracer else job.run()
            rec["wall_s"] = time.perf_counter() - t0
            job.check(answer)
            rec["ok"] = True
        except Exception:  # a failed job is counted and the pass goes on
            rec.setdefault("wall_s", time.perf_counter() - t0)
            rec["error"] = traceback.format_exc(limit=4)[-3000:]
        if isinstance(answer, dict) and "rss_mb" in answer:  # a CLI subprocess
            rec["cli"] = {k: answer.get(k) for k in ("rss_mb", "bytes_out", "import_s")}
            rec["trace"] = answer.get("trace")
        jobs.append(rec)
    return jobs


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", default="full")
    ap.add_argument("--mode", choices=("setup", "pass", "traced"), required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--t-spawn", type=float, required=True)
    args = ap.parse_args()

    import workloads
    tracer = None
    if args.mode == "traced":
        import layers
        tracer = layers.new_tracer()
    wl = workloads.build(args.workload, args.size, args.seed, Path(args.workdir))
    wl.state["trace"] = tracer is not None
    out = {"setup_s": time.monotonic() - args.t_spawn, "machine": machine(),
           "key_job": wl.key_job}
    if args.mode != "setup":
        t0 = time.perf_counter()
        out["jobs"] = run_pass(wl, tracer)
        out["pass_s"] = time.perf_counter() - t0
        if tracer is not None:
            out["trace"] = merge(
                [tracer.dump()] + [j["trace"] for j in out["jobs"] if j.get("trace")])
            for j in out["jobs"]:
                j.pop("trace", None)
    out["peak_rss_mb"] = max([peak_rss_mb()] + [j["cli"]["rss_mb"] for j in out.get("jobs", ())
                                                if j.get("cli")])
    Path(args.result).write_text(json.dumps(out))


if __name__ == "__main__":
    main()
