"""Run one weylrg subcommand through weylrg.cli.main in this interpreter.

    python3 perfbench/clirun.py --stats FILE [--trace] -- <subcommand> <options>

Writes to FILE the time the `import weylrg.cli` took, the peak RSS and, with
--trace, the spans of every weylrg layer; exits with the CLI's exit code.
"""

import json
import resource
import sys
import time


def peak_rss_mb():
    """This process's own peak RSS.  VmHWM excludes the memory of the parent
    that forked it, which ru_maxrss keeps across exec."""
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main():
    args = sys.argv[1:]
    sep = args.index("--")
    opts, cli_args = args[:sep], args[sep + 1:]
    stats_path = opts[opts.index("--stats") + 1]
    t0 = time.perf_counter()
    import weylrg.cli as cli
    stats = {"import_s": time.perf_counter() - t0}
    tracer = None
    if "--trace" in opts:
        import layers
        tracer = layers.new_tracer()
    sys.argv = ["weylrg"] + cli_args
    code = 0
    try:
        cli.main()
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    finally:
        stats["peak_rss_mb"] = peak_rss_mb()
        if tracer is not None:
            stats["trace"] = tracer.dump()
        with open(stats_path, "w") as f:
            json.dump(stats, f)
    sys.exit(code)


if __name__ == "__main__":
    main()
