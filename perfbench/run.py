#!/usr/bin/env python3
"""modkit benchmark: verdict times on taft-d9, small-grid and cli-files.

Run from the root of a checkout; nothing needs installing or building:

    python3 perfbench/run.py --workload taft-d9 --seed 1 --seconds 30 --trace 0

The command puts ``src/`` on ``sys.path`` itself and measures the arithmetic
backend modkit selects by default.  One run is one single-threaded process:
it imports modkit, builds the workload's inputs (three times, reporting the
median), then runs whole passes over the workload's operations until the
next pass would end after ``--seconds``, and checks every output against
values computed apart from modkit (``reference.py``).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` is the separate
traced run: untraced passes for half of ``--seconds``, one pass with wrappers
around every public modkit function (``tracer.py``), then one more untraced
pass to compare it with; it prints the per-layer metrics and writes the
spans to ``perfbench/out/``.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--workload all`` runs every
workload, each in a fresh interpreter.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

WORKLOADS = ("taft-d9", "small-grid", "cli-files")
SETUP_REPEATS = 3

END_TO_END = {"setup_s": "s", "wall_s": "s", "verify_s": "s", "normalized_s": "s",
              "peak_rss_mb": "MB"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def clear_caches() -> None:
    """Empty every functools cache in modkit, so that each set-up repetition
    does the whole work again."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "modkit" or name.startswith("modkit.")):
            continue
        for val in list(vars(mod).values()):
            clear = getattr(val, "cache_clear", None)
            if callable(clear):
                clear()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_passes(wl, passes: list, seconds: float) -> float:
    """Whole passes until the next one, as long as the last, would end late.

    Returns the peak RSS after the first pass: later passes can raise it
    (the allocator reuses freed memory imperfectly), and how many passes fit
    depends on the host's speed."""
    from workloads import Pass

    start = time.perf_counter()
    first_rss = 0.0
    while True:
        t0 = time.perf_counter()
        p = Pass()
        wl.run_pass(p, len(passes))
        passes.append(p)
        first_rss = first_rss or peak_rss_mb()
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            return first_rss


def run_all(args) -> int:
    codes = []
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        print(f"== {name}", flush=True)
        codes.append(subprocess.run(cmd, check=False).returncode)
    return max(codes)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not os.path.isfile(os.path.join(SRC, "modkit", "__init__.py")):
        print(f"error: no modkit sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)

    import modkit
    import workloads
    import_s = time.perf_counter() - T_START

    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        print(f"modkit {modkit.__version__}  kernel_backend={modkit.kernel_backend}  "
              f"workload={args.workload}  seed={args.seed}  seconds={args.seconds:g}  "
              f"trace={args.trace}", flush=True)
        if args.trace:
            return traced_run(args, wl)
        builds = []
        for _ in range(SETUP_REPEATS):
            clear_caches()
            t0 = time.perf_counter()
            wl.setup()
            builds.append(time.perf_counter() - t0)
        setup_s = import_s + statistics.median(builds)
        passes: list = []
        rss = run_passes(wl, passes, args.seconds)
        metrics = {
            "setup_s": setup_s,
            "wall_s": statistics.median(p.wall for p in passes),
            "verify_s": statistics.median(p.seconds["verify"] for p in passes),
            "normalized_s": statistics.median(p.seconds["normalized"] for p in passes),
            "peak_rss_mb": rss,
        }
        print(f"passes={len(passes)}  pass_wall_s={[round(p.wall, 4) for p in passes]}  "
              f"import_s={import_s:.4f}  builds_s={[round(b, 4) for b in builds]}")
        return report(passes, {k: (v, END_TO_END[k]) for k, v in metrics.items()})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def traced_run(args, wl) -> int:
    import tracer
    from workloads import Pass

    tr = tracer.Tracer()
    tr.install()
    try:
        wl.setup()
    finally:
        tr.uninstall()
    passes: list = []
    run_passes(wl, passes, args.seconds / 2)   # warms lazy imports and caches
    tr.install()
    try:
        traced = Pass()
        wl.run_pass(traced, len(passes))
    finally:
        tr.uninstall()
    passes.append(traced)
    untraced = Pass()   # the warm untraced pass the traced one is compared with
    wl.run_pass(untraced, len(passes))
    passes.append(untraced)
    metrics = tr.metrics(traced.wall - untraced.wall)
    path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
    tr.dump(path, {"workload": args.workload, "seed": args.seed,
                   "untraced_pass_s": untraced.wall, "traced_pass_s": traced.wall,
                   "traced_ops_s": traced.times})
    print(f"passes={len(passes)}  untraced_wall_s={untraced.wall:.4f}  "
          f"traced_wall_s={traced.wall:.4f}  spans={len(tr.spans)}  trace file: {path}")
    if tr.absent:
        print(f"absent (reported as 0): {', '.join(tr.absent)}")
    return report(passes, {k: (m["value"], m["unit"]) for k, m in metrics.items()})


def report(passes: list, metrics: dict) -> int:
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    correct = all(p.correct for p in passes)
    seen = set()
    for p in passes:
        for problem in p.problems:
            if problem not in seen:
                seen.add(problem)
                print(f"FAILED {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:<34} {value:>16.6f} {unit}" if isinstance(value, float)
              else f"{name:<34} {value:>16} {unit}")
    print(f"attempted={attempted}  failed={failed}  correct={str(correct).lower()}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
