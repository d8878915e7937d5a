"""Benchmark of the cultural-palette toolkit.

    python3 bench/run.py --workload {align,eval,synth,merge} --seed N \
        --seconds S --trace {0,1} [--tiny]

Run from the repository root. The package is imported from ``src/`` of the
checkout the script sits in, never from an installed copy. One process runs
one workload as a closed loop of one client: untimed preparation of shared
inputs, set-up seven times and for 2 s at least (the median is ``setup_s``),
then steps of work back to back until ``--seconds`` have passed, each checked
as it completes.

A run is pinned to one CPU, the lowest it may use, and so is the chat stub
it starts; BLAS gets one thread. Times are CPU seconds of the benchmark
process, all its threads together. On a shared host, more threads than CPUs
and the wall clock both measure the host's scheduler as much as the program:
with BLAS at one thread per core and wall-clock times, ``eval``'s items per
second spread by 0.29 to 0.43 of their median over ten runs. Wall-clock
figures are on the detail line.

The second to last stdout line is a JSON object with the environment, the
workload's named throughputs and the output digests; the last line is the
result: ``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` they are the
per-layer ones, per step, derived from spans that are also written to
``.bench_work/spans-<workload>.jsonl``. ``--tiny`` shrinks every input so the
self-tests run in seconds.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK_ROOT = ROOT / ".bench_work"
NPROC = len(os.sched_getaffinity(0))
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("align", "eval", "synth", "merge"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="tiny inputs, for the self-tests")
    return p.parse_args(argv)


def import_palette():
    """Import the package from this checkout's src/ or fail."""
    src = ROOT / "src"
    if not (src / "palette" / "__init__.py").is_file():
        raise SystemExit(f"bench: no package source at {src / 'palette'}")
    sys.path.insert(0, str(src))
    import palette

    if Path(palette.__file__).resolve().parent != src / "palette":
        raise SystemExit(f"bench: palette imported from {palette.__file__}, not {src}")
    return palette


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    """sha256 over the package sources, for checkouts without git metadata."""
    h = hashlib.sha256()
    pkg = ROOT / "src" / "palette"
    for path in sorted(pkg.rglob("*")):
        if path.is_file() and path.suffix in (".py", ".txt"):
            h.update(path.relative_to(pkg).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def blas_threads() -> int:
    """The thread count of the OpenBLAS that numpy loaded, asked from the
    library itself; -1 if no OpenBLAS is found."""
    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*.so*")):
        lib = ctypes.CDLL(str(path))
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return -1


def environment(palette, args) -> dict:
    import numpy as np
    import requests

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except Exception:  # the layout of numpy's build info varies by version
        blas = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "nproc": NPROC,
        "cpus": sorted(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "blas": blas,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "requests": requests.__version__,
        "palette": palette.__version__,
        "commit": git_commit(),
        "src_sha256": source_digest(),
        "machine": platform.machine(),
    }


def run(args) -> tuple[dict, dict]:
    """Run one workload; returns (detail, result)."""
    palette = import_palette()
    import workloads
    from tracing import SpanStats, Tracer

    cls = workloads.WORKLOADS[args.workload]
    work_dir = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    setup_times, setup_wall = [], []
    inputs = wl = None
    try:
        work_dir.mkdir(parents=True)
        inputs = cls.prepare(args.seed, work_dir, args.tiny)
        while (
            len(setup_times) < workloads.SETUP_REPEATS or sum(setup_wall) < workloads.SETUP_SECONDS
        ):
            if wl is not None:
                wl.close()
            started, cpu_started = time.perf_counter(), time.process_time()
            wl = cls(args.seed, work_dir, args.tiny, inputs)
            setup_times.append(time.process_time() - cpu_started)
            setup_wall.append(time.perf_counter() - started)

        tracer = None
        if args.trace:
            tracer = Tracer()
            workloads.install_tracing(tracer)
            wl.tracer = tracer

        attempted = failed = 0
        failures = []
        started = time.perf_counter()
        try:
            while attempted < wl.MIN_STEPS or time.perf_counter() - started < args.seconds:
                attempted += 1
                try:
                    wl.run_step(attempted - 1)
                except Exception as exc:  # count the failed step and go on
                    failed += 1
                    failures.append(f"step {attempted - 1}: {type(exc).__name__}: {exc}")
                    traceback.print_exc(file=sys.stderr)
        finally:
            if tracer is not None:
                tracer.restore()

        steps = len(wl.per_step)
        if args.trace:
            spans = [s for s in tracer.spans if s.item is not None]
            values = workloads.layer_metrics(SpanStats(spans), wl.layer_extras(), steps)
            values["traced_work_per_cpu_s"] = wl.work_per_s()
            values["trace_spans"] = len(spans) / steps if steps else 0.0
            spec = SPEC["per_layer"]
            WORK_ROOT.mkdir(exist_ok=True)
            tracer.write_jsonl(WORK_ROOT / f"spans-{args.workload}.jsonl")
        else:
            values = {
                "work_per_cpu_s": wl.work_per_s(),
                "setup_s": statistics.median(setup_times),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            spec = SPEC["end_to_end"]
        if set(values) != {m["name"] for m in spec}:
            raise SystemExit(f"bench: metrics {sorted(values)} do not match BENCHMARK.json")
        metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in spec}
        named = dict(wl.named_metrics())
        named["work_per_wall_s"] = (wl.work_per_s(wall=True), "1/s")
        named["failed_ratio"] = (failed / attempted, "ratio")
        named["work_units"] = (wl.work_units(), wl.unit)
        named["steps"] = (steps, "count")
        detail = {
            "env": environment(palette, args),
            "named": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
            "setup_s_all": setup_times,
            "setup_wall_s_all": setup_wall,
            "step_s": wl.step_seconds(),
            "step_wall_s": wl.step_seconds(wall=True),
            "digests": wl.digests,
            "failures": failures[:5],
        }
        result = {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
        return detail, result
    finally:
        if wl is not None:
            wl.close()
        if inputs is not None:
            inputs.close()
        shutil.rmtree(work_dir, ignore_errors=True)


def main(argv=None) -> int:
    args = parse_args(argv)
    # A terminated run still stops the chat stub and removes its scratch files.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # Before numpy loads: one CPU, and BLAS's default for it, one thread,
    # pinned so that an inherited environment variable cannot change it.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    detail, result = run(args)
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
