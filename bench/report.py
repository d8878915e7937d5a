"""Run every workload untraced and traced and print all of their figures.

    python3 bench/report.py [--seed N] [--seconds S]

For each workload this prints the end-to-end metrics of the untraced run by
the workload's own names (``records_per_s``, ``items_per_s``, ...), the
per-layer metrics of the traced run, and the tracing overhead: how much
lower ``work_per_cpu_s`` reads with tracing on. The exit status is 1 if any
output check failed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    out = subprocess.run(
        [
            sys.executable, str(ROOT / "bench" / "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
        ],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    lines = out.stdout.strip().splitlines()
    if len(lines) < 2:
        raise SystemExit(f"{workload} (trace {trace}) printed no result:\n{out.stderr}")
    return {"detail": json.loads(lines[-2]), "result": json.loads(lines[-1])}


def show(name: str, metric: dict) -> str:
    return f"  {name:36s} {metric['value']:>14.6g} {metric['unit']}"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    args = p.parse_args(argv)

    ok = True
    for workload in WORKLOADS:
        plain = run_once(workload, args.seed, args.seconds, 0)
        traced = run_once(workload, args.seed, args.seconds, 1)
        env = plain["detail"]["env"]
        e2e, layers = plain["result"]["metrics"], traced["result"]["metrics"]
        print(
            f"== {workload}: seed {env['seed']}, {env['seconds']:g} s, nproc {env['nproc']}, "
            f"BLAS threads {env['blas_threads']} ({env['blas']}), numpy {env['numpy']}, "
            f"python {env['python']}, commit {env['commit'][:12]}, src {env['src_sha256'][:12]}"
        )
        print("end to end, tracing off:")
        for name, metric in plain["detail"]["named"].items():
            print(show(name, metric))
        for name in ("setup_s", "peak_rss_mb", "work_per_cpu_s"):
            print(show(name, e2e[name]))
        print("per layer, tracing on, per step:")
        for name, metric in layers.items():
            if metric["value"]:
                print(show(name, metric))
        untraced = e2e["work_per_cpu_s"]["value"]
        with_trace = layers["traced_work_per_cpu_s"]["value"]
        print(f"  tracing overhead: work_per_cpu_s {untraced:.6g} untraced, {with_trace:.6g} "
              f"traced "
              f"({(untraced - with_trace) / untraced:.1%} lower with tracing)")
        print("digests:", json.dumps(plain["detail"]["digests"], sort_keys=True))
        for run in (plain, traced):
            if not run["result"]["correct"]:
                ok = False
                print("FAILED:", run["detail"]["failures"])
        print()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
