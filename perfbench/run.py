"""Benchmark of the cghzsim simulator, run from the root of a checkout.

    python3 perfbench/run.py --workload exact_large --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py``): ``exact_large``, ``branch_sweep`` and
``oracle_xcheck``.  Each runs in a process of its own, so that its peak
RSS is its own, with the package imported from ``src/`` of this checkout
and OpenBLAS held to one thread: a workload is one thread of control, and
an idle second BLAS thread can cost a second to wake on a small VM.

With ``--trace 0`` the last line of standard output holds the end-to-end
metrics declared in ``BENCHMARK.json``; ``setup_s`` is the median over
``SETUPS`` processes (the measured one and set-up-only ones) of the time
from process start to the first timed point.  With ``--trace 1`` it holds
the declared per-layer metrics of a traced run.  The line before it is
the workload process's full report: failures, sample counts, Python,
numpy and OpenBLAS versions and BLAS threads.  Exits non-zero without a
result when the checkout has no package source or a workload process
fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("exact_large", "branch_sweep", "oracle_xcheck")
SETUPS = 5
DEADLINE_S = 170.0


def _start(args, env, deadline, setup_only=False) -> dict:
    """Run one workload process and return its JSON report."""
    cmd = [sys.executable, str(HERE / "workloads.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--t0", repr(time.monotonic())]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                          text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"workload process exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="cghzsim benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "cghzsim" / "__init__.py").is_file():
        print(f"perfbench: no package source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    try:
        report = _start(args, env, deadline)
        values = report["metrics"]
        if not args.trace:
            setups = [report["setup_s"]] + [
                _start(args, env, deadline, setup_only=True)["setup_s"]
                for _ in range(SETUPS - 1)]
            values["setup_s"] = statistics.median(setups)
            report["setup_samples"] = setups
        with open(ROOT / "BENCHMARK.json") as fh:
            declared = json.load(fh)["per_layer" if args.trace
                                     else "end_to_end"]
        units = {m["name"]: m["unit"] for m in declared}
        if set(units) != set(values):
            raise ValueError(f"measured metrics {sorted(values)} differ "
                             f"from those in BENCHMARK.json")
    except (OSError, RuntimeError, subprocess.TimeoutExpired, ValueError,
            KeyError) as exc:
        print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
        return 1

    print(json.dumps(report))
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in sorted(values)},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
