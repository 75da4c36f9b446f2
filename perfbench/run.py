"""cvqec benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see workloads.py) in a fresh worker process with
BLAS and CVQEC_THREADS settings pinned, takes set-up samples from fresh
processes that only import cvqec, prints every metric by name with its
unit, and ends with one JSON line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Run it from anywhere; it reads ``src/`` and writes ``.perfbench_runs/``
at the root of the checkout that contains it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import BLAS_THREADS, WORKLOADS

_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# The reference kernel here runs with the same BLAS setting as the worker.
os.environ.update({var: str(BLAS_THREADS) for var in _BLAS_VARS})
import reference  # noqa: E402  (after the BLAS setting, which numpy reads once)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = ROOT / ".perfbench_runs"
WORKER = HERE / "worker.py"
SETUP_PROBES = 5
SETUP_TIMEOUT_S = 10
WORKER_TIMEOUT_S = 120   # with the set-up samples, well inside 180 s


def workload_env() -> dict[str, str]:
    """Pinned thread settings; nothing is inherited from the caller."""
    env = dict(os.environ)
    for var in _BLAS_VARS:
        env[var] = str(BLAS_THREADS)
    env.pop("CVQEC_THREADS", None)
    return env


def setup_sample(env) -> tuple[float, float]:
    """Import time of one fresh process, raw and scaled to nominal machine
    speed by the reference kernel run just before and after it."""
    before = reference.seconds()
    proc = subprocess.run([sys.executable, str(WORKER), "--setup-only"], env=env,
                          capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
                          check=True)
    after = reference.seconds()
    raw = float(proc.stdout.strip().splitlines()[-1])
    return raw, raw * reference.NOMINAL_S / ((before + after) / 2)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be nonnegative (numpy SeedSequence entropy)")

    if not (ROOT / "src" / "cvqec" / "__init__.py").is_file():
        print(f"run.py: no cvqec sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = workload_env()
    out = RUNS / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    try:
        setup = [] if args.trace else [setup_sample(env) for _ in range(SETUP_PROBES)]
        subprocess.run([sys.executable, str(WORKER), "--workload", args.workload,
                        "--seed", str(args.seed), "--seconds", str(args.seconds),
                        "--trace", str(args.trace), "--out", str(out)],
                       env=env, stdout=sys.stderr, timeout=WORKER_TIMEOUT_S, check=True)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"run.py: workload process failed: {exc}", file=sys.stderr)
        return 1
    result = json.loads((out / "result.json").read_text())

    metrics = result["metrics"]
    print("env " + json.dumps(result["env"], sort_keys=True))
    print(f"rounds {result['rounds']} raw walls_s {result['round_walls_s']}")
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(s for _, s in setup), "unit": "s"}
        print(f"scaled walls_s {result['round_scaled_s']}")
        print(f"raw setup_s {[r for r, _ in setup]}")
    for name, m in sorted(metrics.items()):
        print(f"{name} {m['value']!r} {m['unit']}")
    print(f"fail_ratio {result['failed'] / result['attempted']!r} ratio "
          f"({result['failed']} of {result['attempted']} commands)")
    for p in result["problems"]:
        print("FAILED " + " ".join(p["argv"]) + ": " + "; ".join(p["problems"]))
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
