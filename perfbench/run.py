"""etlab benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; etlab is imported from its ``src``
directory.  Workloads: poly_corpus, sharpness_chain, extremal_height,
sediment_descent (see perfbench/README.md for why each was chosen).

The run starts fresh interpreters that only import etlab and make the inputs,
to time set-up, then one worker process that times the workload and checks
every output against an independent oracle.  The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.  The
line before it holds the details (digests, oracle errors, observations, the
machine).  BLAS and OpenMP threads are capped at 1.

Exit code 0 after a run; 2 on bad arguments or a checkout without etlab;
1 when a process fails or the run would exceed its time limit.
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
WORKLOADS = ("poly_corpus", "sharpness_chain", "extremal_height", "sediment_descent")
SETUP_PROBES = 4  # set-up samples besides the worker's own
TIME_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")

E2E_UNITS = {"setup_s": "s", "wall_adj_s": "s", "item_p50_adj_ms": "ms", "peak_rss_mb": "MiB"}


class RunFailed(Exception):
    pass


def _spawn(args: list[str], env: dict, deadline: float) -> tuple[float, dict]:
    """Run the worker with `args`; return its start time and its JSON line."""
    t0 = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                              env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise RunFailed(f"worker exceeded the {TIME_LIMIT_S:.0f} s limit") from exc
    if proc.returncode != 0:
        raise RunFailed(f"worker exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RunFailed(f"worker printed nothing:\n{proc.stderr[-4000:]}")
    return t0, json.loads(lines[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not 0 < args.seconds <= 60:
        ap.error("--seconds must lie in (0, 60]")
    if not (ROOT / "src" / "etlab" / "__init__.py").is_file():
        print(f"error: no etlab sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    # A fixed threshold turns off glibc's sliding one, under which freed
    # blocks of up to 32 MiB stay resident and the peak depends on the
    # history of earlier items rather than on the largest item's arrays.
    env["MALLOC_MMAP_THRESHOLD_"] = "131072"
    env.pop("PYTHONPATH", None)
    common = ["--root", str(ROOT), "--workload", args.workload, "--seed", str(args.seed)]
    try:
        setup = []
        for _ in range(SETUP_PROBES):
            t0, probe = _spawn(common + ["--seconds", "0", "--probe"], env, deadline)
            setup.append(probe["ready"] - t0)
        t0, res = _spawn(common + ["--seconds", str(args.seconds),
                                   "--trace", str(args.trace)], env, deadline)
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setup.append(res["ready"] - t0)
    res["setup_s_samples"] = setup

    if args.trace:
        from tracer import METRICS

        metrics = {name: {"value": res["per_layer"][name], "unit": unit}
                   for name, unit in METRICS}
    else:
        values = dict(res, setup_s=statistics.median(setup))
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in E2E_UNITS.items()}
    correct = res["failed"] == 0 and res["passes_agree"] and res.get("counts_repeat", True)
    print(json.dumps({"detail": res}, allow_nan=False))
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
