"""One benchmark process: import etlab, make the inputs, time passes over the
workload's items, then check every output.  Started by run.py, which passes
the checkout root; prints one JSON line.

A pass runs every item of the workload once.  Passes repeat until the next
one would end after --seconds (at least two run).  With --trace 1 the passes
alternate untraced and traced, so one run gives both the tracing overhead
and a digest comparison of traced against untraced outputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path


def _load_etlab(root: Path):
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import etlab

    if Path(etlab.__file__).resolve().parent != src / "etlab":
        raise SystemExit(f"imported etlab from {etlab.__file__}, not from {src}")
    return etlab


def _digest(values: list) -> str:
    import numpy as np

    h = hashlib.sha256()
    for v in values:
        if isinstance(v, np.ndarray):
            h.update(np.ascontiguousarray(v, dtype=float).tobytes())
        else:
            h.update(float(v).hex().encode())
        h.update(b";")
    return h.hexdigest()


class SpeedReference:
    """A fixed CPU-bound kernel, independent of etlab, timed between items.

    The machine's speed drifts by tens of percent over minutes, so raw times
    of runs made at different moments disagree.  The kernel is sampled for a
    fixed share of the run in the same process.  ``adjust`` is the factor
    that takes a time measured in this run to the kernel's nominal speed,
    with half weight in log terms: over ten seeds per workload, items slowed
    about half as much as this interpreter-heavy kernel, so full division
    overcorrected the array-heavy workloads (IQR/median 21-24% against 17-21%
    raw) while leaving poly_corpus at 6% (28% raw); half weight gave 6-14%.
    """

    SHARE = 0.1  # reference time per second of item time
    NOMINAL_S = 1.25e-3  # the kernel's median time on an idle machine here

    def __init__(self) -> None:
        import numpy as np

        self._x = np.linspace(0.001, 0.499, 1 << 15)
        self.samples: list[float] = []
        self._debt = 0.0

    def _once(self) -> float:
        """Interpreter loop, numpy calls on tiny arrays, and one vector pass:
        the three kinds of work etlab's items are made of."""
        import numpy as np

        t0 = time.perf_counter()
        acc = 0.0
        for i in range(5000):
            acc += i * 0.5
        for _ in range(100):
            np.log(np.abs(np.cos(self._x[:32])))
        np.log(np.abs(2.0 * np.sin(np.pi * self._x))).sum()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        return dt

    def after_item(self, item_s: float) -> None:
        self._debt += self.SHARE * item_s
        while self._debt > 0.0:
            self._debt -= self._once()

    def adjust(self) -> float:
        return math.sqrt(self.NOMINAL_S / statistics.median(self.samples))


def _run_pass(et, wl, inputs, tracer=None, ref=None) -> tuple[float, list, list, list]:
    times, digests, outputs = [], [], []
    for k, inp in enumerate(inputs):
        if tracer is not None:
            tracer.item = k
        t0 = time.perf_counter()
        try:
            out = wl.run(et, inp)
        except Exception:
            out, tag = None, "error: " + traceback.format_exc(limit=3)
        times.append(time.perf_counter() - t0)
        if ref is not None:
            ref.after_item(times[-1])
        if out is not None:
            try:
                tag = _digest(wl.flatten(out))
            except Exception:
                out, tag = None, "error: " + traceback.format_exc(limit=3)
        outputs.append(out)
        digests.append(tag)
    return sum(times), times, digests, outputs


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true",
                    help="stop once the inputs are ready and print the time")
    args = ap.parse_args()
    root = Path(args.root)

    et = _load_etlab(root)
    import numpy as np
    import scipy

    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    inputs = wl.generate(args.seed)
    t_ready = time.perf_counter()
    if args.probe:
        print(json.dumps({"ready": t_ready}))
        return 0

    modes = []  # per pass: "untraced" or "traced"
    walls, item_times, pass_digests, tracers = [], [], [], []
    first_outputs = None
    ref = SpeedReference()
    t_start = time.perf_counter()
    while True:
        traced = args.trace == 1 and len(modes) % 2 == 1
        tracer = None
        if traced:
            from tracer import Tracer

            tracer = Tracer(et)
            tracer.install()
        try:
            wall, times, digests, outputs = _run_pass(et, wl, inputs, tracer,
                                                      None if traced else ref)
        finally:
            if tracer is not None:
                tracer.uninstall()
        modes.append("traced" if traced else "untraced")
        walls.append(wall)
        item_times.append(times)
        pass_digests.append(digests)
        if tracer is not None:
            tracers.append(tracer)
        if first_outputs is None:
            first_outputs = outputs
        elapsed = time.perf_counter() - t_start
        if len(modes) >= 2 and elapsed + wall > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Checks, outside the timed region and with the tracer removed.
    reference = pass_digests[0]
    failed_items, worst, notes, failures = set(), {}, {}, {}
    for k, (inp, out) in enumerate(zip(inputs, first_outputs)):
        if out is None:
            failed_items.add(k)
            failures[k] = [reference[k]]
            continue
        try:
            chk = wl.check(et, inp, out)
        except Exception:
            failed_items.add(k)
            failures[k] = ["check raised: " + traceback.format_exc(limit=3)]
            continue
        for name, err in chk.errors.items():
            worst[name] = max(worst.get(name, 0.0), err) if math.isfinite(err) else repr(err)
        if chk.notes:
            notes.update(chk.notes)
        if not chk.ok:
            failed_items.add(k)
            failures[k] = list(chk.failures)
    attempted = failed = 0
    for p, digests in enumerate(pass_digests):
        for k, d in enumerate(digests):
            attempted += 1
            if k in failed_items or d != reference[k]:
                failed += 1
                if d != reference[k]:
                    failures.setdefault(k, []).append(f"pass {p} ({modes[p]}) output differs")

    untraced = [w for w, m in zip(walls, modes) if m == "untraced"]
    per_item = list(zip(*(ts for ts, m in zip(item_times, modes) if m == "untraced")))
    untraced_items = [t for ts in per_item for t in ts]
    adjust = ref.adjust()
    wall_s = math.fsum(statistics.median(ts) for ts in per_item)
    item_p50_s = statistics.median(untraced_items)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "ready": t_ready,
        "items_per_pass": len(inputs),
        "modes": modes,
        "pass_wall_s": walls,
        "item_s": item_times,
        # time to finish the list: each item's median over the passes, summed
        "wall_s": wall_s,
        "item_p50_ms": 1e3 * item_p50_s,
        "ref_ms": 1e3 * statistics.median(ref.samples),
        "ref_samples": len(ref.samples),
        "speed_adjust": adjust,
        "wall_adj_s": wall_s * adjust,
        "item_p50_adj_ms": 1e3 * item_p50_s * adjust,
        "untraced_items": len(untraced_items),
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted,
        "digest": hashlib.sha256("".join(reference).encode()).hexdigest(),
        "passes_agree": all(d == reference for d in pass_digests),
        "worst_oracle_error": worst,
        "observations": notes,
        "failures": {str(k): v for k, v in sorted(failures.items())},
        "machine": {
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "env": {k: v for k, v in sorted(os.environ.items())
                    if k.endswith("_NUM_THREADS") or k.startswith("MALLOC_")},
        },
    }
    if len(untraced_items) >= 100:
        # at least ten samples lie beyond the 90th percentile
        result["item_p90_ms"] = 1e3 * statistics.quantiles(untraced_items, n=10)[-1]
    if tracers:
        from tracer import summarize, write_spans

        traced = [w for w, m in zip(walls, modes) if m == "traced"]
        layer, repeat = summarize(tracers, traced, untraced)
        result["per_layer"] = layer
        result["counts_repeat"] = repeat
        out_dir = root / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"{args.workload}.spans.csv.gz"
        write_spans(spans_path, tracers)
        result["spans_file"] = str(spans_path.relative_to(root))
        result["spans"] = sum(len(t.spans) for t in tracers)
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
