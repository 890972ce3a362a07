#!/usr/bin/env python3
"""Run perfbench/run.py on a parent checkout and on this one in alternating
pairs, and write every run and its summary to one JSON file.

Usage: python scripts/bench_pairs.py --parent DIR --out BENCH_N.json
       [--workloads sharpness_chain poly_corpus ...] [--seeds 601 701 ...]
       [--pairs 10] [--trace-seed 401] [--what TEXT]

DIR is a checkout of the parent commit, for example one unpacked with
``git archive <rev> | tar -x -C DIR``.  Each workload takes its first seed
from --seeds (one per workload); pair i runs seed + i - 1 on both sides, and
odd pairs run the parent first; every run lasts the ``run_seconds`` of
BENCHMARK.json.  The summary gives, per end-to-end metric,
each side's median, quartiles and extremes, the number of pairs the change
won (ties count for neither side), the ratio of the medians, change over
parent, the parent's quartile spread and a verdict (see ``_verdict``); each
workload also records each side's failed share of its items, and in
``same_outputs`` how many pairs gave the same output digest on both sides.
Beside its metrics, every run records the minor page faults and the system
CPU seconds of its processes (``minor_faults``, ``sys_s``), which decide no
verdict.  With
--trace-seed, each workload also runs once per side with --trace 1, and
every per-layer metric of both sides is kept.
The file is rewritten after every pair, so an interrupted run keeps what it
measured.  Exit code 0 when every run finished, 1 when one failed.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("poly_corpus", "sharpness_chain", "extremal_height", "sediment_descent")
RUN_TIMEOUT_S = 600.0


class RunFailed(Exception):
    pass


def _run(side: Path, workload: str, seed: int, seconds: float,
         trace: int) -> tuple[dict, dict, dict]:
    """The (detail, result) lines of one run of perfbench/run.py in ``side``,
    and the minor faults and system seconds of the run's processes: the
    growth of this process's waited-for children's usage over the run."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=side, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RunFailed(f"{side}: {workload} seed {seed} exited {proc.returncode}:\n"
                        f"{proc.stderr[-2000:]}")
    usage = {"minor_faults": after.ru_minflt - before.ru_minflt,
             "sys_s": after.ru_stime - before.ru_stime}
    return json.loads(lines[-2])["detail"], json.loads(lines[-1]), usage


def _stats(values: list[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "min": min(values), "max": max(values)}


def _verdict(par: dict, chg: dict, wins: int, pairs: int, lower: bool, bound: float) -> str:
    """``better``: the change won at least 9 in 10 pairs and its median beats
    the parent's by more than the parent's quartile spread.  ``worse``: its
    median is worse than the parent's by more than ``bound`` (a fraction of
    the parent's median).  ``unresolved``: the parent's spread exceeds
    ``bound`` times its median and not every change run beats every parent
    run.  ``no worse`` otherwise."""
    sign = 1.0 if lower else -1.0
    spread = par["q3"] - par["q1"]
    if 10 * wins >= 9 * pairs and sign * (par["median"] - chg["median"]) > spread:
        return "better"
    if sign * (chg["median"] - par["median"]) > bound * par["median"]:
        return "worse"
    beats_all = chg["max"] < par["min"] if lower else chg["min"] > par["max"]
    if spread > bound * par["median"] and not beats_all:
        return "unresolved"
    return "no worse"


def _summary(runs: dict, metrics: dict) -> dict:
    """Per end-to-end metric of ``metrics`` (name -> its BENCHMARK.json entry)."""
    out = {}
    for name, metric in metrics.items():
        lower = metric["better"] == "lower"
        par = [r[name] for r in runs["parent"]]
        chg = [r[name] for r in runs["change"]]
        wins = sum((c < p) if lower else (c > p) for p, c in zip(par, chg))
        ps, cs = _stats(par), _stats(chg)
        out[name] = {"parent": ps, "change": cs, "change_wins": wins, "pairs": len(chg),
                     "median_ratio": cs["median"] / ps["median"],
                     "parent_spread": ps["q3"] - ps["q1"],
                     "verdict": _verdict(ps, cs, wins, len(chg), lower, metric["bound"])}
    return out


def _failed_share(runs: dict) -> dict:
    """failed / attempted items over all runs of each side."""
    return {side: sum(r["failed"] for r in rs) / max(1, sum(r["attempted"] for r in rs))
            for side, rs in runs.items()}


def _same_outputs(runs: dict) -> dict:
    """Pairs whose parent and change runs printed the same output digest."""
    equal = sum(p["digest"] == c["digest"] for p, c in zip(runs["parent"], runs["change"]))
    return {"equal": equal, "pairs": len(runs["change"])}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    ap.add_argument("--seeds", nargs="+", type=int, default=None,
                    help="first seed of each workload (default 100 k + 1 for the k-th)")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--trace-seed", type=int, default=None)
    ap.add_argument("--what", default="")
    args = ap.parse_args()
    seeds = args.seeds or [100 * (k + 1) + 1 for k in range(len(args.workloads))]
    if len(seeds) != len(args.workloads):
        ap.error("--seeds needs one first seed per workload")
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    if not (args.parent / "perfbench" / "run.py").is_file():
        ap.error(f"{args.parent} holds no perfbench/run.py")
    sides = {"parent": args.parent.resolve(), "change": ROOT}
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    cmd = f"python3 perfbench/run.py --workload W --seed {{}} --seconds {seconds:g}"
    cmd += " --trace {}"
    doc = {"what": args.what,
           "command_traced": cmd.format(args.trace_seed, 1),
           "command_untraced": cmd.format("S", 0) + ", alternating pairs (odd pairs parent first)",
           "per_layer": {}, "end_to_end": {}}

    def save() -> None:
        args.out.write_text(json.dumps(doc, indent=1, allow_nan=False) + "\n")

    try:
        for workload, first in zip(args.workloads, seeds):
            runs = {"parent": [], "change": []}
            for i in range(args.pairs):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in order:
                    detail, res, usage = _run(sides[side], workload, first + i, seconds, 0)
                    runs[side].append({
                        "seed": first + i, "correct": res["correct"], "failed": res["failed"],
                        "attempted": res["attempted"], "digest": detail["digest"][:16],
                        **{name: res["metrics"][name]["value"] for name in metrics}, **usage})
                doc["end_to_end"][workload] = {"summary": _summary(runs, metrics),
                                               "failed_share": _failed_share(runs),
                                               "same_outputs": _same_outputs(runs), "runs": runs}
                save()
                print(f"{workload} pair {i + 1}: " + ", ".join(
                    f"{s} {runs[s][-1]['wall_adj_s']:.3f} s" for s in order), flush=True)
            if args.trace_seed is not None:
                traced = {}
                for side in ("parent", "change"):
                    detail, res, _ = _run(sides[side], workload, args.trace_seed, seconds, 1)
                    traced[side] = {**{k: res[k] for k in ("correct", "attempted", "failed")},
                                    "metrics": {k: v["value"] for k, v in res["metrics"].items()}}
                traced["machine"] = detail["machine"]
                doc["per_layer"][workload] = traced
                save()
    except (RunFailed, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
