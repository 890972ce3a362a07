"""The verdicts of ``scripts/bench_pairs.py`` on synthetic pairs of runs."""

import importlib.util
import mmap
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

METRICS = {"wall_adj_s": {"better": "lower", "bound": 0.25},
           "kept": {"better": "higher", "bound": 0.1}}


def _runs(name, parent, change):
    return {"parent": [{name: v, "failed": 0, "attempted": 10} for v in parent],
            "change": [{name: v, "failed": 1, "attempted": 10} for v in change]}


PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]


@pytest.mark.parametrize("change, verdict", [
    # 10 of 10 wins, median 0.2 below the parent's, spread 0.03
    ([v - 0.2 for v in PARENT], "better"),
    # 9 of 10 wins count too
    ([v - 0.2 for v in PARENT[:9]] + [1.5], "better"),
    # 10 of 10 wins by less than the parent's quartile spread
    ([v - 0.005 for v in PARENT], "no worse"),
    # 8 of 10 wins are not enough
    ([v - 0.2 for v in PARENT[:8]] + [1.1, 1.1], "no worse"),
    # the median 30% above the parent's, past the 25% bound
    ([1.3 * v for v in PARENT], "worse"),
    # 20% above: inside the bound
    ([1.2 * v for v in PARENT], "no worse"),
])
def test_lower_is_better(change, verdict):
    runs = _runs("wall_adj_s", PARENT, change)
    out = bench_pairs._summary(runs, {"wall_adj_s": METRICS["wall_adj_s"]})["wall_adj_s"]
    assert out["verdict"] == verdict
    assert out["parent_spread"] == pytest.approx(0.035)  # inclusive quartiles
    assert out["pairs"] == 10


def test_a_wide_parent_spread_is_unresolved_unless_every_run_wins():
    wide = [0.6, 1.4, 0.7, 1.3, 1.0, 0.8, 1.2, 1.0, 0.9, 1.1]
    runs = _runs("wall_adj_s", wide, [v * 0.95 for v in wide])
    out = bench_pairs._summary(runs, {"wall_adj_s": METRICS["wall_adj_s"]})["wall_adj_s"]
    assert out["verdict"] == "unresolved"
    # every change run below every parent run, by less than the spread
    two_level = [1.0, 1.5] * 5
    runs = _runs("wall_adj_s", two_level, [0.95] * 10)
    out = bench_pairs._summary(runs, {"wall_adj_s": METRICS["wall_adj_s"]})["wall_adj_s"]
    assert out["parent_spread"] == 0.5 and out["change_wins"] == 10
    assert out["verdict"] == "no worse"


def test_higher_is_better_and_failed_share():
    runs = _runs("kept", PARENT, [v + 0.2 for v in PARENT])
    assert bench_pairs._summary(runs, {"kept": METRICS["kept"]})["kept"]["verdict"] == "better"
    runs = _runs("kept", PARENT, [0.8 * v for v in PARENT])
    assert bench_pairs._summary(runs, {"kept": METRICS["kept"]})["kept"]["verdict"] == "worse"
    assert bench_pairs._failed_share(runs) == {"parent": 0.0, "change": 0.1}


DIGESTS = [f"{k:016x}" for k in range(10)]


@pytest.mark.parametrize("change, equal", [
    (list(DIGESTS), 10),
    (DIGESTS[:3] + ["f" * 16] + DIGESTS[4:], 9),
])
def test_same_outputs_counts_pairs_with_equal_digests(change, equal):
    runs = {"parent": [{"digest": d} for d in DIGESTS], "change": [{"digest": d} for d in change]}
    assert bench_pairs._same_outputs(runs) == {"equal": equal, "pairs": 10}


def test_run_records_the_minor_faults_and_system_time_of_its_processes(tmp_path):
    """A stand-in perfbench/run.py that writes every page of a fresh 16 MiB
    mapping, in pages of the base size: the run's minor faults count at
    least those pages."""
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(
        "import json, mmap\n"
        "buf = mmap.mmap(-1, 16 << 20)\n"
        "if hasattr(mmap, 'MADV_NOHUGEPAGE'):\n"
        "    buf.madvise(mmap.MADV_NOHUGEPAGE)\n"
        "for k in range(0, len(buf), mmap.PAGESIZE):\n"
        "    buf[k] = 1\n"
        "print(json.dumps({'detail': {'digest': '0' * 64}}))\n"
        "print(json.dumps({'correct': True, 'metrics': {}}))\n")
    detail, res, usage = bench_pairs._run(tmp_path, "sharpness_chain", 1, 1.0, 0)
    assert detail == {"digest": "0" * 64} and res["correct"]
    assert set(usage) == {"minor_faults", "sys_s"}
    assert usage["minor_faults"] >= (16 << 20) // mmap.PAGESIZE
    assert usage["sys_s"] >= 0.0
