"""The pair summary and the claim verdict of ``tools/bench_pairs.py``, on synthetic runs."""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

METRICS = [
    {"name": "wall", "unit": "s", "better": "lower", "bound": 0.15},
    {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.15},
]


@pytest.fixture()
def bench_pairs(monkeypatch):
    # the module puts perfbench on sys.path when imported; keep that to this test
    monkeypatch.setattr(sys, "path", list(sys.path))
    path = ROOT / "tools" / "bench_pairs.py"
    spec = importlib.util.spec_from_file_location("bench_pairs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _runs(parent: dict, change: dict) -> list:
    """Runs of len(parent[m]) pairs; pair i has the i-th value of each metric m per side."""
    runs = []
    for i in range(len(parent["wall"])):
        for side, values in (("parent", parent), ("change", change)):
            runs.append({"pair": i, "seed": 100 + i, "side": side, "correct": True,
                         "failed": 0, **{m: v[i] for m, v in values.items()}})
    return runs


PARENT = {"wall": [1.0, 1.02, 0.98, 1.01, 0.99, 1.0, 1.03, 0.97, 1.0, 1.01],
          "rate": [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.1]}


def test_wins_and_ties_follow_the_metric_direction(bench_pairs):
    # pair 0 ties; every other pair is 20% better: lower wall, higher rate
    change = {"wall": [1.0] + [0.8 * w for w in PARENT["wall"][1:]],
              "rate": [10.0] + [1.2 * r for r in PARENT["rate"][1:]]}
    entry = bench_pairs.summarise(_runs(PARENT, change), METRICS)
    assert entry["pairs"] == 10 and entry["seeds"] == list(range(100, 110))
    assert entry["all_correct"] and entry["failed_ops"] == {"parent": 0, "change": 0}
    for name in ("wall", "rate"):
        m = entry["metrics"][name]
        assert (m["change_wins"], m["ties"]) == (9, 1), name
        assert m["median_gap_exceeds_parent_iqr"] and m["within_bound"], name
        assert bench_pairs.verdict(entry, name).startswith("met:"), name
    assert entry["metrics"]["wall"]["change_vs_parent"] < 0
    assert entry["metrics"]["rate"]["change_vs_parent"] > 0

    # the same numbers with the sides swapped: no pair won, the gain is not met
    swapped = bench_pairs.summarise(_runs(change, PARENT), METRICS)
    for name in ("wall", "rate"):
        m = swapped["metrics"][name]
        assert (m["change_wins"], m["ties"]) == (0, 1), name
        assert bench_pairs.verdict(swapped, name).startswith("not met:"), name


@pytest.mark.parametrize("factor, within", [(1.1, True), (1.2, False)])
def test_within_bound_has_the_metric_sign(bench_pairs, factor, within):
    # 10% worse in either direction is within the 15% bound, 20% worse is
    # not; a gain of any size is within it
    wall = {"wall": [factor * w for w in PARENT["wall"]], "rate": PARENT["rate"]}
    rate = {"wall": PARENT["wall"], "rate": [(2.0 - factor) * r for r in PARENT["rate"]]}
    for change, name in ((wall, "wall"), (rate, "rate")):
        m = bench_pairs.summarise(_runs(PARENT, change), METRICS)["metrics"][name]
        assert m["within_bound"] is within, name
    better = {"wall": [0.5 * w for w in PARENT["wall"]],
              "rate": [2.0 * r for r in PARENT["rate"]]}
    metrics = bench_pairs.summarise(_runs(PARENT, better), METRICS)["metrics"]
    assert metrics["wall"]["within_bound"] and metrics["rate"]["within_bound"]


def test_verdict_needs_nine_of_ten_pairs_and_a_gap_beyond_the_parent_iqr(bench_pairs):
    # eight pairs 20% lower, two 20% higher: the median gap is wide, 8/10 falls short
    eight = {"wall": [0.8 * w for w in PARENT["wall"][:8]]
             + [1.2 * w for w in PARENT["wall"][8:]], "rate": PARENT["rate"]}
    entry = bench_pairs.summarise(_runs(PARENT, eight), METRICS)
    assert entry["metrics"]["wall"]["change_wins"] == 8
    assert entry["metrics"]["wall"]["median_gap_exceeds_parent_iqr"]
    assert bench_pairs.verdict(entry, "wall").startswith("not met:")

    # every pair 0.1% lower: 10/10 won, but the gap is inside the parent's IQR
    small = {"wall": [0.999 * w for w in PARENT["wall"]], "rate": PARENT["rate"]}
    entry = bench_pairs.summarise(_runs(PARENT, small), METRICS)
    m = entry["metrics"]["wall"]
    assert m["change_wins"] == 10 and not m["median_gap_exceeds_parent_iqr"]
    assert bench_pairs.verdict(entry, "wall").startswith("not met:")

    # nine pairs 20% lower and one tie: met
    nine = {"wall": [0.8 * w for w in PARENT["wall"][:9]] + PARENT["wall"][9:],
            "rate": PARENT["rate"]}
    entry = bench_pairs.summarise(_runs(PARENT, nine), METRICS)
    assert entry["metrics"]["wall"]["change_wins"] == 9
    assert bench_pairs.verdict(entry, "wall").startswith("met:")


def test_incomplete_pairs_are_left_out(bench_pairs):
    runs = _runs(PARENT, PARENT)[:-1]  # the last pair lacks its change run
    entry = bench_pairs.summarise(runs, METRICS)
    assert entry["pairs"] == 9 and entry["metrics"]["wall"]["ties"] == 9
    assert bench_pairs.summarise(runs[:1], METRICS)["metrics"] == {}
