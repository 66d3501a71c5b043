"""The paired-run script's no-regression verdicts on synthetic runs."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).parent.parent / "scripts" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def runs(values):
    return [{"metrics": {"m": {"value": v}}} for v in values]


@pytest.mark.parametrize("better,parent,change,want", [
    # the change median is 20 % worse, past the 10 % bound
    ("lower", [1.0, 1.01, 0.99, 1.0], [1.2, 1.21, 1.19, 1.2], "worse"),
    ("higher", [1.0, 1.01, 0.99, 1.0], [0.8, 0.81, 0.79, 0.8], "worse"),
    # the parent's own spread is wider than the bound and the runs overlap
    ("lower", [0.5, 1.0, 1.5, 1.0, 0.8, 1.2], [0.5, 1.0, 1.5, 1.0, 0.8, 1.1],
     "unresolved"),
    # a wide spread, but every change run beats every parent run
    ("lower", [2.0, 3.0, 4.0, 5.0], [1.0, 1.1, 1.2, 1.3], "better"),
    # every pair won, by more than the parent's quartile spread
    ("lower", [1.0, 1.01, 0.99, 1.0, 1.02], [0.8, 0.81, 0.79, 0.8, 0.82], "better"),
    ("higher", [1.0, 1.01, 0.99, 1.0, 1.02], [1.2, 1.21, 1.19, 1.2, 1.22], "better"),
    # 2 % worse, inside the bound
    ("lower", [1.0, 1.01, 0.99, 1.0], [1.02, 1.0, 1.01, 1.03], "within_bound"),
    # 20 % better in the median, but 8 of 10 pairs won
    ("lower", [1.0] * 8 + [0.5, 0.5], [0.8] * 8 + [0.6, 0.6], "within_bound"),
])
def test_compare_gives_each_verdict(bench_pairs, better, parent, change, want):
    got = bench_pairs.compare({"parent": runs(parent), "change": runs(change)},
                              {"m": {"better": better, "bound": 0.1}})["m"]
    assert got["verdict"] == want
    assert got["bound"] == 0.1 and got["pairs"] == len(parent)
