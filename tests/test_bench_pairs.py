"""demos/bench_pairs.py: its statistics and verdicts, on canned rows."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "demos" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench)

PARENT = [1.00, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08, 1.09]


def test_quartiles_give_median_and_iqr():
    assert bench.quartiles([5, 1, 4, 2, 3]) == (2.0, 3.0, 4.0)
    q1, med, q3 = bench.quartiles([1, 2, 3, 4])
    assert (q1, med, q3) == (1.75, 2.5, 3.25)


def test_wins_count_ties_for_neither_side():
    assert bench.wins([1, 2, 3, 4], [0.5, 2, 4, 4], "lower") == (1, 1)
    assert bench.wins([1, 2, 3, 4], [0.5, 2, 4, 4], "higher") == (1, 1)
    assert bench.wins([1, 2], [3, 3], "higher") == (2, 0)
    v = bench.metric_verdict(PARENT[:3], PARENT[:3], "lower", 0.25)
    assert v["wins"] == {"change": 0, "parent": 0, "ties": 3}
    assert v["verdict"] == "ok"


@pytest.mark.parametrize("wins, verdict", [(9, "gain"), (8, "ok")])
def test_a_claim_needs_nine_wins_in_ten(wins, verdict):
    change = [p - 0.2 if i < wins else p + 0.01 for i, p in enumerate(PARENT)]
    v = bench.metric_verdict(PARENT, change, "lower", 0.25)
    assert v["wins"]["change"] == wins
    assert v["parent"]["median"] - v["change"]["median"] > v["parent"]["iqr"]
    assert v["verdict"] == verdict


def test_a_claim_needs_a_median_gap_past_the_parent_iqr():
    change = [p - 0.01 for p in PARENT]   # ten wins, gap 0.01 < IQR 0.045
    v = bench.metric_verdict(PARENT, change, "lower", 0.25)
    assert v["wins"]["change"] == 10
    assert v["verdict"] == "ok"


@pytest.mark.parametrize("better, parent, change, verdict", [
    ("lower", 1.0, 1.26, "regressed"),
    ("lower", 1.0, 1.24, "ok"),
    ("higher", 10.0, 7.4, "regressed"),
    ("higher", 10.0, 7.6, "ok"),
])
def test_a_median_past_its_bound_regresses(better, parent, change, verdict):
    v = bench.metric_verdict([parent] * 10, [change] * 10, better, 0.25)
    assert v["verdict"] == verdict


def test_a_parent_spread_wider_than_the_bound_is_unresolved():
    wide = [1.0, 1.6] * 5          # IQR 0.6 > 0.25 of the median 1.3
    assert bench.metric_verdict(wide, wide, "lower", 0.25)["verdict"] == "unresolved"
    # far worse still reads unresolved: the parent's spread cannot tell
    worse = [3.0] * 10
    assert bench.metric_verdict(wide, worse, "lower", 0.25)["verdict"] == "unresolved"
    # unless every change run beats every parent run; then the claim rule
    # reads it as usual
    assert bench.metric_verdict(wide, [0.5] * 10, "lower", 0.25)["verdict"] == "gain"
    assert bench.metric_verdict(wide, [0.9] * 10, "lower", 0.25)["verdict"] == "ok"


def _rows(parent_failed=0, change_failed=0, change_exit=0):
    rows = []
    for pair in range(4):
        for side, failed, code in (("parent", parent_failed, 0),
                                   ("change", change_failed,
                                    change_exit if pair == 3 else 0)):
            rows.append({"side": side, "pair": pair, "exit": code,
                         "attempted": 100, "failed": failed,
                         "metrics": {"wall_s": 1.0, "peak_rss_mb": 40.0}})
    return rows


END_TO_END = [{"name": "wall_s", "better": "lower", "bound": 0.25},
              {"name": "peak_rss_mb", "better": "lower", "bound": 0.2}]


def test_a_higher_failed_op_share_fails_the_workload():
    same = bench.workload_summary(_rows(), END_TO_END)
    assert same["verdict"] == "ok"
    assert set(same["metrics"]) == {"wall_s", "peak_rss_mb"}
    assert bench.workload_summary(_rows(1, 1), END_TO_END)["verdict"] == "ok"
    more = bench.workload_summary(_rows(0, 1), END_TO_END)
    assert more["failed_share"] == {"parent": 0.0, "change": 0.01}
    assert more["verdict"] == "failed_ops"
    # a change run that exits non-zero counts as failed, and its pair is
    # left out of the metrics
    crashed = bench.workload_summary(_rows(change_exit=1), END_TO_END)
    assert crashed["verdict"] == "failed_ops"
    assert crashed["metrics"]["wall_s"]["wins"]["ties"] == 3
