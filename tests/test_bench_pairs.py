"""Tests for tools/bench_pairs.py: the paired summary and its argument checks."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

SPEC = {"end_to_end": [
    {"name": "items", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "latency", "unit": "s", "better": "lower", "bound": 0.1},
]}
BASE_ITEMS = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]  # median 100, IQR 1.5
BASE_LATENCY = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0]  # median 1.0


def summarize(head_items, head_latency):
    runs = {
        side: [{"metrics": {"items": i, "latency": t}} for i, t in zip(items, latency)]
        for side, items, latency in (("base", BASE_ITEMS, BASE_LATENCY),
                                     ("head", head_items, head_latency))
    }
    return bench_pairs.summarize(runs, SPEC)


def test_claim_met_when_nine_in_ten_win_beyond_the_base_iqr():
    m = summarize([v + 10 for v in BASE_ITEMS], [v - 0.1 for v in BASE_LATENCY])
    for name in ("items", "latency"):
        assert m[name]["head_wins"] == 10
        assert m[name]["claim_rule_met"] and m[name]["within_bound"]
    assert m["items"]["head_over_base"] == 1.1


def test_claim_not_met_with_eight_wins():
    items = [v + 10 for v in BASE_ITEMS]
    items[0] = items[1] = 90
    m = summarize(items, BASE_LATENCY)
    assert m["items"]["head_wins"] == 8 and not m["items"]["claim_rule_met"]


def test_claim_not_met_inside_the_base_iqr():
    # every pair won, but the medians differ by 1 against an IQR of 1.5
    m = summarize([v + 1 for v in BASE_ITEMS], BASE_LATENCY)
    assert m["items"]["head_wins"] == 10
    assert not m["items"]["claim_rule_met"] and not m["items"]["exceeds_base_iqr"]


@pytest.mark.parametrize("scale, within", [(0.76, True), (0.74, False)])
def test_within_bound_when_higher_is_better(scale, within):
    m = summarize([scale * v for v in BASE_ITEMS], BASE_LATENCY)
    assert m["items"]["within_bound"] is within
    assert not m["items"]["claim_rule_met"]


@pytest.mark.parametrize("scale, within", [(1.09, True), (1.11, False)])
def test_within_bound_when_lower_is_better(scale, within):
    m = summarize(BASE_ITEMS, [scale * v for v in BASE_LATENCY])
    assert m["latency"]["within_bound"] is within
    assert not m["latency"]["claim_rule_met"]


def test_one_pair_exits_2_before_any_export(monkeypatch, tmp_path, capsys):
    calls = []
    monkeypatch.setattr(bench_pairs, "git", lambda *a: calls.append(a) or "0" * 40)
    monkeypatch.setattr(bench_pairs, "export", lambda *a: calls.append(a))
    out = tmp_path / "x.json"
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["--base", "HEAD", "--head", "HEAD", "--out", str(out), "--pairs", "1"])
    assert exc.value.code == 2
    assert "--pairs must be >= 2" in capsys.readouterr().err
    assert calls == [] and not out.exists()
