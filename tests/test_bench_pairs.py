"""The summary of paired benchmark runs in ``tools/bench_pairs.py``."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"


def _summarize():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.summarize


def test_summary_of_fixed_pairs():
    summarize = _summarize()
    parent = [1.0, 1.1, 0.9, 1.05, 0.95, 1.0, 1.02, 0.98, 1.01, 0.99]
    change = [0.8, 0.85, 0.82, 0.8, 0.81, 0.9, 0.83, 0.8, 0.84, 0.8]
    s = summarize(parent, change)
    assert s["pairs"] == 10 and s["wins"] == 10
    assert s["parent"]["median"] == pytest.approx(1.0)
    assert s["change"]["median"] == pytest.approx(0.815)
    assert s["parent"]["quartiles"] == pytest.approx((0.9725, 1.0275))
    assert s["gain"] == pytest.approx(0.185)
    assert s["parent_iqr"] == pytest.approx(0.055) and s["claim"]

    # nine wins of ten still claim; eight do not
    assert summarize(parent, change[:9] + [1.0])["claim"]
    assert not summarize(parent, change[:8] + [1.05, 1.2])["claim"]
    # every pair won, but by less than the parent's spread
    close = [p - 0.01 for p in parent]
    s = summarize(parent, close)
    assert s["wins"] == 10 and s["gain"] == pytest.approx(0.01) and not s["claim"]
    # "higher is better" flips the sign: the same change is then a loss
    s = summarize(parent, change, better="higher")
    assert s["wins"] == 0 and s["gain"] < 0 and not s["claim"]
    # a change that fails a larger share of operations claims nothing
    assert summarize(parent, change, failed=(0.0, 0.0))["claim"]
    assert summarize(parent, change, failed=(0.1, 0.1))["claim"]
    assert not summarize(parent, change, failed=(0.0, 0.01))["claim"]
    # a tie is no win, and one pair has no spread
    s = summarize([2.0], [2.0])
    assert (s["wins"], s["parent"]["quartiles"], s["parent_iqr"], s["claim"]) == (
        0, (2.0, 2.0), 0.0, False)
    with pytest.raises(ValueError):
        summarize([1.0, 2.0], [1.0])
