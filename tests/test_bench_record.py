"""tools/bench_record.py's fit of peak_rss_mb on the calls each run made."""

import importlib.util
import json
import random
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_record", ROOT / "tools" / "bench_record.py")
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)


def _runs(slope_b, offset_mb, noise_mb, seed):
    # two sides of ten runs, peak_rss_mb = base + slope * calls (+ offset on
    # the first side), the sides' calls spread over overlapping ranges
    rng = random.Random(seed)
    out = {}
    for side, shift, lo in (("head", offset_mb, 80_000), ("base", 0.0, 65_000)):
        calls = [rng.randrange(lo, lo + 20_000) for _ in range(10)]
        out[side] = [(c, 30.0 + shift + slope_b * c / 2**20 + rng.gauss(0.0, noise_mb)) for c in calls]
    return out


@pytest.mark.parametrize("slope_b, offset_mb", [(121.0, 0.06), (0.0, -0.5), (500.0, 0.0)])
def test_fit_recovers_slope_and_offset(slope_b, offset_mb):
    fit = bench_record._rss_fit(_runs(slope_b, offset_mb, 0.0, 1))
    assert fit["bytes_per_call"] == pytest.approx(slope_b, abs=1e-6)
    assert fit["offset_mb"] == pytest.approx(offset_mb, abs=1e-9)
    if slope_b:
        assert fit["r"] == pytest.approx(1.0)
    # with noise the fit still lands near, and r falls below 1
    fit = bench_record._rss_fit(_runs(slope_b, offset_mb, 0.01, 2))
    assert fit["bytes_per_call"] == pytest.approx(slope_b, abs=5.0)
    assert fit["offset_mb"] == pytest.approx(offset_mb, abs=0.05)


def test_fit_of_bench_32_matches_the_hand_fit():
    # extrema_grid in BENCH_32.json: 121 B a call, r = 0.99, 0.06 MB between the sides
    w = json.loads((ROOT / "BENCH_32.json").read_text())["workloads"]["extrema_grid"]
    runs = {side: list(zip(w["calls"][side]["runs"], w["metrics"]["peak_rss_mb"][side]["runs"])) for side in ("head", "base")}
    fit = bench_record._rss_fit(runs)
    assert round(fit["bytes_per_call"]) == 121 and round(fit["r"], 2) == 0.99 and round(fit["offset_mb"], 2) == 0.06


def test_fit_without_call_counts_or_spread():
    assert bench_record._rss_fit({"head": [(None, 40.0)] * 3}) is None
    assert bench_record._rss_fit({"head": [(5, 40.0), (5, 41.0)]}) is None
    one = bench_record._rss_fit({"head": [(1, 40.0), (2**20, 41.0), (2 * 2**20, 42.0)]})
    assert one["bytes_per_call"] == pytest.approx(1.0) and one["offset_mb"] is None
