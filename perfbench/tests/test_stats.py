"""Metric naming, percentiles and the spread rule."""

import json
import pathlib

import pytest

from stats import (
    highest_trustworthy_percentile,
    nearest_rank,
    quartile_spread,
    tail_is_trustworthy,
    valid_name,
    valid_unit,
)

ROOT = pathlib.Path(__file__).resolve().parents[2]


@pytest.mark.parametrize(
    "name", ["setup_s", "op_p90_ms", "crypto.sha3_bytes", "9lives", "a-b.c_d", "x" * 64]
)
def test_valid_names(name):
    assert valid_name(name)


@pytest.mark.parametrize(
    "name", ["", "_hidden", ".dot", "-dash", "has space", "slash/name", "x" * 65, "é", None]
)
def test_invalid_names(name):
    assert not valid_name(name)


@pytest.mark.parametrize("unit", ["s", "ms", "1/s", "count", "instr/s", "%", "MB"])
def test_valid_units(unit):
    assert valid_unit(unit)


@pytest.mark.parametrize("unit", ["", "a" * 17, "m s", "µs"])
def test_invalid_units(unit):
    assert not valid_unit(unit)


def test_benchmark_and_catalogue_agree():
    """BENCHMARK.json names follow the grammar; the catalogue covers them."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    catalogue = json.loads((ROOT / "perfbench" / "metrics.json").read_text())
    listed = bench["end_to_end"] + bench["per_layer"]
    workloads = [w["name"] for w in bench["workloads"]]
    names = [m["name"] for m in listed] + workloads
    assert len(names) == len(set(names))
    assert all(valid_name(n) for n in names)
    assert all(valid_unit(m["unit"]) for m in listed)
    assert set(catalogue["metrics"]) == {m["name"] for m in listed}
    for entry in catalogue["metrics"].values():
        for target in entry["moves"]:
            assert target["metric"] in {m["name"] for m in bench["end_to_end"]}
            assert target["workload"] in workloads
    assert set(catalogue["workloads"]) == set(workloads)
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


def test_nearest_rank_values():
    samples = [float(v) for v in range(1, 101)]
    assert nearest_rank(samples, 0.5) == (50.0, 50)
    assert nearest_rank(samples, 0.9) == (90.0, 10)
    assert nearest_rank(samples, 0.99) == (99.0, 1)
    assert nearest_rank(samples, 1.0) == (100.0, 0)
    assert nearest_rank([7.0], 0.9) == (7.0, 0)
    assert nearest_rank([3.0, 1.0, 2.0], 0.5) == (2.0, 1)


def test_nearest_rank_rejects_bad_input():
    with pytest.raises(ValueError):
        nearest_rank([], 0.5)
    with pytest.raises(ValueError):
        nearest_rank([1.0], 0.0)
    with pytest.raises(ValueError):
        nearest_rank([1.0], 1.5)


def test_ten_samples_beyond_rule():
    # p90 of 100 samples has exactly ten above it; of 99, nine.
    assert tail_is_trustworthy(nearest_rank(list(range(100)), 0.9)[1])
    assert not tail_is_trustworthy(nearest_rank(list(range(99)), 0.9)[1])
    assert highest_trustworthy_percentile(100) == 0.90
    assert highest_trustworthy_percentile(1000) == 0.99
    assert highest_trustworthy_percentile(40) == 0.75
    assert highest_trustworthy_percentile(19) is None


def test_quartile_spread():
    assert quartile_spread([10.0] * 10) == 0.0
    values = [float(v) for v in range(1, 11)]
    # statistics.quantiles (exclusive): q1 = 2.75, q3 = 8.25; median 5.5.
    assert quartile_spread(values) == pytest.approx(5.5 / 5.5)
