"""Properties of the seeded serve-mix schedule.

Run with ``PYTHONPATH=src python -m pytest perfbench/tests``.
"""

import json
import sys
from collections import Counter
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from schedule import (  # noqa: E402
    WARM_SET,
    build_schedule,
    cold_count,
    cold_pool,
)

from repro.serve.schema import parse_job  # noqa: E402


def _key(payload):
    return json.dumps(payload, sort_keys=True)


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_same_seed_gives_identical_schedule(seed):
    assert build_schedule(seed, 150.0, 8.0) == build_schedule(seed, 150.0, 8.0)


def test_different_seeds_differ():
    assert build_schedule(0, 150.0, 8.0) != build_schedule(1, 150.0, 8.0)


@pytest.mark.parametrize("rate,duration", [(150.0, 7.0), (40.0, 2.0), (613.0, 2.0)])
def test_mix_shares_within_one_point(rate, duration):
    schedule = build_schedule(3, rate, duration)
    assert len(schedule) >= rate * duration
    shares = Counter(s.share for s in schedule)
    n = len(schedule)
    assert abs(shares["warm"] / n - 0.85) <= 0.01
    assert abs(shares["cold"] / n - 0.10) <= 0.01
    assert abs(shares["dup"] / n - 0.05) <= 0.01


def test_offsets_follow_rate_and_duplicates_follow_their_cold_job():
    schedule = build_schedule(5, 150.0, 8.0)
    offsets = [s.offset_s for s in schedule]
    assert offsets == sorted(offsets)
    assert offsets[-1] < len(schedule) / 150.0
    for prev, cur in zip(schedule, schedule[1:]):
        if cur.share == "dup":
            assert prev.share == "cold"
            assert cur.payload == prev.payload
            assert cur.offset_s == prev.offset_s


def test_every_payload_parses():
    payloads = {_key(p): p for p in WARM_SET}
    payloads.update({_key(p): p for p in cold_pool(0)})
    for payload in payloads.values():
        parse_job(payload)


def test_cold_keys_unique_and_disjoint_from_warm_set():
    warm = {_key(p) for p in WARM_SET}
    pool = [_key(p) for p in cold_pool(11)]
    assert len(set(pool)) == len(pool)
    assert not warm & set(pool)

    first = build_schedule(11, 150.0, 8.0)
    second = build_schedule(11, 300.0, 2.0, cold_start=cold_count(first))
    cold = [_key(s.payload) for s in first + second if s.share == "cold"]
    assert len(set(cold)) == len(cold)
    assert not warm & set(cold)


def test_exhausted_cold_pool_is_refused():
    with pytest.raises(ValueError):
        build_schedule(0, 1000.0, 60.0)
