"""The seeded open-loop job schedule of the ``serve-mix`` workload.

:func:`build_schedule` is a pure function of its arguments: the same
seed, rate, duration and ``cold_start`` always give the same due
offsets and payloads.  The mix comes in blocks of 20 submissions:

* 17 **warm** jobs, drawn with replacement from :data:`WARM_SET` (run
  and speedup jobs on ``paxville``, whose runs are primed before the
  timed window, so the daemon answers them without the engine);
* 2 **cold** jobs: first-time ``run`` jobs at class S or W on the other
  ``machines/`` specs, taken in a seeded order from :func:`cold_pool`
  so no cold key repeats within one daemon's lifetime;
* 1 **duplicate** of the block's first cold job, due at the same
  instant, so it is sent back to back with it (the dedup path).

Due offsets are evenly spaced at ``1 / rate``; the duplicate shares its
cold job's offset.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

NAS_WORKLOADS = ("bt", "cg", "ep", "ft", "is", "lu", "mg", "sp")
CLASSES = ("S", "W")
ALL_CONFIGS = (
    "serial", "ht_on_2_1", "ht_off_2_1", "ht_on_4_1",
    "ht_off_2_2", "ht_on_4_2", "ht_off_4_2", "ht_on_8_2",
)
COLD_CONFIGS = (
    "ht_on_2_1", "ht_off_2_1", "ht_on_4_1",
    "ht_off_2_2", "ht_on_4_2", "ht_off_4_2",
)
WARM_MACHINE = "paxville"
#: The ``machines/`` specs other than the warm one, fixed here so the
#: schedule does not change when a spec file is added.
COLD_MACHINES = (
    "biglittle-demo", "broadwell-shared-l3", "cascadelake-2s-numa",
    "nextgen-shared-l2", "nextgen-shared-l2-4mb", "paxville-fast-bus",
    "paxville-no-prefetch",
)

BLOCK = 20
WARM_PER_BLOCK = 17
COLD_PER_BLOCK = 2


def _job(kind: str, machine: str, workload: str, config: str,
         problem_class: str) -> Dict[str, str]:
    return {
        "kind": kind, "machine": machine, "workload": workload,
        "config": config, "problem_class": problem_class,
    }


#: Priming these run jobs puts every run the warm set needs into the
#: daemon's run cache.
PRIME_SET: Tuple[Dict[str, str], ...] = tuple(
    _job("run", WARM_MACHINE, w, c, k)
    for k, w, c in itertools.product(CLASSES, NAS_WORKLOADS, ALL_CONFIGS)
)

#: Warm run jobs plus the speedup jobs answerable from the same runs.
WARM_SET: Tuple[Dict[str, str], ...] = PRIME_SET + tuple(
    _job("speedup", WARM_MACHINE, w, c, k)
    for k, w, c in itertools.product(CLASSES, NAS_WORKLOADS, ALL_CONFIGS[1:])
)


def cold_pool(seed: int) -> List[Dict[str, str]]:
    """Every cold run job, in the seed's order."""
    pool = [
        _job("run", m, w, c, k)
        for m, k, w, c in itertools.product(
            COLD_MACHINES, CLASSES, NAS_WORKLOADS, COLD_CONFIGS
        )
    ]
    random.Random(f"cold:{seed}").shuffle(pool)
    return pool


@dataclass(frozen=True)
class Submission:
    """One scheduled job: when it is due, which share it belongs to."""

    offset_s: float
    share: str  # "warm", "cold" or "dup" ("prime" when priming)
    payload: Dict[str, str]


def build_schedule(
    seed: int, rate: float, duration_s: float, cold_start: int = 0
) -> List[Submission]:
    """The schedule for ``duration_s`` seconds at ``rate`` jobs/s.

    The submission count is ``rate * duration_s`` rounded up to whole
    blocks.  Cold jobs are taken from ``cold_pool(seed)`` starting at
    index ``cold_start``; a caller that builds several schedules for one
    daemon advances it by :func:`cold_count` of the previous ones.

    Raises ``ValueError`` when the pool has too few cold jobs left.
    """
    if rate <= 0 or duration_s <= 0:
        raise ValueError("rate and duration must be positive")
    blocks = math.ceil(rate * duration_s / BLOCK)
    pool = cold_pool(seed)
    if cold_start + blocks * COLD_PER_BLOCK > len(pool):
        raise ValueError(
            f"schedule needs {blocks * COLD_PER_BLOCK} cold jobs from "
            f"index {cold_start}; the pool holds {len(pool)}"
        )
    rng = random.Random(f"mix:{seed}:{rate!r}:{duration_s!r}:{cold_start}")
    cold = iter(pool[cold_start:])
    out: List[Submission] = []
    slot = 0
    for _ in range(blocks):
        order = ["warm"] * WARM_PER_BLOCK + ["cold"] * COLD_PER_BLOCK
        rng.shuffle(order)
        dup_pending = True
        for share in order:
            offset = slot / rate
            if share == "warm":
                out.append(Submission(offset, "warm", rng.choice(WARM_SET)))
            else:
                payload = next(cold)
                out.append(Submission(offset, "cold", payload))
                if dup_pending:
                    slot += 1
                    out.append(Submission(offset, "dup", payload))
                    dup_pending = False
            slot += 1
    return out


def cold_count(schedule: List[Submission]) -> int:
    """Cold-pool entries a schedule consumed."""
    return sum(1 for s in schedule if s.share == "cold")
