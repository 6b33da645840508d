"""Shared NPB definitions: problem classes and sizing helpers."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Union


class ProblemClass(enum.Enum):
    """NAS problem classes, smallest to largest."""

    S = "S"
    W = "W"
    A = "A"
    B = "B"
    C = "C"

    @classmethod
    def from_str(cls, letter: Union[str, "ProblemClass"]) -> "ProblemClass":
        """The class for a letter (any case); a class passes through."""
        if isinstance(letter, cls):
            return letter
        try:
            return cls[letter.upper()]
        except KeyError:
            raise ValueError(
                f"unknown problem class {letter!r}; expected one of S W A B C"
            ) from None


#: Average uops per floating-point operation in NetBurst traces of the
#: NAS codes (address arithmetic, loads/stores and loop control included).
FLOP_TO_UOPS = 2.2

#: Average x86 instruction bytes per uop (for code footprints).
BYTES_PER_UOP = 2.3


@dataclass(frozen=True)
class BenchmarkInfo:
    """Static description of one benchmark."""

    name: str
    kind: str  # "kernel" or "application"
    description: str
    memory_bound_score: float  # 0 (compute bound) .. 1 (memory bound)


def doubles(n: float) -> float:
    """Bytes of ``n`` double-precision values."""
    return 8.0 * n


def check_class(problem_class: ProblemClass, dims: Dict[ProblemClass, tuple]):
    """Fetch a class entry with a uniform error message."""
    try:
        return dims[problem_class]
    except KeyError:
        raise ValueError(
            f"problem class {problem_class.value} not defined for this "
            f"benchmark"
        ) from None
