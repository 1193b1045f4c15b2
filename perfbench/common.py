"""Pieces shared by the workloads: operations, checks and statistics."""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
SRC_DIR = os.path.join(REPO_ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")


class CheckFailed(AssertionError):
    """The program's answer contradicts the property the workload checks."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Op:
    """One operation: ``run`` calls the program and returns its answer,
    ``check`` judges that answer without calling the program again."""

    label: str
    run: Callable[[], Any]
    check: Callable[[Any], None]


def use_repo_source() -> None:
    """Import ``lambdatrees`` from the checkout's ``src/``, nothing else."""
    if not os.path.isdir(os.path.join(SRC_DIR, "lambdatrees")):
        raise FileNotFoundError(f"no lambdatrees package under {SRC_DIR}")
    if SRC_DIR not in sys.path:
        sys.path.insert(0, SRC_DIR)


def percentile(values, q: float):
    """Nearest-rank percentile: the smallest value with at least q% at or below."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1]


def coords(element_json) -> tuple:
    """A group element's JSON coordinates as a tuple of Fractions."""
    return tuple(Fraction(c) for c in element_json)
