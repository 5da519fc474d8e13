"""Fairness metrics."""
from __future__ import annotations

from operator import mul
from typing import Iterable


def jain_index(values: Iterable[float]) -> float:
    """Jain's fairness index: (sum x)^2 / (n * sum x^2), in (1/n, 1].

    Equal positive values score 1; a single non-zero entry among n scores
    1/n. Raises on empty, negative or all-zero input.
    """
    xs = list(values)
    if not xs:
        raise ValueError("jain_index requires at least one value")
    if min(xs) < 0:
        raise ValueError("jain_index requires non-negative values")
    total_sq = sum(map(mul, xs, xs))
    if total_sq == 0:
        raise ValueError("jain_index requires at least one non-zero value")
    total = sum(xs)
    return (total * total) / (len(xs) * total_sq)
