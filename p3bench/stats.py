"""Percentiles that refuse to be read from too few samples, and the
best-window rule that keeps other tenants' load out of a run's figures."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

#: A percentile is reported only when this many samples lie beyond it.
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """The sample cannot support the requested percentile."""


def samples_needed(p: float) -> int:
    """Smallest sample count whose nearest-rank ``p`` percentile has
    :data:`MIN_BEYOND` samples above it."""
    n = MIN_BEYOND
    while n - math.ceil(p / 100.0 * n) < MIN_BEYOND:
        n += 1
    return n


def percentile(samples: Sequence[float], p: float) -> float:
    """Nearest-rank percentile ``p`` (0 < p < 100) of ``samples``.

    Raises :class:`TooFewSamples` unless at least :data:`MIN_BEYOND`
    samples lie strictly above the chosen rank, so a tail figure is
    never one or two unlucky requests.
    """
    if not 0 < p < 100:
        raise ValueError(f"percentile must be in (0, 100), got {p}")
    n = len(samples)
    rank = math.ceil(p / 100.0 * n)
    if n - rank < MIN_BEYOND:
        raise TooFewSamples(
            f"p{p:g} of {n} samples has {max(n - rank, 0)} beyond it; "
            f"need {MIN_BEYOND} ({samples_needed(p)} samples)"
        )
    return sorted(samples)[rank - 1]


@dataclass(frozen=True)
class Window:
    """Samples ``[begin, end)`` of a phase: the replies after the one
    at ``opened`` seconds, up to the one at ``closed``."""

    begin: int
    end: int
    opened: float
    closed: float

    @property
    def rate(self) -> float:
        """Replies per second within the window."""
        return (self.end - self.begin) / (self.closed - self.opened)


def windows(replies: Sequence[float], seconds: float, min_samples: int) -> list[Window]:
    """The phase's consecutive ``seconds``-long windows that hold at
    least ``min_samples`` replies; when no window does, the whole phase
    as one window.

    ``replies`` are reply times in seconds since the phase started, in
    order.
    """
    def window(begin: int, end: int) -> Window:
        return Window(begin, end, replies[begin - 1] if begin else 0.0, replies[end - 1])

    cuts: list[Window] = []
    begin = 0
    for index in range(1, len(replies) + 1):
        if index == len(replies) or replies[index] // seconds != replies[begin] // seconds:
            if index - begin >= min_samples:
                cuts.append(window(begin, index))
            begin = index
    if not cuts and replies:
        return [window(0, len(replies))]
    return cuts
