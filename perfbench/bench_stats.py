"""Check counting and summary statistics shared by the benchmark's
processes and its tests."""

import statistics

import numpy as np

TAIL_BEYOND = 10
RATE_BLOCKS = 9  # odd, so the median is one block's rate


def tail_latency(values, beyond: int = TAIL_BEYOND):
    """(value, percentile) of the highest order statistic that still has at
    least ``beyond`` samples above it: rank N - beyond of N (1-based).

    With 1000 samples this is the 990th value, p99; with 60 it is the 50th,
    p83.3. Fewer than ``beyond + 1`` samples have no such value.
    """
    ordered = sorted(values)
    rank = len(ordered) - beyond
    if rank < 1:
        raise ValueError(f"need more than {beyond} samples for a tail percentile, got {len(ordered)}")
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def quartile_spread(values) -> float:
    """Distance between the first and third quartile as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def block_rate(streams, blocks: int = RATE_BLOCKS) -> float:
    """Units per second as the median over blocks of consecutive units, each
    timed from its first start to its last end (glue between units counts).

    ``streams`` holds one list of (start, end) unit times per process; the
    blocks are shared out evenly among them and never span two processes.
    """
    rates = []
    per = max(1, blocks // len(streams))
    for times in streams:
        for block in np.array_split(np.asarray(times, dtype=float), min(per, len(times))):
            rates.append(len(block) / (block[-1][1] - block[0][0]))
    return statistics.median(rates)


class Checks:
    """Correctness checks attempted and failed, with the failures' messages.

    A phase process counts its own checks and writes ``vars(checks)`` into
    its result; the parent folds them in with ``merge``.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list = []

    def check(self, ok: bool, message: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(message)

    def merge(self, other: dict):
        self.attempted += other["attempted"]
        self.failed += other["failed"]
        self.messages += other["messages"]
