"""The closed loop every workload runs: one client, the next op only after
the previous one has completed."""

from __future__ import annotations

import statistics
import time


def p50_p90(times: list[float]) -> tuple[float, float]:
    deciles = statistics.quantiles(times, n=10, method="inclusive")
    return deciles[4], deciles[8]


def above_p90(times: list[float]) -> int:
    if len(times) < 2:
        return 0
    p90 = p50_p90(times)[1]
    return sum(t > p90 for t in times)


class SetupSchedule:
    """Spreads a run's set-ups over its measured time.

    The first set-up makes the inputs the loop codes, and its time is
    `first`. The others repeat it at even steps of `seconds`, between
    cycles, so that their median follows the host's speed over the whole
    run, as the op times do, and not over the few seconds at its start.
    `set_up(rep)` does one more set-up and returns its time in seconds.
    """

    def __init__(self, reps: int, seconds: float, set_up, first: float):
        self.reps, self.seconds, self.set_up = reps, seconds, set_up
        self.times = [first]

    def after_cycle(self, elapsed: float) -> None:
        while (len(self.times) < self.reps
               and elapsed >= len(self.times) * self.seconds / self.reps):
            self.times.append(self.set_up(len(self.times)))

    def finish(self) -> list[float]:
        """Does the set-ups a short run left out; returns all the times."""
        while len(self.times) < self.reps:
            self.times.append(self.set_up(len(self.times)))
        return self.times


def closed_loop(cycle: list[dict], seconds: float, run_op, trace: bool,
                after_cycle=None) -> list[list]:
    """Run whole cycles of `cycle` until `seconds` have passed.

    `run_op(op, traced, op_id)` returns (ns, error), where error is None for
    an op whose output passed its check. Untraced, the loop also goes on
    until ten samples lie above p90. Traced, it alternates untraced and
    traced cycles and ends on a traced one, so both kinds code the same ops.
    It stops at 1.5 times `seconds` whatever the tail holds.
    `after_cycle(elapsed)`, if given, runs after each cycle, and its own
    time does not count towards `seconds`.

    Returns one [group, items, ns, error, traced] sample per op.
    """
    samples: list[list] = []
    start = time.monotonic()
    cycles = 0
    while True:
        traced = trace and cycles % 2 == 1
        for op in cycle:
            ns, error = run_op(op, traced, len(samples))
            samples.append([op["group"], op["items"], ns, error, traced])
        cycles += 1
        if after_cycle is not None:
            paused = time.monotonic()
            after_cycle(paused - start)
            start += time.monotonic() - paused
        if trace and cycles % 2:
            continue
        elapsed = time.monotonic() - start
        if elapsed >= 1.5 * seconds or elapsed >= seconds and (
                trace or above_p90([s[2] for s in samples]) >= 10):
            return samples
