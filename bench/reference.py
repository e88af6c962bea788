"""Machine-speed reference for the end-to-end timings.

The host this benchmark runs on changes speed by a third or more, in phases
that last from seconds to many minutes, and the process's CPU time follows
its wall time, so neither clock alone gives steady figures. Each timed call
is therefore bracketed by a fixed pure-Python probe, and its time is scaled
by how fast the probe ran next to it. A reported second is a "reference
second": wall time on a machine where the probe takes exactly PROBE_S.
The probe is the benchmark's own code and never calls writ, so a change to
writ moves the scaled times exactly as it moves the wall times.
"""

from __future__ import annotations

import gc
import statistics
import time
from typing import Callable, TypeVar

T = TypeVar("T")

# the probe's nominal time; on the 2-vCPU VM of results/ the probe took
# 2-3 ms, so scaled times read somewhat below wall times there
PROBE_S = 0.002


class _Node:
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left, right) -> None:
        self.op, self.left, self.right = op, left, right


def _build(depth: int, i: int):
    if depth == 0:
        return i % 7
    return _Node("+*-"[i % 3], _build(depth - 1, 2 * i), _build(depth - 1, 2 * i + 1))


def _eval(t, env: dict[int, int]) -> int:
    if isinstance(t, int):
        return env.get(t, t)
    a, b = _eval(t.left, env), _eval(t.right, env)
    return (a + b if t.op == "+" else a * b if t.op == "*" else a - b) % 1_000_003


_TREE = _build(9, 1)


def _probe_work() -> int:
    """What writ's layers do most: build small objects and walk them
    recursively, with dict lookups at the leaves."""
    env = {i: 3 * i for i in range(7)}
    acc = 0
    for k in range(6):
        acc += _eval(_build(8, k + 1), env) + _eval(_TREE, env)
        env[k] = acc % 11
    return acc


def probe() -> float:
    """Seconds one run of the probe takes now."""
    gc.collect()
    t0 = time.perf_counter()
    _probe_work()
    return time.perf_counter() - t0


class Clock:
    """Times calls in reference seconds. Every call is followed by a probe.
    A call's wall time is scaled by the median of the probes around it,
    WINDOW before and WINDOW after, which follows the machine's phases while
    one noisy probe moves nothing; so the scaling is done once the run has
    ended, by seconds()."""

    WINDOW = 4

    def __init__(self) -> None:
        self.probes = [probe()]

    def time(self, fn: Callable[[], T]) -> tuple[T, tuple[float, int]]:
        """fn's value, and its lap: its wall time and the probe after it."""
        # every call starts with a clean heap, as a fresh `writ` process
        # would; otherwise a full collection lands in whichever call happens
        # to cross the threshold left by the ones before it
        gc.collect()
        t0 = time.perf_counter()
        value = fn()
        dt = time.perf_counter() - t0
        self.probes.append(probe())
        return value, (dt, len(self.probes) - 1)

    def speed(self, after: int) -> float:
        """Reference seconds per wall second around the probe after."""
        window = self.probes[max(0, after - self.WINDOW):after + self.WINDOW]
        return PROBE_S / statistics.median(window)

    def seconds(self, lap: tuple[float, int]) -> float:
        dt, after = lap
        return dt * self.speed(after)
