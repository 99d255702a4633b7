"""Calibration kernel: a fixed yardstick of how fast the host runs right now.

On a host whose cores are shared with other tenants, their load can slow
every round by up to half again, in phases that last from seconds to minutes,
longer than one run.  A round's wall time divided by the wall time of a kernel
section doing the same kind of work, run just before it on the same core,
cancels most of that slowdown.

The kernel uses numpy only, never ``blockboot``, so no change to the program
can move it.  Each section mirrors where one kind of workload spends its time:

``cells``
    Per-cell seed derivation, centering, block-start draws and count
    gather-and-sum on a 200-point series, in a Python loop (``mse_grid``,
    ``tune``).
``windows``
    Pasting drawn blocks into a megabyte-sized array, partitioning its rows and
    deduplicating the result (``coverage_grid``).
``recursion``
    A column-by-column ARMA recursion over a wide array (``reference``).
"""

from __future__ import annotations

import time

import numpy as np


def _cells(rng: np.random.Generator) -> None:
    values = rng.standard_normal(200)
    hits = 0
    for i in range(80):
        order = np.argsort(values, kind="stable")
        center = values[order[np.searchsorted(np.cumsum(order), 9000)]]
        below = np.concatenate(([0], np.cumsum(values <= center)))
        counts = below[8:] - below[:-8]
        words = tuple(int(k) & 0xFFFFFFFFFFFFFFFF for k in (7, 2, i, hits)) + (4,)
        draws = np.random.Generator(np.random.PCG64(np.random.SeedSequence(words)))
        starts = draws.integers(0, counts.size, size=(2000, 6))
        hits += int(np.count_nonzero(counts[starts].sum(axis=1) >= 24))


def _windows(rng: np.random.Generator) -> None:
    values = rng.standard_normal(200)
    offsets = np.arange(12)
    for _ in range(5):
        starts = rng.integers(0, values.size - offsets.size + 1, size=(2000, 8))
        pasted = values[starts[:, :, None] + offsets].reshape(2000, -1)
        np.unique(np.partition(pasted, 47, axis=1)[:, 47], return_counts=True)


def _recursion(rng: np.random.Generator) -> None:
    # Same array shapes as one 10,000-series chunk of an ARMA(2,3) path of
    # length 200, but only the first 48 time steps.
    steps = 48
    x = np.empty((10_000, 202))
    e = np.empty((10_000, 203))
    x[:, :2] = 0.0
    e[:, : steps + 3] = rng.standard_normal((10_000, steps + 3))
    for t in range(steps):
        acc = e[:, 3 + t].copy()
        acc += 0.1 * e[:, 2 + t]
        acc += 0.2 * e[:, 1 + t]
        acc -= 0.1 * e[:, t]
        acc += 0.1 * x[:, 1 + t]
        acc -= 0.3 * x[:, t]
        x[:, 2 + t] = acc


SECTIONS = {"cells": _cells, "windows": _windows, "recursion": _recursion}


def section_s(name: str) -> float:
    """Wall seconds of one pass of a kernel section (10 to 40 ms on a 2-vCPU Xeon)."""
    rng = np.random.Generator(np.random.PCG64(20171006))
    start = time.perf_counter()
    SECTIONS[name](rng)
    return time.perf_counter() - start
