"""Seeded Monte-Carlo map: the determinism contract of every simulation.

A job of ``total`` replicates is cut into fixed chunks of ``chunk``
replicates (the last one partial), and chunk k draws from child k of the
job's ``SeedSequence``.  Chunks run in order, serially or in one thread
pool, and come back in order.  So an output depends on the seed and the
chunk size, never on the thread count: both are part of the contract.
``vstest`` and ``edf`` use chunks of ``CHUNK`` = 256 replicates; ``power``
uses chunks of ``CELL_CHUNK`` = 50 replicates per (n, test) cell.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import ParameterError

CHUNK = 256  # replicates per chunk of the vs and EDF null simulations
CELL_CHUNK = 50  # replicates per chunk of a power-study cell


def check_count(k, name: str) -> int:
    """k as an int; ParameterError unless it is a positive integer (a bool
    is an int, but not a count)."""
    if not isinstance(k, (int, np.integer)) or isinstance(k, bool) or k < 1:
        raise ParameterError(f"{name} must be a positive integer, got {k!r}")
    return int(k)


def check_seed(seed) -> int:
    """The seed as an int; ParameterError unless it is an integer >= 0."""
    if seed is None:
        raise ParameterError(
            "Monte-Carlo p-values need a seed for reproducibility; "
            "none was given")
    if (not isinstance(seed, (int, np.integer)) or isinstance(seed, bool)
            or seed < 0):
        raise ParameterError(f"seed must be an integer >= 0, got {seed!r}")
    return int(seed)


def seeded_map(jobs, total: int, *, threads: int = 1,
               chunk: int = CHUNK) -> list[list]:
    """Run every job's ``fn(size, child)`` over ``total`` replicates.

    ``jobs`` lists ``(seed, fn)`` pairs, the seed an int or a
    ``SeedSequence``.  Returns, per job, the results of its chunks in
    order.  All chunks of all jobs share one pool when ``threads > 1``.
    """
    threads = check_count(threads, "threads")
    sizes = [chunk] * (total // chunk) + ([total % chunk] if total % chunk else [])
    tasks = []  # (fn, size, child) in job order, then chunk order
    for seed, fn in jobs:
        if not isinstance(seed, np.random.SeedSequence):
            seed = np.random.SeedSequence(check_seed(seed))
        tasks += [(fn, size, child)
                  for size, child in zip(sizes, seed.spawn(len(sizes)))]

    def run(task):
        fn, size, child = task
        return fn(size, child)

    if threads > 1 and len(tasks) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            out = list(pool.map(run, tasks))
    else:
        out = [run(t) for t in tasks]
    k = len(sizes)
    return [out[i * k:(i + 1) * k] for i in range(len(jobs))]
