"""Seeded Monte-Carlo chunks: the determinism contract of every simulation.

A job of ``total`` replicates is cut into fixed chunks of ``chunk``
replicates (the last one partial), and chunk k draws from child k of the
job's ``SeedSequence``.  ``seed_chunks`` is that rule, and the one place
it is written: ``seeded_map`` runs the chunks of its jobs through it, and
a power cell draws the null matrix of each of its replicates through it
(``draw_null``), exactly as ``vs_test`` and ``edf_test`` would.  Chunks
run in order, serially or in one thread pool, and come back in order.  So
an output depends on the seed and the chunk size, never on the thread
count: both are part of the contract.  ``vstest`` and ``edf`` use chunks
of ``CHUNK`` = 256 replicates; ``power`` uses chunks of ``CELL_CHUNK`` = 50
replicates per (n, test) cell.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import ParameterError

CHUNK = 256  # replicates per chunk of the vs and EDF null simulations
CELL_CHUNK = 50  # replicates per chunk of a power-study cell
# null values (rows x n) per block of power-cell replicates evaluated at
# once; a block holds at least one replicate
BLOCK = 2 ** 14


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


def seed_chunks(seed, total: int, chunk: int = CHUNK
                ) -> list[tuple[int, np.random.SeedSequence]]:
    """The ``(size, child)`` chunks of a job of ``total`` replicates, in
    order; ``seed`` is an int or a ``SeedSequence``."""
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(check_seed(seed))
    sizes = [chunk] * (total // chunk) + ([total % chunk] if total % chunk else [])
    return list(zip(sizes, seed.spawn(len(sizes))))


def draw_rows(fam, params, n: int, size: int,
              child: np.random.SeedSequence) -> np.ndarray:
    """One chunk of null samples: ``size`` rows of ``n`` draws of ``fam``."""
    return fam.sample(params, (size, n), np.random.default_rng(child))


def draw_null(fam, params_rows, n: int, B: int, seeds) -> np.ndarray:
    """The (B, n) null matrices of several replicates, stacked: replicate
    r's is the one a test with null parameters ``params_rows[r]`` and seed
    ``seeds[r]`` simulates."""
    return np.concatenate([draw_rows(fam, params, n, size, child)
                           for params, seed in zip(params_rows, seeds)
                           for size, child in seed_chunks(seed, B)])


def blocks(count: int, values: int) -> list[slice]:
    """Consecutive slices of ``count`` replicates of ``values`` null values
    each, every slice holding whole replicates and at most ``BLOCK`` values
    (one replicate when it alone holds more)."""
    step = max(1, BLOCK // values)
    return [slice(i, min(i + step, count)) for i in range(0, count, step)]


def seeded_map(jobs, total: int, *, threads: int = 1,
               chunk: int = CHUNK) -> list[list]:
    """Run every job's ``fn(size, child)`` over ``total`` replicates.

    ``jobs`` lists ``(seed, fn)`` pairs, the seed an int or a
    ``SeedSequence``.  Returns, per job, the results of its chunks in
    order.  All chunks of all jobs share one pool when ``threads > 1``.
    """
    threads = check_count(threads, "threads")
    tasks = [(fn, size, child) for seed, fn in jobs
             for size, child in seed_chunks(seed, total, chunk)]

    def run(task):
        fn, size, child = task
        return fn(size, child)

    if threads > 1 and len(tasks) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            out = list(pool.map(run, tasks))
    else:
        out = [run(t) for t in tasks]
    k = len(tasks) // len(jobs) if jobs else 0
    return [out[i * k:(i + 1) * k] for i in range(len(jobs))]
