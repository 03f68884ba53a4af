"""Seeded Monte-Carlo chunks: the determinism contract of every simulation.

A job of ``total`` replicates is cut into chunks of ``chunk`` replicates
(the last one partial), chunk k drawing from child k of the job's
``SeedSequence``: ``seed_chunks`` is that rule, written once.  Every null
simulation runs on one schedule, ``null_map``: a replicate's (B, n) null
matrix is drawn in chunks of ``CHUNK`` = 256 rows from its own seed, as
``vs_test`` and ``edf_test`` draw it, and a power cell stacks those of its
replicates; consecutive chunks form blocks of at most ``BLOCK`` values,
each evaluated at once; blocks run serially or in one thread pool and
come back in order.  Every evaluation is row-wise, a row's result never
depending on the rows stacked with it, so neither the grouping nor the
thread count changes a bit; the seed and the chunk size are the contract.
``seeded_map`` runs power cells' chunks of ``CELL_CHUNK`` = 50 replicates.

A single test's null reference depends on its key (family, parameters, n,
options, B, seed), not on the data: ``null_reference`` keeps recent ones,
sorted, in one thread-safe LRU, so a repeated key costs a ``searchsorted``
that counts what a fresh simulation would.  Power cells, whose seeds never
repeat, do not use it.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import ParameterError

CHUNK = 256  # replicates per chunk of the vs and EDF null simulations
CELL_CHUNK = 50  # replicates per chunk of a power-study cell
# null values (rows x n) per block of chunks evaluated at once; a block
# holds at least one chunk
BLOCK = 2 ** 14
# 8-byte values (512 KiB) the null-reference cache keeps, its keys' arrays
# included; a larger reference serves its own call but is not kept
REFERENCE_VALUES = 2 ** 16
_references: OrderedDict = OrderedDict()  # key -> (ref, total, cost)
_stored = 0  # the summed cost of the cached references
_lock = threading.Lock()


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


def null_map(fam, params_rows, n: int, B: int, seeds, evaluate, *,
             threads: int = 1) -> tuple[np.ndarray, ...]:
    """``evaluate`` over the (B, n) null matrices of several replicates.

    Replicate r's matrix is the one a test with null parameters
    ``params_rows[r]`` and seed ``seeds[r]`` simulates: the rows of its
    seeded chunks, drawn from ``fam``.  ``evaluate(X)`` maps a block of
    stacked rows to a tuple of per-row arrays; each array comes back with
    the rows of every replicate in order (empty for no replicate).
    """
    B = check_count(B, "B")
    threads = check_count(threads, "threads")
    blocks, values = [], BLOCK
    for params, seed in zip(params_rows, seeds):
        for size, child in seed_chunks(seed, B):
            if values + size * n > BLOCK:
                blocks.append([])
                values = 0
            blocks[-1].append((params, size, child))
            values += size * n

    def run(block):
        # no replicate: one empty block, so that the arrays still come back
        return evaluate(np.concatenate(
            [fam.sample(params, (size, n), np.random.default_rng(child))
             for params, size, child in block] or [np.empty((0, n))]))

    return tuple(map(np.concatenate, zip(*_run_all(run, blocks or [[]],
                                                    threads))))


def _run_all(fn, items: list, threads: int) -> list:
    """``fn`` over ``items``, in order, serially or in one thread pool."""
    if threads > 1 and len(items) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, items))
    return [fn(item) for item in items]


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
    out = _run_all(lambda task: task[0](*task[1:]), tasks, threads)
    k = len(tasks) // len(jobs) if jobs else 0
    return [out[i * k:(i + 1) * k] for i in range(len(jobs))]



def null_reference(fields: tuple, B, seed, threads, build
                   ) -> tuple[np.ndarray, int]:
    """The sorted, read-only null statistics of the key ``fields`` + (B,
    seed) and the total a p-value divides by; B, ``threads`` and the seed
    are checked as ``null_map`` checks them.  On a miss ``build()`` gives
    a fresh array of the statistics, sorted here in place, and the total;
    NaNs, which no comparison counts, are dropped."""
    global _stored
    B = check_count(B, "B")
    check_count(threads, "threads")
    key = (*fields, B, check_seed(seed))
    with _lock:
        if key in _references:
            _references.move_to_end(key)
            return _references[key][:2]
    ref, total = build()
    ref.sort()  # NaNs sort last
    if ref.size and np.isnan(ref[-1]):
        ref = ref[:np.searchsorted(ref, np.nan)]
    ref.flags.writeable = False
    cost = ref.size + sum(len(f) for f in key if isinstance(f, bytes)) // 8
    with _lock:
        if cost <= REFERENCE_VALUES and key not in _references:
            _references[key], _stored = (ref, total, cost), _stored + cost
            while _stored > REFERENCE_VALUES:
                _stored -= _references.popitem(last=False)[1][2]
    return ref, total
