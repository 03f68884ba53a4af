"""Seeded Monte-Carlo chunks: the determinism contract of every simulation.

A job of ``total`` replicates is cut into chunks of ``chunk`` replicates
(the last one partial), chunk k drawing from child k of the job's
``SeedSequence``: ``seed_chunks`` is that rule, written once.  A job of
several seeds (a power chunk's) hashes the children of all of them in one
vectorized pass of SeedSequence's algorithm, which NEP 19 froze, and
gives each chunk's ``PCG64`` the state words its child would: one
``SeedSequence`` costs ~10 us of Python, the pass ~0.1 ms whatever its
size, so a job of one seed keeps ``seed_chunks``.  Every null
simulation runs on one schedule, ``null_map``: a replicate's (B, n) null
matrix is drawn in chunks of ``CHUNK`` = 256 rows from its own seed, as
``vs_test`` and ``edf_test`` draw it, and a power cell stacks those of
each of its chunks of ``CELL_CHUNK`` = 50 replicates, one after another.
The caller names the draw: ``vs_test`` draws the family's values
(``sample``) and ``edf_test`` what their PIT is taken from (``pit_draw``:
for an inverse-CDF family the uniforms ``sample`` transforms, else the
family's values), its evaluation taking the PIT; both take the same
numbers from the generator.  One rule sizes every evaluation: it
sees at most the caller's ``budget`` of values (one row, where a row is
more), ``BLOCK`` by default.  Consecutive chunks form blocks of at most
the budget, each evaluated at once, and a chunk of more than the budget
is drawn and evaluated in even tiles of rows, in order, from its one
generator (which fills arrays sequentially, so the tiles hold the
chunk's draw).  Each evaluation pays a fixed cost in Python calls and
GIL handoffs whatever its rows, which a larger budget spreads over more
of them, and a bounded one keeps its temporaries small enough for the
allocator to reuse instead of mapping and faulting them in afresh.  An
EDF evaluation makes the same dozen numpy calls at any size, so its
callers grant 2 · ``BLOCK``: a power chunk of 50 replicates at n = 20
and B = 200 runs as 7 evaluations.  A vs evaluation runs Python for each
candidate window, so its callers grant ``BLOCK`` values per window up
to ``MAX_BUDGET`` = 4 · ``BLOCK``: at n = 200 a 256-row chunk with every
window is evaluated whole, and with the default three in two tiles.
Blocks run serially, or shared by the calling thread and a pool of
``threads - 1`` workers that the process keeps from the first call that
needs it (a forked child builds its own), and come back in order, a
failure raised as a serial run raises it; a pool worker never submits to
a pool, so its nested calls run serially.  A job whose one block is a
chunk of several tiles (an ``edf_test`` at n = 200 and B <= 256, say)
may share its tiles instead, where its caller asks: the thread that
evaluates a tile draws it, in turn, from the chunk's one generator, so
that the draws keep their order and the evaluations run at once.  The
EDF callers ask where the PIT is a family CDF, which releases the GIL;
a vs evaluation runs Python for each window, and two of its tiles at
once read slower than one after the other.  Every evaluation is
row-wise, a row's result never depending on the rows stacked with it,
so neither the grouping, the tiling nor the thread count changes a bit;
the seed and the chunk size are the contract.

Null references take two paths on purpose.  A single test's depends on
its key (family, parameters, n, options, B, seed), not on the data:
``null_reference`` keeps recent ones, sorted, in one thread-safe LRU, so
a repeated key costs a ``searchsorted`` that counts what a fresh
simulation would.  A power cell's replicates never repeat a seed, so
they skip the cache.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import ParameterError

CHUNK = 256  # replicates per chunk of the vs and EDF null simulations
CELL_CHUNK = 50  # replicates per chunk of a power-study cell
# null values (rows x n), 128 KiB: the budget of an evaluation whose
# caller names none, and the unit of the package's budgets, two per EDF
# evaluation and one per candidate window of a vs one; larger ones were
# measured slower, their temporaries faulted in afresh
BLOCK = 2 ** 14
# the most values (512 KiB) any evaluation of the package sees, one row
# where a row is more: the cap of the vs callers' budget, so that its
# temporaries stay bounded at any n
MAX_BUDGET = 4 * BLOCK
# 8-byte values (512 KiB) the null-reference cache keeps, its keys' arrays
# included; a larger reference serves its own call but is not kept
REFERENCE_VALUES = 2 ** 16
_references: OrderedDict = OrderedDict()  # key -> (ref, total, cost)
_stored = 0  # the summed cost of the cached references
_lock = threading.Lock()
_pools: dict = {}  # workers -> the ThreadPoolExecutor kept for that count
_worker = threading.local()  # ``busy`` is set in the pools' own threads


def _after_fork_in_child() -> None:
    """A forked child has none of its parent's pool threads, and no thread
    that could release the lock: it starts afresh."""
    global _lock
    _lock = threading.Lock()
    _pools.clear()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_after_fork_in_child)


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
    sizes = [chunk] * (total // chunk) + ([total % chunk] if total % chunk else [])
    if isinstance(seed, np.random.SeedSequence):
        return list(zip(sizes, seed.spawn(len(sizes))))
    # the children SeedSequence(seed).spawn would give, built directly
    seed = check_seed(seed)
    return [(size, np.random.SeedSequence(seed, spawn_key=(k,)))
            for k, size in enumerate(sizes)]


# SeedSequence's hash (NumPy's bit_generator, frozen by NEP 19): the
# successive constants of its hashmix steps, 20 steps to mix five entropy
# words into a pool of four and 8 for generate_state(4, uint64)
_MIX_CONSTANTS = np.array([0x43b0d7e5 * 0x931e8875 ** i & 0xFFFFFFFF
                           for i in range(21)], dtype=np.uint32)
_STATE_CONSTANTS = np.array([0x8b51f9dd * 0x58f38ded ** i & 0xFFFFFFFF
                             for i in range(9)], dtype=np.uint32)


def _child_words(seeds, count: int) -> np.ndarray:
    """(len(seeds), count, 4) uint64: ``SeedSequence(seed, spawn_key=(k,))
    .generate_state(4, np.uint64)`` for each seed below 2**64 and k <
    count, hashed at once over the entropy [seed mod 2**32, seed >> 32, 0,
    0, k] (a seed of 2**64 or more has more words)."""
    def hashmix(value, h, j, width):
        # width steps from step j, each xoring its constant and
        # multiplying by the advanced one
        value = (value ^ h[j:j + width]) * h[j + 1:j + 1 + width]
        return value ^ value >> 16

    def mix(x, y):
        r = x * np.uint32(0xca01f9dd) - y * np.uint32(0x4973f715)
        return r ^ r >> 16

    E = np.zeros((len(seeds), count, 5), dtype=np.uint32)
    E[..., :2] = (np.asarray(seeds, dtype=np.uint64)[:, None, None]
                  >> np.uint64([0, 32]) & 0xFFFFFFFF)
    E[..., 4] = np.arange(count)
    E = E.reshape(-1, 5)
    pool = hashmix(E[:, :4], _MIX_CONSTANTS, 0, 4)
    for src in range(4):  # each pool word into the other three, in order
        dst = [d for d in range(4) if d != src]
        pool[:, dst] = mix(pool[:, dst], hashmix(
            pool[:, src, None], _MIX_CONSTANTS, 4 + 3 * src, 3))
    pool = mix(pool, hashmix(E[:, 4:], _MIX_CONSTANTS, 16, 4))
    state = hashmix(np.tile(pool, 2), _STATE_CONSTANTS, 0, 8)
    return (np.ascontiguousarray(state, "<u4").view("<u8")
            .astype(np.uint64).reshape(-1, count, 4))


class _Words(np.random.bit_generator.ISeedSequence):
    """A child's state words: all that ``PCG64`` asks of a seed sequence."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def null_map(draw, params_rows, n: int, B: int, seeds, evaluate, *,
             threads: int = 1, budget: int | None = None,
             share_tiles: bool = False) -> tuple[np.ndarray, ...]:
    """``evaluate`` over the (B, n) null matrices of several replicates.

    Replicate r's matrix is the one a test with null parameters
    ``params_rows[r]`` and seed ``seeds[r]`` simulates: the rows of its
    seeded chunks, each chunk ``draw(params, (size, n), rng)`` (a family's
    ``sample``, or its ``pit_draw``), rng a ``PCG64`` generator of the
    chunk's child.  With several seeds, each below 2**64, the children's
    state words come from one vectorized pass (``_child_words``), the
    words their ``SeedSequence`` would give; one seed keeps
    ``seed_chunks``, cheaper than that pass.  ``evaluate(X)`` maps a block of
    stacked rows, a fresh array it may overwrite, to a tuple of per-row
    arrays; each array comes back with the rows of every replicate in
    order (empty for no replicate).  ``budget`` (``BLOCK`` if None) bounds
    the values of every evaluation: the chunks go to blocks of at most
    ``budget`` values, or a larger chunk to tiles of at most ``budget``,
    and those to the thread pool.  With ``share_tiles``, at ``threads``
    >= 2, the tiles of a lone chunk are the pool's items instead, each
    drawn in turn by the thread that evaluates it: for an evaluation that
    spends its time in numpy calls that release the GIL, such as an EDF
    null's CDF.  Neither the grouping, the tiling nor the thread that
    draws a tile is part of the contract.
    """
    B = check_count(B, "B")
    threads = check_count(threads, "threads")
    budget = BLOCK if budget is None else budget
    seeds = [check_seed(seed) for seed in seeds]
    if len(seeds) > 1 and max(seeds) < 2 ** 64:
        sizes = [min(CHUNK, B - i) for i in range(0, B, CHUNK)]
        chunks = [list(zip(sizes, map(_Words, words)))
                  for words in _child_words(seeds, len(sizes))]
    else:
        chunks = [seed_chunks(seed, B) for seed in seeds]
    blocks, values = [], budget
    for params, children in zip(params_rows, chunks):
        for size, child in children:
            if values + size * n > budget:
                blocks.append([])
                values = 0
            blocks[-1].append((params, size, child))
            values += size * n

    def tiles(size):
        # the fewest even tiles of at most budget values (one row if a row
        # is more)
        count = -(-size // max(budget // n, 1))
        rows = -(-size // count)
        return [min(rows, size - i) for i in range(0, size, rows)]

    def run(block):
        if len(block) != 1:
            # chunks that fit in the budget together; for no replicate one
            # empty block, so that the arrays still come back
            return [evaluate(np.concatenate(
                [draw(params, (size, n), np.random.default_rng(child))
                 for params, size, child in block] or [np.empty((0, n))]))]
        # one chunk: its tiles drawn in order from the chunk's one
        # generator, which fills arrays sequentially
        (params, size, child), = block
        rng = np.random.default_rng(child)
        return [evaluate(draw(params, (rows, n), rng)) for rows in tiles(size)]

    if (share_tiles and threads > 1 and len(blocks) == 1
            and len(blocks[0]) == 1):
        (params, size, child), = blocks[0]
        sizes = tiles(size)
        if len(sizes) > 1:
            # a lone chunk of several tiles: the tiles are the pool's
            # items, each drawn in turn from the chunk's one generator by
            # the thread that evaluates it
            rng = np.random.default_rng(child)
            return tuple(map(np.concatenate, zip(*_run_all(
                _in_turn(lambda rows: draw(params, (rows, n), rng), evaluate),
                list(enumerate(sizes)), threads))))
    return tuple(map(np.concatenate, zip(*(
        out for part in _run_all(run, blocks or [[]], threads)
        for out in part))))


def _in_turn(draw, evaluate):
    """The function of a ``(k, item)`` pair that waits for turn k, draws
    ``draw(item)``, passes the turn on, and evaluates what it drew: the
    draws run in the order of k, whatever the thread, and the evaluations
    at once.  The turn passes on also where a draw fails, so that no
    thread waits for it for ever."""
    turn, done = threading.Condition(), [0]

    def drawn(k, item):
        with turn:
            turn.wait_for(lambda: done[0] == k)
            try:
                return draw(item)
            finally:
                done[0] += 1
                turn.notify_all()

    # the draw is held by evaluate alone, which may free it early
    return lambda pair: evaluate(drawn(*pair))


def _run_all(fn, items: list, threads: int) -> list:
    """``fn`` over ``items``, in order: serially, or shared by the calling
    thread and the kept pool of ``threads - 1`` workers, each taking the
    next item as it finishes one.  The caller works rather than waits,
    which spares a thread's wake-ups and its allocator arena.  No item
    starts once one has failed, and the first failure in order is raised,
    as a serial run raises it.  A pool's own worker runs its items
    serially: were it to wait on a pool whose workers all wait likewise,
    none would run."""
    if threads == 1 or len(items) < 2 or getattr(_worker, "busy", False):
        return [fn(item) for item in items]
    out, errors, todo = [None] * len(items), {}, iter(range(len(items)))
    lock = threading.Lock()

    def work():
        while True:
            with lock:
                i = None if errors else next(todo, None)
            if i is None:
                return
            try:
                out[i] = fn(items[i])
            except Exception as error:
                with lock:
                    errors[i] = error

    helpers = [_pool(threads - 1).submit(work)
               for _ in range(min(threads, len(items)) - 1)]
    work()
    for helper in helpers:
        helper.result()  # waits, and raises what work() let through
    if errors:  # items start in order: all before a failed one ran
        raise errors[min(errors)]
    return out


def _pool(workers: int) -> ThreadPoolExecutor:
    """The process's pool of ``workers`` threads, built on first use; its
    threads start as work arrives and live as long as the process."""
    with _lock:
        if workers not in _pools:
            _pools[workers] = ThreadPoolExecutor(
                workers, initializer=setattr, initargs=(_worker, "busy", True))
        return _pools[workers]


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
