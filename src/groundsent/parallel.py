"""One pool of threads, shared by the step's vector work and the vocabulary head.

numpy releases the GIL inside ufunc loops and BLAS calls, so pieces of one
array pass run on separate cores. A `run` call is one round of at most
WORKERS pieces, one per core; a caller with more pieces runs the rounds
itself. Results stay bit-for-bit the serial ones because a piece obeys three
rules:
- it writes only its own slice, or returns a partial that the caller adds
  in piece order, the order the serial loop adds in;
- it never calls `run`;
- it never touches the tape: pool threads have their own contextvars
  context, where no tape is active.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor, wait

try:
    WORKERS = len(os.sched_getaffinity(0))
except AttributeError:  # no affinity call on this platform
    WORKERS = os.cpu_count() or 1

# Entries below which a span is not worth a thread hand-off (about 4 MB of float64).
MIN_SPAN = 1 << 19

# The calling thread runs the first piece; threads start on the first submit.
_POOL = ThreadPoolExecutor(max(1, WORKERS - 1), thread_name_prefix="groundsent")


def run(fn, pieces) -> list:
    """[fn(p) for p in pieces], at most WORKERS of them, the first run on this thread.

    Every piece is waited for, even when one raises, before the exception
    reaches the caller.
    """
    first, *rest = pieces
    futures = [_POOL.submit(fn, piece) for piece in rest]
    try:
        results = [fn(first)]
    finally:
        wait(futures)
    return results + [f.result() for f in futures]


def spans(size: int) -> list[slice]:
    """Cut range(size) into at most WORKERS contiguous slices of near-equal length.

    When there are two or more, each holds at least MIN_SPAN entries, so
    below 2 * MIN_SPAN there is one slice, which `run` runs inline.
    """
    n = max(1, min(WORKERS, size // MIN_SPAN))
    cuts = [size * i // n for i in range(n + 1)]
    return [slice(a, b) for a, b in zip(cuts, cuts[1:])]
