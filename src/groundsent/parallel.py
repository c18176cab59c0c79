"""One pool of threads, shared by the step's vector work and the vocabulary head.

numpy releases the GIL inside ufunc loops and BLAS calls, so pieces of one
array pass run on separate cores. Results stay bit-for-bit the serial ones
because a piece obeys three rules:
- it writes only its own slice, or returns a partial that the caller adds
  in piece order, the order the serial loop adds in;
- it never calls `run`;
- it never touches the tape. Read `autodiff.recording()` on the calling
  thread: pool threads have their own contextvars context, where no tape
  is active.
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

# The calling thread runs one piece of each round; threads start on the first submit.
_POOL = ThreadPoolExecutor(max(1, WORKERS - 1), thread_name_prefix="groundsent")


def run(fn, pieces) -> list:
    """[fn(p) for p in pieces], in rounds of WORKERS whose first piece runs on this thread.

    A round is waited for in full, even when a piece raises, before the
    exception reaches the caller or the next round starts.
    """
    pieces, results = list(pieces), []
    for start in range(0, len(pieces), WORKERS):
        first, *rest = pieces[start : start + WORKERS]
        futures = [_POOL.submit(fn, piece) for piece in rest]
        try:
            results.append(fn(first))
        finally:
            wait(futures)
        results.extend(f.result() for f in futures)
    return results


def spans(size: int, block: int) -> list[slice]:
    """Cut range(size) into at most WORKERS contiguous slices of whole `block`s.

    Each slice holds at least MIN_SPAN entries; the last one also takes the
    tail that fills no whole block. Below 2 * MIN_SPAN that is one slice.
    """
    whole = size // block
    n = max(1, min(WORKERS, whole // -(-MIN_SPAN // block)))
    cuts = [block * (whole * i // n) for i in range(n)] + [size]
    return [slice(a, b) for a, b in zip(cuts, cuts[1:])]
