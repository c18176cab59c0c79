"""Fixtures shared by several test modules."""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from groundsent import autodiff as ad
from groundsent import parallel


@pytest.fixture
def nan_in_one_gradient(monkeypatch):
    """Return arm(); once called, the first `lstm_step` that backward replays leaves a NaN.

    The NaN goes into that op's recur_w gradient. Within a train step the
    first replayed `lstm_step` is the decoder's, recorded last; every other
    gradient stays finite. arm() returns the list that receives the
    poisoned tensor.
    """
    poisoned = []

    def arm():
        record = ad.record

        def poisoning_record(name, inputs, output, backward):
            def poisoned_backward():
                backward()
                if name == "lstm_step" and not poisoned:
                    poisoned.append(inputs[3])
                    inputs[3].grad[0, 0] = np.nan

            record(name, inputs, output, poisoned_backward)

        monkeypatch.setattr(ad, "record", poisoning_record)
        return poisoned

    return arm


@pytest.fixture
def dense_select_rows():
    """The embedding gather as it was before its backward wrote rows in place: a reference.

    Its backward scatters with np.add.at into a dense zero matrix shaped like
    the gathered-from matrix, then accumulates all of it.
    """

    def select_rows(m, ids):
        idx = np.asarray(ids, dtype=np.intp)
        out = ad.Matrix._wrap(m.data[idx].copy())

        def backward():
            gm = np.zeros_like(m.data)
            np.add.at(gm, idx, out.grad)
            m.accumulate(gm)

        ad.record("select_rows", (m,), out, backward)
        return out

    return select_rows


@pytest.fixture
def set_workers(monkeypatch):
    """Return set(n); after it, `parallel.run` runs as on n cores, however many there are."""
    pools = []

    def set_(n):
        pools.append(ThreadPoolExecutor(max(1, n - 1)))
        monkeypatch.setattr(parallel, "WORKERS", n)
        monkeypatch.setattr(parallel, "_POOL", pools[-1])

    yield set_
    for pool in pools:
        pool.shutdown()
