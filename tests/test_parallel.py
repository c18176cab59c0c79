"""The shared thread pool: its pieces and spans, and the ops that use it, bit-for-bit.

Each comparison runs the same inputs with one worker, the serial loop, and
with two, whatever the machine has (`set_workers` in conftest.py).
"""

import os
import sys
import threading
import time

import numpy as np
import pytest

from groundsent import decoder, parallel
from groundsent.autodiff import Matrix, Tape
from groundsent.data import (
    Vocabulary, gen_synthetic, make_batches, numericalize, synthetic_token_names,
)
from groundsent.training import (
    ADAM_BLOCK, AdamState, FlatTensors, TrainConfig, adam_step, clip_gradients, init_params,
    train_step,
)

SIZE = 2 * parallel.MIN_SPAN + 12_345  # two spans, cut inside an Adam block


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_spans_cover_the_range_in_at_most_workers_slices(monkeypatch, workers):
    monkeypatch.setattr(parallel, "WORKERS", workers)
    for size in (0, 1, 2 * parallel.MIN_SPAN - 1, 2 * parallel.MIN_SPAN, SIZE,
                 5 * parallel.MIN_SPAN + 7):
        spans = parallel.spans(size)
        assert [s.start for s in spans] == [0] + [s.stop for s in spans[:-1]]
        assert spans[-1].stop == size
        assert 1 <= len(spans) <= workers
        if size < 2 * parallel.MIN_SPAN:
            assert len(spans) == 1
        else:
            assert all(s.stop - s.start >= parallel.MIN_SPAN for s in spans)
            assert len(spans) == min(workers, size // parallel.MIN_SPAN)


def test_run_keeps_piece_order_and_runs_the_first_piece_here(set_workers):
    set_workers(3)
    here = threading.get_ident()
    threads = parallel.run(lambda _: threading.get_ident(), range(3))
    assert threads[0] == here
    assert here not in threads[1:]
    assert parallel.run(lambda p: p * p, [4, 2, 3]) == [16, 4, 9]


@pytest.mark.parametrize("failing", [0, 1])  # this thread's piece, or the pool's
def test_exception_in_a_piece_reaches_the_caller_after_every_piece(set_workers, failing):
    set_workers(3)
    finished = []

    def piece(p):
        if p == failing:
            raise KeyError(f"piece {p}")
        time.sleep(0.05)
        finished.append(p)

    with pytest.raises(KeyError, match=f"piece {failing}"):
        parallel.run(piece, range(3))
    assert sorted(finished) == [p for p in range(3) if p != failing]
    assert parallel.run(lambda p: -p, range(3)) == [0, -1, -2]


def vector_work(set_workers, workers, steps=3):
    """Clip and Adam over a SIZE vector, from fixed draws; return data, m, v and the grads."""
    set_workers(workers)
    rng = np.random.default_rng(0)
    data = rng.standard_normal(SIZE)
    state = AdamState(0, FlatTensors({"x": (1, SIZE)}), FlatTensors({"x": (1, SIZE)}))
    grads = []
    for _ in range(steps):
        grad = rng.standard_normal(SIZE) * 3.0
        grads.append(clip_gradients(grad, 2.0).copy())
        adam_step(data, grad, state, lr=1e-2, beta1=0.9, beta2=0.999, eps=1e-8)
    return data, state.m.vector, state.v.vector, grads


def test_vector_work_on_two_workers_is_bit_for_bit_one_workers(set_workers):
    set_workers(2)
    spans = parallel.spans(SIZE)
    assert len(spans) == 2 and spans[0].stop % ADAM_BLOCK != 0  # the cut falls inside a block
    one, two = vector_work(set_workers, 1), vector_work(set_workers, 2)
    for a, b in zip(one[:3], two[:3]):
        assert np.array_equal(a, b)
    for a, b in zip(one[3], two[3]):
        assert np.array_equal(a, b)
        assert np.abs(a).max() == 2.0


def head_inputs(v=50, rows=23):
    """States, out_w, out_b, targets and keep mask for cross_entropy_rows, from fixed draws."""
    rng = np.random.default_rng(1)
    states, out_w, out_b = (Matrix(rng.standard_normal(shape))
                            for shape in ((rows, 5), (v, 5), (1, v)))
    return states, out_w, out_b, rng.integers(0, v, size=rows), rng.random(rows) < 0.8


def head(set_workers, workers, record):
    """cross_entropy_rows over head_inputs; return the loss and, if recorded, the gradients."""
    set_workers(workers)
    states, out_w, out_b, targets, keep = head_inputs()
    if not record:
        return [decoder.cross_entropy_rows(states, out_w, out_b, targets, keep).data]
    with Tape() as tape:
        loss = decoder.cross_entropy_rows(states, out_w, out_b, targets, keep)
        tape.backward(loss)
    return [loss.data, states.grad, out_w.grad, out_b.grad]


@pytest.mark.parametrize("record", [False, True])
def test_head_on_two_workers_is_bit_for_bit_one_workers(set_workers, monkeypatch, record):
    monkeypatch.setattr(decoder, "HEAD_CHUNK_BYTES", 8 * 50 * 4)  # 4 rows a chunk: 5 chunks
    one, two = head(set_workers, 1, record), head(set_workers, 2, record)
    assert len(one) == (4 if record else 1)
    for a, b in zip(one, two):
        assert np.array_equal(a, b)


def test_head_on_more_workers_than_cores_under_fast_switching(set_workers, monkeypatch):
    """Each round reuses the chunk buffers of the round before; a shared one would show here."""
    monkeypatch.setattr(decoder, "HEAD_CHUNK_BYTES", 8 * 50 * 2)  # 2 rows a chunk: 9 chunks
    one = head(set_workers, 1, True)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        many = head(set_workers, (os.cpu_count() or 1) + 3, True)
    finally:
        sys.setswitchinterval(interval)
    for a, b in zip(one, many):
        assert np.array_equal(a, b)


def test_head_adds_the_chunk_parts_in_chunk_order(set_workers, monkeypatch):
    """The whole head against its chunks run one by one, their parts added in chunk order."""
    monkeypatch.setattr(decoder, "HEAD_CHUNK_BYTES", 8 * 50 * 4)
    set_workers(2)
    states, out_w, out_b, targets, keep = head_inputs()
    kept = np.flatnonzero(keep)
    want = [0.0, np.zeros_like(states.data), np.zeros_like(out_w.data), np.zeros_like(out_b.data)]
    for start in range(0, kept.size, 4):
        keep_chunk = np.zeros_like(keep)
        keep_chunk[kept[start : start + 4]] = True
        states.grad = out_w.grad = out_b.grad = None
        with Tape() as tape:
            loss = decoder.cross_entropy_rows(states, out_w, out_b, targets, keep_chunk)
            tape.backward(loss)
        want[0] += loss.item()
        for total, part in zip(want[1:], (states.grad, out_w.grad, out_b.grad)):
            total += part
    assert kept.size > 8  # three chunks or more
    states.grad = out_w.grad = out_b.grad = None
    with Tape() as tape:
        loss = decoder.cross_entropy_rows(states, out_w, out_b, targets, keep)
        tape.backward(loss)
    assert loss.item() == want[0]
    for got, expected in zip((states.grad, out_w.grad, out_b.grad), want[1:]):
        assert np.array_equal(got, expected)


def large_vector_setup():
    """A model whose vector of about 1.1M entries splits in two: a 16,388 x 64 table."""
    config = TrainConfig(d_cell=4, d_a=3, n_a=2, d_e=64, d_img=5, batch_size=3, clip=0.01)
    visual, ordinary = synthetic_token_names(16_384)
    vocab = Vocabulary(visual + ordinary)
    samples = numericalize(gen_synthetic(6, 16_384, config.d_img, seed=2), vocab)
    params = init_params(config, vocab.size)
    return config, params, AdamState.for_params(params), make_batches(samples, 3, seed=2)


def train_two_steps(set_workers, workers):
    set_workers(workers)
    config, params, adam, batches = large_vector_setup()
    rng = np.random.default_rng(3)
    losses = [train_step(batch, params, adam, config, rng=rng) for batch in batches]
    return losses, params.values.vector, adam.m.vector, adam.v.vector


def test_train_steps_on_two_workers_are_bit_for_bit_one_workers(set_workers, monkeypatch):
    monkeypatch.setattr(decoder, "HEAD_CHUNK_BYTES", 8 * 16_388 * 4)  # 4 rows a chunk
    one, two = train_two_steps(set_workers, 1), train_two_steps(set_workers, 2)
    assert len(parallel.spans(one[1].size)) == 2
    assert one[0] == two[0]
    for a, b in zip(one[1:], two[1:]):
        assert np.array_equal(a, b)


def test_non_finite_gradient_in_the_second_span_stops_the_step(set_workers, monkeypatch):
    set_workers(2)
    monkeypatch.setattr(parallel, "MIN_SPAN", 1 << 14)  # the tail after the table splits too
    config, params, adam, batches = large_vector_setup()
    before = params.values.vector.copy()
    backward = Tape.backward

    def poisoned(tape, loss):
        backward(tape, loss)
        params.decoder.out_b.grad[0, -1] = np.nan

    monkeypatch.setattr(Tape, "backward", poisoned)
    with pytest.raises(FloatingPointError, match="non-finite gradient of dec_out_b at step 1"):
        train_step(batches[0], params, adam, config, rng=np.random.default_rng(0))
    (offset,) = np.flatnonzero(np.isnan(params.grads.vector))
    second = parallel.spans(params.grads.vector.size)[1]
    assert second.start <= offset < second.stop
    assert np.array_equal(params.values.vector, before) and adam.step == 0
