"""Conditional LSTM language model over the target captions, run over B lanes at once.

The sentence representation enters only through the initial-state
projections; each step is then teacher-forced on the previous gold token.
Lane layout as in the encoder: the (B, L) targets, right-padded with PAD,
are read time-major, so row t*B + b of the step inputs, states and logits
is step t of lane b. All input rows are projected by one matmul, the
recurrence runs as one fused op (`encoder.run_lanes`) from the projected
initial state, and the states reach the vocabulary through one fused
logits-and-NLL op (`cross_entropy_rows`). Steps whose target is PAD are
dropped before the head, so padding adds nothing to the loss and gets no
gradient. The head runs the kept rows in cache-sized chunks, one chunk per
core at a time (`parallel.run`), and, while a tape records, forms its
gradients in the forward, so no (rows, V) array is made.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import parallel
from .autodiff import Matrix, ShapeError
from .data import PAD
from .encoder import LstmCellParams, project_inputs, run_lanes

# Bytes of each of the vocabulary head's (rows, V) chunk buffers: 52 rows at V = 20,000, few
# enough to stay in cache, many enough that the per-chunk (V, d) out_w gradient update
# is paid a few times a step (2 and 4 MB measured slower); small vocabularies run as one chunk.
HEAD_CHUNK_BYTES = 1 << 23


@dataclass
class DecoderParams:
    init_h_proj: Matrix  # (d_cell, 2*d_cell)
    init_c_proj: Matrix  # (d_cell, 2*d_cell)
    cell: LstmCellParams
    out_w: Matrix        # (V, d_cell)
    out_b: Matrix        # (1, V)


def init_state(params: DecoderParams, sentence_rep: Matrix) -> tuple[Matrix, Matrix]:
    """h_0 = tanh(P_h . rep), c_0 = tanh(P_c . rep), one row per lane."""
    if sentence_rep.cols != params.init_h_proj.cols:
        raise ShapeError(
            f"init_state: rep {sentence_rep.shape} vs projection {params.init_h_proj.shape}"
        )
    h0 = ad.tanh(ad.matmul(sentence_rep, ad.transpose(params.init_h_proj)))
    c0 = ad.tanh(ad.matmul(sentence_rep, ad.transpose(params.init_c_proj)))
    return h0, c0


def cross_entropy_rows(states: Matrix, out_w: Matrix, out_b: Matrix, targets: np.ndarray,
                       keep: np.ndarray) -> Matrix:
    """Sum over kept rows of -log softmax(states @ out_w.T + out_b)[row, target], as 1x1.

    The vocabulary head as one op, over the kept rows only, in chunks of
    HEAD_CHUNK_BYTES // (8 V) rows. The chunks run in rounds of one per core,
    as `parallel.run` pieces, each through its round slot's reused (chunk, V)
    buffer. A chunk computes its logits, shifts them by the row max,
    exponentiates them in place and sums its rows' losses. While a tape
    records, it then turns the buffer into softmax - onehot, writes its rows
    of the states gradient and returns its parts of the unscaled out_w and
    out_b gradients; the loss is linear in out.grad, so backward only scales
    and accumulates them. The losses and parts are added in chunk order, as
    one thread would. Dropped rows get an exactly zero states gradient.
    """
    kept = np.flatnonzero(keep)
    h, t, w = states.data[kept], targets[kept], out_w.data
    chunk = max(1, HEAD_CHUNK_BYTES // (8 * w.shape[0]))
    starts = range(0, kept.size, chunk)
    width = max(1, min(parallel.WORKERS, len(starts)))  # chunks in flight, one buffer slot each
    bufs = np.empty((width, min(chunk, kept.size), w.shape[0]))
    grads = ad.recording()  # on this thread: pool threads see no tape
    if grads:
        g_h, g_w, g_b = np.empty_like(h), np.zeros_like(w), np.zeros_like(out_b.data)
        parts_w = np.empty((width, *w.shape))

    def head(start: int):
        slot, part = start // chunk % width, slice(start, start + chunk)
        hc, tc = h[part], t[part]
        z = np.matmul(hc, w.T, out=bufs[slot, : hc.shape[0]])
        z += out_b.data
        z -= z.max(axis=1, keepdims=True)
        rows = np.arange(z.shape[0])
        target_z = z[rows, tc]
        sums = np.exp(z, out=z).sum(axis=1, keepdims=True)
        loss = float((np.log(sums[:, 0]) - target_z).sum())
        if not grads:
            return loss, None, None
        z *= 1.0 / sums
        z[rows, tc] -= 1.0
        np.matmul(z, w, out=g_h[part])
        return loss, np.matmul(z.T, hc, out=parts_w[slot]), z.sum(axis=0)

    total = 0.0
    for first in range(0, len(starts), width):  # a round's parts are added before the next
        for loss, part_w, part_b in parallel.run(head, starts[first : first + width]):
            total += loss
            if grads:
                g_w += part_w
                g_b += part_b
    out = Matrix._wrap(np.array([[total]]))

    def backward():
        s = out.grad[0, 0]
        g_states = np.zeros_like(states.data)
        g_states[kept] = g_h * s
        states.accumulate(g_states)
        out_w.accumulate(np.multiply(g_w, s, out=g_w))
        out_b.accumulate(np.multiply(g_b, s, out=g_b))

    ad.record("cross_entropy_rows", (states, out_w, out_b), out, backward)
    return out


def caption_nll(params: DecoderParams, embeddings: Matrix, sentence_reps: Matrix,
                tgt_ids) -> Matrix:
    """Teacher-forced negative log-likelihood of the targets, summed over steps and lanes.

    tgt_ids is one BOS...EOS sequence or a (B, L) batch of them right-padded
    with PAD, one lane per row of sentence_reps; step t consumes tgt[t-1]
    and predicts tgt[t]. Steps whose target is PAD are masked out, so
    trailing padding never changes the loss.
    """
    tgt = np.atleast_2d(np.asarray(tgt_ids, dtype=np.int64))
    if tgt.shape[1] < 2:
        raise ValueError(f"caption_nll: target must have >= 2 tokens, got {tgt.shape[1]}")
    if tgt.shape[0] != sentence_reps.rows:
        raise ShapeError(f"caption_nll: {tgt.shape[0]} targets for {sentence_reps.rows} reps")
    h, c = init_state(params, sentence_reps)
    xs = ad.select_rows(embeddings, tgt[:, :-1].T.reshape(-1))
    states = run_lanes(params.cell, project_inputs(params.cell, xs), h, c)
    targets = tgt[:, 1:].T.reshape(-1)
    return cross_entropy_rows(states, params.out_w, params.out_b, targets, targets != PAD)
