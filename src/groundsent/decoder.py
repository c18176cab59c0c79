"""Conditional LSTM language model over the target captions, run over B lanes at once.

The sentence representation enters only through the initial-state
projections; each step is then teacher-forced on the previous gold token.
Lane layout as in the encoder: the (B, L) targets, right-padded with PAD,
are read time-major, so row t*B + b of the step inputs, states and logits
is step t of lane b. One `encoder.run_lanes` call projects the step inputs
and runs the recurrence from the projected initial state; the states reach
the vocabulary through one fused logits-and-NLL op (`cross_entropy_rows`).
Steps whose target is PAD are dropped before the head, so padding adds
nothing to the loss and gets no gradient. The head forms its gradients in the
forward, over tiles of the vocabulary that each worker owns a group of
(`parallel.run`), so neither a (rows, V) array nor a per-worker (V, d) one is made.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import parallel
from .autodiff import Matrix, ShapeError
from .data import PAD
from .encoder import LstmCellParams, run_lanes

# Bytes of a head tile's (rows, words) logits: 1,236 words at 212 kept rows, 17 tiles of V =
# 20,000, where one call peaked at 10.3 and 10.7 MiB traced on 1 and 2 workers; 1 and 4 MB
# tiles timed alike, 512 KB and less slower on 2 workers.
HEAD_TILE_BYTES = 1 << 21


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

    The vocabulary head as one op over the kept rows, in tiles of
    HEAD_TILE_BYTES // (8 rows) words, each worker owning a contiguous group
    of them (`parallel.run`). Pass 1 takes a tile's target logits, row max and
    row sums of exp(logits - max), joined in tile order into the log
    normalizer lse (Milakov & Gimelshein, arXiv:1805.02867). Pass 2 recomputes
    the logits as [h, 1, -lse] @ [w, b, 1].T, so their exp is the softmax, and
    writes the tile's rows of the unscaled out_w and out_b gradients and its
    part of the states gradient, added in tile order. The loss is linear in
    out.grad, so backward only scales and accumulates them. Tiles depend on V
    and the row count, not the worker count. Dropped rows get an exactly zero
    gradient; a kept target outside [0, V) raises ShapeError.
    """
    kept = np.flatnonzero(keep)
    h, t, w, b = states.data[kept], targets[kept], out_w.data, out_b.data[0]
    (v, d), rows = w.shape, kept.size
    bad = np.flatnonzero((t < 0) | (t >= v))
    if bad.size:
        raise ShapeError(f"cross_entropy_rows: row {kept[bad[0]]}'s target {t[bad[0]]} "
                         f"is not in [0, {v})")
    width = max(1, min(v, HEAD_TILE_BYTES // (8 * max(1, rows))))
    starts = range(0, v, width)
    n = min(parallel.WORKERS, len(starts))
    groups = [starts[len(starts) * i // n : len(starts) * (i + 1) // n] for i in range(n)]
    tile_of, target_z = t // width, np.empty(rows)
    peaks, sums = np.empty((2, len(starts), rows))
    ha = np.hstack([h, np.ones((rows, 1)), np.zeros((rows, 1))])  # [h, 1, -lse] in pass 2

    def tiles(group):  # (tile index, its words, its target rows, its logits) in tile order
        z_buf, wa = np.empty(rows * width), np.ones((width, d + 2))
        for a in group:
            k, cols, wt = a // width, slice(a, a + width), wa[: min(v, a + width) - a]
            wt[:, :d], wt[:, d] = w[cols], b[cols]
            z = np.matmul(ha, wt.T, out=z_buf[: rows * len(wt)].reshape(rows, len(wt)))
            yield k, cols, np.flatnonzero(tile_of == k), z

    def normalizers(group):
        for k, cols, hit, z in tiles(group):
            target_z[hit] = z[hit, t[hit] - cols.start]
            peaks[k] = z.max(axis=1)
            z -= peaks[k][:, None]
            sums[k] = np.exp(z, out=z).sum(axis=1)

    def gradients(group):
        for k, cols, hit, z in tiles(group):
            np.exp(z, out=z)
            z[hit, t[hit] - cols.start] -= 1.0
            np.matmul(z.T, ha[:, : d + 1], out=g_wb[cols])
            np.matmul(z, w[cols], out=parts[k])

    parallel.run(normalizers, groups)
    top = peaks.max(axis=0)
    lse = top + np.log((sums * np.exp(peaks - top)).sum(axis=0))
    out = Matrix([[float((lse - target_z).sum())]])
    ha[:, d + 1] = -lse
    g_wb, parts = np.empty((v, d + 1)), np.empty((len(starts), rows, d))
    parallel.run(gradients, groups)

    def backward():
        s = out.grad[0, 0]
        g_states = np.zeros_like(states.data)
        g_states[kept] = parts.sum(axis=0) * s  # the parts in tile order
        states.accumulate(g_states)
        np.multiply(g_wb, s, out=g_wb)
        out_w.accumulate(g_wb[:, :d])
        out_b.accumulate(g_wb[None, :, d])

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
    states = run_lanes(params.cell, xs, h, c)
    targets = tgt[:, 1:].T.reshape(-1)
    return cross_entropy_rows(states, params.out_w, params.out_b, targets, targets != PAD)
