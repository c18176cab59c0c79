"""Conditional LSTM language model over the target captions, run over B lanes at once.

The sentence representation enters only through the initial-state
projections; each step is then teacher-forced on the previous gold token.
Lane layout as in the encoder: the (B, L) targets, right-padded with PAD,
are read time-major, so row t*B + b of the step inputs, states and logits
is step t of lane b. All input rows are projected by one matmul, the
recurrence runs as one fused op (`encoder.run_lanes`) from the projected
initial state, and all states reach the vocabulary through one fused
logits-and-NLL op (`cross_entropy_rows`). Steps whose target is PAD are
masked out of the loss, so padding adds nothing to it and gets no gradient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Matrix, ShapeError
from .data import PAD
from .encoder import LstmCellParams, project_inputs, run_lanes


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

    The vocabulary head as one op. Forward fills one (rows, V) buffer in place
    with the logits, then their max-shifted values, then the softmax; backward
    turns it in place into g * (softmax - onehot), zero on dropped rows, and
    accumulates that into states, out_w and out_b.
    """
    z = states.data @ out_w.data.T
    z += out_b.data
    z -= z.max(axis=1, keepdims=True)
    logsumexp = np.log(np.exp(z).sum(axis=1, keepdims=True))
    rows = np.arange(z.shape[0])
    out = Matrix._wrap(np.array([[(logsumexp[:, 0] - z[rows, targets])[keep].sum()]]))
    z -= logsumexp
    soft = np.exp(z, out=z)

    def backward():
        g = soft  # becomes the logits gradient, in place
        g[rows, targets] -= 1.0
        g[~keep] = 0.0
        g *= out.grad[0, 0]
        states.accumulate(g @ out_w.data)
        out_w.accumulate(g.T @ states.data)
        out_b.accumulate(g.sum(axis=0, keepdims=True))

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
