"""Conditional LSTM language model over the target caption.

The sentence representation enters only through the initial-state
projections; each step is then teacher-forced on the previous gold token.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Matrix, ShapeError
from .data import BOS, EOS, PAD
from .encoder import LstmCellParams, lstm_step


@dataclass
class DecoderParams:
    init_h_proj: Matrix  # (d_cell, 2*d_cell)
    init_c_proj: Matrix  # (d_cell, 2*d_cell)
    cell: LstmCellParams
    out_w: Matrix        # (V, d_cell)
    out_b: Matrix        # (1, V)


def init_state(params: DecoderParams, sentence_rep: Matrix) -> tuple[Matrix, Matrix]:
    """h_0 = tanh(P_h . rep), c_0 = tanh(P_c . rep), as row vectors."""
    if sentence_rep.cols != params.init_h_proj.cols:
        raise ShapeError(
            f"init_state: rep {sentence_rep.shape} vs projection {params.init_h_proj.shape}"
        )
    h0 = ad.tanh(ad.matmul(sentence_rep, ad.transpose(params.init_h_proj)))
    c0 = ad.tanh(ad.matmul(sentence_rep, ad.transpose(params.init_c_proj)))
    return h0, c0


def cross_entropy_rows(logits: Matrix, targets: np.ndarray, keep: np.ndarray) -> Matrix:
    """Sum over kept rows of -log softmax(logits)[row, target], as 1x1.

    Fused stable log-softmax + NLL; backward is (softmax - onehot) on kept
    rows and exactly zero elsewhere.
    """
    z = logits.data
    shifted = z - z.max(axis=1, keepdims=True)
    logsumexp = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    logp = shifted - logsumexp
    rows = np.arange(z.shape[0])
    picked = logp[rows, targets]
    out = Matrix._wrap(np.array([[-picked[keep].sum()]]))

    def backward():
        soft = np.exp(logp)
        soft[rows, targets] -= 1.0
        soft[~keep] = 0.0
        logits.accumulate(out.grad[0, 0] * soft)

    ad.record("cross_entropy_rows", (logits,), (out,), backward)
    return out


def caption_nll(params: DecoderParams, embeddings: Matrix, sentence_rep: Matrix,
                tgt_ids, pad_id: int = PAD) -> Matrix:
    """Teacher-forced negative log-likelihood of the target sequence (summed over steps).

    tgt_ids must be BOS...EOS wrapped; step t consumes tgt[t-1] and predicts
    tgt[t]. Steps whose target is PAD are masked out, so trailing padding
    never changes the loss.
    """
    tgt = np.asarray(tgt_ids, dtype=np.int64)
    if tgt.size < 2:
        raise ValueError(f"caption_nll: target must have >= 2 tokens, got {tgt.size}")
    h, c = init_state(params, sentence_rep)
    hs = []
    for t in range(tgt.size - 1):
        x = ad.select_rows(embeddings, [int(tgt[t])])
        h, c = lstm_step(params.cell, x, h, c)
        hs.append(h)
    states = ad.stack_rows(hs)  # (L-1, d_cell)
    logits = ad.add_rowvec(ad.matmul(states, ad.transpose(params.out_w)), params.out_b)
    targets = tgt[1:]
    return cross_entropy_rows(logits, targets, targets != pad_id)


def greedy_decode(params: DecoderParams, embeddings: Matrix, sentence_rep: Matrix,
                  max_len: int) -> list[int]:
    """Argmax decoding from BOS until EOS or max_len emitted tokens."""
    if max_len < 1:
        raise ValueError(f"greedy_decode: max_len must be >= 1, got {max_len}")
    h, c = init_state(params, sentence_rep)
    token = BOS
    out: list[int] = []
    for _ in range(max_len):
        x = ad.select_rows(embeddings, [token])
        h, c = lstm_step(params.cell, x, h, c)
        logits = h.data @ params.out_w.data.T + params.out_b.data
        token = int(np.argmax(logits[0]))
        out.append(token)
        if token == EOS:
            break
    return out
