"""Bidirectional LSTM encoder with multi-head self-attention.

Per-timestep states from the two directions are fused elementwise with max,
giving a (d_cell, T) state matrix. Attention scores each timestep from the
state matrix itself, yielding n_a head distributions whose context vectors
are max-pooled into the attended summary. The final sentence vector is
concat(attended, recurrent).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Matrix, ShapeError


@dataclass
class LstmCellParams:
    """Fused-gate LSTM cell weights: input_w (d_in, 4d), recur_w (d, 4d), bias (1, 4d)."""

    input_w: Matrix
    recur_w: Matrix
    bias: Matrix

    @property
    def hidden_dim(self) -> int:
        return self.recur_w.rows


@dataclass
class EncoderParams:
    forward_cell: LstmCellParams
    backward_cell: LstmCellParams
    attn_proj: Matrix   # (d_a, d_cell)
    attn_heads: Matrix  # (n_a, d_a)


@dataclass
class AttentionOutput:
    weights: Matrix   # (n_a, T), rows are distributions over timesteps
    contexts: Matrix  # (n_a, d_cell), row i = attention-weighted state sum


@dataclass
class SentenceRepresentation:
    attended: Matrix   # (1, d_cell)
    recurrent: Matrix  # (1, d_cell)
    combined: Matrix   # (1, 2*d_cell) = concat(attended, recurrent)


def lstm_step(cell: LstmCellParams, x: Matrix, h_prev: Matrix, c_prev: Matrix):
    """One LSTM step on row-vector states; returns (h, c).

    Fused op with an analytic backward (verified against finite differences
    in the test suite). Rows beyond 1 act as independent lanes.
    """
    d = cell.hidden_dim
    if x.cols != cell.input_w.rows or h_prev.cols != d or c_prev.cols != d:
        raise ShapeError(
            f"lstm_step: x {x.shape}, h {h_prev.shape}, c {c_prev.shape} "
            f"vs input_w {cell.input_w.shape}, recur_w {cell.recur_w.shape}"
        )
    pre = x.data @ cell.input_w.data + h_prev.data @ cell.recur_w.data + cell.bias.data
    gates = ad.sigmoid(pre)
    i, f, o = gates[:, :d], gates[:, d : 2 * d], gates[:, 3 * d :]
    g = np.tanh(pre[:, 2 * d : 3 * d])
    c_new = f * c_prev.data + i * g
    tc = np.tanh(c_new)
    h_new = o * tc

    h_out = Matrix._wrap(h_new)
    c_out = Matrix._wrap(c_new)

    def backward():
        dh = h_out.grad
        dc = c_out.grad
        if dh is None:
            dh = np.zeros_like(h_new)
        dc_total = dh * o * (1.0 - tc * tc)
        if dc is not None:
            dc_total = dc_total + dc
        dpre = np.empty_like(pre)
        dpre[:, :d] = dc_total * g * i * (1.0 - i)
        dpre[:, d : 2 * d] = dc_total * c_prev.data * f * (1.0 - f)
        dpre[:, 2 * d : 3 * d] = dc_total * i * (1.0 - g * g)
        dpre[:, 3 * d :] = dh * tc * o * (1.0 - o)
        x.accumulate(dpre @ cell.input_w.data.T)
        h_prev.accumulate(dpre @ cell.recur_w.data.T)
        c_prev.accumulate(dc_total * f)
        cell.input_w.accumulate(x.data.T @ dpre)
        cell.recur_w.accumulate(h_prev.data.T @ dpre)
        cell.bias.accumulate(dpre.sum(axis=0, keepdims=True))

    ad.record("lstm_step", (x, h_prev, c_prev, cell.input_w, cell.recur_w, cell.bias),
              (h_out, c_out), backward)
    return h_out, c_out


def _run_direction(cell: LstmCellParams, xs: list[Matrix], reverse: bool) -> list[Matrix]:
    d = cell.hidden_dim
    h = Matrix._wrap(np.zeros((1, d)))
    c = Matrix._wrap(np.zeros((1, d)))
    states: list[Matrix | None] = [None] * len(xs)
    order = reversed(range(len(xs))) if reverse else range(len(xs))
    for t in order:
        h, c = lstm_step(cell, xs[t], h, c)
        states[t] = h
    return states


def encode(params: EncoderParams, embeddings: Matrix, token_ids) -> tuple[Matrix, Matrix]:
    """Run both directions over the embedded tokens.

    Returns the fused (d_cell, T) state matrix, whose column t is
    max(fwd_t, bwd_t), plus the recurrent summary
    h_s = max(final forward state, final backward state). Only real tokens
    are passed in, so no state column ever corresponds to padding.
    """
    ids = np.asarray(token_ids, dtype=np.int64)
    if ids.size == 0:
        raise ValueError("encode: empty token sequence")
    xs = [ad.select_rows(embeddings, [int(i)]) for i in ids]
    fwd = _run_direction(params.forward_cell, xs, reverse=False)
    bwd = _run_direction(params.backward_cell, xs, reverse=True)
    fused = [ad.max2(f, b) for f, b in zip(fwd, bwd)]
    states = ad.transpose(ad.stack_rows(fused))
    h_s = ad.max2(fwd[-1], bwd[0])
    return states, h_s


def attend(attn_proj: Matrix, attn_heads: Matrix, states: Matrix) -> AttentionOutput:
    """weights = softmax_rows(attn_heads @ tanh(attn_proj @ states)); contexts = weights @ states.T"""
    scores = ad.matmul(attn_heads, ad.tanh(ad.matmul(attn_proj, states)))
    weights = ad.softmax_rows(scores)
    contexts = ad.matmul(weights, ad.transpose(states))
    return AttentionOutput(weights=weights, contexts=contexts)


def compose(attn: AttentionOutput, h_s: Matrix) -> SentenceRepresentation:
    """Max-pool the context vectors and concatenate with the recurrent summary."""
    h_a = ad.reduce_max_rows(attn.contexts)
    return SentenceRepresentation(attended=h_a, recurrent=h_s,
                                  combined=ad.concat_rows(h_a, h_s))


def encode_sentence(params: EncoderParams, embeddings: Matrix, token_ids):
    """Full pipeline: encode -> attend -> compose. Returns (representation, attention)."""
    states, h_s = encode(params, embeddings, token_ids)
    attn = attend(params.attn_proj, params.attn_heads, states)
    return compose(attn, h_s), attn
