"""Plain-numpy reference forward of the cap2all model, one sentence at a time.

It reads parameters by their checkpoint names (`ModelParameters.named()`)
and shares no code with groundsent's autodiff, encoder or decoder, so the
benchmark can check the program's losses, gradients and representations
against it after any rewrite of those paths.
"""

from __future__ import annotations

import numpy as np

EXP_CLAMP = 30.0  # grounding.EXP_CLAMP
NORM_EPS = 1e-8   # autodiff.NORM_EPS


def _sigmoid(z):
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def _softmax_rows(z):
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _lstm(P, prefix, xs, h, c, reverse=False):
    """Run one LSTM over the rows of xs; returns the (T, d) hidden states and the final (h, c)."""
    wi, wr, b = P[prefix + "input_w"], P[prefix + "recur_w"], P[prefix + "bias"][0]
    d = wr.shape[0]
    out = np.empty((xs.shape[0], d))
    order = range(xs.shape[0] - 1, -1, -1) if reverse else range(xs.shape[0])
    for t in order:
        pre = xs[t] @ wi + h @ wr + b
        i, f = _sigmoid(pre[:d]), _sigmoid(pre[d:2 * d])
        g, o = np.tanh(pre[2 * d:3 * d]), _sigmoid(pre[3 * d:])
        c = f * c + i * g
        h = o * np.tanh(c)
        out[t] = h
    return out, h, c


def encode(P, ids):
    """Sentence representation (2*d_cell,) and attention weights (n_a, T) for one id sequence."""
    xs = P["embeddings"][np.asarray(ids)]
    d = P["enc_fwd_recur_w"].shape[0]
    zero = np.zeros(d)
    fwd, _, _ = _lstm(P, "enc_fwd_", xs, zero, zero)
    bwd, _, _ = _lstm(P, "enc_bwd_", xs, zero, zero, reverse=True)
    states = np.maximum(fwd, bwd)  # (T, d)
    weights = _softmax_rows(P["attn_heads"] @ np.tanh(P["attn_proj"] @ states.T))
    attended = (weights @ states).max(axis=0)
    return np.concatenate([attended, np.maximum(fwd[-1], bwd[0])]), weights


def caption_nll(P, rep, tgt):
    """Teacher-forced NLL of a BOS..EOS target, summed over steps."""
    h = np.tanh(P["dec_init_h"] @ rep)
    c = np.tanh(P["dec_init_c"] @ rep)
    hs, _, _ = _lstm(P, "dec_", P["embeddings"][np.asarray(tgt[:-1])], h, c)
    logits = hs @ P["dec_out_w"].T + P["dec_out_b"]
    shifted = logits - logits.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    return -logp[np.arange(len(tgt) - 1), np.asarray(tgt[1:])].sum()


def project(P, reps):
    """Eval-mode (no dropout) projection of (n, 2*d_cell) representations."""
    out = reps
    for layer in range(1, 5):
        out = out @ P[f"proj_w{layer}"] + P[f"proj_b{layer}"]
        if layer < 4:
            out = np.maximum(out, 0.0)
    return out


def _unit_rows(x):
    return x / np.maximum(np.sqrt((x * x).sum(axis=1, keepdims=True)), NORM_EPS)


def ranking_loss(predicted, images):
    s = _unit_rows(predicted) @ _unit_rows(images).T
    pos = np.diag(s)
    off = ~np.eye(s.shape[0], dtype=bool)
    e1 = np.exp(np.minimum(s - pos[:, None], EXP_CLAMP)) * off
    e2 = np.exp(np.minimum(s - pos[None, :], EXP_CLAMP)) * off
    return np.log1p(e1.sum() + e2.sum())


def cap2all_loss(P, srcs, tgts, images):
    """Mean caption NLL over the batch plus the grounding ranking loss, with dropout off."""
    reps = [encode(P, s)[0] for s in srcs]
    nll = sum(caption_nll(P, r, t) for r, t in zip(reps, tgts)) / len(srcs)
    return nll + ranking_loss(project(P, np.vstack(reps)), images)
