"""Projection into image-feature space and the visual-grounding ranking loss.

The loss takes one global log over the batch's full double sum of
exp(negative sim - positive sim) terms, with both corruption directions
(wrong image for a sentence, wrong sentence for an image) supplying
2*(B-1) negatives per positive pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Matrix

# exp() arguments are clamped here for stability; inactive near convergence
# where negative-minus-positive gaps are non-positive.
EXP_CLAMP = 30.0


@dataclass
class ProjectionParams:
    """Four affine layers, ReLU + dropout after the first three."""

    weights: list[Matrix]  # [(2d_cell,d_p), (d_p,d_p), (d_p,d_p), (d_p,d_img)]
    biases: list[Matrix]
    dropout_p: float = 0.3

    def __post_init__(self):
        if len(self.weights) != 4 or len(self.biases) != 4:
            raise ValueError("projection head must have exactly 4 layers")


def project(params: ProjectionParams, reps: Matrix, train_mode: bool = False,
            rng: np.random.Generator | None = None) -> Matrix:
    """Map sentence representations (n, 2*d_cell) to image space (n, d_img).

    Dropout (inverted, scale 1/(1-p)) is applied after each hidden ReLU only
    in train_mode; eval calls are deterministic.
    """
    if train_mode and params.dropout_p > 0.0 and rng is None:
        raise ValueError("train_mode projection needs an rng for dropout")
    out = reps
    for layer, (w, b) in enumerate(zip(params.weights, params.biases)):
        out = ad.add_rowvec(ad.matmul(out, w), b)
        if layer < 3:
            out = ad.relu(out)
            if train_mode and params.dropout_p > 0.0:
                keep = rng.random(out.shape) >= params.dropout_p
                mask = Matrix._wrap(keep / (1.0 - params.dropout_p))
                out = ad.mul(out, mask)
    return out


def cosine_matrix(a: Matrix, b: Matrix) -> Matrix:
    """(n, m) cosine similarities, [k, j] = cos(a_k, b_j).

    Row norms are epsilon-guarded (autodiff.NORM_EPS), so a zero row scores
    exactly 0 against every row and its gradient stays finite.
    """
    return ad.matmul(ad.normalize_rows(a), ad.transpose(ad.normalize_rows(b)))


def _log_exp_sum_rank(sims: Matrix) -> Matrix:
    """log(1 + sum of exp(neg - pos)) over all in-batch pairs of a (B, B) sim matrix.

    sims[k, j] = sim(predicted_k, target_j); diagonal entries are the
    positives. Fused op with analytic backward.
    """
    s = sims.data
    b = s.shape[0]
    pos = np.diag(s).copy()
    z1 = s - pos[:, None]  # corrupt-image negatives:   sim(pred_k, tgt_j) - pos_k
    z2 = s - pos[None, :]  # corrupt-sentence negatives: sim(pred_j, tgt_k) - pos_k
    live1 = z1 < EXP_CLAMP
    live2 = z2 < EXP_CLAMP
    e1 = np.exp(np.minimum(z1, EXP_CLAMP))
    e2 = np.exp(np.minimum(z2, EXP_CLAMP))
    off = ~np.eye(b, dtype=bool)
    e1 *= off
    e2 *= off
    total = e1.sum() + e2.sum()
    out = Matrix._wrap(np.array([[np.log1p(total)]]))

    def backward():
        coef = out.grad[0, 0] / (1.0 + total)
        m1 = e1 * live1
        m2 = e2 * live2
        gs = m1 + m2
        diag = np.arange(b)
        gs[diag, diag] -= m1.sum(axis=1) + m2.sum(axis=0)
        sims.accumulate(coef * gs)

    ad.record("log_exp_sum_rank", (sims,), (out,), backward)
    return out


def ranking_loss(predicted: Matrix, targets: Matrix) -> Matrix:
    """Visual-grounding loss over matched rows of predicted and target features.

    Cosine similarity throughout, so the loss is invariant to positive
    rescaling of any feature row.
    """
    if predicted.rows != targets.rows or predicted.cols != targets.cols:
        raise ValueError(
            f"ranking_loss: feature shapes differ, {predicted.shape} vs {targets.shape}"
        )
    if predicted.rows < 2:
        raise ValueError("ranking_loss needs a batch of >= 2 pairs for negatives")
    return _log_exp_sum_rank(cosine_matrix(predicted, targets))


def grounding_loss(sentence_reps: Matrix, image_targets: np.ndarray, params: ProjectionParams,
                   train_mode: bool = False, rng: np.random.Generator | None = None) -> Matrix:
    """Project a batch of sentence representations and rank them against the images."""
    predicted = project(params, sentence_reps, train_mode=train_mode, rng=rng)
    return ranking_loss(predicted, Matrix(np.asarray(image_targets, dtype=np.float64)))
