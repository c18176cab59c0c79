"""Projection head and ranking-loss tests, including the brute-force oracle."""

import numpy as np
import pytest

from groundsent import autodiff as ad
from groundsent.autodiff import Matrix, Tape, grad_check
from groundsent.grounding import (
    ProjectionParams, _log_exp_sum_rank, cosine_matrix, grounding_loss, project, ranking_loss,
)


def make_projection(d_in, d_p, d_img, rng, zero=False, dropout_p=0.3):
    dims = [(d_in, d_p), (d_p, d_p), (d_p, d_p), (d_p, d_img)]
    scale = 0.0 if zero else 0.5
    return ProjectionParams(
        weights=[Matrix(scale * rng.standard_normal(shape)) for shape in dims],
        biases=[Matrix(np.zeros((1, shape[1]))) for shape in dims],
        dropout_p=dropout_p,
    )


def brute_force_rank_loss(pred: np.ndarray, tgt: np.ndarray) -> float:
    """Independent pair enumeration of the grounding loss."""

    def cos(a, b):
        return float(a @ b) / (np.linalg.norm(a) * np.linalg.norm(b))

    total = 0.0
    for k in range(pred.shape[0]):
        pos = cos(pred[k], tgt[k])
        for j in range(pred.shape[0]):
            if j == k:
                continue
            total += np.exp(cos(pred[k], tgt[j]) - pos)
            total += np.exp(cos(pred[j], tgt[k]) - pos)
    return float(np.log1p(total))


# ---------------------------------------------------------------------------
# project


def test_project_zero_weights_gives_zero():
    rng = np.random.default_rng(0)
    proj = make_projection(8, 5, 4, rng, zero=True)
    out = project(proj, Matrix(rng.standard_normal((3, 8))))
    np.testing.assert_array_equal(out.data, np.zeros((3, 4)))


def test_project_eval_mode_deterministic():
    rng = np.random.default_rng(1)
    proj = make_projection(8, 5, 4, rng)
    reps = Matrix(rng.standard_normal((2, 8)))
    a = project(proj, reps).data
    b = project(proj, reps).data
    np.testing.assert_array_equal(a, b)


def test_project_train_mode_requires_rng():
    rng = np.random.default_rng(2)
    proj = make_projection(8, 5, 4, rng)
    with pytest.raises(ValueError):
        project(proj, Matrix(rng.standard_normal((2, 8))), train_mode=True)


def test_project_dropout_perturbs_output():
    rng = np.random.default_rng(3)
    proj = make_projection(8, 5, 4, rng)
    reps = Matrix(rng.standard_normal((2, 8)))
    eval_out = project(proj, reps).data
    train_out = project(proj, reps, train_mode=True, rng=np.random.default_rng(0)).data
    assert not np.allclose(eval_out, train_out)


def test_project_exactly_four_layers_enforced():
    rng = np.random.default_rng(4)
    with pytest.raises(ValueError):
        ProjectionParams(weights=[Matrix(rng.standard_normal((2, 2)))] * 3,
                         biases=[Matrix(np.zeros((1, 2)))] * 3)


def test_project_gradient_check_eval_mode():
    rng = np.random.default_rng(5)
    proj = make_projection(6, 4, 3, rng)
    reps = Matrix(rng.standard_normal((2, 6)))
    readout = Matrix(rng.standard_normal((2, 3)))

    def run(_):
        return ad.sum_all(ad.mul(readout, project(proj, reps)))

    for theta in (proj.weights[0], proj.weights[3], proj.biases[1], reps):
        assert grad_check(run, theta) < 1e-4


# ---------------------------------------------------------------------------
# cosine similarity


def test_cosine_matrix_self_orthogonal_and_zero_rows():
    a = Matrix([[0.3, -1.2, 2.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    b = Matrix([[0.3, -1.2, 2.0], [0.0, 1.0, 0.0]])
    with Tape() as tape:
        sims = cosine_matrix(a, b)
        tape.backward(ad.sum_all(sims))
    assert sims.shape == (3, 2)
    assert sims.data[0, 0] == pytest.approx(1.0)
    assert sims.data[1, 1] == 0.0
    # a zero row is epsilon-guarded: exactly 0 against everything, finite gradient
    np.testing.assert_array_equal(sims.data[2], [0.0, 0.0])
    assert np.all(np.isfinite(a.grad)) and np.all(np.isfinite(b.grad))


# ---------------------------------------------------------------------------
# ranking loss closed forms


def test_equal_similarities_give_log_five():
    u = np.array([[0.6, 0.8], [0.6, 0.8]])
    loss = ranking_loss(Matrix(u), Matrix(u.copy()))
    assert loss.item() == pytest.approx(np.log(5.0), abs=1e-9)


def test_separated_batch_closed_form():
    # positives at sim=1, all four negatives at sim=-1: log(1 + 4 e^-2)
    feats = np.array([[1.0, 0.0], [-1.0, 0.0]])
    loss = ranking_loss(Matrix(feats), Matrix(feats.copy()))
    assert loss.item() == pytest.approx(float(np.log1p(4.0 * np.exp(-2.0))), abs=1e-12)


def test_loss_strictly_positive():
    rng = np.random.default_rng(6)
    for _ in range(5):
        pred = Matrix(rng.standard_normal((3, 4)))
        tgt = Matrix(rng.standard_normal((3, 4)))
        assert ranking_loss(pred, tgt).item() > 0.0


def test_loss_decreases_when_negative_similarity_drops():
    sims = np.array([[1.0, 0.3, -0.2], [0.1, 1.0, 0.0], [0.4, -0.5, 1.0]])
    base = _log_exp_sum_rank(Matrix(sims)).item()
    lowered = sims.copy()
    lowered[0, 1] -= 0.1
    assert _log_exp_sum_rank(Matrix(lowered)).item() < base


def test_rejects_batch_of_one():
    with pytest.raises(ValueError):
        ranking_loss(Matrix([[1.0, 0.0]]), Matrix([[1.0, 0.0]]))


def test_scale_invariance_of_feature_rows():
    rng = np.random.default_rng(7)
    pred = rng.standard_normal((4, 6))
    tgt = rng.standard_normal((4, 6))
    base = ranking_loss(Matrix(pred), Matrix(tgt)).item()
    for lam in (1e-3, 0.5, 7.0, 1e3):
        scaled = tgt.copy()
        scaled[2] *= lam
        assert abs(ranking_loss(Matrix(pred), Matrix(scaled)).item() - base) < 1e-6


def test_batch_permutation_invariance():
    rng = np.random.default_rng(8)
    pred = rng.standard_normal((5, 4))
    tgt = rng.standard_normal((5, 4))
    base = ranking_loss(Matrix(pred), Matrix(tgt)).item()
    perm = rng.permutation(5)
    permuted = ranking_loss(Matrix(pred[perm]), Matrix(tgt[perm])).item()
    assert permuted == pytest.approx(base, abs=1e-12)


def test_brute_force_oracle_equivalence():
    rng = np.random.default_rng(9)
    for trial in range(100):
        b = int(rng.integers(2, 6))
        pred = rng.standard_normal((b, 6))
        tgt = rng.standard_normal((b, 6))
        ours = ranking_loss(Matrix(pred), Matrix(tgt)).item()
        ref = brute_force_rank_loss(pred, tgt)
        assert abs(ours - ref) < 1e-10, f"trial {trial}: {ours} vs {ref}"


def test_ranking_loss_gradient_check():
    rng = np.random.default_rng(10)
    pred = Matrix(rng.standard_normal((4, 5)))
    tgt = Matrix(rng.standard_normal((4, 5)))

    def run(_):
        return ranking_loss(pred, tgt)

    assert grad_check(run, pred) < 1e-4
    assert grad_check(run, tgt) < 1e-4


# ---------------------------------------------------------------------------
# grounding_loss


def test_grounding_loss_full_gradient_check():
    rng = np.random.default_rng(11)
    proj = make_projection(6, 4, 3, rng)
    reps = Matrix(rng.standard_normal((3, 6)))
    images = rng.standard_normal((3, 3))

    def run(_):
        return grounding_loss(reps, images, proj)

    for theta in (reps, proj.weights[0], proj.weights[3], proj.biases[0]):
        assert grad_check(run, theta) < 1e-4


def test_grounding_loss_dropout_gradient_with_fixed_masks():
    # dropout masks are constants on the tape, so a seeded train-mode pass
    # must still differentiate cleanly
    rng = np.random.default_rng(12)
    proj = make_projection(6, 4, 3, rng, dropout_p=0.5)
    reps = Matrix(rng.standard_normal((3, 6)))
    images = rng.standard_normal((3, 3))

    def run(_):
        return grounding_loss(reps, images, proj, train_mode=True,
                              rng=np.random.default_rng(99))

    assert grad_check(run, reps) < 1e-4
