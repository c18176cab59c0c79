"""Finite-difference verification suite across all ops and objectives.

Each check compares an analytic backward against central differences at
small dimensions (d_cell=4, d_a=3, n_a=2, d_e=4, d_img=5, B=3, T<=5) and
reports the max relative error.

Primitive and composite ops are checked entrywise at 10 random points.
The three full objectives are checked per tensor with directional central
differences (one seeded random direction plus the gradient direction):
a whole-objective loss is large enough that entries whose true gradient
is ~1e-8 sit below what double-precision differencing can resolve, while
a directional derivative keeps the comparison well conditioned without
weakening what is verified. All model-level checks run at a generic
point (small random perturbation of every tensor) so structured zeros
from the crafted initialization cannot park the check on a kink of the
epsilon-guarded normalizations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Matrix, Tape, grad_check
from .data import Corpus, CaptionRecord, build_vocab, make_batches, numericalize
from .decoder import caption_nll
from .encoder import attend, encode_sentence, lstm_step
from .grounding import grounding_loss, ranking_loss
from .training import TrainConfig, composite_loss, init_params

TOLERANCE = 1e-4
POINTS_PER_OP = 10


@dataclass
class CheckResult:
    name: str
    max_rel_error: float

    @property
    def passed(self) -> bool:
        return self.max_rel_error < TOLERANCE


def _readout(rng, shape):
    return Matrix(rng.standard_normal(shape))


def _away_from_zero(rng, shape, margin=0.2):
    x = rng.standard_normal(shape)
    return x + np.sign(x) * margin


def _primitive_checks() -> list[tuple[str, callable]]:
    """(name, build) pairs; build(rng) -> (scalar function, perturbed tensor)."""

    def matmul_a(rng):
        a = Matrix(rng.standard_normal((3, 4)))
        b = Matrix(rng.standard_normal((4, 2)))
        w = _readout(rng, (3, 2))
        return lambda t: ad.sum_all(ad.mul(w, ad.matmul(t, b))), a

    def matmul_b(rng):
        a = Matrix(rng.standard_normal((3, 4)))
        b = Matrix(rng.standard_normal((4, 2)))
        w = _readout(rng, (3, 2))
        return lambda t: ad.sum_all(ad.mul(w, ad.matmul(a, t))), b

    def unary(op, keep_off_kink=False):
        def build(rng):
            data = _away_from_zero(rng, (2, 3)) if keep_off_kink else rng.standard_normal((2, 3))
            x = Matrix(data)
            w = _readout(rng, (2, 3))
            return lambda t: ad.sum_all(ad.mul(w, op(t))), x

        return build

    def binary(op):
        def build(rng):
            a = Matrix(rng.standard_normal((3, 2)))
            b = Matrix(rng.standard_normal((3, 2)) + 0.01)
            w = _readout(rng, (3, 2))
            return lambda t: ad.sum_all(ad.mul(w, op(t, b))), a

        return build

    def softmax(rng):
        x = Matrix(rng.standard_normal((2, 5)))
        w = _readout(rng, (2, 5))
        return lambda t: ad.sum_all(ad.mul(w, ad.softmax_rows(t))), x

    def reduce_max(rng):
        base = rng.permutation(12).reshape(3, 4).astype(float)
        x = Matrix(base + 0.1 * rng.standard_normal((3, 4)))
        w = _readout(rng, (1, 4))
        return lambda t: ad.sum_all(ad.mul(w, ad.reduce_max_rows(t))), x

    def concat(rng):
        a = Matrix(rng.standard_normal((1, 3)))
        b = Matrix(rng.standard_normal((1, 2)))
        w = _readout(rng, (1, 5))
        return lambda t: ad.sum_all(ad.mul(w, ad.concat_rows(t, b))), a

    def transpose(rng):
        x = Matrix(rng.standard_normal((2, 4)))
        w = _readout(rng, (4, 2))
        return lambda t: ad.sum_all(ad.mul(w, ad.transpose(t))), x

    def stack(rng):
        x = Matrix(rng.standard_normal((1, 3)))
        y = Matrix(rng.standard_normal((1, 3)))
        w = _readout(rng, (2, 3))
        return lambda t: ad.sum_all(ad.mul(w, ad.stack_rows([t, y]))), x

    def select(rng):
        m = Matrix(rng.standard_normal((5, 3)))
        w = _readout(rng, (3, 3))
        return lambda t: ad.sum_all(ad.mul(w, ad.select_rows(t, [0, 2, 2]))), m

    def rowvec(rng):
        m = Matrix(rng.standard_normal((3, 4)))
        v = Matrix(rng.standard_normal((1, 4)))
        w = _readout(rng, (3, 4))
        return lambda t: ad.sum_all(ad.mul(w, ad.add_rowvec(m, t))), v

    def normalize(rng):
        x = Matrix(_away_from_zero(rng, (3, 4)))
        w = _readout(rng, (3, 4))
        return lambda t: ad.sum_all(ad.mul(w, ad.normalize_rows(t))), x

    def scale_op(rng):
        x = Matrix(rng.standard_normal((2, 3)))
        return lambda t: ad.sum_all(ad.scale(t, 1.7)), x

    return [
        ("matmul/a", matmul_a),
        ("matmul/b", matmul_b),
        ("tanh", unary(ad.tanh)),
        ("relu", unary(ad.relu, keep_off_kink=True)),
        ("add", binary(ad.add)),
        ("mul", binary(ad.mul)),
        ("max2", binary(ad.max2)),
        ("scale", scale_op),
        ("softmax_rows", softmax),
        ("reduce_max_rows", reduce_max),
        ("concat_rows", concat),
        ("transpose", transpose),
        ("stack_rows", stack),
        ("select_rows", select),
        ("add_rowvec", rowvec),
        ("normalize_rows", normalize),
    ]


def _short_corpus(seed: int, d_img: int) -> Corpus:
    """Six records of 1..3 content tokens, so wrapped sequences stay at T <= 5."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 31]))
    tokens = ["vis00", "obj00", "obj01", "obj02", "obj03", "obj04"]
    records = []
    for i in range(6):
        k = int(rng.integers(1, 4))
        words = list(rng.choice(tokens, size=k, replace=False))
        img = rng.standard_normal(d_img)
        img /= np.linalg.norm(img)
        text = " ".join(words)
        records.append(CaptionRecord(id=f"grad{i}", src=text, tgt=text, img=img))
    return Corpus(d_img=d_img, records=records)


def _directional_error(f, theta: Matrix, direction: np.ndarray, eps: float = 1e-5) -> float:
    """Central-difference check of f along one direction in theta."""
    theta.grad = None
    with Tape() as tape:
        out = f()
        tape.backward(out)
    analytic = 0.0 if theta.grad is None else float((theta.grad * direction).sum())
    original = theta.data.copy()
    theta.data = original + eps * direction
    fp = f().item()
    theta.data = original - eps * direction
    fm = f().item()
    theta.data = original
    numeric = (fp - fm) / (2.0 * eps)
    return abs(analytic - numeric) / max(1e-12, abs(analytic) + abs(numeric))


def _model_checks(seed: int) -> list[CheckResult]:
    """Composite ops and the three full objectives at tiny dimensions."""
    config = TrainConfig(objective="cap2all", d_cell=4, d_a=3, n_a=2, d_e=4,
                         d_img=5, batch_size=3, epochs=1, seed=seed)
    corpus = _short_corpus(seed, config.d_img)
    vocab = build_vocab(corpus, 1)
    samples = numericalize(corpus, vocab)
    batch = make_batches(samples, config.batch_size, seed=seed)[0]
    params = init_params(config, vocab.size)
    rng = np.random.default_rng(seed + 1000)
    for tensor in params.named().values():  # generic point, off kinks
        tensor.data += rng.uniform(-0.05, 0.05, size=tensor.data.shape)

    results = []

    def chain3(_):
        cell = params.encoder.forward_cell
        h = Matrix(np.zeros((1, config.d_cell)))
        c = Matrix(np.zeros((1, config.d_cell)))
        for t in range(3):
            h, c = lstm_step(cell, Matrix(xs[t : t + 1]), h, c)
        return ad.sum_all(ad.mul(readout_h, h))

    xs = rng.standard_normal((3, config.d_e))
    readout_h = _readout(rng, (1, config.d_cell))
    worst = max(
        grad_check(chain3, theta)
        for theta in (params.encoder.forward_cell.input_w,
                      params.encoder.forward_cell.recur_w,
                      params.encoder.forward_cell.bias)
    )
    results.append(CheckResult("lstm_step/3-chain", worst))

    H = Matrix(rng.standard_normal((config.d_cell, 5)))
    readout_ctx = _readout(rng, (config.n_a, config.d_cell))

    def attend_fn(_):
        out = attend(params.encoder.attn_proj, params.encoder.attn_heads, H)
        return ad.sum_all(ad.mul(readout_ctx, out.contexts))

    worst = max(grad_check(attend_fn, theta)
                for theta in (params.encoder.attn_proj, params.encoder.attn_heads, H))
    results.append(CheckResult("attend", worst))

    seq = samples[0].src
    readout_rep = _readout(rng, (1, 2 * config.d_cell))

    def pipeline(_):
        rep, _ = encode_sentence(params.encoder, params.embeddings, seq)
        return ad.sum_all(ad.mul(readout_rep, rep.combined))

    worst = max(grad_check(pipeline, theta)
                for theta in (params.embeddings, params.encoder.forward_cell.recur_w,
                              params.encoder.backward_cell.input_w,
                              params.encoder.attn_proj, params.encoder.attn_heads))
    results.append(CheckResult("encode_sentence", worst))

    rep_fixed = Matrix(rng.standard_normal((1, 2 * config.d_cell)))
    tgt = samples[1].tgt

    def nll_fn(_):
        return caption_nll(params.decoder, params.embeddings, rep_fixed, tgt)

    worst = max(grad_check(nll_fn, theta)
                for theta in (params.decoder.init_h_proj, params.decoder.cell.recur_w,
                              params.decoder.out_w, params.decoder.out_b, rep_fixed))
    results.append(CheckResult("caption_nll", worst))

    preds = Matrix(rng.standard_normal((3, config.d_img)))
    targets = Matrix(rng.standard_normal((3, config.d_img)))
    worst = max(grad_check(lambda t: ranking_loss(preds, targets), theta)
                for theta in (preds, targets))
    results.append(CheckResult("ranking_loss", worst))

    reps3 = Matrix(rng.standard_normal((3, 2 * config.d_cell)))
    images3 = rng.standard_normal((3, config.d_img))

    def ground_fn(_):
        return grounding_loss(reps3, images3, params.projection)

    worst = max(grad_check(ground_fn, theta)
                for theta in (reps3, params.projection.weights[0], params.projection.weights[3]))
    results.append(CheckResult("grounding_loss", worst))

    for objective in ("cap2cap", "cap2img", "cap2all"):
        def objective_fn(o=objective):
            loss, _, _ = composite_loss(o, batch, params, train_mode=False)
            return loss

        drng = np.random.default_rng(seed + 2000)
        worst = 0.0
        for theta in params.named().values():
            random_dir = drng.standard_normal(theta.data.shape)
            random_dir /= np.linalg.norm(random_dir)
            worst = max(worst, _directional_error(objective_fn, theta, random_dir))
            theta.grad = None
            with Tape() as tape:
                tape.backward(objective_fn())
            if theta.grad is not None and np.linalg.norm(theta.grad) > 0:
                grad_dir = theta.grad / np.linalg.norm(theta.grad)
                worst = max(worst, _directional_error(objective_fn, theta, grad_dir))
        results.append(CheckResult(f"objective/{objective}", worst))

    return results


def run_suite(seed: int = 0) -> list[CheckResult]:
    """Run every check; a result passes when its error is below 1e-4."""
    results = []
    for name, build in _primitive_checks():
        worst = 0.0
        for point in range(POINTS_PER_OP):
            f, theta = build(np.random.default_rng(seed * 1000 + point))
            worst = max(worst, grad_check(f, theta))
        results.append(CheckResult(name, worst))
    results.extend(_model_checks(seed))
    return results
