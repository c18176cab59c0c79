"""Finite-difference verification suite across all ops and objectives.

Each check compares an analytic backward against central differences at
small dimensions (d_cell=4, d_a=3, n_a=2, d_e=4, d_img=5, B=3, T<=5) and
reports the max relative error.

Primitive and composite ops are checked entrywise at 10 random points.
The three full objectives are checked per tensor by the same `grad_check`
along two directions, one seeded random and the gradient's: a
whole-objective loss is large enough that entries whose true gradient is
~1e-8 sit below what double-precision differencing can resolve, while a
directional derivative keeps the comparison well conditioned without
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
from .decoder import caption_nll, cross_entropy_rows
from .encoder import attend, encode_sentence, masked_attention, run_lanes
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

    def check(op, *shapes, wrt=0, draw=None):
        """Check op(*operands), read out by random weights, in operand `wrt`.

        Operands are standard normal of the given shapes; draw(rng, shape),
        when given, draws operand `wrt` instead (to keep it off a kink).
        """
        def build(rng):
            args = [Matrix(rng.standard_normal(shape)) for shape in shapes]
            if draw is not None:
                args[wrt] = Matrix(draw(rng, shapes[wrt]))
            w = _readout(rng, op(*args).shape)

            def f(t):
                operands = [t if k == wrt else a for k, a in enumerate(args)]
                return ad.sum_all(ad.mul(w, op(*operands)))

            return f, args[wrt]

        return build

    def distinct(rng, shape):  # argmax ties would sit on a kink
        return rng.permutation(np.prod(shape)).reshape(shape) + 0.1 * rng.standard_normal(shape)

    lanes = np.array([[True] * 4, [True] * 2 + [False] * 2])  # 2 lanes of 4 and 2 steps

    def head(s, w, b):  # 4 rows over a vocabulary of 5; row 2 is dropped
        return cross_entropy_rows(s, w, b, np.array([1, 4, 0, 1]), np.array([1, 1, 0, 1], bool))

    return [
        ("matmul/a", check(ad.matmul, (3, 4), (4, 2))),
        ("matmul/b", check(ad.matmul, (3, 4), (4, 2), wrt=1)),
        ("tanh", check(ad.tanh, (2, 3))),
        ("relu", check(ad.relu, (2, 3), draw=_away_from_zero)),
        ("add", check(ad.add, (3, 2), (3, 2))),
        ("mul", check(ad.mul, (3, 2), (3, 2))),
        ("max2", check(ad.max2, (3, 2), (3, 2))),
        ("scale", check(lambda x: ad.scale(x, 1.7), (2, 3))),
        ("reduce_max_rows", check(lambda x: ad.reduce_max_rows(x, 2), (6, 2), draw=distinct)),
        ("concat_rows", check(ad.concat_rows, (2, 3), (2, 2))),
        ("transpose", check(ad.transpose, (2, 4))),
        ("select_rows", check(lambda m: ad.select_rows(m, [0, 2, 2]), (5, 3))),
        ("masked_attention/scores",
         check(lambda s, h: masked_attention(s, h, lanes)[0], (4 * 2, 3), (4 * 2, 2))),
        ("masked_attention/states",
         check(lambda s, h: masked_attention(s, h, lanes)[0], (4 * 2, 3), (4 * 2, 2), wrt=1)),
        ("add_rowvec", check(ad.add_rowvec, (3, 4), (1, 4), wrt=1)),
        ("cross_entropy_rows/states", check(head, (4, 3), (5, 3), (1, 5))),
        ("cross_entropy_rows/out_w", check(head, (4, 3), (5, 3), (1, 5), wrt=1)),
        ("cross_entropy_rows/out_b", check(head, (4, 3), (5, 3), (1, 5), wrt=2)),
        ("normalize_rows", check(ad.normalize_rows, (3, 4), draw=_away_from_zero)),
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


def _model_checks(seed: int) -> list[CheckResult]:
    """Composite ops and the three full objectives at tiny dimensions."""
    config = TrainConfig(objective="cap2all", d_cell=4, d_a=3, n_a=2, d_e=4,
                         d_img=5, batch_size=3, epochs=1, seed=seed)
    corpus = _short_corpus(seed, config.d_img)
    vocab = build_vocab(corpus)
    samples = numericalize(corpus, vocab)
    batch = make_batches(samples, config.batch_size, seed=seed)[0]
    params = init_params(config, vocab.size)
    rng = np.random.default_rng(seed + 1000)
    params.values.vector += rng.uniform(-0.05, 0.05, size=params.values.vector.size)  # off kinks

    enc, dec, proj = params.encoder, params.decoder, params.projection
    cell = enc.forward_cell
    xs = rng.standard_normal((3 * 2, config.d_e))  # 3 steps of 2 lanes, time-major
    h0 = Matrix(0.5 * rng.standard_normal((2, config.d_cell)))
    c0 = Matrix(0.5 * rng.standard_normal((2, config.d_cell)))
    readout_h = _readout(rng, (3 * 2, config.d_cell))
    mask = np.array([[True] * 5, [True] * 3 + [False] * 2])  # lanes of 5 and 3 steps
    H = Matrix(rng.standard_normal((5 * 2, config.d_cell)))
    readout_ctx = _readout(rng, (2 * config.n_a, config.d_cell))
    readout_rep = _readout(rng, (batch.size, 2 * config.d_cell))
    rep_fixed = Matrix(rng.standard_normal((batch.size, 2 * config.d_cell)))
    preds = Matrix(rng.standard_normal((3, config.d_img)))
    targets = Matrix(rng.standard_normal((3, config.d_img)))
    reps3 = Matrix(rng.standard_normal((3, 2 * config.d_cell)))
    images3 = rng.standard_normal((3, config.d_img))

    checks = [  # (name, scalar function, tensors it is checked in)
        ("lstm_step/3-chain",
         lambda _: ad.sum_all(ad.mul(readout_h, run_lanes(cell, Matrix(xs), h0, c0))),
         (cell.input_w, cell.recur_w, cell.bias, h0, c0)),
        ("attend",
         lambda _: ad.sum_all(ad.mul(readout_ctx,
                                     attend(enc.attn_proj, enc.attn_heads, H, mask)[0])),
         (enc.attn_proj, enc.attn_heads, H)),
        ("encode_sentence",
         lambda _: ad.sum_all(ad.mul(readout_rep,
                                     encode_sentence(enc, params.embeddings, batch.src)[0])),
         (params.embeddings, enc.forward_cell.recur_w, enc.backward_cell.input_w,
          enc.attn_proj, enc.attn_heads)),
        ("caption_nll", lambda _: caption_nll(dec, params.embeddings, rep_fixed, batch.tgt),
         (dec.init_h_proj, dec.init_c_proj, dec.cell.recur_w, dec.out_w, dec.out_b,
          params.embeddings, rep_fixed)),
        ("ranking_loss", lambda _: ranking_loss(preds, targets), (preds, targets)),
        ("grounding_loss", lambda _: grounding_loss(reps3, images3, proj),
         (reps3, proj.weights[0], proj.weights[3], proj.biases[0], proj.biases[1])),
    ]
    results = [CheckResult(name, max(grad_check(f, t) for t in tensors))
               for name, f, tensors in checks]

    for objective in ("cap2cap", "cap2img", "cap2all"):
        def objective_fn(_, o=objective):
            loss, _, _ = composite_loss(o, batch, params, train_mode=False)
            return loss

        drng = np.random.default_rng(seed + 2000)
        worst = 0.0
        for theta in params.named().values():
            random_dir = drng.standard_normal(theta.data.shape)
            theta.grad = None
            with Tape() as tape:
                tape.backward(objective_fn(theta))
            directions = [u / np.linalg.norm(u) for u in (random_dir, theta.grad)
                          if u is not None and np.linalg.norm(u) > 0]
            worst = max(worst, grad_check(objective_fn, theta, directions=directions))
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
