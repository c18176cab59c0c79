"""Parameter initialization, composite objectives, Adam, and the training loop.

Recurrent square blocks are initialized orthogonally (sign-corrected QR of
seeded Gaussians); everything else uses xavier-uniform bounds. Parameters
and Adam's moments are each one vector (`FlatTensors`), the embedding table
first. The gradients belong to `train_step`: an array of the table rows a
batch gathers, outside which its table gradient is zero, and a vector over
the tensors after the table, the tail. The step checks and clips only those
rows and the tail; Adam's pass alone covers the whole parameter vector. That
vector work runs span by span: a vector of 2**20 entries or more is cut into
`parallel.spans`, one per core, run by `parallel.run`, so results are
bit-for-bit those of one pass. Runs are fully determined by (config, seed,
corpus): shuffling and dropout streams are re-derived per epoch from the seed,
so resuming from an epoch checkpoint reproduces the uninterrupted trajectory.
That holds whatever the machine's core count, because importing the package
before numpy pins BLAS to one thread (see `groundsent`). A process that loads
numpy first keeps its own BLAS thread count, and at a large vocabulary
another count changes the BLAS sums in the last bits.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, asdict

import numpy as np

from . import autodiff as ad
from . import parallel
from .autodiff import Matrix, Tape
from .data import (
    PAD, Batch, Corpus, Vocabulary, build_vocab, load_embeddings, make_batches, numericalize,
)
from .decoder import DecoderParams, caption_nll
from .encoder import EncoderParams, LstmCellParams, encode_sentence
from .grounding import ProjectionParams, grounding_loss

OBJECTIVES = ("cap2cap", "cap2img", "cap2all")

# SeedSequence stream tags, so the independent RNG uses never collide.
_SEED_INIT, _SEED_DROPOUT = 11, 23

# Entries per Adam block: the block's six arrays (about 1.5 MB) stay in a core's cache.
ADAM_BLOCK = 1 << 15
TABLE_BLOCK = 512  # rows per random draw of a (V, d) tensor: about 1 MB of the table at d_e = 300


@dataclass
class TrainConfig:
    objective: str = "cap2all"
    d_cell: int = 32
    d_a: int = 16
    n_a: int = 4
    d_e: int = 32
    d_img: int = 64
    d_p: int | None = None  # None -> d_img
    batch_size: int = 32
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    clip: float = 5.0
    epochs: int = 50
    seed: int = 0
    dropout: float = 0.3

    def __post_init__(self):
        if self.objective not in OBJECTIVES:
            raise ValueError(f"unknown objective {self.objective!r}, expected one of {OBJECTIVES}")
        if self.d_p is None:
            self.d_p = self.d_img
        # batch_size >= 2 for in-batch negatives, and clip = inf means no clipping. An int
        # field refuses 4.0, and every field a bool (a JSON true); NaN is in no interval.
        for names, kind, interval in (
                ("d_cell d_a n_a d_e d_img d_p epochs", int, "[1, inf)"),
                ("batch_size", int, "[2, inf)"), ("seed", int, "[0, inf)"),
                ("lr adam_eps", float, "(0, inf)"), ("beta1 beta2 dropout", float, "[0, 1)"),
                ("clip", float, "(0, inf]")):
            low, high = map(float, interval[1:-1].split(","))
            for name in names.split():
                value = getattr(self, name)
                typed = type(value) is int or (kind is float and isinstance(value, float))
                if not (typed and (low <= value if interval[0] == "[" else low < value)
                        and (value <= high if interval[-1] == "]" else value < high)):
                    raise ValueError(f"{name} must be {'an integer' if kind is int else 'a number'}"
                                     f" in {interval}, got {value!r}")

    def to_dict(self) -> dict:
        return asdict(self)


def parameter_shapes(config: TrainConfig, vocab_size: int) -> dict[str, tuple[int, int]]:
    """Name -> (rows, cols) of each trainable tensor in vector order: the one parameter layout."""
    d, d_e, d_a, d_p, v = config.d_cell, config.d_e, config.d_a, config.d_p, vocab_size

    def cell(p: str) -> dict[str, tuple[int, int]]:
        return {f"{p}_input_w": (d_e, 4 * d), f"{p}_recur_w": (d, 4 * d), f"{p}_bias": (1, 4 * d)}
    shapes = {"embeddings": (v, d_e), **cell("enc_fwd"), **cell("enc_bwd"),
              "attn_proj": (d_a, d), "attn_heads": (config.n_a, d_a),
              "dec_init_h": (d, 2 * d), "dec_init_c": (d, 2 * d), **cell("dec"),
              "dec_out_w": (v, d), "dec_out_b": (1, v)}
    for i, (rows, cols) in enumerate([(2 * d, d_p), (d_p, d_p), (d_p, d_p), (d_p, config.d_img)]):
        shapes[f"proj_w{i + 1}"], shapes[f"proj_b{i + 1}"] = (rows, cols), (1, cols)
    return shapes


class FlatTensors(dict):
    """Name -> view of `vector`, cut into `shapes` in their order, made with np.zeros.

    `vector` is little-endian float64, the byte order a checkpoint stores it in.
    """

    def __init__(self, shapes: dict[str, tuple[int, ...]]):
        super().__init__()
        self.vector = np.zeros(sum(map(math.prod, shapes.values())), dtype="<f8")
        start = 0
        for name, shape in shapes.items():
            self[name] = self.vector[start : start + math.prod(shape)].reshape(shape)
            start += self[name].size


class ModelParameters:
    """Every trainable tensor, grouped by sub-model, each .data a view of the vector `values`.

    All zero, laid out by `parameter_shapes` and drawn from no RNG: `init_params`
    draws into the views, and `checkpoint.load` reads a file into them. No
    gradient memory is made until the first `train_step`, which owns it.
    """

    def __init__(self, config: TrainConfig, vocab_size: int):
        self.shapes = parameter_shapes(config, vocab_size)
        self.values = FlatTensors(self.shapes)
        self.tail_shapes = {k: s for k, s in self.shapes.items() if k != "embeddings"}
        self.grads = self.next_grads = None  # train_step's FlatTensors over `tail_shapes`
        t = self._named = {name: Matrix(view) for name, view in self.values.items()}

        def cell(prefix: str) -> LstmCellParams:
            return LstmCellParams(*(t[f"{prefix}_{k}"] for k in ("input_w", "recur_w", "bias")))

        self.embeddings = t["embeddings"]
        self.encoder = EncoderParams(cell("enc_fwd"), cell("enc_bwd"),
                                     t["attn_proj"], t["attn_heads"])
        self.decoder = DecoderParams(t["dec_init_h"], t["dec_init_c"], cell("dec"),
                                     t["dec_out_w"], t["dec_out_b"])
        self.projection = ProjectionParams(weights=[t[f"proj_w{i}"] for i in range(1, 5)],
                                           biases=[t[f"proj_b{i}"] for i in range(1, 5)],
                                           dropout_p=config.dropout)

    def named(self) -> dict[str, Matrix]:
        """Flat name -> tensor, in layout order; each trainable tensor appears exactly once."""
        return self._named

    def zero_grads(self) -> None:
        """Clear every .grad and grad_rows; a backward makes a cleared .grad afresh from zero."""
        for m in self._named.values():
            m.grad = m.grad_rows = None


def _xavier(rng: np.random.Generator, shape: tuple[int, int]) -> np.ndarray:
    bound = np.sqrt(6.0 / (shape[0] + shape[1]))
    return rng.uniform(-bound, bound, size=shape)


def _orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def init_params(config: TrainConfig, vocab_size: int) -> ModelParameters:
    """Build the parameters and draw their values from the config seed, into their views.

    The draws run in layout order. Each LSTM input weight is four xavier-uniform
    gate blocks and each recurrent weight four orthogonal ones; an LSTM bias is 1
    on the forget gate, 0 elsewhere. Every other weight is xavier-uniform, bound
    sqrt(6 / (rows + cols)), and every other bias 0. Word embeddings are uniform
    in [-0.1, 0.1], with the PAD row zeroed. The two (V, d) tensors, the table
    and dec_out_w, are drawn TABLE_BLOCK rows at a time, so no V-row temporary
    is made. A pretrained file (`data.load_embeddings`) is written over this
    draw afterwards and changes only the rows it covers: the uncovered, UNK,
    BOS and EOS rows and every other tensor are those of a run without a file.
    """
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, _SEED_INIT]))
    params = ModelParameters(config, vocab_size)
    for name, view in params.values.items():
        if name in ("embeddings", "dec_out_w"):  # V rows: drawn in row blocks, one draw's bits
            bound = 0.1 if name == "embeddings" else np.sqrt(6.0 / sum(view.shape))
            for block in np.split(view, range(TABLE_BLOCK, view.shape[0], TABLE_BLOCK)):
                block[...] = rng.uniform(-bound, bound, size=block.shape)
        elif name.endswith("_input_w"):
            for block in np.split(view, 4, axis=1):
                block[...] = _xavier(rng, block.shape)
        elif name.endswith("_recur_w"):
            for block in np.split(view, 4, axis=1):
                block[...] = _orthogonal(rng, block.shape[0])
        elif name.endswith("_bias"):
            np.split(view, 4, axis=1)[1][...] = 1.0  # forget gate
        elif name != "dec_out_b" and not name.startswith("proj_b"):
            view[...] = _xavier(rng, view.shape)
    params.embeddings.data[PAD] = 0.0
    return params


# ---------------------------------------------------------------------------
# objectives


def composite_loss(objective: str, batch: Batch, params: ModelParameters,
                   train_mode: bool = True, rng: np.random.Generator | None = None):
    """Forward one batch under the requested objective.

    Returns (loss Matrix, caption-loss float, grounding-loss float); the
    component not used by a single-task objective reports 0.0. The whole
    batch runs as lanes through one encoder and one decoder call. The
    caption loss is summed over tokens and averaged over the batch.
    """
    if objective not in OBJECTIVES:
        raise ValueError(f"unknown objective {objective!r}")
    reps, _ = encode_sentence(params.encoder, params.embeddings, batch.src)

    terms = []
    loss_c = loss_vg = 0.0
    if objective in ("cap2cap", "cap2all"):
        nll = caption_nll(params.decoder, params.embeddings, reps, batch.tgt)
        mean_nll = ad.scale(nll, 1.0 / batch.size)
        loss_c = mean_nll.item()
        terms.append(mean_nll)
    if objective in ("cap2img", "cap2all"):
        vg = grounding_loss(reps, batch.images, params.projection,
                            train_mode=train_mode, rng=rng)
        loss_vg = vg.item()
        terms.append(vg)

    loss = terms[0] if len(terms) == 1 else ad.add(terms[0], terms[1])
    return loss, loss_c, loss_vg


def all_finite(vector: np.ndarray) -> bool:
    """Whether every entry of the vector is finite, checked span by span."""
    return all(parallel.run(lambda s: np.isfinite(vector[s]).all(), parallel.spans(vector.size)))


def clip_gradients(grad: np.ndarray, bound: float) -> np.ndarray:
    """Clip the gradient vector elementwise to [-bound, bound], in place, span by span."""
    parallel.run(lambda s: np.clip(grad[s], -bound, bound, out=grad[s]), parallel.spans(grad.size))
    return grad


@dataclass
class AdamState:
    """The step count and the moments m and v, each a FlatTensors laid out like the parameters."""

    step: int
    m: FlatTensors
    v: FlatTensors

    @classmethod
    def for_params(cls, params: ModelParameters) -> "AdamState":
        return cls(0, FlatTensors(params.shapes), FlatTensors(params.shapes))


def adam_step(data: np.ndarray, grad: np.ndarray, state: AdamState, lr: float,
              beta1: float, beta2: float, eps: float,
              table: tuple[np.ndarray, np.ndarray] | None = None) -> None:
    """One bias-corrected Adam update of `data`, in place; adds 1 to step.

    In Kingma & Ba's efficient order (arXiv:1412.6980, section 2) the bias
    corrections fold into the step size lr * sqrt(bc2) / bc1 and into
    eps * sqrt(bc2): one division per entry. Each span runs the block loop
    with its own scratch buffers. `grad` is the gradient of data's last
    grad.size entries, all of them when `table` is None. The entries before
    it are a table whose gradient is 0 outside the rows `table` gives, as
    (rows, their gradient), the form `train_step` passes. Those rows are
    updated on copies, written back last; the rest of the table is updated
    without a gradient, which leaves m and v as adding zero terms would, up
    to the sign of a zero.
    """
    state.step += 1
    bc1, bc2 = 1.0 - beta1**state.step, 1.0 - beta2**state.step
    step_size, eps_hat = lr * math.sqrt(bc2) / bc1, eps * math.sqrt(bc2)
    vectors = (data, state.m.vector, state.v.vector)

    def blocks(x, m, v, g, scratch) -> None:
        """Update x, m and v, all one length, block by block; g is None where it is 0."""
        for lo in range(0, x.size, ADAM_BLOCK):
            block = slice(lo, lo + ADAM_BLOCK)
            mb, vb = m[block], v[block]
            a, b = scratch[:, : mb.size]
            mb *= beta1
            vb *= beta2
            if g is not None:
                mb += np.multiply(g[block], 1.0 - beta1, out=a)
                vb += np.multiply(np.multiply(g[block], 1.0 - beta2, out=a), g[block], out=a)
            np.sqrt(vb, out=a)
            a += eps_hat
            x[block] -= np.divide(np.multiply(mb, step_size, out=b), a, out=b)

    cut = data.size - grad.size
    if table is not None:
        rows, row_grads = table
        width = row_grads.shape[1]
        copies = [x[:cut].reshape(-1, width)[rows].reshape(-1) for x in vectors]
        blocks(*copies, row_grads.reshape(-1), np.empty((2, ADAM_BLOCK)))

    def update(span: slice) -> None:
        scratch = np.empty((2, ADAM_BLOCK))
        mid = min(max(span.start, cut), span.stop)
        blocks(*(x[span.start : mid] for x in vectors), None, scratch)
        blocks(*(x[mid : span.stop] for x in vectors), grad[mid - cut : span.stop - cut], scratch)

    parallel.run(update, parallel.spans(data.size))
    if table is not None:
        for x, copy in zip(vectors, copies):
            x[:cut].reshape(-1, width)[rows] = copy.reshape(-1, width)


# ---------------------------------------------------------------------------
# training loop


@dataclass
class EpochMetrics:
    epoch: int
    objective: str
    loss: float
    loss_c: float
    loss_vg: float
    wall_ms: float

    def to_record(self) -> dict:
        return asdict(self)


@dataclass
class TrainResult:
    params: ModelParameters
    adam: AdamState
    vocab: Vocabulary
    metrics: list[EpochMetrics]
    checkpoint_path: str | None = None


def train_step(batch: Batch, params: ModelParameters, adam: AdamState, config: TrainConfig,
               rng: np.random.Generator | None = None) -> tuple[float, float, float]:
    """Forward, backward, clip and Adam for one batch.

    The step's gradients are its own, bound for the step only: the table's .grad
    is a zero array of the rows the batch gathers, named by its grad_rows, and
    every other .grad a view of the tail vector `params.grads`. Returning or
    raising, the step clears every .grad and grad_rows, so no backward run
    between steps writes into them. Raises FloatingPointError, before any
    parameter changes, on a non-finite loss or gradient.
    """
    # The table's gradient is 0 outside the rows the encoder (src) and the decoder (tgt)
    # gather. They are np.union1d(src, tgt), found by a mask: np.unique imports numpy.ma.
    held = np.zeros(params.embeddings.rows, dtype=bool)
    held[batch.src] = held[batch.tgt] = True
    rows = np.flatnonzero(held)
    params.grads, params.next_grads = params.next_grads or FlatTensors(params.tail_shapes), None
    params.embeddings.grad = np.zeros((rows.size, params.embeddings.cols))
    params.embeddings.grad_rows = rows
    for name, view in params.grads.items():
        params.named()[name].grad = view
    try:
        with Tape() as tape:
            loss, loss_c, loss_vg = composite_loss(config.objective, batch, params,
                                                   train_mode=True, rng=rng)
            loss_value = loss.item()
            if not np.isfinite(loss_value):
                raise FloatingPointError(f"non-finite loss {loss_value} at step {adam.step + 1}")
            tape.backward(loss)
        gathered, tail = params.embeddings.grad, params.grads.vector
        if not (all_finite(gathered.reshape(-1)) and all_finite(tail)):
            name = next(k for k, m in params.named().items() if not np.isfinite(m.grad).all())
            raise FloatingPointError(f"non-finite gradient of {name} at step {adam.step + 1}")
        clip_gradients(gathered.reshape(-1), config.clip)
        clip_gradients(tail, config.clip)
        adam_step(params.values.vector, tail, adam, config.lr, config.beta1, config.beta2,
                  config.adam_eps, table=(rows, gathered))
        # Made while the tape is live, it sits above the step's activations, so the allocator
        # keeps their pages for the next step instead of trimming them and faulting them back.
        params.next_grads = FlatTensors(params.tail_shapes)
    finally:
        params.zero_grads()
    return loss_value, loss_c, loss_vg


def check_image_width(corpus: Corpus, config: TrainConfig) -> None:
    if corpus.d_img != config.d_img:
        raise ValueError(f"corpus d_img={corpus.d_img} does not match config d_img={config.d_img}")


def train(config: TrainConfig, corpus: Corpus, out_dir=None, embeddings=None,
          resume_from=None, log_fn=None) -> TrainResult:
    """Run the epoch loop over a corpus.

    Writes (when out_dir is given) a checkpoint after every epoch plus a
    JSONL metrics log with one record per epoch. `embeddings` is the path of a
    GloVe-style file, read into the drawn table (see `init_params`) before
    out_dir is made, so a bad file writes nothing. `resume_from` restores
    parameters, optimizer state, and the epoch counter from a checkpoint and
    continues up to config.epochs; it cannot be combined with `embeddings`.
    `log_fn`, when given, receives each line the run reports: the file's
    coverage, then each epoch's JSON record, the line the metrics log holds.
    """
    from . import checkpoint as ckpt
    from pathlib import Path

    if resume_from is not None and embeddings is not None:
        raise ValueError("--embeddings cannot be used with --resume")
    log = log_fn or (lambda line: None)
    check_image_width(corpus, config)
    if len(corpus) < 2:
        raise ValueError(f"corpus has {len(corpus)} sample(s); training needs at least 2 "
                         "to form a batch")
    vocab = build_vocab(corpus)
    samples = numericalize(corpus, vocab)

    if resume_from is not None:
        params, adam, loaded_config, loaded_vocab, start_epoch = ckpt.load(resume_from)
        ours, theirs = config.to_dict(), loaded_config.to_dict()
        ours.pop("epochs"), theirs.pop("epochs")  # resuming may extend the run
        if ours != theirs:
            raise ValueError("resume config does not match checkpoint config")
        if loaded_vocab.tokens != vocab.tokens:
            raise ValueError("resume corpus produces a different vocabulary")
        if start_epoch >= config.epochs:
            raise ValueError(f"epochs={config.epochs} must be past the checkpoint's epoch "
                             f"{start_epoch} to resume")
        vocab = loaded_vocab
    else:
        params = init_params(config, vocab.size)
        if embeddings is not None:
            coverage = load_embeddings(embeddings, vocab, params.embeddings.data)
            log(f"embedding coverage: {coverage:.3f}")
        adam = AdamState.for_params(params)
        start_epoch = 0

    out_path = None
    metrics_path = None
    if out_dir is not None:
        out_path = Path(out_dir)
        out_path.mkdir(parents=True, exist_ok=True)
        metrics_path = out_path / "metrics.jsonl"
        if resume_from is None and metrics_path.exists():
            metrics_path.unlink()

    history: list[EpochMetrics] = []
    checkpoint_path = None
    for epoch in range(start_epoch, config.epochs):
        started = time.monotonic()
        dropout_rng = np.random.default_rng(
            np.random.SeedSequence([config.seed, _SEED_DROPOUT, epoch])
        )
        sums = np.zeros(3)
        batches = make_batches(samples, config.batch_size, config.seed, epoch)
        for batch in batches:
            sums += train_step(batch, params, adam, config, rng=dropout_rng)
        means = sums / len(batches)
        record = EpochMetrics(
            epoch=epoch, objective=config.objective,
            loss=float(means[0]), loss_c=float(means[1]), loss_vg=float(means[2]),
            wall_ms=(time.monotonic() - started) * 1000.0,
        )
        history.append(record)
        line = json.dumps(record.to_record())
        log(line)
        if out_path is not None:
            with open(metrics_path, "a", encoding="utf-8") as fh:
                fh.write(line + "\n")
            checkpoint_path = str(out_path / "checkpoint.bin")
            ckpt.save(checkpoint_path, params, adam, config, vocab, epoch + 1)

    return TrainResult(params=params, adam=adam, vocab=vocab, metrics=history,
                       checkpoint_path=checkpoint_path)
