"""Retrieval metrics, attention-salience export, and representation export.

All functions here run with frozen parameters and no tape, so they are
deterministic (dropout off) and safe to run concurrently across inputs.

Sentences are encoded as lanes (see `encoder`): chunks of ENCODE_CHUNK in
stable length order, each PAD-padded into one (B, T) id matrix and run by one
call; rows come back in input order. A lane's result depends on its chunk
only through rounding (B = 1 and B > 1 run different BLAS kernels).

Retrieval scores each direction from row blocks of the cosine product, RANK_BLOCK
queries at a time, so no (n, n) array is made; the two directions run as the
two pieces of one `parallel.run` round. A block's product can differ from the
whole (n, n) product in the last bit, so, as with chunked encoding, a rank can
depend on the block size only where two similarities in one row are within
rounding of each other.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import parallel
from .autodiff import Matrix, normalize_rows
from .data import BOS, EOS, UNK, Sample, Vocabulary, pad_sequences, tokenize
from .encoder import attend, encode, encode_sentence
from .grounding import project
from .training import ModelParameters


# Samples encoded per call. Encoding a 1,000-sample pool as one batch raised peak
# memory from 58 to 81 MB; in chunks of 64 it stays within 1 MB of one at a time.
ENCODE_CHUNK = 64
RANK_BLOCK = 64  # queries scored per product in `ranks`: a (64, n) block, 0.5 MB at pool 1,000


@dataclass
class RetrievalReport:
    direction: str  # "sentence_to_image" or "image_to_sentence"
    recall_at_1: float
    recall_at_5: float
    recall_at_10: float
    median_rank: float
    pool_size: int

    def to_dict(self) -> dict:
        out = asdict(self)
        out["n"] = out.pop("pool_size")
        return out


@dataclass
class SalienceRecord:
    tokens: list[str]
    attention: np.ndarray  # (n_a, T), each row a distribution over the real tokens
    pooled: np.ndarray     # (T,) max over heads

    def to_dict(self) -> dict:
        return {
            "tokens": self.tokens,
            "attention": self.attention.tolist(),
            "pooled": self.pooled.tolist(),
        }


def _encode_ids(params: ModelParameters, seqs: list[np.ndarray]) -> np.ndarray:
    """Combined representation of each id sequence, (n, 2*d_cell), in input order."""
    reps = np.zeros((len(seqs), 2 * params.encoder.forward_cell.hidden_dim))
    order = np.argsort([len(s) for s in seqs], kind="stable")
    for start in range(0, len(seqs), ENCODE_CHUNK):
        rows = order[start : start + ENCODE_CHUNK]
        ids = pad_sequences([seqs[i] for i in rows])
        reps[rows] = encode_sentence(params.encoder, params.embeddings, ids)[0].data
    return reps


def encode_reps(params: ModelParameters, samples: list[Sample]) -> np.ndarray:
    """Stack the combined sentence representation of every sample, (n, 2*d_cell)."""
    return _encode_ids(params, [s.src for s in samples])


def ranks(queries: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """1-based rank of keys[k] among all keys for queries[k], by dot product; ties break by index.

    Rows are unit vectors, so the dot product is the cosine. The scores come
    RANK_BLOCK queries at a time, each block one (block, n) product.
    """
    out = np.empty(len(queries), dtype=np.int64)
    for a in range(0, len(queries), RANK_BLOCK):
        block = queries[a : a + RANK_BLOCK] @ keys.T
        rows = np.arange(len(block))
        true = block[rows, a + rows][:, None]
        # an earlier key outranks the true one on a tie, a later one only when greater
        earlier = np.count_nonzero(block[:, :a] >= true, axis=1) + np.count_nonzero(
            np.tril(block[:, a : a + RANK_BLOCK] == true, -1), axis=1)
        out[a : a + len(block)] = 1 + earlier + np.count_nonzero(block[:, a:] > true, axis=1)
    return out


def _report(direction: str, rank: np.ndarray) -> RetrievalReport:
    return RetrievalReport(
        direction=direction,
        recall_at_1=float((rank <= 1).mean()),
        recall_at_5=float((rank <= 5).mean()),
        recall_at_10=float((rank <= 10).mean()),
        median_rank=float(np.median(rank)),
        pool_size=int(rank.size),
    )


def retrieval_eval(params: ModelParameters,
                   samples: list[Sample]) -> tuple[RetrievalReport, RetrievalReport]:
    """Rank every image for every sentence (and vice versa) by cosine similarity.

    Predictions and images are normalized once each (the epsilon-guarded
    `normalize_rows` of `grounding.cosine_matrix`), and `ranks` scores each
    direction in row blocks: sentence to image ranks the images for each
    prediction, image to sentence the predictions for each image. The
    directions run in rounds of at most `parallel.WORKERS` pieces, so one
    worker runs them in turn. The pool is ranked in sample-id order, so ties
    break by id and the reports depend on the pool as a set, not on the order
    it is given in.
    """
    if len(samples) < 2:
        raise ValueError("retrieval needs a pool of at least 2 samples")
    if len({s.id for s in samples}) != len(samples):
        raise ValueError("retrieval pool has duplicate sample ids")
    samples = sorted(samples, key=lambda s: s.id)
    predicted = project(params.projection, Matrix(encode_reps(params, samples)))
    p = normalize_rows(predicted).data
    i = normalize_rows(Matrix(np.vstack([s.img for s in samples]))).data
    pieces = [(p, i), (i, p)]  # sentence to image, image to sentence
    found = []
    for first in range(0, len(pieces), parallel.WORKERS):
        found += parallel.run(lambda piece: ranks(*piece), pieces[first : first + parallel.WORKERS])
    return _report("sentence_to_image", found[0]), _report("image_to_sentence", found[1])


def salience(params: ModelParameters, vocab: Vocabulary, sentence: str) -> SalienceRecord:
    """Per-token attention salience for one sentence.

    The encoder runs over the BOS/EOS-wrapped ids; attention then masks the
    wrapper steps as it masks padding, so each row is a head's softmax over
    the real tokens. Pooled salience is the max over heads per token.
    """
    tokens = tokenize(sentence)
    ids = vocab.encode(sentence)
    if not any(i != UNK for i in ids[1:-1]):
        raise ValueError("sentence has no in-vocabulary tokens")
    states, _ = encode(params.encoder, params.embeddings, ids)
    real = ((ids != BOS) & (ids != EOS))[None]
    _, weights = attend(params.encoder.attn_proj, params.encoder.attn_heads, states, real)
    attention = weights[0, :, 1:-1]
    return SalienceRecord(tokens=tokens, attention=attention, pooled=attention.max(axis=0))


def embed_lines(params: ModelParameters, vocab: Vocabulary, lines: list[str]) -> np.ndarray:
    """One combined representation per input line, (n, 2*d_cell)."""
    return _encode_ids(params, [vocab.encode(line) for line in lines])
