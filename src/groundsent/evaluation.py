"""Retrieval metrics, attention-salience export, and representation export.

All functions here run with frozen parameters and no tape, so they are
deterministic (dropout off) and safe to run concurrently across inputs.

Sentences are encoded as lanes (see `encoder`): chunks of ENCODE_CHUNK in
stable length order, each PAD-padded into one (B, T) id matrix and run by one
call; rows come back in input order. A lane's result depends on its chunk
only through rounding (B = 1 and B > 1 run different BLAS kernels). Ranks are
computed array-wide.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .autodiff import Matrix
from .data import BOS, EOS, UNK, Sample, Vocabulary, pad_sequences, tokenize
from .encoder import attend, encode, encode_sentence
from .grounding import cosine_matrix, project
from .training import ModelParameters


# Samples encoded per call. Encoding a 1,000-sample pool as one batch raised peak
# memory from 58 to 81 MB; in chunks of 64 it stays within 1 MB of one at a time.
ENCODE_CHUNK = 64


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


def ranks(sims: np.ndarray) -> np.ndarray:
    """1-based rank of the diagonal entry in each row of the (n, n) `sims`; ties break by column."""
    out, diag = np.empty(len(sims), dtype=np.int64), np.diagonal(sims)[:, None]
    for a in range(0, len(sims), ENCODE_CHUNK):  # row blocks: no (n, n) temporary
        block, true = sims[a : a + ENCODE_CHUNK], diag[a : a + ENCODE_CHUNK]
        # an earlier column outranks the diagonal on a tie, a later one only when greater
        earlier = np.count_nonzero(block[:, :a] >= true, axis=1) + np.count_nonzero(
            np.tril(block[:, a : a + ENCODE_CHUNK] == true, -1), axis=1)
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

    The pool is ranked in sample-id order, so ties break by id and the
    reports depend on the pool as a set, not on the order it is given in.
    """
    if len(samples) < 2:
        raise ValueError("retrieval needs a pool of at least 2 samples")
    if len({s.id for s in samples}) != len(samples):
        raise ValueError("retrieval pool has duplicate sample ids")
    samples = sorted(samples, key=lambda s: s.id)
    predicted = project(params.projection, Matrix(encode_reps(params, samples)))
    images = Matrix(np.vstack([s.img for s in samples]))
    sims = cosine_matrix(predicted, images).data  # [k, j] = sim(pred_k, img_j)
    return _report("sentence_to_image", ranks(sims)), _report("image_to_sentence", ranks(sims.T))


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
