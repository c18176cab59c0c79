"""Retrieval metrics, attention-salience export, and representation export.

All functions here run with frozen parameters and no tape, so they are
deterministic (dropout off) and safe to run concurrently across inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Matrix
from .data import UNK, CaptionRecord, Sample, Vocabulary, tokenize
from .decoder import caption_nll
from .encoder import encode_sentence
from .grounding import cosine_matrix, project
from .training import ModelParameters


@dataclass
class RetrievalReport:
    direction: str  # "sentence_to_image" or "image_to_sentence"
    recall_at_1: float
    recall_at_5: float
    recall_at_10: float
    median_rank: float
    pool_size: int

    def to_dict(self) -> dict:
        return {
            "direction": self.direction,
            "recall_at_1": self.recall_at_1,
            "recall_at_5": self.recall_at_5,
            "recall_at_10": self.recall_at_10,
            "median_rank": self.median_rank,
            "n": self.pool_size,
        }


@dataclass
class SalienceRecord:
    tokens: list[str]
    attention: np.ndarray  # (n_a, T) over real tokens, rows renormalized
    pooled: np.ndarray     # (T,) max over heads

    def to_dict(self) -> dict:
        return {
            "tokens": self.tokens,
            "attention": self.attention.tolist(),
            "pooled": self.pooled.tolist(),
        }


def encode_reps(params: ModelParameters, samples: list[Sample]) -> np.ndarray:
    """Stack the combined sentence representation of every sample, (n, 2*d_cell)."""
    return np.vstack([
        encode_sentence(params.encoder, params.embeddings, s.src)[0].combined.data
        for s in samples
    ])


def rank_of(scores: np.ndarray, true_idx: int) -> int:
    """1-based rank of the true candidate; ties break by corpus order."""
    s = scores[true_idx]
    better = int((scores > s).sum())
    tied_before = int((scores[:true_idx] == s).sum())
    return better + tied_before + 1


def _report(direction: str, ranks: np.ndarray) -> RetrievalReport:
    return RetrievalReport(
        direction=direction,
        recall_at_1=float((ranks <= 1).mean()),
        recall_at_5=float((ranks <= 5).mean()),
        recall_at_10=float((ranks <= 10).mean()),
        median_rank=float(np.median(ranks)),
        pool_size=int(ranks.size),
    )


def retrieval_eval(params: ModelParameters,
                   samples: list[Sample]) -> tuple[RetrievalReport, RetrievalReport]:
    """Rank every image for every sentence (and vice versa) by cosine similarity.

    The pool is ranked in sample-id order, so ties break by id and the
    reports depend on the pool as a set, not on the order it is given in.
    """
    if len(samples) < 2:
        raise ValueError("retrieval needs a pool of at least 2 samples")
    samples = sorted(samples, key=lambda s: s.id)
    predicted = project(params.projection, Matrix(encode_reps(params, samples)))
    images = Matrix(np.vstack([s.img for s in samples]))
    sims = cosine_matrix(predicted, images).data  # [k, j] = sim(pred_k, img_j)
    s2i = np.array([rank_of(sims[k], k) for k in range(len(samples))])
    i2s = np.array([rank_of(sims[:, j], j) for j in range(len(samples))])
    return _report("sentence_to_image", s2i), _report("image_to_sentence", i2s)


def salience(params: ModelParameters, vocab: Vocabulary, sentence: str) -> SalienceRecord:
    """Per-token attention salience for one sentence.

    Attention runs over the BOS/EOS-wrapped sequence; the wrapper columns
    are dropped and each head row renormalized, so the output rows are
    distributions over the real tokens only. Pooled salience is the max
    over heads per token.
    """
    tokens = tokenize(sentence)
    ids = vocab.encode(sentence)
    if not any(i != UNK for i in ids[1:-1]):
        raise ValueError("sentence has no in-vocabulary tokens")
    _, attn = encode_sentence(params.encoder, params.embeddings, ids)
    real = attn.weights.data[:, 1:-1]
    real = real / real.sum(axis=1, keepdims=True)
    return SalienceRecord(tokens=tokens, attention=real, pooled=real.max(axis=0))


def salient_hit(params: ModelParameters, vocab: Vocabulary, record: CaptionRecord) -> bool:
    """Does the generator-designated salient token win the pooled salience?"""
    rec = salience(params, vocab, record.src)
    return rec.tokens[int(np.argmax(rec.pooled))] == record.salient


def salient_hit_rate(params: ModelParameters, vocab: Vocabulary,
                     records: list[CaptionRecord]) -> float:
    hits = sum(salient_hit(params, vocab, r) for r in records)
    return hits / len(records)


def embed_lines(params: ModelParameters, vocab: Vocabulary, lines: list[str]) -> np.ndarray:
    """One combined representation per input line, (n, 2*d_cell)."""
    reps = [
        encode_sentence(params.encoder, params.embeddings, vocab.encode(line))[0].combined.data[0]
        for line in lines
    ]
    width = 2 * params.encoder.forward_cell.hidden_dim
    return np.vstack(reps) if reps else np.zeros((0, width))


def mean_token_nll(params: ModelParameters, samples: list[Sample]) -> float:
    """Corpus mean per-token caption NLL under frozen parameters."""
    total = 0.0
    count = 0
    for s in samples:
        rep, _ = encode_sentence(params.encoder, params.embeddings, s.src)
        total += caption_nll(params.decoder, params.embeddings, rep.combined, s.tgt).item()
        count += len(s.tgt) - 1
    return total / count
