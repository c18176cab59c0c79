"""Vocabulary, corpus ingestion, pretrained embeddings, synthetic data, and batching.

Corpus files are JSONL: the first line is metadata {"d_img": ...}, each
following line is one record {"id", "src", "tgt", "img"} with src/tgt as
raw caption text and img as a list of reals. Synthetic corpora add a
"salient" field naming the token whose code dominates the image vector.
A pretrained embedding file is GloVe-style text; its rows replace the drawn
rows of the tokens it covers, in the parameter table itself.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

PAD, UNK, BOS, EOS = 0, 1, 2, 3
RESERVED = ("<pad>", "<unk>", "<bos>", "<eos>")

_STRIP_CHARS = '.,!?;:"()'


def tokenize(text: str) -> list[str]:
    """Lowercase, split on whitespace, strip leading/trailing punctuation.

    A reserved string in the text ("<pad>", "<bos>", ...) reads as "<unk>", so it
    never enters a vocabulary and never encodes as padding or a sentence boundary.
    """
    out = []
    for raw in text.lower().split():
        tok = raw.strip(_STRIP_CHARS)
        if tok:
            out.append(RESERVED[UNK] if tok in RESERVED else tok)
    return out


class Vocabulary:
    """Token <-> dense id mapping with fixed reserved ids 0..3."""

    def __init__(self, tokens: list[str]):
        self.tokens = list(RESERVED) + list(tokens)
        self.index = {tok: i for i, tok in enumerate(self.tokens)}
        if len(self.index) != len(self.tokens):
            raise ValueError("duplicate tokens in vocabulary")

    @property
    def size(self) -> int:
        return len(self.tokens)

    def id_of(self, token: str) -> int:
        return self.index.get(token, UNK)

    def encode(self, text: str) -> np.ndarray:
        """Token ids for text, wrapped in BOS/EOS."""
        ids = [BOS] + [self.id_of(t) for t in tokenize(text)] + [EOS]
        return np.array(ids, dtype=np.int64)

    def content_tokens(self) -> list[str]:
        return self.tokens[len(RESERVED):]


def build_vocab(corpus: "Corpus") -> Vocabulary:
    """Every token of the src and tgt captions, reserved strings aside.

    Ids after the reserved block are assigned by descending frequency, ties
    broken lexicographically, so two builds over the same corpus agree.
    """
    if not corpus.records:
        raise ValueError("cannot build a vocabulary from an empty corpus")
    counts: Counter[str] = Counter()
    for rec in corpus.records:
        counts.update(tokenize(rec.src))
        counts.update(tokenize(rec.tgt))
    return Vocabulary(sorted(counts.keys() - RESERVED, key=lambda t: (-counts[t], t)))


def load_embeddings(path, vocab: Vocabulary, table: np.ndarray) -> float:
    """Write a GloVe-style text file (token then d reals per line) into a (V, d) table.

    `table` is the drawn parameter table, `params.embeddings.data`: the file
    replaces the rows of the vocabulary tokens it holds and leaves every other
    row, the reserved ones and the uncovered tokens', as drawn. Returns the
    coverage, the covered fraction of the non-reserved vocabulary. Every line
    must hold d values; those of a vocabulary token must be finite reals, on
    one line only, or ValueError names the line, with the rows before it
    written. A line whose token holds whitespace (its second field is no
    number) is skipped: `tokenize` splits on whitespace, so no vocabulary
    token can match it.
    """
    dim = table.shape[1]
    content, covered = set(vocab.content_tokens()), set()
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            token, values = parts[0], parts[1:]
            if len(values) > dim:
                try:
                    float(values[0])
                except ValueError:
                    continue
            if len(values) != dim:
                raise ValueError(
                    f"embedding file line {lineno}: expected {dim} values, got {len(values)}"
                )
            if token in content:
                if token in covered:
                    raise ValueError(f"embedding file line {lineno}: duplicate token {token!r}")
                covered.add(token)
                try:
                    row = [float(v) for v in values]
                except ValueError as exc:
                    raise ValueError(f"embedding file line {lineno}: {exc}") from None
                if not all(map(math.isfinite, row)):
                    raise ValueError(f"embedding file line {lineno}: non-finite value")
                table[vocab.index[token]] = row
    return len(covered) / len(content) if content else 1.0


@dataclass
class CaptionRecord:
    """One raw corpus entry: paired captions plus an image-feature vector."""

    id: str
    src: str
    tgt: str
    img: np.ndarray
    salient: str | None = None


@dataclass
class Corpus:
    d_img: int
    records: list[CaptionRecord] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.records)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"d_img": self.d_img}) + "\n")
            for rec in self.records:
                obj = {"id": rec.id, "src": rec.src, "tgt": rec.tgt, "img": rec.img.tolist()}
                if rec.salient is not None:
                    obj["salient"] = rec.salient
                fh.write(json.dumps(obj) + "\n")

    @classmethod
    def load(cls, path) -> "Corpus":
        """Read a corpus file; a malformed line raises ValueError naming its line number."""
        records, seen = [], set()
        lineno = 1
        with open(path, "r", encoding="utf-8") as fh:
            try:
                d_img = json.loads(fh.readline())["d_img"]
                if type(d_img) is not int or d_img < 1:  # a JSON true is not a width
                    raise ValueError("corpus line 1: d_img must be a positive integer")
                for lineno, line in enumerate(fh, start=2):
                    if not line.strip():
                        continue
                    obj = json.loads(line)
                    try:
                        img = np.asarray(obj["img"], dtype=np.float64)
                    except ValueError as exc:  # a non-numeric value
                        raise ValueError(f"corpus line {lineno}: {exc}") from None
                    if img.shape != (d_img,):
                        raise ValueError(f"corpus line {lineno}: image width {img.shape} "
                                         f"does not match d_img={d_img}")
                    norm = float(np.linalg.norm(img))
                    if not norm < math.inf:
                        raise ValueError(f"corpus line {lineno}: non-finite image vector")
                    if not norm > 0:
                        raise ValueError(f"corpus line {lineno}: zero-norm image vector")
                    sample_id = str(obj["id"])
                    if sample_id in seen:
                        raise ValueError(f"corpus line {lineno}: duplicate id {sample_id!r}")
                    seen.add(sample_id)
                    for key in ("src", "tgt"):
                        if not isinstance(obj[key], str):
                            raise ValueError(f"corpus line {lineno}: {key} must be a string, "
                                             f"got {type(obj[key]).__name__}")
                    records.append(
                        CaptionRecord(
                            id=sample_id, src=obj["src"], tgt=obj["tgt"],
                            img=img, salient=obj.get("salient"),
                        )
                    )
            except KeyError as exc:
                raise ValueError(f"corpus line {lineno}: missing field {exc}") from None
            except (json.JSONDecodeError, TypeError) as exc:
                raise ValueError(f"corpus line {lineno}: malformed record ({exc})") from None
        return cls(d_img=d_img, records=records)


@dataclass
class Sample:
    """A numericalized corpus record: BOS/EOS-wrapped id sequences."""

    id: str
    src: np.ndarray
    tgt: np.ndarray
    img: np.ndarray


def numericalize(corpus: Corpus, vocab: Vocabulary) -> list[Sample]:
    return [
        Sample(id=rec.id, src=vocab.encode(rec.src), tgt=vocab.encode(rec.tgt), img=rec.img)
        for rec in corpus.records
    ]


# ---------------------------------------------------------------------------
# synthetic corpus


def token_codes(v_content: int, d_img: int, seed: int) -> np.ndarray:
    """Fixed per-token Gaussian code vectors N(0, I)/sqrt(d_img), (V_content, d_img)."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
    return rng.standard_normal((v_content, d_img)) / np.sqrt(d_img)


def synthetic_token_names(v_content: int) -> tuple[list[str], list[str]]:
    """Token names, split into a visual-word pool and an ordinary pool.

    Visual words form a small designated sub-vocabulary (about 1/8 of the
    content tokens); the salient token of a sample is always one of them.
    """
    n_visual = max(1, v_content // 8)
    visual = [f"vis{i:02d}" for i in range(n_visual)]
    ordinary = [f"obj{i:02d}" for i in range(v_content - n_visual)]
    return visual, ordinary


def gen_synthetic(n: int, v_content: int, d_img: int, seed: int) -> Corpus:
    """Deterministic copy-task corpus with token-code image vectors.

    Each sample draws 3..8 distinct content tokens (1..3 of them visual
    words), shuffles them into src, and copies src to tgt. The salient
    token is the visual word that lands earliest in the shuffled sentence;
    the image vector is the L2-normalized sum of the member tokens' codes
    with the salient token's code weighted 4x. Because salience depends on
    token order, no bag-of-tokens summary can predict the image exactly:
    recovering it requires locating the salient position.
    """
    if v_content < 8:
        raise ValueError(f"v_content must be >= 8, got {v_content}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if d_img < 1:
        raise ValueError(f"d_img must be >= 1, got {d_img}")
    visual_names, ordinary_names = synthetic_token_names(v_content)
    names = visual_names + ordinary_names
    codes = token_codes(v_content, d_img, seed)
    code_of = {name: codes[i] for i, name in enumerate(names)}

    rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    records = []
    for i in range(n):
        k = int(rng.integers(3, 9))
        n_vis = min(int(rng.integers(1, 4)), len(visual_names), k - 1)
        vis = list(rng.choice(visual_names, size=n_vis, replace=False))
        obj = list(rng.choice(ordinary_names, size=k - n_vis, replace=False))
        tokens = vis + obj
        rng.shuffle(tokens)
        salient = next(t for t in tokens if t in code_of and t.startswith("vis"))
        vec = sum(code_of[t] * (4.0 if t == salient else 1.0) for t in tokens)
        vec = vec / np.linalg.norm(vec)
        text = " ".join(tokens)
        records.append(
            CaptionRecord(id=f"synth-{i:04d}", src=text, tgt=text, img=vec, salient=salient)
        )
    return Corpus(d_img=d_img, records=records)


# ---------------------------------------------------------------------------
# batching


@dataclass
class Batch:
    """Padded id arrays; every other sample is an in-batch negative."""

    ids: list[str]
    src: np.ndarray        # (B, Ts) int, PAD-padded
    tgt: np.ndarray        # (B, Tt) int, PAD-padded
    images: np.ndarray     # (B, d_img)

    def __post_init__(self):
        if len(set(self.ids)) != len(self.ids):
            raise ValueError("batch contains duplicate sample ids")
        if self.size < 2:
            raise ValueError("a batch needs at least 2 samples for in-batch negatives")

    @property
    def size(self) -> int:
        return len(self.ids)

    @property
    def src_mask(self) -> np.ndarray:
        """(B, Ts) bool, True on real tokens."""
        return self.src != PAD

    @property
    def tgt_mask(self) -> np.ndarray:
        return self.tgt != PAD

    def src_ids(self, k: int) -> np.ndarray:
        return self.src[k, self.src_mask[k]]

    def tgt_ids(self, k: int) -> np.ndarray:
        return self.tgt[k, self.tgt_mask[k]]


def pad_sequences(seqs: list[np.ndarray]) -> np.ndarray:
    """(B, T) ids right-padded with PAD."""
    ids = np.full((len(seqs), max(len(s) for s in seqs)), PAD, dtype=np.int64)
    for i, s in enumerate(seqs):
        ids[i, : len(s)] = s
    return ids


def make_batches(samples: list[Sample], batch_size: int, seed: int, epoch: int = 0) -> list[Batch]:
    """Shuffle samples with a (seed, epoch)-derived generator and batch them.

    A trailing short batch is kept only if it still has >= 2 samples.
    """
    if batch_size < 2:
        raise ValueError(f"batch size must be >= 2, got {batch_size}")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 2, epoch]))
    order = rng.permutation(len(samples))
    batches = []
    for start in range(0, len(samples), batch_size):
        chunk = [samples[i] for i in order[start : start + batch_size]]
        if len(chunk) < 2:
            break
        batches.append(
            Batch(
                ids=[s.id for s in chunk],
                src=pad_sequences([s.src for s in chunk]),
                tgt=pad_sequences([s.tgt for s in chunk]),
                images=np.stack([s.img for s in chunk]),
            )
        )
    return batches
