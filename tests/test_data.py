"""Vocabulary, corpus IO, synthetic generator, and batching tests."""

import numpy as np
import pytest

from groundsent import data
from groundsent.data import (
    BOS, EOS, PAD, UNK, Corpus, CaptionRecord,
    build_vocab, gen_synthetic, load_embeddings, make_batches, numericalize,
    token_codes, tokenize,
)


def corpus_of(texts, d_img=4):
    rng = np.random.default_rng(0)
    recs = [
        CaptionRecord(id=f"r{i}", src=t, tgt=t, img=rng.standard_normal(d_img))
        for i, t in enumerate(texts)
    ]
    return Corpus(d_img=d_img, records=recs)


# ---------------------------------------------------------------------------
# tokenize


def test_tokenize_figure_caption():
    assert tokenize("Man in black shirt") == ["man", "in", "black", "shirt"]


def test_tokenize_empty():
    assert tokenize("") == []


def test_tokenize_strips_punctuation():
    assert tokenize("cat, bowl.") == ["cat", "bowl"]


def test_tokenize_drops_pure_punctuation():
    assert tokenize("a , b") == ["a", "b"]


# ---------------------------------------------------------------------------
# vocabulary


def test_build_vocab_min_count_threshold():
    rec = CaptionRecord(id="r0", src="a a b", tgt="", img=np.ones(4))
    vocab = build_vocab(Corpus(d_img=4, records=[rec]), min_count=2)
    # only "a" survives on top of the 4 reserved ids
    assert vocab.size == 5
    assert vocab.id_of("a") == 4
    assert vocab.id_of("b") == UNK


def test_build_vocab_counts():
    vocab = build_vocab(corpus_of(["x y z"]), min_count=1)
    assert vocab.size == 7


def test_build_vocab_deterministic():
    c = corpus_of(["b a a", "c c b"])
    v1 = build_vocab(c, 1)
    v2 = build_vocab(c, 1)
    assert v1.index == v2.index


def test_build_vocab_frequency_then_lexicographic():
    vocab = build_vocab(corpus_of(["b b a a c"]), min_count=1)
    # a and b tie on frequency -> lexicographic; c is rarer -> last
    assert [vocab.id_of(t) for t in ("a", "b", "c")] == [4, 5, 6]


def test_build_vocab_skips_reserved_strings_in_text():
    vocab = build_vocab(corpus_of(["a <unk> <pad>", "<BOS> b <eos>"]), 1)
    assert vocab.content_tokens() == ["a", "b"]


def test_encode_reads_reserved_strings_as_unk():
    vocab = build_vocab(corpus_of(["a b"]), 1)
    ids = vocab.encode("a <pad> b <bos> <EOS>, <unk>")
    np.testing.assert_array_equal(ids, [BOS, 4, UNK, 5, UNK, UNK, UNK, EOS])


def test_build_vocab_empty_corpus_rejected():
    with pytest.raises(ValueError):
        build_vocab(Corpus(d_img=4, records=[]), 1)


def test_encode_wraps_with_bos_eos():
    vocab = build_vocab(corpus_of(["cat bowl"]), 1)
    ids = vocab.encode("cat bowl")
    assert ids[0] == BOS and ids[-1] == EOS and len(ids) == 4


# ---------------------------------------------------------------------------
# embeddings


def test_load_embeddings_full_coverage(tmp_path):
    vocab = build_vocab(corpus_of(["cat bowl"]), 1)
    path = tmp_path / "emb.txt"
    path.write_text("cat 1.0 2.0 3.0\nbowl 4.0 5.0 6.0\n")
    table = load_embeddings(path, vocab, dim=3)
    assert table.coverage == 1.0
    np.testing.assert_array_equal(table.weights.data[vocab.id_of("cat")], [1.0, 2.0, 3.0])


def test_load_embeddings_empty_file(tmp_path):
    vocab = build_vocab(corpus_of(["cat bowl"]), 1)
    path = tmp_path / "emb.txt"
    path.write_text("")
    table = load_embeddings(path, vocab, dim=3)
    assert table.coverage == 0.0
    np.testing.assert_array_equal(table.weights.data[PAD], np.zeros(3))
    assert np.abs(table.weights.data[4:]).max() <= 0.1


@pytest.mark.parametrize("values, message", [
    ("4.0 5.0", "expected 3 values, got 2"), ("4.0 nan 6.0", "non-finite value"),
    ("4.0 1e400 6.0", "non-finite value"),
    ("4.0 abc 6.0", "could not convert string to float: 'abc'"),
], ids=["width", "nan", "overflow", "not-a-number"])
def test_load_embeddings_bad_row_names_line(tmp_path, values, message):
    vocab = build_vocab(corpus_of(["cat bowl"]), 1)
    path = tmp_path / "emb.txt"
    path.write_text(f"cat 1.0 2.0 3.0\nbowl {values}\n")
    with pytest.raises(ValueError, match=f"^embedding file line 2: {message}$"):
        load_embeddings(path, vocab, dim=3)


# ---------------------------------------------------------------------------
# synthetic corpus


def test_gen_synthetic_deterministic():
    a = gen_synthetic(16, 16, 8, seed=3)
    b = gen_synthetic(16, 16, 8, seed=3)
    assert [r.src for r in a.records] == [r.src for r in b.records]
    for ra, rb in zip(a.records, b.records):
        np.testing.assert_array_equal(ra.img, rb.img)


def test_gen_synthetic_unit_norm_images():
    corpus = gen_synthetic(32, 16, 8, seed=1)
    for rec in corpus.records:
        assert np.linalg.norm(rec.img) == pytest.approx(1.0, abs=1e-6)


def test_gen_synthetic_rejects_tiny_vocab():
    with pytest.raises(ValueError):
        gen_synthetic(4, 7, 8, seed=0)


@pytest.mark.parametrize("n, d_img", [(0, 8), (-3, 8), (4, 0), (4, -2)])
def test_gen_synthetic_rejects_empty_sizes(n, d_img):
    with pytest.raises(ValueError, match="must be >= 1"):
        gen_synthetic(n, 16, d_img, seed=0)


def test_gen_synthetic_salient_token_is_member():
    corpus = gen_synthetic(32, 16, 8, seed=2)
    for rec in corpus.records:
        assert rec.salient in tokenize(rec.src)
        assert rec.src == rec.tgt


def test_gen_synthetic_token_lengths():
    corpus = gen_synthetic(64, 16, 8, seed=5)
    lengths = {len(tokenize(r.src)) for r in corpus.records}
    assert lengths <= set(range(3, 9))


def test_nearest_code_retrieval_recovers_samples():
    # Brute-force oracle: an unweighted sum of member-token codes should rank
    # the generating sample's image first for nearly every sample.
    n, v, d = 128, 64, 64
    seed = 9
    corpus = gen_synthetic(n, v, d, seed)
    names = sum(data.synthetic_token_names(v), [])
    codes = token_codes(v, d, seed)
    code_of = {name: codes[i] for i, name in enumerate(names)}
    images = np.stack([r.img for r in corpus.records])
    images_n = images / np.linalg.norm(images, axis=1, keepdims=True)
    hits = 0
    for i, rec in enumerate(corpus.records):
        query = sum(code_of[t] for t in tokenize(rec.src))
        sims = images_n @ (query / np.linalg.norm(query))
        hits += int(np.argmax(sims) == i)
    assert hits / n >= 0.95


# ---------------------------------------------------------------------------
# corpus round-trip


def test_corpus_roundtrip_identical_samples(tmp_path):
    corpus = gen_synthetic(12, 16, 8, seed=4)
    path = tmp_path / "corpus.jsonl"
    corpus.save(path)
    loaded = Corpus.load(path)
    assert loaded.d_img == corpus.d_img
    vocab = build_vocab(corpus, 1)
    orig = numericalize(corpus, vocab)
    redo = numericalize(loaded, build_vocab(loaded, 1))
    assert len(orig) == len(redo)
    for a, b in zip(orig, redo):
        assert a.id == b.id
        np.testing.assert_array_equal(a.src, b.src)
        np.testing.assert_array_equal(a.tgt, b.tgt)
        np.testing.assert_array_equal(a.img, b.img)


def test_corpus_load_rejects_zero_norm_image(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"d_img": 2}\n{"id": "x", "src": "a", "tgt": "a", "img": [0.0, 0.0]}\n')
    with pytest.raises(ValueError, match="zero-norm"):
        Corpus.load(path)


@pytest.mark.parametrize("header", ['{"dim": 2}', '{"d_img": "two"}', '[2]', 'not json',
                                    '{"d_img": true}'])
def test_corpus_load_rejects_bad_header_naming_line_one(tmp_path, header):
    path = tmp_path / "bad.jsonl"
    path.write_text(header + '\n{"id": "x", "src": "a", "tgt": "a", "img": [1.0, 0.0]}\n')
    with pytest.raises(ValueError, match="corpus line 1"):
        Corpus.load(path)


@pytest.mark.parametrize("record, message", [
    ('{"id": "x", "src": "a", "img": [1.0, 0.0]}', "missing field 'tgt'"),
    ('{"id": "x", "src": 7, "tgt": "a", "img": [1.0, 0.0]}', "src must be a string, got int"),
    ('{"id": "x", "src": "a", "tgt": 7, "img": [1.0, 0.0]}', "tgt must be a string, got int"),
    ('{"id": "x", "src": "a", "tgt": "a", "img": "abc"}',
     "could not convert string to float: 'abc'"),
    ('{"id": "x", "src": "a", "tgt": "a", "img": [1.0, "b"]}',
     "could not convert string to float: 'b'"),
], ids=["missing-tgt", "int-src", "int-tgt", "string-img", "string-in-img"])
def test_corpus_load_rejects_bad_field_naming_line(tmp_path, record, message):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"d_img": 2}\n' + record + "\n")
    with pytest.raises(ValueError, match=f"corpus line 2: {message}"):
        Corpus.load(path)


def test_corpus_load_rejects_duplicate_id_naming_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"d_img": 2}\n{"id": "x", "src": "a", "tgt": "a", "img": [1.0, 0.0]}\n'
                    '{"id": "y", "src": "b", "tgt": "b", "img": [0.0, 1.0]}\n'
                    '{"id": "x", "src": "c", "tgt": "c", "img": [1.0, 1.0]}\n')
    with pytest.raises(ValueError, match="corpus line 4: duplicate id 'x'"):
        Corpus.load(path)


@pytest.mark.parametrize("value", ["Infinity", "-Infinity", "NaN"])
def test_corpus_load_rejects_non_finite_image_naming_line(tmp_path, value):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"d_img": 2}\n{"id": "x", "src": "a", "tgt": "a", "img": [1.0, 0.0]}\n'
                    f'{{"id": "y", "src": "a", "tgt": "a", "img": [1.0, {value}]}}\n')
    with pytest.raises(ValueError, match="corpus line 3: non-finite"):
        Corpus.load(path)


# ---------------------------------------------------------------------------
# batching


def batch_fixture(n=5, seed=0):
    corpus = gen_synthetic(n, 16, 8, seed=seed)
    vocab = build_vocab(corpus, 1)
    return numericalize(corpus, vocab)


def test_make_batches_drops_trailing_singleton():
    batches = make_batches(batch_fixture(5), batch_size=2, seed=0)
    assert [b.size for b in batches] == [2, 2]


def test_make_batches_rejects_small_batch_size():
    with pytest.raises(ValueError):
        make_batches(batch_fixture(4), batch_size=1, seed=0)


def test_mask_sums_equal_true_lengths():
    samples = batch_fixture(6)
    for batch in make_batches(samples, 3, seed=1):
        by_id = {s.id: s for s in samples}
        for k, sid in enumerate(batch.ids):
            assert batch.src_mask[k].sum() == len(by_id[sid].src)
            assert batch.tgt_mask[k].sum() == len(by_id[sid].tgt)
            np.testing.assert_array_equal(batch.src_ids(k), by_id[sid].src)


def test_epoch_shuffles_differ_but_reproduce():
    samples = batch_fixture(8)
    e0 = [b.ids for b in make_batches(samples, 4, seed=7, epoch=0)]
    e1 = [b.ids for b in make_batches(samples, 4, seed=7, epoch=1)]
    e0_again = [b.ids for b in make_batches(samples, 4, seed=7, epoch=0)]
    assert e0 == e0_again
    assert e0 != e1


def test_batch_rejects_duplicate_ids():
    samples = batch_fixture(4)
    dup = [samples[0], samples[0]]
    with pytest.raises(ValueError, match="duplicate"):
        make_batches(dup, 2, seed=0)
