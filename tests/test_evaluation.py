"""Retrieval, salience, and embedding-export tests."""

import tracemalloc

import numpy as np
import pytest

from groundsent.autodiff import Matrix
from groundsent.data import build_vocab, gen_synthetic, numericalize
from groundsent.evaluation import (
    ENCODE_CHUNK, RANK_BLOCK, RetrievalReport, embed_lines, encode_reps, ranks, retrieval_eval,
    salience,
)
from groundsent.grounding import cosine_matrix, project
from groundsent.training import TrainConfig, init_params

TINY = dict(d_cell=4, d_a=3, n_a=2, d_e=4, d_img=5, batch_size=3, epochs=1, seed=0)


def setup_model(n=16, seed=0, v_content=8):
    config = TrainConfig(objective="cap2img", **{**TINY, "seed": seed})
    corpus = gen_synthetic(n, v_content, config.d_img, seed=seed)
    vocab = build_vocab(corpus)
    params = init_params(config, vocab.size)
    return config, corpus, vocab, params, numericalize(corpus, vocab)


# ---------------------------------------------------------------------------
# retrieval


def test_retrieval_rejects_tiny_pool():
    _, _, _, params, samples = setup_model(n=16)
    with pytest.raises(ValueError):
        retrieval_eval(params, samples[:1])


def test_retrieval_rejects_duplicate_ids():
    _, _, _, params, samples = setup_model(n=16)
    with pytest.raises(ValueError, match="duplicate"):
        retrieval_eval(params, samples + samples[:1])


def one_hot(hot, width):
    """Rows e_hot[k]: every dot product of two of them is exactly 0 or 1 under any BLAS kernel."""
    return np.eye(width)[hot]


def test_ranks_break_ties_by_corpus_order():
    # every query scores the keys 0, 1, 0, 0, so query k ranks key k among those scores
    got = ranks(one_hot([0, 0, 0, 0], 2), one_hot([1, 0, 1, 1], 2))
    assert got[0] == 2   # one strictly better, no earlier ties
    assert got[2] == 3   # key 0 ties and comes earlier
    assert got[1] == 1


def test_ranks_match_sort_oracle_with_ties():
    # three classes force ties; pools past RANK_BLOCK span several row blocks, the last
    # of them partial; both directions, as retrieval ranks them
    for n in range(2, 2 * RANK_BLOCK + 3):
        rng = np.random.default_rng(n)
        hot_q, hot_k = rng.integers(0, 3, n), rng.integers(0, 3, n)
        for q, k, sims in ((hot_q, hot_k, hot_q[:, None] == hot_k[None, :]),
                           (hot_k, hot_q, hot_k[:, None] == hot_q[None, :])):
            want = [sorted(range(n), key=lambda j: (not sims[r, j], j)).index(r) + 1
                    for r in range(n)]
            np.testing.assert_array_equal(ranks(one_hot(q, 3), one_hot(k, 3)), want,
                                          err_msg=f"pool {n}")


def whole_matrix_retrieval(params, samples):
    """Reference: the reports from the whole (n, n) cosine matrix and its transpose."""
    samples = sorted(samples, key=lambda s: s.id)
    predicted = project(params.projection, Matrix(encode_reps(params, samples)))
    sims = cosine_matrix(predicted, Matrix(np.vstack([s.img for s in samples]))).data

    def report(direction, s):
        diag = np.diagonal(s)[:, None]
        n = len(s)
        earlier = np.tril(np.ones((n, n), dtype=bool), -1)  # [k, j]: j < k
        rank = 1 + np.count_nonzero((s > diag) | ((s == diag) & earlier), axis=1)
        return RetrievalReport(direction, float((rank <= 1).mean()), float((rank <= 5).mean()),
                               float((rank <= 10).mean()), float(np.median(rank)), n)

    return report("sentence_to_image", sims), report("image_to_sentence", sims.T)


@pytest.mark.parametrize("n", [2, 17, RANK_BLOCK, RANK_BLOCK + 1, 2 * RANK_BLOCK + 2, 200])
def test_retrieval_matches_the_whole_matrix_reference(n):
    _, _, _, params, samples = setup_model(n=n, v_content=32, seed=n)
    assert retrieval_eval(params, samples) == whole_matrix_retrieval(params, samples)


def test_retrieval_same_on_one_and_two_workers(set_workers):
    _, _, _, params, samples = setup_model(n=150, v_content=32, seed=4)
    set_workers(1)
    one = retrieval_eval(params, samples)
    set_workers(2)
    assert retrieval_eval(params, samples) == one


def test_retrieval_makes_no_pool_squared_array():
    # an (n, n) float64 similarity matrix alone would be n * n * 8 bytes, 2 MiB here
    n = 512
    _, _, _, params, samples = setup_model(n=n, v_content=32, seed=6)
    tracemalloc.start()
    try:
        retrieval_eval(params, samples)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8


def test_retrieval_all_tied_ranks_by_id():
    # a zero last layer predicts the zero vector, so every cosine is exactly 0
    _, _, _, params, samples = setup_model(n=20)
    params.projection.weights[-1].data[:] = 0.0
    params.projection.biases[-1].data[:] = 0.0
    n = len(samples)
    perm = np.random.default_rng(2).permutation(n)
    for pool in (samples, [samples[i] for i in perm]):
        for report in retrieval_eval(params, pool):
            assert report.recall_at_1 == 1 / n
            assert report.recall_at_10 == 10 / n
            assert report.median_rank == (n + 1) / 2


def test_retrieval_matches_brute_force_ranker():
    # independent similarity routine + explicit sort, pool of 16
    from groundsent.autodiff import Matrix
    from groundsent.grounding import project

    _, _, _, params, samples = setup_model(n=16)
    s2i, i2s = retrieval_eval(params, samples)

    preds = project(params.projection, Matrix(encode_reps(params, samples))).data
    images = np.vstack([s.img for s in samples])

    def cos(a, b):
        # same epsilon guard as the scoring contract: an untrained head can
        # emit an exactly-zero prediction (dead ReLU layer)
        return float(a @ b) / max(np.linalg.norm(a) * np.linalg.norm(b), 1e-8)

    ranks = []
    for k in range(len(samples)):
        sims = [cos(preds[k], images[j]) for j in range(len(samples))]
        order = sorted(range(len(samples)), key=lambda j: (-sims[j], j))
        ranks.append(order.index(k) + 1)
    assert float(np.median(ranks)) == s2i.median_rank
    assert float(np.mean(np.array(ranks) <= 1)) == s2i.recall_at_1
    assert float(np.mean(np.array(ranks) <= 5)) == s2i.recall_at_5

    ranks_t = []
    for j in range(len(samples)):
        sims = [cos(preds[k], images[j]) for k in range(len(samples))]
        order = sorted(range(len(samples)), key=lambda k: (-sims[k], k))
        ranks_t.append(order.index(j) + 1)
    assert float(np.median(ranks_t)) == i2s.median_rank


def test_untrained_retrieval_is_at_chance():
    # recall@1 of an untrained model over a 128 pool should sit near 1/128;
    # allow 3 sigma of binomial noise around chance
    _, _, _, params, samples = setup_model(n=128, v_content=64, seed=1)
    s2i, _ = retrieval_eval(params, samples)
    p = 1.0 / 128
    sigma = np.sqrt(p * (1 - p) / 128)
    assert s2i.recall_at_1 <= p + 3 * sigma
    assert s2i.recall_at_5 <= 5 * p + 3 * np.sqrt(5 * p * (1 - 5 * p) / 128)


def test_retrieval_report_invariants():
    _, _, _, params, samples = setup_model(n=32)
    for report in retrieval_eval(params, samples):
        assert report.recall_at_1 <= report.recall_at_5 <= report.recall_at_10 <= 1.0
        assert 1.0 <= report.median_rank <= report.pool_size
        assert report.pool_size == 32


def test_retrieval_invariant_to_pool_shuffling():
    _, _, _, params, samples = setup_model(n=24)
    s2i_a, _ = retrieval_eval(params, samples)
    perm = np.random.default_rng(5).permutation(len(samples))
    s2i_b, _ = retrieval_eval(params, [samples[i] for i in perm])
    assert s2i_a.recall_at_1 == s2i_b.recall_at_1
    assert s2i_a.median_rank == s2i_b.median_rank


# ---------------------------------------------------------------------------
# salience


def test_salience_uniform_when_attn_proj_zero():
    _, corpus, vocab, params, _ = setup_model()
    params.encoder.attn_proj.data[:] = 0.0
    rec = salience(params, vocab, corpus.records[0].src)
    t = len(rec.tokens)
    np.testing.assert_allclose(rec.attention, np.full_like(rec.attention, 1.0 / t), atol=1e-9)
    np.testing.assert_allclose(rec.pooled, np.full(t, 1.0 / t), atol=1e-9)


def test_salience_single_token_is_one():
    _, corpus, vocab, params, _ = setup_model()
    token = corpus.records[0].salient
    rec = salience(params, vocab, token)
    assert rec.tokens == [token]
    np.testing.assert_allclose(rec.pooled, [1.0], atol=1e-12)


def test_salience_rows_are_distributions_over_real_tokens():
    _, corpus, vocab, params, _ = setup_model()
    rec = salience(params, vocab, corpus.records[1].src)
    assert rec.attention.shape == (2, len(rec.tokens))
    np.testing.assert_allclose(rec.attention.sum(axis=1), 1.0, atol=1e-9)
    assert np.all(rec.pooled > 0.0) and np.all(rec.pooled <= 1.0)


def test_salience_rejects_fully_oov_sentence():
    _, _, vocab, params, _ = setup_model()
    with pytest.raises(ValueError):
        salience(params, vocab, "zzz qqq")


# ---------------------------------------------------------------------------
# embeddings export


def test_embed_lines_empty_input():
    _, _, vocab, params, _ = setup_model()
    out = embed_lines(params, vocab, [])
    assert out.shape == (0, 8)


def test_embed_lines_identical_lines_identical_vectors():
    _, corpus, vocab, params, _ = setup_model()
    line = corpus.records[0].src
    out = embed_lines(params, vocab, [line, corpus.records[1].src, line])
    np.testing.assert_array_equal(out[0], out[2])
    assert out.shape == (3, 2 * 4)


def test_length_ordered_encoding_returns_input_order():
    # lengths alternate longest, shortest, next longest, ... over more than one
    # chunk, so length order and input order differ throughout
    n = ENCODE_CHUNK + 6
    _, corpus, vocab, params, samples = setup_model(n=n)
    by_len = sorted(range(n), key=lambda i: len(samples[i].src))
    order = [by_len[-1 - k // 2] if k % 2 == 0 else by_len[k // 2] for k in range(n)]
    pool = [samples[i] for i in order]
    assert len(pool[0].src) > len(pool[1].src)
    reps = encode_reps(params, pool)
    alone = np.vstack([encode_reps(params, [s]) for s in pool])
    np.testing.assert_allclose(reps, alone, rtol=0, atol=1e-12)
    lines = [corpus.records[i].src for i in order]
    np.testing.assert_array_equal(embed_lines(params, vocab, lines), reps)


def test_embed_lines_context_independent():
    # B = 1 and B > 1 run different BLAS kernels, so rows agree to rounding, not bits
    _, corpus, vocab, params, _ = setup_model()
    a = corpus.records[0].src
    alone = embed_lines(params, vocab, [a])
    together = embed_lines(params, vocab, [corpus.records[2].src, a])
    np.testing.assert_allclose(alone[0], together[1], rtol=0, atol=1e-12)
