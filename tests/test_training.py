"""Initialization, optimizer, composite objective, and training-loop tests."""

import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from groundsent import autodiff as ad
from groundsent import checkpoint as ckpt
from groundsent import parallel, training
from groundsent.autodiff import Matrix, Tape
from groundsent.data import (
    PAD, Vocabulary, build_vocab, gen_synthetic, load_embeddings, make_batches, numericalize,
)
from groundsent.training import (
    AdamState, FlatTensors, TrainConfig, adam_step, clip_gradients, composite_loss, init_params,
    train, train_step,
)

TINY = dict(d_cell=4, d_a=3, n_a=2, d_e=4, d_img=5, batch_size=3, epochs=1, seed=0)
ADAM = dict(beta1=0.9, beta2=0.999, eps=1e-8)  # TrainConfig's beta1, beta2 and adam_eps


def tiny_setup(objective="cap2all", n=6, seed=0):
    config = TrainConfig(objective=objective, **{**TINY, "seed": seed})
    corpus = gen_synthetic(n, 8, config.d_img, seed=seed)
    vocab = build_vocab(corpus)
    samples = numericalize(corpus, vocab)
    params = init_params(config, vocab.size)
    batch = make_batches(samples, config.batch_size, seed=seed)[0]
    return config, params, batch, vocab, corpus


# ---------------------------------------------------------------------------
# init_params


def test_recurrent_blocks_are_orthogonal():
    config, params, _, _, _ = tiny_setup()
    d = config.d_cell
    for name in ("enc_fwd_recur_w", "enc_bwd_recur_w", "dec_recur_w"):
        w = params.named()[name].data
        for gate in range(4):
            block = w[:, gate * d : (gate + 1) * d]
            err = np.linalg.norm(block.T @ block - np.eye(d))
            assert err < 1e-5, f"{name}[gate{gate}]: {err}"


def test_xavier_bounds_respected():
    config, params, _, _, _ = tiny_setup()
    d, v = config.d_cell, params.embeddings.rows
    checks = {
        "dec_out_w": (d, v),
        "attn_proj": (d, config.d_a),
        "dec_init_h": (2 * d, d),
    }
    named = params.named()
    for name, (fan_in, fan_out) in checks.items():
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        assert np.abs(named[name].data).max() <= bound


def test_init_deterministic_in_seed():
    c1, p1, _, _, _ = tiny_setup(seed=3)
    c2, p2, _, _, _ = tiny_setup(seed=3)
    for (n1, m1), (n2, m2) in zip(p1.named().items(), p2.named().items()):
        assert n1 == n2
        np.testing.assert_array_equal(m1.data, m2.data)


def test_forget_gate_bias_is_one_and_pad_row_zero():
    config, params, _, _, _ = tiny_setup()
    d = config.d_cell
    bias = params.encoder.forward_cell.bias.data[0]
    np.testing.assert_array_equal(bias[d : 2 * d], np.ones(d))
    np.testing.assert_array_equal(bias[:d], np.zeros(d))
    np.testing.assert_array_equal(params.embeddings.data[PAD], np.zeros(config.d_e))


def test_every_tensor_named_exactly_once():
    _, params, _, _, _ = tiny_setup()
    named = params.named()
    assert len({id(m) for m in named.values()}) == len(named)


LAYOUT_NAMES = [
    "embeddings", "enc_fwd_input_w", "enc_fwd_recur_w", "enc_fwd_bias", "enc_bwd_input_w",
    "enc_bwd_recur_w", "enc_bwd_bias", "attn_proj", "attn_heads", "dec_init_h", "dec_init_c",
    "dec_input_w", "dec_recur_w", "dec_bias", "dec_out_w", "dec_out_b",
    "proj_w1", "proj_b1", "proj_w2", "proj_b2", "proj_w3", "proj_b3", "proj_w4", "proj_b4",
]


def stacked_init_vector(config, v):
    """Reference for init_params: each tensor drawn whole (a cell's four gate blocks
    hstacked), in layout order, then concatenated into one vector."""
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, training._SEED_INIT]))
    d, d_e, d_p = config.d_cell, config.d_e, config.d_p

    def xavier(fan_in, fan_out, shape):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-bound, bound, size=shape)

    def orthogonal(n):
        q, r = np.linalg.qr(rng.standard_normal((n, n)))
        return q * np.sign(np.diag(r))

    def cell(d_in):
        input_w = np.hstack([xavier(d_in, d, (d_in, d)) for _ in range(4)])
        recur_w = np.hstack([orthogonal(d) for _ in range(4)])
        bias = np.zeros((1, 4 * d))
        bias[0, d : 2 * d] = 1.0
        return [input_w, recur_w, bias]

    emb = rng.uniform(-0.1, 0.1, size=(v, d_e))
    emb[PAD] = 0.0
    tensors = [emb, *cell(d_e), *cell(d_e), xavier(d, config.d_a, (config.d_a, d)),
               xavier(config.d_a, config.n_a, (config.n_a, config.d_a)),
               xavier(2 * d, d, (d, 2 * d)), xavier(2 * d, d, (d, 2 * d)), *cell(d_e),
               xavier(d, v, (v, d)), np.zeros((1, v))]
    dims = [(2 * d, d_p), (d_p, d_p), (d_p, d_p), (d_p, config.d_img)]
    for w, (_, cols) in zip([xavier(a, b, (a, b)) for a, b in dims], dims):
        tensors += [w, np.zeros((1, cols))]
    return np.concatenate([t.ravel() for t in tensors])


@pytest.mark.parametrize("case", ["defaults", "d_p", "table"])
def test_init_params_matches_the_stacked_construction(tmp_path, case):
    config = TrainConfig(**{"defaults": {}, "d_p": {"d_p": 24, "seed": 5},
                            "table": {"seed": 2}}[case])
    corpus = gen_synthetic(64, 64, config.d_img, seed=3)
    vocab = build_vocab(corpus)
    params = init_params(config, vocab.size)
    want = stacked_init_vector(config, vocab.size)
    if case == "table":  # a file replaces the rows it covers, and only those
        covered = vocab.content_tokens()[::2]
        rows = np.random.default_rng(9).standard_normal((len(covered), config.d_e))
        path = tmp_path / "emb.txt"
        path.write_text("".join(f"{t} " + " ".join(map(repr, row)) + "\n"
                                for t, row in zip(covered, rows.tolist())))
        coverage = load_embeddings(path, vocab, params.embeddings.data)
        assert coverage == len(covered) / len(vocab.content_tokens())
        want[: vocab.size * config.d_e].reshape(vocab.size, -1)[
            [vocab.id_of(t) for t in covered]] = rows
    assert list(params.named()) == list(params.shapes) == LAYOUT_NAMES
    assert np.array_equal(params.values.vector, want)


def test_init_params_draws_the_table_without_a_table_sized_temporary():
    # At GloVe size: the vector, and below 3 MiB of draws (a 512-row block of the table is
    # 1.2 MiB); one whole draw of the table is 46 MiB, and of dec_out_w 4.9 MiB.
    tracemalloc.start()
    try:
        params = init_params(TrainConfig(d_e=300), 20_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < params.values.vector.nbytes + (3 << 20)


def test_embedding_file_loads_without_a_table_sized_temporary(tmp_path):
    # The file's rows go straight into the drawn table: below 4 MiB past the vector, where a
    # second (V, d_e) table would be 46 MiB.
    vocab = Vocabulary([f"w{i}" for i in range(19_996)])
    path = tmp_path / "emb.txt"
    path.write_text("".join(f"w{i} " + " ".join(["0.5"] * 300) + "\n" for i in range(3)))
    tracemalloc.start()
    try:
        params = init_params(TrainConfig(d_e=300), vocab.size)
        assert load_embeddings(path, vocab, params.embeddings.data) == 3 / 19_996
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < params.values.vector.nbytes + (4 << 20)


@pytest.mark.parametrize("block", [1, 7, 512])
def test_table_drawn_in_blocks_equals_one_draw(monkeypatch, block):
    # 68 rows of the table and of dec_out_w: many blocks, a short last one, or one block;
    # every tensor drawn after each matches too, so the generator is left where one draw
    # would leave it
    monkeypatch.setattr(training, "TABLE_BLOCK", block)
    config = TrainConfig(seed=3)
    params = init_params(config, 68)
    assert np.array_equal(params.values.vector, stacked_init_vector(config, 68))


# ---------------------------------------------------------------------------
# clip / adam


def test_clip_gradients_examples():
    grad = np.array([7.0, -12.0, 3.0])
    clip_gradients(grad, 5.0)
    np.testing.assert_array_equal(grad, [5.0, -5.0, 3.0])


def test_clip_leaves_in_bound_untouched():
    g = np.array([1.0, -4.9])
    grad = g.copy()
    clip_gradients(grad, 5.0)
    np.testing.assert_array_equal(grad, g)


def one_tensor_adam():
    shapes = {"t": (1, 2)}
    return AdamState(0, FlatTensors(shapes), FlatTensors(shapes))


def test_adam_zero_gradient_is_noop():
    theta = np.array([2.0, -1.0])
    before = theta.copy()
    adam_step(theta, np.zeros(2), one_tensor_adam(), lr=0.1, **ADAM)
    np.testing.assert_array_equal(theta, before)


def test_adam_first_step_magnitude_is_lr():
    theta = np.array([2.0, -1.0])
    before = theta.copy()
    adam_step(theta, np.array([0.5, -3.0]), one_tensor_adam(), lr=1e-3, **ADAM)
    np.testing.assert_allclose(np.abs(theta - before), 1e-3, rtol=1e-6)


def test_adam_converges_on_quadratic():
    target = np.array([[1.0, -2.0]])
    theta = Matrix([[1.5, 2.3]])
    tgt = Matrix(target)
    state = one_tensor_adam()
    loss_value = None
    for _ in range(500):
        theta.grad = None
        with Tape() as tape:
            diff = ad.add(theta, ad.scale(tgt, -1.0))
            loss = ad.sum_all(ad.mul(diff, diff))
            loss_value = loss.item()
            tape.backward(loss)
        adam_step(theta.data.reshape(-1), theta.grad.reshape(-1), state, lr=0.1, **ADAM)
    assert loss_value < 1e-6


def reference_update(tensors, grads, m, v, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Adam in Kingma & Ba's efficient order, one temporary array per operation."""
    bc1, bc2 = 1.0 - beta1**t, 1.0 - beta2**t
    step_size, eps_hat = lr * np.sqrt(bc2) / bc1, eps * np.sqrt(bc2)
    for name, data in tensors.items():
        g = grads[name]
        m[name] *= beta1
        m[name] += (1.0 - beta1) * g
        v[name] *= beta2
        v[name] += (1.0 - beta2) * g * g
        data -= step_size * m[name] / (np.sqrt(v[name]) + eps_hat)


@pytest.mark.parametrize("block", [None, 8])  # 8: blocks cross tensor boundaries
def test_adam_step_matches_reference_update_bit_for_bit(monkeypatch, block):
    if block is not None:
        monkeypatch.setattr(training, "ADAM_BLOCK", block)
    rng = np.random.default_rng(14)
    shapes = {"big": (7, 5), "wide": (1, 12), "mid": (3, 4), "small": (2, 2)}  # 67 entries
    data, grads = FlatTensors(shapes), FlatTensors(shapes)
    data.vector[:] = rng.standard_normal(data.vector.size)
    state = AdamState(0, FlatTensors(shapes), FlatTensors(shapes))
    ref = {k: a.copy() for k, a in data.items()}
    ref_m = {k: np.zeros(s) for k, s in shapes.items()}
    ref_v = {k: np.zeros(s) for k, s in shapes.items()}
    for t in range(1, 4):
        grads.vector[:] = rng.standard_normal(grads.vector.size)
        adam_step(data.vector, grads.vector, state, lr=0.01, **ADAM)
        reference_update(ref, grads, ref_m, ref_v, t, lr=0.01)
    assert state.step == 3
    for k in shapes:
        np.testing.assert_array_equal(data[k], ref[k])
        np.testing.assert_array_equal(state.m[k], ref_m[k])
        np.testing.assert_array_equal(state.v[k], ref_v[k])


def test_adam_step_matches_the_textbook_update():
    # lr * (m / bc1) / (sqrt(v / bc2) + eps), the form of Kingma & Ba's Algorithm 1
    lr, beta1, beta2, eps = 0.01, 0.9, 0.999, 1e-8
    rng = np.random.default_rng(15)
    data = rng.standard_normal(40)
    want, m, v = data.copy(), np.zeros(40), np.zeros(40)
    state = AdamState(0, FlatTensors({"x": (1, 40)}), FlatTensors({"x": (1, 40)}))
    for t in range(1, 9):
        g = rng.standard_normal(40) * 10.0 ** rng.integers(-6, 2, size=40)
        adam_step(data, g, state, lr, beta1, beta2, eps)
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * g * g
        want -= lr * (m / (1.0 - beta1**t)) / (np.sqrt(v / (1.0 - beta2**t)) + eps)
    np.testing.assert_allclose(data, want, rtol=1e-14, atol=0)
    np.testing.assert_array_equal(state.m.vector, m)
    np.testing.assert_array_equal(state.v.vector, v)


@pytest.mark.parametrize("workers", [1, 2])
def test_adam_over_gathered_table_rows_is_bit_for_bit_dense_adam(monkeypatch, set_workers,
                                                                 workers):
    # A 31 x 5 table and a 45-entry tail: 200 entries, which two workers cut at entry 100.
    # With 7-entry blocks the dense pass has a block across the table's end (155) and,
    # on two workers, one across the span cut; the table pass must stop at the end.
    set_workers(workers)
    monkeypatch.setattr(parallel, "MIN_SPAN", 64)
    monkeypatch.setattr(training, "ADAM_BLOCK", 7)
    shapes = {"table": (31, 5), "tail": (1, 45)}
    spans = parallel.spans(200)
    assert len(spans) == workers and all(s.start % 7 != 0 for s in spans[1:])
    assert (155 - spans[-1].start) % 7 != 0
    rng = np.random.default_rng(16)
    start = rng.standard_normal(200)
    dense, sparse = FlatTensors(shapes), FlatTensors(shapes)
    dense.vector[:] = sparse.vector[:] = start
    ref = {k: a.copy() for k, a in dense.items()}
    states = [AdamState(0, FlatTensors(shapes), FlatTensors(shapes)) for _ in range(2)]
    ref_m, ref_v = ({k: np.zeros(s) for k, s in shapes.items()} for _ in range(2))
    for t in range(1, 4):
        rows = np.union1d([0, 19, 20, 30], rng.choice(31, size=4))  # row 20 holds entry 100
        grads = FlatTensors(shapes)
        grads["table"][rows] = rng.standard_normal((rows.size, 5))
        grads["tail"][...] = rng.standard_normal((1, 45))
        adam_step(dense.vector, grads.vector.copy(), states[0], lr=0.01, **ADAM)
        adam_step(sparse.vector, grads.vector[155:], states[1], lr=0.01, **ADAM,
                  table=(rows, grads["table"][rows]))
        reference_update(ref, grads, ref_m, ref_v, t, lr=0.01)
    for k in shapes:
        for got in (dense, sparse):
            np.testing.assert_array_equal(got[k], ref[k], err_msg=k)
        for state in states:
            np.testing.assert_array_equal(state.m[k], ref_m[k], err_msg=k)
            np.testing.assert_array_equal(state.v[k], ref_v[k], err_msg=k)


def assert_views_of_vectors(params):
    """Each .data is a view of the parameter vector; outside a step .grad and grad_rows are None."""
    for name, m in params.named().items():
        assert np.shares_memory(m.data, params.values.vector), name
        assert m.grad is None and m.grad_rows is None, name


def test_tensors_stay_views_of_the_parameter_and_gradient_vectors(tmp_path, monkeypatch):
    config = TrainConfig(objective="cap2all", **TINY)
    corpus = gen_synthetic(6, 8, config.d_img, seed=4)
    vocab = build_vocab(corpus)
    params = init_params(config, vocab.size)
    assert params.grads is None  # set-up makes no gradient
    assert_views_of_vectors(params)

    backward, seen = Tape.backward, []

    def spy(tape, loss):
        # during the step the table's .grad holds the rows the batch gathers, every other
        # .grad is a view of the step's gradient vector, so the backward writes into them
        backward(tape, loss)
        for name, m in params.named().items():
            if name == "embeddings":
                rows = np.union1d(batch.src, batch.tgt)
                assert m.grad.shape == (rows.size, config.d_e) and m.grad.any()
                np.testing.assert_array_equal(m.grad_rows, rows)
            else:
                assert np.shares_memory(m.grad, params.grads.vector), name
        seen.append(loss)

    batch = make_batches(numericalize(corpus, vocab), config.batch_size, seed=0)[0]
    adam = AdamState.for_params(params)
    before = params.values.vector.copy()
    monkeypatch.setattr(Tape, "backward", spy)
    train_step(batch, params, adam, config, rng=np.random.default_rng(0))
    monkeypatch.undo()
    assert len(seen) == 1
    assert_views_of_vectors(params)
    assert not np.array_equal(params.values.vector, before)  # Adam updated the model's memory
    with Tape() as tape:
        loss, _, _ = composite_loss(config.objective, batch, params, train_mode=False)
        tape.backward(loss)
    assert params.embeddings.grad is not None
    params.zero_grads()
    assert_views_of_vectors(params)

    result = train(config, corpus, out_dir=tmp_path)
    loaded, adam, _, _, _ = ckpt.load(result.checkpoint_path)
    assert loaded.grads is None
    assert_views_of_vectors(loaded)
    for moments in (adam.m, adam.v):
        assert all(np.shares_memory(view, moments.vector) for view in moments.values())


# ---------------------------------------------------------------------------
# composite objectives


def test_cap2all_is_sum_of_components():
    config, params, batch, _, _ = tiny_setup()
    rng = lambda: np.random.default_rng(42)
    _, c_only, _ = composite_loss("cap2cap", batch, params, train_mode=True, rng=rng())
    _, _, vg_only = composite_loss("cap2img", batch, params, train_mode=True, rng=rng())
    all_loss, c_part, vg_part = composite_loss("cap2all", batch, params,
                                               train_mode=True, rng=rng())
    assert c_part == pytest.approx(c_only, abs=1e-9)
    assert vg_part == pytest.approx(vg_only, abs=1e-9)
    assert all_loss.item() == pytest.approx(c_only + vg_only, abs=1e-9)


def test_cap2all_gradient_is_sum_of_component_gradients():
    config, params, batch, _, _ = tiny_setup()

    def grads_for(objective):
        params.zero_grads()
        with Tape() as tape:
            loss, _, _ = composite_loss(objective, batch, params, train_mode=False)
            tape.backward(loss)
        return {k: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
                for k, p in params.named().items()}

    g_cap = grads_for("cap2cap")
    g_img = grads_for("cap2img")
    g_all = grads_for("cap2all")
    for name in g_all:
        np.testing.assert_allclose(g_all[name], g_cap[name] + g_img[name], atol=1e-9)


def test_cap2img_ignores_target_tokens():
    config, params, batch, _, _ = tiny_setup()
    _, _, base = composite_loss("cap2img", batch, params, train_mode=False)
    perturbed = batch
    perturbed.tgt[:, 1] = (perturbed.tgt[:, 1] + 1) % 8 + 4
    _, _, after = composite_loss("cap2img", batch, params, train_mode=False)
    assert after == pytest.approx(base, abs=1e-12)


def test_pad_row_gradient_is_exactly_zero():
    # PAD fills the short lanes of a batch; no gradient may reach its embedding row under any
    # objective, at the initialization or off it, so train_step leaves the row at 0. Padded
    # steps get attention weight 0, padded targets are dropped before the head, and BPTT
    # carries gradient only back in time from real steps.
    config = TrainConfig(objective="cap2all", **TINY)
    corpus = gen_synthetic(12, 8, config.d_img, seed=0)
    vocab = build_vocab(corpus)
    params = init_params(config, vocab.size)
    batches = make_batches(numericalize(corpus, vocab), config.batch_size, seed=0)
    rng = np.random.default_rng(1)
    for _ in range(2):
        for objective in training.OBJECTIVES:
            for batch in batches:
                assert not batch.src_mask.all() and not batch.tgt_mask.all()
                params.zero_grads()
                with Tape() as tape:
                    loss, _, _ = composite_loss(objective, batch, params, rng=rng)
                    tape.backward(loss)
                assert np.all(params.embeddings.grad[PAD] == 0.0)
                assert np.any(params.embeddings.grad != 0.0)
        params.values.vector += rng.uniform(-0.05, 0.05, size=params.values.vector.size)


def gathered_rows_setup(objective="cap2all", clip=5.0):
    """Parameters at 43 rows, a padded batch and an unpadded one; neither holds every row."""
    # seed 1: at this size, seed 0's projection passes cap2img no gradient at all
    config = TrainConfig(objective=objective, **{**TINY, "seed": 1, "clip": clip})
    corpus = gen_synthetic(48, 40, config.d_img, seed=6)
    vocab = build_vocab(corpus)
    samples = numericalize(corpus, vocab)
    same_length = [s for s in samples if len(s.src) == len(samples[0].src)]
    batches = [make_batches(group, 3, seed=6)[0] for group in (samples, same_length)]
    assert PAD in batches[0].src and PAD not in np.concatenate([batches[1].src, batches[1].tgt])
    return config, init_params(config, vocab.size), batches


@pytest.mark.parametrize("objective", training.OBJECTIVES)
def test_table_gradient_is_zero_outside_the_rows_a_batch_holds(objective):
    # train_step checks, clips and zeroes PAD on these rows only
    config, params, batches = gathered_rows_setup(objective)
    for batch in batches:
        params.zero_grads()
        with Tape() as tape:
            loss, _, _ = composite_loss(objective, batch, params, train_mode=True,
                                        rng=np.random.default_rng(0))
            tape.backward(loss)
        outside = np.setdiff1d(np.arange(params.embeddings.rows),
                               np.union1d(batch.src, batch.tgt))
        assert outside.size > 0 and params.embeddings.grad.any()
        assert not params.embeddings.grad[outside].any()


def test_nan_in_a_gathered_table_row_stops_the_step_before_any_update(monkeypatch):
    config, params, (batch, _) = gathered_rows_setup()
    adam = AdamState.for_params(params)
    before = params.values.vector.copy()
    backward = Tape.backward

    def poisoned(tape, loss):
        backward(tape, loss)
        table = params.embeddings
        table.grad[np.searchsorted(table.grad_rows, batch.src[0, 1]), 2] = np.nan

    monkeypatch.setattr(Tape, "backward", poisoned)
    with pytest.raises(FloatingPointError, match="non-finite gradient of embeddings at step 1"):
        train_step(batch, params, adam, config, rng=np.random.default_rng(0))
    assert np.array_equal(params.values.vector, before) and adam.step == 0
    assert not adam.m.vector.any() and not adam.v.vector.any()


def test_binding_clip_of_the_gathered_rows_equals_a_full_clip(monkeypatch):
    # Adam is handed the clipped tail and the clipped gathered table rows; a clip of every
    # table row would differ from them nowhere, since the other rows' gradient is 0
    config, params, (batch, _) = gathered_rows_setup(clip=0.01)
    raw, handed = [], []
    backward, adam_step = Tape.backward, training.adam_step

    def keep(tape, loss):
        # the table's gradient laid out dense: its held rows, and 0 elsewhere
        backward(tape, loss)
        table = np.zeros(params.embeddings.shape)
        table[params.embeddings.grad_rows] = params.embeddings.grad
        raw.append((table, params.embeddings.grad_rows.copy(), params.grads.vector.copy()))

    def spy(data, grad, state, *args, table):
        handed.append((grad.copy(), *(x.copy() for x in table)))
        adam_step(data, grad, state, *args, table=table)

    monkeypatch.setattr(Tape, "backward", keep)
    monkeypatch.setattr(training, "adam_step", spy)
    train_step(batch, params, AdamState.for_params(params), config, rng=np.random.default_rng(0))
    table, held, tail = raw[0]
    rows = np.union1d(batch.src, batch.tgt)
    np.testing.assert_array_equal(held, rows)
    assert (np.abs(table[rows]) > 0.01).any()  # the clip binds on the table
    assert not table[PAD].any()
    got_tail, got_rows, got_row_grads = handed[0]
    np.testing.assert_array_equal(got_rows, rows)
    np.testing.assert_array_equal(got_row_grads, np.clip(table, -0.01, 0.01)[rows])
    assert not np.delete(table, rows, axis=0).any()
    np.testing.assert_array_equal(got_tail, np.clip(tail, -0.01, 0.01))
    np.testing.assert_array_equal(params.grads.vector, got_tail)  # the tail is clipped in place
    assert params.embeddings.grad is None and params.embeddings.grad_rows is None


@pytest.mark.parametrize("before",
                         ["failed_step", "outside_backward", "backward_without_zero_grads"])
def test_no_stale_table_gradient_reaches_the_next_step(monkeypatch, before):
    # After a step, a step that raises after its backward, or a backward outside train_step
    # with or without zero_grads after it, must leave nothing that the next step, on other
    # rows that overlap these, would add into its update.
    config, params, (first, second) = gathered_rows_setup()
    adam = AdamState.for_params(params)
    rows = [np.union1d(b.src, b.tgt) for b in (first, second)]
    shared = np.setdiff1d(np.intersect1d(*rows), [PAD])
    assert shared.size and not np.array_equal(*rows)
    train_step(first, params, adam, config, rng=np.random.default_rng(0))
    if before == "failed_step":
        backward = Tape.backward

        def poisoned(tape, loss):
            backward(tape, loss)
            table = params.embeddings
            table.grad[np.searchsorted(table.grad_rows, shared[0]), 2] = np.nan

        monkeypatch.setattr(Tape, "backward", poisoned)
        with pytest.raises(FloatingPointError, match="non-finite gradient of embeddings"):
            train_step(first, params, adam, config, rng=np.random.default_rng(2))
        monkeypatch.undo()
    else:
        with Tape() as tape:
            loss, _, _ = composite_loss(config.objective, first, params, train_mode=False)
            tape.backward(loss)
        # outside a step the backward makes a dense gradient, which the next step replaces
        assert params.embeddings.grad_rows is None
        assert params.embeddings.grad.shape == params.embeddings.shape
        assert params.embeddings.grad[shared].any()
        if before == "outside_backward":
            params.zero_grads()
    train_step(second, params, adam, config, rng=np.random.default_rng(1))
    assert all(m.grad is None and m.grad_rows is None for m in params.named().values())

    _, fresh, _ = gathered_rows_setup()
    fresh_adam = AdamState.for_params(fresh)
    train_step(first, fresh, fresh_adam, config, rng=np.random.default_rng(0))
    train_step(second, fresh, fresh_adam, config, rng=np.random.default_rng(1))
    assert adam.step == fresh_adam.step == 2
    for got, want in ((params.values, fresh.values), (adam.m, fresh_adam.m),
                      (adam.v, fresh_adam.v)):
        assert np.array_equal(got.vector, want.vector)


def test_train_step_never_allocates_a_dense_vocabulary_buffer():
    # the head runs in vocabulary tiles: no (T*B, V) array, though the V-wide tensors are allocated
    config = TrainConfig(batch_size=32, seed=0)
    corpus = gen_synthetic(64, 8, config.d_img, seed=0)
    batch = make_batches(numericalize(corpus, build_vocab(corpus)), 32, seed=0)[0]
    v = 20_000
    params = init_params(config, v)
    adam = AdamState.for_params(params)
    tracemalloc.start()
    try:
        train_step(batch, params, adam, config, rng=np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rows = batch.size * (batch.tgt.shape[1] - 1)
    # the gradient of the table rows the batch gathers, and this step's and the next step's tails
    gathered = np.union1d(batch.src, batch.tgt).size * config.d_e * 8
    net = peak - gathered - 2 * params.grads.vector.nbytes
    assert net < rows * v * 8


def test_train_steps_allocate_nothing_as_large_as_the_table(set_workers):
    # At GloVe size the table's gradient holds only the gathered rows, and the step's
    # gradient vector covers only the tensors after the table, on the first step and the
    # next. One worker: the head holds a 2 MB tile buffer per worker, so on many cores its
    # buffers alone would pass the table's size.
    set_workers(1)
    config = TrainConfig(d_e=300, batch_size=32, seed=0)
    corpus = gen_synthetic(64, 8, config.d_img, seed=0)
    batches = make_batches(numericalize(corpus, build_vocab(corpus)), 32, seed=0)
    params = init_params(config, 20_000)
    adam = AdamState.for_params(params)
    for i, batch in enumerate(batches[:2]):
        tracemalloc.start()
        try:
            train_step(batch, params, adam, config, rng=np.random.default_rng(i))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < params.values["embeddings"].nbytes, i


def test_train_steps_match_the_dense_scatter_bit_for_bit(monkeypatch, dense_select_rows):
    config = TrainConfig(seed=0)
    corpus = gen_synthetic(128, 16, config.d_img, seed=4)
    samples = numericalize(corpus, build_vocab(corpus))
    batches = make_batches(samples, config.batch_size, seed=4)[:4]

    def run():
        params = init_params(config, 500)
        adam = AdamState.for_params(params)
        rng = np.random.default_rng(1)
        losses = [train_step(b, params, adam, config, rng=rng) for b in batches]
        return losses, params.values.vector, adam.m.vector, adam.v.vector

    new = run()
    monkeypatch.setattr(ad, "select_rows", dense_select_rows)
    old = run()
    assert new[0] == old[0]
    for a, b in zip(new[1:], old[1:]):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("field, value", [("d_cell", 4.0), ("epochs", True)])
def test_config_refuses_a_size_that_is_not_an_integer(field, value):
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        TrainConfig(**{field: value})


@pytest.mark.parametrize("field, value", [("lr", True), ("beta1", False), ("clip", True),
                                          ("adam_eps", True), ("dropout", False), ("lr", "0.1"),
                                          ("beta2", None)])
def test_config_refuses_a_rate_that_is_not_a_number(field, value):
    # a bool is an int to Python, and a JSON true in a checkpoint would train at lr 1.0
    with pytest.raises(ValueError, match=f"{field} must be a number"):
        TrainConfig(**{field: value})


@pytest.mark.parametrize("field, refused, accepted", [
    ("lr", [0.0, -1e-3, np.inf, np.nan], [1, 1e-3, np.float64(0.5)]),
    ("adam_eps", [0.0, np.inf], [1e-8]),
    ("beta1", [-0.1, 1.0, np.nan], [0, 0.0, 0.9]),
    ("beta2", [1.0, 2], [0.999]),
    ("dropout", [-0.1, 1.0], [0, 0.0, 0.5]),
    ("clip", [0.0, -1.0, np.nan], [np.inf, 1, 0.01]),
])
def test_config_rate_bounds(field, refused, accepted):
    for value in refused:
        with pytest.raises(ValueError, match=f"{field} must be a number in"):
            TrainConfig(**{field: value})
    for value in accepted:
        assert getattr(TrainConfig(**{field: value}), field) == value


def test_composite_rejects_unknown_objective():
    config, params, batch, _, _ = tiny_setup()
    with pytest.raises(ValueError):
        composite_loss("cap2txt", batch, params)


# ---------------------------------------------------------------------------
# train loop


def test_train_rejects_dimension_mismatch():
    config = TrainConfig(objective="cap2img", **TINY)
    corpus = gen_synthetic(6, 8, config.d_img + 1, seed=0)
    with pytest.raises(ValueError, match="d_img"):
        train(config, corpus)


def test_train_deterministic_loss_log():
    config = TrainConfig(objective="cap2all", **{**TINY, "epochs": 2})
    corpus = gen_synthetic(6, 8, config.d_img, seed=1)
    r1 = train(config, corpus)
    r2 = train(config, corpus)
    assert [m.loss for m in r1.metrics] == [m.loss for m in r2.metrics]
    assert [m.loss_c for m in r1.metrics] == [m.loss_c for m in r2.metrics]


def test_train_losses_finite_and_pad_row_stays_zero():
    config = TrainConfig(objective="cap2all", **{**TINY, "epochs": 3})
    corpus = gen_synthetic(8, 8, config.d_img, seed=2)
    result = train(config, corpus)
    assert all(np.isfinite(m.loss) for m in result.metrics)
    for x in (result.params.values, result.adam.m, result.adam.v):  # the step never writes it
        np.testing.assert_array_equal(x["embeddings"][PAD], np.zeros(config.d_e))
    for name, tensor in result.params.named().items():
        assert np.all(np.isfinite(tensor.data)), name


def test_training_beats_the_uniform_baseline_by_a_margin():
    # 30 epochs reach 2.1900 nats a token against log V = 2.4849, a 0.295-nat margin
    config = TrainConfig(objective="cap2cap", **{**TINY, "epochs": 30, "batch_size": 8})
    corpus = gen_synthetic(64, 8, config.d_img, seed=3)
    result = train(config, corpus)
    batches = make_batches(numericalize(corpus, result.vocab), config.batch_size, seed=0)
    # the caption term is a batch mean of token sums
    total = sum(composite_loss("cap2cap", b, result.params, train_mode=False)[1] * b.size
                for b in batches)
    tokens = sum((b.tgt[:, 1:] != PAD).sum() for b in batches)
    assert total / tokens < np.log(result.vocab.size) - 0.15


def test_non_finite_gradient_stops_before_any_update(nan_in_one_gradient):
    config, params, batch, _, _ = tiny_setup()
    adam = AdamState.for_params(params)
    before = {k: p.data.copy() for k, p in params.named().items()}
    poisoned = nan_in_one_gradient()
    with pytest.raises(FloatingPointError, match="non-finite gradient of dec_recur_w at step 1"):
        train_step(batch, params, adam, config, rng=np.random.default_rng(0))
    assert poisoned == [params.decoder.cell.recur_w]
    for name, tensor in params.named().items():
        np.testing.assert_array_equal(tensor.data, before[name], err_msg=name)
    assert adam.step == 0
    assert all(not m.any() for m in adam.m.values())
    assert all(not v.any() for v in adam.v.values())


def test_non_finite_gradient_writes_no_checkpoint_for_that_epoch(tmp_path, nan_in_one_gradient):
    config = TrainConfig(objective="cap2all", **{**TINY, "epochs": 1})
    corpus = gen_synthetic(6, 8, config.d_img, seed=4)
    first = train(config, corpus, out_dir=tmp_path)
    saved = Path(first.checkpoint_path).read_bytes()
    metrics = (tmp_path / "metrics.jsonl").read_text()

    nan_in_one_gradient()
    longer = TrainConfig(objective="cap2all", **{**TINY, "epochs": 2})
    with pytest.raises(FloatingPointError, match="non-finite gradient of dec_recur_w"):
        train(longer, corpus, out_dir=tmp_path, resume_from=first.checkpoint_path)
    assert Path(first.checkpoint_path).read_bytes() == saved
    assert (tmp_path / "metrics.jsonl").read_text() == metrics


# ---------------------------------------------------------------------------
# checkpointing


def test_checkpoint_save_load_save_is_byte_identical(tmp_path):
    config = TrainConfig(objective="cap2all", **{**TINY, "epochs": 1})
    corpus = gen_synthetic(6, 8, config.d_img, seed=4)
    result = train(config, corpus, out_dir=tmp_path / "run")
    first = Path(result.checkpoint_path).read_bytes()
    params, adam, cfg, vocab, epoch = ckpt.load(result.checkpoint_path)
    second_path = tmp_path / "again.bin"
    ckpt.save(second_path, params, adam, cfg, vocab, epoch)
    assert second_path.read_bytes() == first


def test_checkpoint_save_interrupted_midway_keeps_previous_file(tmp_path, monkeypatch):
    config = TrainConfig(objective="cap2all", **{**TINY, "epochs": 1})
    corpus = gen_synthetic(6, 8, config.d_img, seed=4)
    result = train(config, corpus, out_dir=tmp_path / "run")
    path = Path(result.checkpoint_path)
    before = path.read_bytes()
    listing = sorted(os.listdir(path.parent))
    params, adam, cfg, vocab, epoch = ckpt.load(path)

    def fail_to_sync(fd):  # every byte is written to the temporary file, none is durable
        raise OSError("disk full")

    monkeypatch.setattr(os, "fsync", fail_to_sync)
    with pytest.raises(OSError, match="disk full"):
        ckpt.save(path, params, adam, cfg, vocab, epoch + 1)
    monkeypatch.undo()

    assert path.read_bytes() == before
    assert ckpt.load(path)[4] == epoch
    assert sorted(os.listdir(path.parent)) == listing


@pytest.mark.parametrize("where", ["header", "json", "tensor", "trailing"])
def test_checkpoint_load_rejects_truncated_or_padded_file(tmp_path, where):
    config = TrainConfig(objective="cap2all", **{**TINY, "epochs": 1})
    result = train(config, gen_synthetic(6, 8, config.d_img, seed=4), out_dir=tmp_path / "run")
    data = Path(result.checkpoint_path).read_bytes()
    meta_len = int.from_bytes(data[8:16], "little")
    cut = {"header": data[:10], "json": data[: 20 + meta_len // 2], "tensor": data[:-100],
           "trailing": data + b"\0"}[where]
    bad = tmp_path / "bad.bin"
    bad.write_bytes(cut)
    with pytest.raises(ValueError, match="truncated or corrupt checkpoint"):
        ckpt.load(bad)


def test_checkpoint_load_draws_no_initialisation(tmp_path, monkeypatch):
    config = TrainConfig(objective="cap2all", **{**TINY, "epochs": 1})
    result = train(config, gen_synthetic(6, 8, config.d_img, seed=4), out_dir=tmp_path)

    def no_draws(*args):
        raise AssertionError("checkpoint.load drew an initialisation")

    monkeypatch.setattr(training, "_xavier", no_draws)
    monkeypatch.setattr(training, "_orthogonal", no_draws)
    params, adam, _, _, _ = ckpt.load(result.checkpoint_path)
    assert np.array_equal(params.values.vector, result.params.values.vector)
    assert np.array_equal(adam.m.vector, result.adam.m.vector)
    assert np.array_equal(adam.v.vector, result.adam.v.vector)


def test_checkpoint_roundtrip_preserves_tensors(tmp_path):
    config = TrainConfig(objective="cap2img", **{**TINY, "epochs": 2})
    corpus = gen_synthetic(6, 8, config.d_img, seed=5)
    result = train(config, corpus, out_dir=tmp_path / "run")
    params, adam, cfg, vocab, epoch = ckpt.load(result.checkpoint_path)
    assert epoch == 2
    assert adam.step == result.adam.step
    for name, tensor in result.params.named().items():
        np.testing.assert_array_equal(tensor.data, params.named()[name].data)


def test_resume_matches_uninterrupted_run(tmp_path):
    base = {**TINY, "epochs": 4, "batch_size": 3}
    config = TrainConfig(objective="cap2all", **base)
    corpus = gen_synthetic(9, 8, config.d_img, seed=6)
    straight = train(config, corpus)

    half_config = TrainConfig(objective="cap2all", **{**base, "epochs": 2})
    half = train(half_config, corpus, out_dir=tmp_path / "half")
    resumed = train(config, corpus, out_dir=tmp_path / "resumed",
                    resume_from=half.checkpoint_path)

    straight_tail = [m.loss for m in straight.metrics[2:]]
    resumed_losses = [m.loss for m in resumed.metrics]
    assert len(resumed_losses) == 2
    np.testing.assert_array_equal(resumed_losses, straight_tail)
    np.testing.assert_array_equal(straight.params.values.vector, resumed.params.values.vector)
    np.testing.assert_array_equal(straight.adam.m.vector, resumed.adam.m.vector)
    np.testing.assert_array_equal(straight.adam.v.vector, resumed.adam.v.vector)
    assert straight.adam.step == resumed.adam.step


def test_resume_rejects_mismatched_config(tmp_path):
    config = TrainConfig(objective="cap2img", **{**TINY, "epochs": 1})
    corpus = gen_synthetic(6, 8, config.d_img, seed=7)
    result = train(config, corpus, out_dir=tmp_path / "run")
    other = TrainConfig(objective="cap2img", **{**TINY, "epochs": 1, "lr": 5e-4})
    with pytest.raises(ValueError, match="config"):
        train(other, corpus, resume_from=result.checkpoint_path)


def test_resume_refuses_an_embedding_file_before_reading_either(tmp_path):
    config = TrainConfig(**TINY)
    corpus = gen_synthetic(6, 8, config.d_img, seed=7)
    with pytest.raises(ValueError, match="^--embeddings cannot be used with --resume$"):
        train(config, corpus, out_dir=tmp_path / "run", embeddings=tmp_path / "never-read.txt",
              resume_from=tmp_path / "never-read.bin")
    assert not (tmp_path / "run").exists()
