"""Initialization, optimizer, composite objective, and training-loop tests."""

import os
from pathlib import Path

import numpy as np
import pytest

from groundsent import autodiff as ad
from groundsent import checkpoint as ckpt
from groundsent.autodiff import Matrix, Tape
from groundsent.data import PAD, build_vocab, gen_synthetic, make_batches, numericalize
from groundsent.training import (
    AdamState, ModelParameters, TrainConfig, adam_step, assemble_params, clip_gradients,
    composite_loss, init_params, train,
)

TINY = dict(d_cell=4, d_a=3, n_a=2, d_e=4, d_img=5, batch_size=3, epochs=1, seed=0)


def tiny_setup(objective="cap2all", n=6, seed=0):
    config = TrainConfig(objective=objective, **{**TINY, "seed": seed})
    corpus = gen_synthetic(n, 8, config.d_img, seed=seed)
    vocab = build_vocab(corpus, 1)
    samples = numericalize(corpus, vocab)
    params = init_params(config, vocab.size)
    batch = make_batches(samples, config.batch_size, seed=seed)[0]
    return config, params, batch, vocab, corpus


# ---------------------------------------------------------------------------
# init_params


def test_recurrent_blocks_are_orthogonal():
    config, params, _, _, _ = tiny_setup()
    for name, block in params.recurrent_blocks():
        gram = block.T @ block
        err = np.linalg.norm(gram - np.eye(block.shape[0]))
        assert err < 1e-5, f"{name}: {err}"


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


# ---------------------------------------------------------------------------
# clip / adam


def test_clip_gradients_examples():
    grads = {"a": np.array([[7.0, -12.0, 3.0]])}
    clip_gradients(grads, 5.0)
    np.testing.assert_array_equal(grads["a"], [[5.0, -5.0, 3.0]])


def test_clip_leaves_in_bound_untouched():
    g = np.array([[1.0, -4.9]])
    grads = {"a": g.copy()}
    clip_gradients(grads, 5.0)
    np.testing.assert_array_equal(grads["a"], g)


def test_adam_zero_gradient_is_noop():
    theta = Matrix([[2.0, -1.0]])
    state = AdamState(m={"t": np.zeros((1, 2))}, v={"t": np.zeros((1, 2))})
    before = theta.data.copy()
    adam_step({"t": theta}, {"t": np.zeros((1, 2))}, state, lr=0.1)
    np.testing.assert_array_equal(theta.data, before)


def test_adam_first_step_magnitude_is_lr():
    theta = Matrix([[2.0, -1.0]])
    state = AdamState(m={"t": np.zeros((1, 2))}, v={"t": np.zeros((1, 2))})
    before = theta.data.copy()
    adam_step({"t": theta}, {"t": np.array([[0.5, -3.0]])}, state, lr=1e-3)
    delta = np.abs(theta.data - before)
    np.testing.assert_allclose(delta, 1e-3, rtol=1e-6)


def test_adam_converges_on_quadratic():
    target = np.array([[1.0, -2.0]])
    theta = Matrix([[1.5, 2.3]])
    tgt = Matrix(target)
    state = AdamState(m={"t": np.zeros((1, 2))}, v={"t": np.zeros((1, 2))})
    loss_value = None
    for _ in range(500):
        theta.grad = None
        with Tape() as tape:
            diff = ad.add(theta, ad.scale(tgt, -1.0))
            loss = ad.sum_all(ad.mul(diff, diff))
            loss_value = loss.item()
            tape.backward(loss)
        adam_step({"t": theta}, {"t": theta.grad}, state, lr=0.1)
    assert loss_value < 1e-6


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
    np.testing.assert_array_equal(result.params.embeddings.data[PAD],
                                  np.zeros(config.d_e))
    for name, tensor in result.params.named().items():
        assert np.all(np.isfinite(tensor.data)), name


def test_first_epoch_beats_uniform_baseline():
    from groundsent.evaluation import mean_token_nll

    config = TrainConfig(objective="cap2cap", **{**TINY, "epochs": 1, "batch_size": 8})
    corpus = gen_synthetic(64, 8, config.d_img, seed=3)
    result = train(config, corpus)
    per_token = mean_token_nll(result.params, numericalize(corpus, result.vocab))
    assert per_token < np.log(result.vocab.size)


# ---------------------------------------------------------------------------
# checkpointing


def test_checkpoint_save_load_save_is_byte_identical(tmp_path):
    config = TrainConfig(objective="cap2all", **{**TINY, "epochs": 1})
    corpus = gen_synthetic(6, 8, config.d_img, seed=4)
    result = train(config, corpus, out_dir=tmp_path / "run")
    first = open(result.checkpoint_path, "rb").read()
    params, adam, cfg, vocab, epoch = ckpt.load(result.checkpoint_path)
    second_path = tmp_path / "again.bin"
    ckpt.save(second_path, params, adam, cfg, vocab, epoch)
    assert open(second_path, "rb").read() == first


def test_checkpoint_save_interrupted_midway_keeps_previous_file(tmp_path, monkeypatch):
    config = TrainConfig(objective="cap2all", **{**TINY, "epochs": 1})
    corpus = gen_synthetic(6, 8, config.d_img, seed=4)
    result = train(config, corpus, out_dir=tmp_path / "run")
    path = Path(result.checkpoint_path)
    before = path.read_bytes()
    listing = sorted(os.listdir(path.parent))
    params, adam, cfg, vocab, epoch = ckpt.load(path)

    write_tensor = ckpt._write_tensor
    written = []

    def fail_after_first_tensor(fh, name, arr):
        if written:
            raise OSError("disk full")
        written.append(name)
        write_tensor(fh, name, arr)

    monkeypatch.setattr(ckpt, "_write_tensor", fail_after_first_tensor)
    with pytest.raises(OSError, match="disk full"):
        ckpt.save(path, params, adam, cfg, vocab, epoch + 1)
    monkeypatch.undo()

    assert path.read_bytes() == before
    assert ckpt.load(path)[4] == epoch
    assert sorted(os.listdir(path.parent)) == listing


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
    np.testing.assert_allclose(resumed_losses, straight_tail, atol=1e-12)
    for name, tensor in straight.params.named().items():
        np.testing.assert_allclose(tensor.data, resumed.params.named()[name].data,
                                   atol=1e-12)


def test_resume_rejects_mismatched_config(tmp_path):
    config = TrainConfig(objective="cap2img", **{**TINY, "epochs": 1})
    corpus = gen_synthetic(6, 8, config.d_img, seed=7)
    result = train(config, corpus, out_dir=tmp_path / "run")
    other = TrainConfig(objective="cap2img", **{**TINY, "epochs": 1, "lr": 5e-4})
    with pytest.raises(ValueError, match="config"):
        train(other, corpus, resume_from=result.checkpoint_path)


def test_assemble_params_rejects_missing_tensor():
    config, params, _, vocab, _ = tiny_setup()
    tensors = {k: Matrix(v.data.copy()) for k, v in params.named().items()}
    tensors.pop("attn_proj")
    with pytest.raises(ValueError, match="attn_proj"):
        assemble_params(config, vocab.size, tensors)
