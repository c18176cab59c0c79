"""End-to-end CLI tests over a miniature corpus."""

import hashlib
import json
import struct
import tracemalloc
import zlib
from types import SimpleNamespace

import numpy as np
import pytest

from groundsent import checkpoint as ckpt
from groundsent import cli
from groundsent.cli import build_parser, main
from groundsent.data import Corpus, build_vocab
from groundsent.evaluation import salience
from groundsent.training import TrainConfig

SMALL_DIMS = ["--d-cell", "6", "--d-a", "4", "--n-a", "2", "--d-e", "6"]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    corpus = root / "corpus.jsonl"
    run = root / "run"
    assert main(["gen-synth", "--n", "20", "--vocab", "16", "--d-img", "8",
                 "--seed", "3", "--out", str(corpus)]) == 0
    assert main(["train", "--corpus", str(corpus), "--out", str(run),
                 "--objective", "cap2all", "--epochs", "2", "--batch", "4",
                 "--seed", "3", *SMALL_DIMS]) == 0
    return {"corpus": corpus, "checkpoint": run / "checkpoint.bin", "run": run}


@pytest.mark.parametrize("command",
                         ["gen-synth", "train", "eval", "salience", "embed", "gradcheck"])
def test_help_exits_zero(command, capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args([command, "--help"])
    assert exc.value.code == 0


def test_unknown_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["frobnicate"])
    assert exc.value.code != 0


def test_bare_train_builds_the_default_config(workspace, tmp_path, monkeypatch):
    configs = []

    def train(config, *args, **kwargs):
        configs.append(config)
        return SimpleNamespace(checkpoint_path=None)

    monkeypatch.setattr(cli, "train", train)
    assert main(["train", "--corpus", str(workspace["corpus"]), "--out", str(tmp_path)]) == 0
    assert [c.to_dict() for c in configs] == [TrainConfig(d_img=8).to_dict()]


def test_train_log_shows_composite_sum(workspace, capsys):
    main(["train", "--corpus", str(workspace["corpus"]),
          "--out", str(workspace["run"].parent / "run2"), "--objective", "cap2all",
          "--epochs", "1", "--batch", "4", "--seed", "3", *SMALL_DIMS])
    lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()
             if l.startswith("{")]
    assert lines
    for rec in lines:
        assert rec["loss"] == pytest.approx(rec["loss_c"] + rec["loss_vg"], abs=1e-9)


def test_metrics_file_schema(workspace):
    lines = (workspace["run"] / "metrics.jsonl").read_text().splitlines()
    assert len(lines) == 2
    for i, line in enumerate(lines):
        rec = json.loads(line)
        assert rec["epoch"] == i
        assert set(rec) == {"epoch", "objective", "loss", "loss_c", "loss_vg", "wall_ms"}


def test_eval_reports_both_directions(workspace, capsys):
    assert main(["eval", "--checkpoint", str(workspace["checkpoint"]),
                 "--corpus", str(workspace["corpus"]), "--limit", "10"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["sentence_to_image"]["n"] == 10
    assert report["image_to_sentence"]["direction"] == "image_to_sentence"


@pytest.mark.parametrize("limit", ["-1", "1"])
def test_eval_limit_below_two_fails_cleanly(workspace, capsys, limit):
    assert main(["eval", "--checkpoint", str(workspace["checkpoint"]),
                 "--corpus", str(workspace["corpus"]), "--limit", limit]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    err = err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "--limit" in err[0]


def test_salience_json_schema(workspace, capsys):
    assert main(["salience", "--checkpoint", str(workspace["checkpoint"]),
                 "--sentence", "obj01 vis00 obj02"]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert set(rec) == {"tokens", "attention", "pooled"}
    assert rec["tokens"] == ["obj01", "vis00", "obj02"]
    for row in rec["attention"]:
        assert sum(row) == pytest.approx(1.0, abs=1e-9)


def test_inference_reads_reserved_strings_as_unknown(workspace, tmp_path, capsys):
    assert main(["salience", "--checkpoint", str(workspace["checkpoint"]),
                 "--sentence", "<pad> vis00 obj01"]) == 0
    assert json.loads(capsys.readouterr().out)["tokens"] == ["<unk>", "vis00", "obj01"]
    sentences, out = tmp_path / "sents.txt", tmp_path / "vecs.txt"
    sentences.write_text("vis00 <pad> obj01\nvis00 <eos> obj01\n")
    assert main(["embed", "--checkpoint", str(workspace["checkpoint"]),
                 "--input", str(sentences), "--output", str(out)]) == 0
    first, second = out.read_text().splitlines()
    assert first == second


def test_salience_oov_sentence_fails_cleanly(workspace, capsys):
    assert main(["salience", "--checkpoint", str(workspace["checkpoint"]),
                 "--sentence", "zzz qqq"]) == 1
    assert "error:" in capsys.readouterr().err


def test_embed_roundtrip(workspace, tmp_path, capsys):
    sentences = tmp_path / "sents.txt"
    out = tmp_path / "vecs.txt"
    sentences.write_text("obj01 vis00\nobj02 obj03 obj04\nobj01 vis00\n")
    assert main(["embed", "--checkpoint", str(workspace["checkpoint"]),
                 "--input", str(sentences), "--output", str(out)]) == 0
    rows = [np.array([float(v) for v in line.split()]) for line in out.read_text().splitlines()]
    assert len(rows) == 3
    assert rows[0].size == 12  # 2 * d_cell
    np.testing.assert_array_equal(rows[0], rows[2])


def test_embed_empty_input(workspace, tmp_path):
    empty = tmp_path / "empty.txt"
    out = tmp_path / "out.txt"
    empty.write_text("")
    assert main(["embed", "--checkpoint", str(workspace["checkpoint"]),
                 "--input", str(empty), "--output", str(out)]) == 0
    assert out.read_text() == ""


def test_missing_corpus_fails_cleanly(capsys):
    code = main(["eval", "--checkpoint", "nope.bin", "--corpus", "nope.jsonl"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_train_on_one_sample_corpus_fails_before_writing(tmp_path, capsys):
    corpus, run = tmp_path / "one.jsonl", tmp_path / "run"
    assert main(["gen-synth", "--n", "1", "--vocab", "16", "--d-img", "8",
                 "--out", str(corpus)]) == 0
    capsys.readouterr()
    assert main(["train", "--corpus", str(corpus), "--out", str(run), "--epochs", "1",
                 "--batch", "4", *SMALL_DIMS]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "at least 2" in err[0]
    assert not (run / "checkpoint.bin").exists() and not (run / "metrics.jsonl").exists()


@pytest.mark.parametrize("flag, value", [
    ("--lr", "nan"), ("--lr", "inf"), ("--lr", "-1"), ("--lr", "0"),
    ("--adam-eps", "0"), ("--adam-eps", "nan"), ("--beta1", "1.0"), ("--beta2", "1.0"),
    ("--beta1", "-0.1"), ("--beta2", "nan"), ("--clip", "nan"), ("--clip", "0"),
])
def test_train_with_bad_optimizer_setting_fails_before_writing(workspace, tmp_path, capsys,
                                                               flag, value):
    run = tmp_path / "run"
    assert main(["train", "--corpus", str(workspace["corpus"]), "--out", str(run),
                 "--epochs", "1", "--batch", "4", flag, value, *SMALL_DIMS]) == 1
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert flag[2:].replace("-", "_") in err[0]
    assert captured.out == "" and not (run / "checkpoint.bin").exists()


def test_train_with_config_too_large_to_allocate_fails_cleanly(workspace, tmp_path, capsys):
    run = tmp_path / "run"  # about 1 EiB of parameters: more than a process can map
    assert main(["train", "--corpus", str(workspace["corpus"]), "--out", str(run),
                 "--epochs", "1", "--batch", "4", *SMALL_DIMS, "--d-cell", "100000000"]) == 1
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "allocate" in err[0]
    assert captured.out == "" and not (run / "checkpoint.bin").exists()


def test_train_with_infinite_clip_runs(workspace, tmp_path):
    run = tmp_path / "run"
    assert main(["train", "--corpus", str(workspace["corpus"]), "--out", str(run),
                 "--epochs", "1", "--batch", "4", "--clip", "inf", *SMALL_DIMS]) == 0
    assert (run / "checkpoint.bin").exists()


@pytest.mark.parametrize("flag, value", [("--n", "0"), ("--n", "-3"), ("--d-img", "0"),
                                         ("--d-img", "-2"), ("--vocab", "7")])
def test_gen_synth_with_bad_size_fails_cleanly(tmp_path, capsys, flag, value):
    out = tmp_path / "corpus.jsonl"
    assert main(["gen-synth", flag, value, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert captured.out == "" and not out.exists()


def test_train_on_corpus_with_duplicate_ids_fails_before_writing(workspace, tmp_path, capsys):
    lines = workspace["corpus"].read_text().splitlines()
    corpus, run = tmp_path / "dup.jsonl", tmp_path / "run"
    corpus.write_text("\n".join(lines + [lines[3]]) + "\n")
    assert main(["train", "--corpus", str(corpus), "--out", str(run), "--epochs", "1",
                 "--batch", "4", *SMALL_DIMS]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: corpus line {len(lines) + 1}: duplicate id")
    assert not run.exists()


def test_train_on_captions_with_reserved_strings(workspace, tmp_path):
    lines = workspace["corpus"].read_text().splitlines()
    rec = json.loads(lines[1])
    rec["src"], rec["tgt"] = f"<unk> {rec['src']} <pad>", f"<bos> {rec['tgt']} <eos>"
    corpus = tmp_path / "reserved.jsonl"
    corpus.write_text("\n".join([lines[0], json.dumps(rec), *lines[2:]]) + "\n")
    assert main(["train", "--corpus", str(corpus), "--out", str(tmp_path / "run"),
                 "--epochs", "1", "--batch", "4", *SMALL_DIMS]) == 0


def test_train_on_corpus_without_d_img_fails_cleanly(tmp_path, capsys):
    corpus = tmp_path / "bad.jsonl"
    corpus.write_text('{"dim": 2}\n{"id": "x", "src": "a", "tgt": "a", "img": [1.0, 0.0]}\n')
    assert main(["train", "--corpus", str(corpus), "--out", str(tmp_path / "run"),
                 *SMALL_DIMS]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: corpus line 1")


def test_eval_on_truncated_checkpoint_fails_cleanly(workspace, tmp_path, capsys):
    cut = tmp_path / "cut.bin"
    cut.write_bytes(workspace["checkpoint"].read_bytes()[:3000])
    assert main(["eval", "--checkpoint", str(cut), "--corpus", str(workspace["corpus"])]) == 1
    assert capsys.readouterr().err.strip() == f"error: {cut}: truncated or corrupt checkpoint"


def test_train_with_non_finite_gradient_fails_cleanly(workspace, tmp_path, capsys,
                                                      nan_in_one_gradient):
    nan_in_one_gradient()
    run = tmp_path / "run"
    assert main(["train", "--corpus", str(workspace["corpus"]), "--out", str(run),
                 "--epochs", "1", "--batch", "4", *SMALL_DIMS]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0] == "error: non-finite gradient of dec_recur_w at step 1"
    assert not (run / "checkpoint.bin").exists()


def _salience_errors(path, capsys) -> list[str]:
    """stderr lines of a `salience` run on the checkpoint at path, which must exit 1."""
    assert main(["salience", "--checkpoint", str(path), "--sentence", "obj01 vis00"]) == 1
    return capsys.readouterr().err.strip().splitlines()


# each edit keeps the file's length, so only the metadata check can catch it
@pytest.mark.parametrize("old, new", [(b'"step"', b'"stdp"'), (b'"epoch"', b'"epocx"'),
                                      (b'"dropout"', b'"dropoux"'),
                                      (b'["dec_bias",1,24]', b'["dec_bias",24,1]'),
                                      (b'["dec_bias",', b'["dec_biaz",'),
                                      (b'"obj01"', b'"obj0X"'), (b'"step":10', b'"step":17'),
                                      (b'"epoch":2', b'"epoch":5')],
                         ids=["step", "epoch", "config-key", "layout-shape", "param-tensor",
                              "vocab-token", "step-value", "epoch-value"])
def test_checkpoint_with_wrong_metadata_fails_cleanly(workspace, tmp_path, capsys, old, new):
    data = workspace["checkpoint"].read_bytes()
    assert data.count(old) == 1
    bad = tmp_path / "bad.bin"
    bad.write_bytes(data.replace(old, new))
    assert _salience_errors(bad, capsys) == [f"error: {bad}: truncated or corrupt checkpoint"]


@pytest.mark.parametrize("vector", [0, 1, 2], ids=["params", "adam-m", "adam-v"])
def test_checkpoint_with_flipped_bit_fails_cleanly(workspace, tmp_path, capsys, vector):
    data = bytearray(workspace["checkpoint"].read_bytes())
    start = 20 + int.from_bytes(data[8:16], "little")  # after the header and the metadata
    nbytes = (len(data) - start) // 3
    data[start + vector * nbytes + nbytes // 2] ^= 0x01  # the lowest bit of one byte
    bad = tmp_path / "bad.bin"
    bad.write_bytes(data)
    assert _salience_errors(bad, capsys) == [f"error: {bad}: truncated or corrupt checkpoint"]


@pytest.mark.parametrize("offset, patch, message",
                         [(4, struct.pack("<I", 1), "unsupported checkpoint version 1"),
                          (4, struct.pack("<I", 2), "unsupported checkpoint version 2"),
                          (0, b"GSCQ", "not a checkpoint file")],
                         ids=["version-1", "version-2", "bad-magic"])
def test_checkpoint_of_other_format_fails_cleanly(workspace, tmp_path, capsys, offset, patch,
                                                  message):
    data = bytearray(workspace["checkpoint"].read_bytes())
    data[offset : offset + len(patch)] = patch
    bad = tmp_path / "bad.bin"
    bad.write_bytes(data)
    assert _salience_errors(bad, capsys) == [f"error: {bad}: {message}"]


def _with_metadata(workspace, tmp_path, edit):
    """The workspace checkpoint with edit(meta) applied to its metadata, the config hash and
    the CRC recomputed; the layout and the vectors stay. The hash is taken from the dict,
    which TrainConfig may refuse."""
    data = workspace["checkpoint"].read_bytes()
    meta_len = int.from_bytes(data[8:16], "little")
    meta = json.loads(data[20 : 20 + meta_len])
    edit(meta)
    meta["config_hash"] = hashlib.sha256(ckpt._canonical_json(meta["config"])).hexdigest()
    blob = ckpt._canonical_json(meta)
    bad = tmp_path / "bad.bin"
    bad.write_bytes(ckpt._HEADER.pack(ckpt.MAGIC, ckpt.VERSION, len(blob), zlib.crc32(blob))
                    + blob + data[20 + meta_len :])
    return bad


# larger tensors than the layout, a float where an integer belongs, or a bool for a rate
@pytest.mark.parametrize("key, value", [("d_cell", 400), ("d_cell", 6.0), ("n_a", 2.0),
                                        ("batch_size", 4.0), ("epochs", 1.5), ("seed", 0.5),
                                        ("step", 3.7), ("epoch", 1.9), ("lr", True)])
def test_checkpoint_with_crafted_metadata_is_refused_before_allocating(
        workspace, tmp_path, capsys, key, value):
    def edit(meta):
        section = meta["config"] if key in meta["config"] else meta
        assert type(section[key]) in (int, float)  # the key is there, and holds a number
        section[key] = value

    bad = _with_metadata(workspace, tmp_path, edit)
    assert _salience_errors(bad, capsys) == [f"error: {bad}: truncated or corrupt checkpoint"]
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="truncated or corrupt checkpoint"):
            ckpt.load(bad)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# entries `tokenize` never makes, so no token could ever match them
@pytest.mark.parametrize("entry", [7, "a b", ""], ids=["int", "space", "empty"])
def test_checkpoint_with_crafted_vocabulary_entry_is_refused(workspace, tmp_path, capsys,
                                                             entry):
    def edit(meta):
        meta["vocab"][0] = entry  # the vocabulary keeps its size, so the layout still fits

    bad = _with_metadata(workspace, tmp_path, edit)
    assert _salience_errors(bad, capsys) == [f"error: {bad}: truncated or corrupt checkpoint"]


def _assert_fails_with_one_error(argv, capsys, checkpoint, message):
    before = checkpoint.read_bytes()
    assert main(argv) == 1
    assert capsys.readouterr().err.strip().splitlines() == [f"error: {message}"]
    assert checkpoint.read_bytes() == before


@pytest.mark.parametrize("epochs", ["1", "2"])
def test_train_resume_without_later_epochs_fails_before_writing(workspace, tmp_path, capsys,
                                                                epochs):
    run = tmp_path / "run"
    _assert_fails_with_one_error(
        ["train", "--corpus", str(workspace["corpus"]), "--out", str(run), "--epochs", epochs,
         "--batch", "4", "--seed", "3", *SMALL_DIMS, "--resume", str(workspace["checkpoint"])],
        capsys, workspace["checkpoint"],
        f"epochs={epochs} must be past the checkpoint's epoch 2 to resume")
    assert not run.exists()


def test_train_resume_with_embeddings_fails_before_reading_them(workspace, tmp_path, capsys):
    run = tmp_path / "run"
    _assert_fails_with_one_error(
        ["train", "--corpus", str(workspace["corpus"]), "--out", str(run), "--epochs", "3",
         "--batch", "4", "--seed", "3", *SMALL_DIMS, "--resume", str(workspace["checkpoint"]),
         "--embeddings", str(tmp_path / "never-read.txt")],
        capsys, workspace["checkpoint"], "--embeddings cannot be used with --resume")
    assert not run.exists()


def test_eval_on_corpus_of_other_image_width_fails_cleanly(workspace, tmp_path, capsys):
    corpus = tmp_path / "wide.jsonl"
    assert main(["gen-synth", "--n", "20", "--vocab", "16", "--d-img", "16", "--seed", "3",
                 "--out", str(corpus)]) == 0
    capsys.readouterr()
    _assert_fails_with_one_error(
        ["eval", "--checkpoint", str(workspace["checkpoint"]), "--corpus", str(corpus)],
        capsys, workspace["checkpoint"], "corpus d_img=16 does not match config d_img=8")


def _resaved(workspace, tmp_path, edit, epoch=None):
    """The workspace checkpoint, loaded, passed to edit(params, adam) and saved with valid CRCs."""
    params, adam, config, vocab, saved_epoch = ckpt.load(workspace["checkpoint"])
    edit(params, adam)
    path = tmp_path / "edited.bin"
    ckpt.save(path, params, adam, config, vocab, saved_epoch if epoch is None else epoch)
    return path


def _reads_of(workspace, checkpoint, run):
    """The commands that read a checkpoint: eval, salience and a resumed train."""
    return {
        "eval": ["eval", "--checkpoint", str(checkpoint), "--corpus", str(workspace["corpus"])],
        "salience": ["salience", "--checkpoint", str(checkpoint), "--sentence", "obj01 vis00"],
        "resume": ["train", "--corpus", str(workspace["corpus"]), "--out", str(run),
                   "--epochs", "3", "--batch", "4", "--seed", "3", *SMALL_DIMS,
                   "--resume", str(checkpoint)],
    }


def _set_nan_in_attn_heads(params, adam):
    params.named()["attn_heads"].data[0, 1] = np.nan


def _set_inf_in_adam_v(params, adam):
    adam.v.vector[-1] = np.inf


@pytest.mark.parametrize("edit", [_set_nan_in_attn_heads, _set_inf_in_adam_v],
                         ids=["nan-param", "inf-adam-v"])
@pytest.mark.parametrize("command", ["eval", "salience", "resume"])
def test_checkpoint_with_non_finite_value_fails_cleanly(workspace, tmp_path, capsys, edit,
                                                        command):
    bad, run = _resaved(workspace, tmp_path, edit), tmp_path / "run"
    _assert_fails_with_one_error(_reads_of(workspace, bad, run)[command], capsys, bad,
                                 f"{bad}: truncated or corrupt checkpoint")
    assert not run.exists()


def _set_negative_in_adam_v(params, adam):
    adam.v.vector[adam.v.vector.size // 2] = -1e-3


@pytest.mark.parametrize("command", ["eval", "resume"])
def test_checkpoint_with_negative_second_moment_fails_cleanly(workspace, tmp_path, capsys,
                                                              command):
    bad, run = _resaved(workspace, tmp_path, _set_negative_in_adam_v), tmp_path / "run"
    _assert_fails_with_one_error(_reads_of(workspace, bad, run)[command], capsys, bad,
                                 f"{bad}: truncated or corrupt checkpoint")
    assert not run.exists()


def _scale_attention_by_1000(params, adam):
    for name in ("attn_proj", "attn_heads"):
        params.named()[name].data[...] *= 1000.0


def _strict_json(text: str):
    """json.loads that rejects NaN and infinities, which are not JSON."""
    def reject(constant):
        raise ValueError(f"not JSON: {constant}")
    return json.loads(text, parse_constant=reject)


def test_salience_on_saturated_attention_is_a_distribution(workspace, tmp_path):
    # saturated scores put all of a head's softmax mass on BOS or EOS, so renormalizing
    # the real tokens' underflowed weights after dropping those columns would be 0/0
    params, _, _, vocab, _ = ckpt.load(_resaved(workspace, tmp_path, _scale_attention_by_1000))
    for sentence in ("obj01 vis00", "obj07 vis01", "vis00 obj07"):
        rec = salience(params, vocab, sentence)
        np.testing.assert_allclose(rec.attention.sum(axis=1), 1.0, atol=1e-12)


def test_salience_command_on_saturated_attention_prints_strict_json(workspace, tmp_path,
                                                                    capsys):
    path = _resaved(workspace, tmp_path, _scale_attention_by_1000)
    assert main(["salience", "--checkpoint", str(path), "--sentence", "obj01 vis00"]) == 0
    out = _strict_json(capsys.readouterr().out)
    np.testing.assert_allclose(np.sum(out["attention"], axis=1), 1.0, atol=1e-12)


def _set_step_to_minus_one(params, adam):
    adam.step = -1


@pytest.mark.parametrize("edit, epoch", [(_set_step_to_minus_one, None),
                                         (lambda params, adam: None, -1)],
                         ids=["step", "epoch"])
def test_resume_from_negative_step_or_epoch_fails_before_writing(workspace, tmp_path, capsys,
                                                                 edit, epoch):
    bad, run = _resaved(workspace, tmp_path, edit, epoch), tmp_path / "run"
    _assert_fails_with_one_error(_reads_of(workspace, bad, run)["resume"], capsys, bad,
                                 f"{bad}: truncated or corrupt checkpoint")
    assert not run.exists()


def test_train_with_embeddings_logs_coverage_first_then_the_metrics_lines(workspace, tmp_path,
                                                                        capsys):
    emb, run = tmp_path / "emb.txt", tmp_path / "run"
    row = " ".join(["0.5"] * 6)
    emb.write_text(f"obj01 {row}\nvis00 {row}\n")
    content = build_vocab(Corpus.load(workspace["corpus"])).content_tokens()
    assert main(["train", "--corpus", str(workspace["corpus"]), "--out", str(run),
                 "--epochs", "2", "--batch", "4", *SMALL_DIMS, "--embeddings", str(emb)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"embedding coverage: {2 / len(content):.3f}"
    assert lines[1:3] == (run / "metrics.jsonl").read_text().splitlines()
    assert lines[3:] == [f"checkpoint: {run / 'checkpoint.bin'}"]


def test_train_with_repeated_embedding_token_fails_before_writing(workspace, tmp_path, capsys):
    emb, run = tmp_path / "emb.txt", tmp_path / "run"
    row = " ".join(["0.5"] * 6)
    emb.write_text(f"obj01 {row}\nvis00 {row}\nobj01 {row}\n")
    assert main(["train", "--corpus", str(workspace["corpus"]), "--out", str(run),
                 "--epochs", "1", "--batch", "4", *SMALL_DIMS, "--embeddings", str(emb)]) == 1
    captured = capsys.readouterr()
    assert captured.err.strip().splitlines() == [
        "error: embedding file line 3: duplicate token 'obj01'"]
    assert captured.out == "" and not run.exists()
