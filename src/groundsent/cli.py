"""Command-line interface: gen-synth, train, eval, salience, embed, gradcheck."""

from __future__ import annotations

import argparse
import json
import sys

from . import checkpoint as ckpt
from .data import Corpus, gen_synthetic, numericalize
from .evaluation import embed_lines, retrieval_eval, salience
from .gradcheck import TOLERANCE, run_suite
from .training import OBJECTIVES, TrainConfig, check_image_width, train


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="groundsent",
        description="Train and probe visually grounded self-attentive sentence encoders.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-synth", help="write a synthetic copy-task corpus")
    p.add_argument("--n", type=int, default=512, help="number of samples")
    p.add_argument("--vocab", type=int, default=64, help="content vocabulary size (>= 8)")
    p.add_argument("--d-img", type=int, default=64, help="image feature width")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output corpus path (JSONL)")

    p = sub.add_parser("train", help="train a model on a corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True, help="run directory for checkpoint + metrics")
    c = TrainConfig  # each default is stated once, on the config
    p.add_argument("--objective", choices=OBJECTIVES, default=c.objective)
    p.add_argument("--epochs", type=int, default=c.epochs)
    p.add_argument("--batch", type=int, default=c.batch_size)
    p.add_argument("--lr", type=float, default=c.lr)
    p.add_argument("--beta1", type=float, default=c.beta1)
    p.add_argument("--beta2", type=float, default=c.beta2)
    p.add_argument("--adam-eps", type=float, default=c.adam_eps)
    p.add_argument("--clip", type=float, default=c.clip)
    p.add_argument("--dropout", type=float, default=c.dropout)
    p.add_argument("--seed", type=int, default=c.seed)
    p.add_argument("--embeddings", default=None,
                   help="GloVe-format file; it replaces the drawn rows of the tokens it covers")
    p.add_argument("--resume", default=None, help="checkpoint to resume from")
    p.add_argument("--d-cell", type=int, default=c.d_cell, help="LSTM cell width")
    p.add_argument("--d-a", type=int, default=c.d_a, help="attention hidden width")
    p.add_argument("--n-a", type=int, default=c.n_a, help="number of attention heads")
    p.add_argument("--d-e", type=int, default=c.d_e, help="word embedding width")
    p.add_argument("--d-p", type=int, default=c.d_p,
                   help="projection hidden width (default: the corpus's image width)")

    p = sub.add_parser("eval", help="retrieval evaluation from a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--limit", type=int, default=None, help="evaluate the first N samples only")

    p = sub.add_parser("salience", help="per-token attention salience for one sentence")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--sentence", required=True)

    p = sub.add_parser("embed", help="write one representation vector per input line")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True, help="text file, one sentence per line")
    p.add_argument("--output", required=True)

    p = sub.add_parser("gradcheck", help="run the finite-difference verification suite")
    p.add_argument("--seed", type=int, default=0)

    return parser


def _cmd_gen_synth(args) -> int:
    corpus = gen_synthetic(args.n, args.vocab, args.d_img, args.seed)
    corpus.save(args.out)
    print(f"wrote {len(corpus)} samples (d_img={corpus.d_img}) to {args.out}")
    return 0


def _cmd_train(args) -> int:
    corpus = Corpus.load(args.corpus)
    config = TrainConfig(
        objective=args.objective, d_cell=args.d_cell, d_a=args.d_a, n_a=args.n_a,
        d_e=args.d_e, d_img=corpus.d_img, d_p=args.d_p, batch_size=args.batch, lr=args.lr,
        beta1=args.beta1, beta2=args.beta2, adam_eps=args.adam_eps, clip=args.clip,
        epochs=args.epochs, seed=args.seed, dropout=args.dropout,
    )
    result = train(config, corpus, out_dir=args.out, embeddings=args.embeddings,
                   resume_from=args.resume, log_fn=print)
    print(f"checkpoint: {result.checkpoint_path}")
    return 0


def _cmd_eval(args) -> int:
    if args.limit is not None and args.limit < 2:
        raise ValueError(f"--limit must be at least 2, got {args.limit}")
    params, _, config, vocab, _ = ckpt.load(args.checkpoint)
    corpus = Corpus.load(args.corpus)
    check_image_width(corpus, config)
    samples = numericalize(corpus, vocab)[: args.limit]
    s2i, i2s = retrieval_eval(params, samples)
    print(json.dumps({"sentence_to_image": s2i.to_dict(), "image_to_sentence": i2s.to_dict()},
                     indent=2))
    return 0


def _cmd_salience(args) -> int:
    params, _, _, vocab, _ = ckpt.load(args.checkpoint)
    record = salience(params, vocab, args.sentence)
    print(json.dumps(record.to_dict()))
    return 0


def _cmd_embed(args) -> int:
    params, _, _, vocab, _ = ckpt.load(args.checkpoint)
    with open(args.input, "r", encoding="utf-8") as fh:
        lines = [line.rstrip("\n") for line in fh]
    vectors = embed_lines(params, vocab, lines)
    with open(args.output, "w", encoding="utf-8") as fh:
        for row in vectors:
            fh.write(" ".join(f"{v:.17g}" for v in row) + "\n")
    print(f"wrote {vectors.shape[0]} vectors of width {vectors.shape[1]} to {args.output}")
    return 0


def _cmd_gradcheck(args) -> int:
    results = run_suite(seed=args.seed)
    failures = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        failures += not r.passed
        print(f"{status}  {r.name:25s} max rel err {r.max_rel_error:.3e}")
    print(f"{len(results) - failures}/{len(results)} checks passed (tolerance {TOLERANCE:g})")
    return 0 if failures == 0 else 1


_COMMANDS = {
    "gen-synth": _cmd_gen_synth,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "salience": _cmd_salience,
    "embed": _cmd_embed,
    "gradcheck": _cmd_gradcheck,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError, FloatingPointError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
