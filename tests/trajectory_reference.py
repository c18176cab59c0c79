"""Reference values of two short training runs, kept in trajectory.json beside this script.

    PYTHONPATH=src python tests/trajectory_reference.py [--margin | --digest] [--case NAME]

writes tests/trajectory.json; `tests/test_trajectory.py` replays both runs and
compares. With --margin it writes nothing and prints, for each run, the
largest relative deviation of a fresh run from the file, measured as the
test measures it, against the test's tolerance. With --digest it writes
nothing and prints, for each run, a sha256 over the bytes of the final
parameter, m and v vectors and of every step's loss parts: two source trees
train bit-for-bit alike when their digests match on one machine. --case
limits --margin and --digest to one run. The script imports groundsent
before numpy, so the package pins BLAS and OpenMP to one thread and the
digest does not follow the shell's thread settings.

The runs are 8 cap2all steps at the defaults, and 4 steps at V = 20,000 and
d_e = 300 with a clip bound small enough to bind, where the vocabulary head
runs in several chunks and the step's vector work is split.
For each step the file holds the loss parts; after the last step, each
tensor's sum and sum of squares of the parameters and of Adam's m and v.
Regenerate the file only with a change meant to alter the trajectory, and
say why.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import re
from pathlib import Path

# groundsent before numpy, so that the package pins BLAS's thread count before BLAS loads
from groundsent.data import (
    Vocabulary, gen_synthetic, make_batches, numericalize, synthetic_token_names,
)
from groundsent.training import AdamState, TrainConfig, init_params, train_step

import numpy as np

PATH = Path(__file__).resolve().parent / "trajectory.json"
SEED = 5
DROPOUT_STREAM = 23  # training._SEED_DROPOUT, the tag `train` derives each epoch's dropout from

CASES = {
    "defaults": {"steps": 8, "v_content": 64, "config": {}},
    "largevocab": {"steps": 4, "v_content": 19_996, "config": {"d_e": 300, "clip": 0.01}},
}


def setup(case: str):
    """The case's config, vocabulary, fresh parameters and Adam state, dropout stream, batches.

    There is one batch for each of the case's steps.
    """
    spec = CASES[case]
    config = TrainConfig(seed=SEED, **spec["config"])
    corpus = gen_synthetic(config.batch_size * spec["steps"], spec["v_content"], config.d_img,
                           seed=SEED)
    visual, ordinary = synthetic_token_names(spec["v_content"])
    vocab = Vocabulary(visual + ordinary)
    params = init_params(config, vocab.size)
    adam = AdamState.for_params(params)
    rng = np.random.default_rng(np.random.SeedSequence([SEED, DROPOUT_STREAM, 0]))
    batches = make_batches(numericalize(corpus, vocab), config.batch_size, SEED, 0)
    return config, vocab, params, adam, rng, batches


def run(case: str):
    """Train the case's steps from its seed; return (config, vocab, params, adam, loss parts)."""
    config, vocab, params, adam, rng, batches = setup(case)
    losses = [list(train_step(batch, params, adam, config, rng=rng)) for batch in batches]
    return config, vocab, params, adam, losses


def tensor_sums(params, adam) -> dict:
    """Name -> [size, sum, sum of squares] of each tensor of the parameters, m and v."""
    sums = {}
    for kind, tensors in (("param", params.values), ("m", adam.m), ("v", adam.v)):
        for name, x in tensors.items():
            sums[f"{kind}/{name}"] = [x.size, float(x.sum()), float(np.square(x).sum())]
    return sums


def margin(case: str) -> float:
    """The largest relative deviation of a fresh run of `case` from trajectory.json.

    Losses and sums of squares are relative to their reference value, and a
    sum relative to sqrt(size * sum of squares), as in test_trajectory.py.
    """
    def relative(diff: float, scale: float) -> float:
        return abs(diff) / scale if scale else (0.0 if diff == 0.0 else math.inf)

    want = json.loads(PATH.read_text())[case]
    _, _, params, adam, losses = run(case)
    deviations = [relative(g - e, abs(e)) for got, expected in zip(losses, want["losses"])
                  for g, e in zip(got, expected)]
    for name, (size, total, squares) in tensor_sums(params, adam).items():
        _, want_total, want_squares = want["tensors"][name]
        deviations += [relative(total - want_total, math.sqrt(size * want_squares)),
                       relative(squares - want_squares, want_squares)]
    return max(deviations)


def digest(case: str) -> str:
    """sha256 of a fresh run's final parameter, m and v vectors and its per-step loss parts."""
    _, _, params, adam, losses = run(case)
    h = hashlib.sha256()
    for vector in (params.values.vector, adam.m.vector, adam.v.vector, np.array(losses)):
        h.update(vector.tobytes())
    return h.hexdigest()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--margin", action="store_true",
                      help="print each run's largest relative deviation from the file")
    mode.add_argument("--digest", action="store_true",
                      help="print a sha256 of each run's final vectors and losses")
    parser.add_argument("--case", choices=CASES,
                        help="with --margin or --digest, only this run (default: every run)")
    args = parser.parse_args()
    cases = [args.case] if args.case else list(CASES)
    if args.margin:
        for case in cases:
            print(f"{case}: largest relative deviation {margin(case):.2e} (test tolerance 1e-9)")
        return
    if args.digest:
        for case in cases:
            print(f"{case}: sha256 {digest(case)}")
        return
    if args.case:
        parser.error("--case needs --margin or --digest: the file holds every run")
    out = {}
    for case in CASES:
        _, _, params, adam, losses = run(case)
        out[case] = {"losses": losses, "tensors": tensor_sums(params, adam)}
    text = json.dumps(out, indent=1)  # then one line per step and per tensor:
    text = re.sub(r"\[\s+([^][]*?)\s+\]", lambda m: "[" + " ".join(m[1].split()) + "]", text)
    PATH.write_text(text + "\n")
    print(f"wrote {PATH}")


if __name__ == "__main__":
    main()
