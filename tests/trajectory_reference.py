"""Reference values of two short training runs, kept in trajectory.json beside this script.

    PYTHONPATH=src python tests/trajectory_reference.py

writes tests/trajectory.json; `tests/test_trajectory.py` replays both runs and
compares. The runs are 8 cap2all steps at the defaults, and 4 steps at
V = 20,000 and d_e = 300 with a clip bound small enough to bind, where the
vocabulary head runs in several chunks and the step's vector work is split.
For each step the file holds the loss parts; after the last step, each
tensor's sum and sum of squares of the parameters and of Adam's m and v.
Regenerate the file only with a change meant to alter the trajectory, and
say why.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np

from groundsent.data import (
    Vocabulary, gen_synthetic, make_batches, numericalize, synthetic_token_names,
)
from groundsent.training import AdamState, TrainConfig, init_params, train_step

PATH = Path(__file__).resolve().parent / "trajectory.json"
SEED = 5
DROPOUT_STREAM = 23  # training._SEED_DROPOUT, the tag `train` derives each epoch's dropout from

CASES = {
    "defaults": {"steps": 8, "v_content": 64, "config": {}},
    "largevocab": {"steps": 4, "v_content": 19_996, "config": {"d_e": 300, "clip": 0.01}},
}


def run(case: str):
    """Train the case's steps from its seed; return (config, vocab, params, adam, loss parts)."""
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
    losses = [list(train_step(batch, params, adam, config, rng=rng)) for batch in batches]
    return config, vocab, params, adam, losses


def tensor_sums(params, adam) -> dict:
    """Name -> [size, sum, sum of squares] of each tensor of the parameters, m and v."""
    sums = {}
    for kind, tensors in (("param", params.values), ("m", adam.m), ("v", adam.v)):
        for name, x in tensors.items():
            sums[f"{kind}/{name}"] = [x.size, float(x.sum()), float(np.square(x).sum())]
    return sums


def main() -> None:
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
