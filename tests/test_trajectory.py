"""Two short training runs against the values in trajectory.json (see trajectory_reference.py).

The runs must stay a pure function of (config, seed, corpus) through dropout,
clipping and several Adam steps, and a checkpoint of the final state must
hold the same values. The tolerance is relative, 1e-9, not bits, because
BLAS kernels sum in different orders on different machines. A sum is
compared relative to sqrt(size * sum of squares), which bounds the sum of
absolute values, so sums that cancel to near zero are not held to
rounding noise.
"""

import importlib.util
import json
import math
from pathlib import Path

import pytest

from groundsent import checkpoint as ckpt

HERE = Path(__file__).resolve().parent
_SPEC = importlib.util.spec_from_file_location("trajectory_reference",
                                               HERE / "trajectory_reference.py")
ref = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ref)

RTOL = 1e-9


def assert_sums_match(got, want):
    assert set(got) == set(want)
    for name, (size, total, squares) in want.items():
        assert got[name][0] == size, name
        assert abs(got[name][1] - total) <= RTOL * math.sqrt(size * squares), (name, "sum")
        assert math.isclose(got[name][2], squares, rel_tol=RTOL), (name, "sum of squares")


@pytest.mark.parametrize("case", list(ref.CASES))
def test_training_trajectory_matches_the_reference(tmp_path, set_workers, case):
    set_workers(2)  # so the V = 20k steps split their vector work on any machine
    want = json.loads(ref.PATH.read_text())[case]
    config, vocab, params, adam, losses = ref.run(case)

    assert len(losses) == len(want["losses"]) == ref.CASES[case]["steps"]
    for step, (got, expected) in enumerate(zip(losses, want["losses"]), start=1):
        for part, g, e in zip(("loss", "loss_c", "loss_vg"), got, expected):
            assert math.isclose(g, e, rel_tol=RTOL), f"step {step} {part}: {g!r} != {e!r}"
    assert_sums_match(ref.tensor_sums(params, adam), want["tensors"])

    path = tmp_path / "checkpoint.bin"
    ckpt.save(path, params, adam, config, vocab, 1)
    params, adam, _, _, _ = ckpt.load(path)
    assert adam.step == len(losses)
    assert_sums_match(ref.tensor_sums(params, adam), want["tensors"])
