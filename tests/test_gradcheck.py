"""The finite-difference suite (`groundsent gradcheck`), run once and asserted check by check.

The suite is the one place that builds a finite-difference check of an op
or a model part; each result is asserted here by name.
"""

import pytest

from groundsent.gradcheck import TOLERANCE, run_suite

PRIMITIVES = [
    "matmul/a", "matmul/b", "tanh", "relu", "add", "mul", "max2", "scale", "reduce_max_rows",
    "concat_rows", "transpose", "select_rows", "masked_attention/scores",
    "masked_attention/states", "add_rowvec", "cross_entropy_rows/states",
    "cross_entropy_rows/out_w", "cross_entropy_rows/out_b", "normalize_rows",
]
MODEL_PARTS = [
    "lstm_step/3-chain", "attend", "encode_sentence", "caption_nll", "ranking_loss",
    "grounding_loss", "objective/cap2cap", "objective/cap2img", "objective/cap2all",
]
PRIMITIVE_TOLERANCE = 1e-6  # a single op at a small random point differences cleanly


@pytest.fixture(scope="module")
def suite():
    return run_suite()


def test_suite_runs_the_pinned_checks_in_order(suite):
    assert [r.name for r in suite] == PRIMITIVES + MODEL_PARTS


@pytest.mark.parametrize("name", PRIMITIVES + MODEL_PARTS)
def test_check_is_below_its_bound(suite, name):
    error = next(r.max_rel_error for r in suite if r.name == name)
    assert error < (PRIMITIVE_TOLERANCE if name in PRIMITIVES else TOLERANCE)
