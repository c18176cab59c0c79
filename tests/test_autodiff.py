"""Forward values and finite-difference gradient checks for the autodiff ops."""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groundsent import autodiff as ad
from groundsent.autodiff import Matrix, ShapeError, Tape, grad_check
from groundsent.gradcheck import TOLERANCE, run_suite
from groundsent.grounding import cosine_matrix

TOL = 1e-6  # relative error bound for single-op finite-difference checks


def rng_for(seed):
    return np.random.default_rng(seed)


def check_op(build, n_points=10, tol=TOL):
    """Run grad_check at random points; build(rng) -> (f, theta)."""
    worst = 0.0
    for seed in range(n_points):
        f, theta = build(rng_for(seed))
        worst = max(worst, grad_check(f, theta))
    assert worst < tol, f"max relative error {worst:.3e}"


# ---------------------------------------------------------------------------
# matmul


def test_matmul_identity():
    b = Matrix([[1.0, 2.0], [3.0, 4.0]])
    out = ad.matmul(Matrix(np.eye(2)), b)
    np.testing.assert_array_equal(out.data, b.data)


def test_matmul_hand_case():
    out = ad.matmul(Matrix([[1.0, 2.0], [3.0, 4.0]]), Matrix([[1.0], [1.0]]))
    np.testing.assert_array_equal(out.data, [[3.0], [7.0]])


def test_matmul_shape_mismatch_names_both_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
        ad.matmul(Matrix(np.zeros((2, 3))), Matrix(np.zeros((2, 3))))


def test_matmul_grad_both_sides():
    def wrt_a(rng):
        a = Matrix(rng.standard_normal((3, 4)))
        b = Matrix(rng.standard_normal((4, 2)))
        return lambda t: ad.sum_all(ad.matmul(t, b)), a

    def wrt_b(rng):
        a = Matrix(rng.standard_normal((3, 4)))
        b = Matrix(rng.standard_normal((4, 2)))
        return lambda t: ad.sum_all(ad.matmul(a, t)), b

    check_op(wrt_a)
    check_op(wrt_b)


# ---------------------------------------------------------------------------
# elementwise ops


def test_max2_definition():
    out = ad.max2(Matrix([[1.0, -2.0]]), Matrix([[0.0, 3.0]]))
    np.testing.assert_array_equal(out.data, [[1.0, 3.0]])


def test_relu_definition():
    out = ad.relu(Matrix([[-1.0, 0.0, 2.0]]))
    np.testing.assert_array_equal(out.data, [[0.0, 0.0, 2.0]])


def test_max2_tie_gradient_goes_to_first():
    a = Matrix([[2.0]])
    b = Matrix([[2.0]])
    with Tape() as tape:
        tape.backward(ad.sum_all(ad.max2(a, b)))
    assert a.grad[0, 0] == 1.0
    assert b.grad[0, 0] == 0.0


def test_binary_shape_mismatch():
    with pytest.raises(ShapeError):
        ad.add(Matrix(np.zeros((2, 2))), Matrix(np.zeros((2, 3))))


@pytest.mark.parametrize("op", [ad.tanh, ad.relu])
def test_unary_grads(op):
    def build(rng):
        # keep away from the relu kink
        x = Matrix(rng.standard_normal((2, 3)) + np.sign(rng.standard_normal((2, 3))) * 0.1)
        w = Matrix(rng.standard_normal((2, 3)))
        return lambda t: ad.sum_all(ad.mul(w, op(t))), x

    check_op(build)


@pytest.mark.parametrize(
    "op",
    [ad.add, ad.mul, lambda a, b: ad.max2(a, b)],
    ids=["add", "mul", "max2"],
)
def test_binary_grads(op):
    def wrt_first(rng):
        a = Matrix(rng.standard_normal((3, 2)))
        b = Matrix(rng.standard_normal((3, 2)))
        w = Matrix(rng.standard_normal((3, 2)))
        return lambda t: ad.sum_all(ad.mul(w, op(t, b))), a

    check_op(wrt_first)


def test_scale_grad():
    def build(rng):
        x = Matrix(rng.standard_normal((2, 4)))
        return lambda t: ad.sum_all(ad.scale(t, -2.5)), x

    check_op(build)


# ---------------------------------------------------------------------------
# softmax


def test_softmax_uniform_row():
    out = ad.softmax_rows(Matrix([[0.0, 0.0, 0.0]]))
    np.testing.assert_allclose(out.data, [[1 / 3, 1 / 3, 1 / 3]])


def test_softmax_large_logits_stable():
    out = ad.softmax_rows(Matrix([[1000.0, 0.0]]))
    assert np.all(np.isfinite(out.data))
    np.testing.assert_allclose(out.data[0, 0], 1.0)
    assert out.data[0, 1] < 1e-300


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=4, max_size=4),
        min_size=1,
        max_size=5,
    )
)
def test_softmax_rows_are_distributions(rows):
    out = ad.softmax_rows(Matrix(np.array(rows)))
    assert np.all(out.data >= 0.0)
    np.testing.assert_allclose(out.data.sum(axis=1), 1.0, atol=1e-6)


def test_softmax_grad():
    def build(rng):
        x = Matrix(rng.standard_normal((2, 5)))
        w = Matrix(rng.standard_normal((2, 5)))
        return lambda t: ad.sum_all(ad.mul(w, ad.softmax_rows(t))), x

    check_op(build)


# ---------------------------------------------------------------------------
# reductions / reshaping


def test_reduce_max_rows_single_row_identity():
    x = Matrix([[1.0, -2.0, 3.0]])
    out = ad.reduce_max_rows(x)
    np.testing.assert_array_equal(out.data, x.data)


def test_reduce_max_rows_definition():
    out = ad.reduce_max_rows(Matrix([[1.0, 5.0], [3.0, 2.0]]))
    np.testing.assert_array_equal(out.data, [[3.0, 5.0]])


def test_reduce_max_rows_rejects_empty():
    with pytest.raises(ShapeError):
        ad.reduce_max_rows(Matrix(np.zeros((0, 3))))


def test_reduce_max_rows_grad():
    def build(rng):
        # distinct entries keep the check away from argmax ties
        x = Matrix(rng.permutation(12).reshape(3, 4) + 0.1 * rng.standard_normal((3, 4)))
        w = Matrix(rng.standard_normal((1, 4)))
        return lambda t: ad.sum_all(ad.mul(w, ad.reduce_max_rows(t))), x

    check_op(build)


def test_concat_rows_definition():
    out = ad.concat_rows(Matrix([[1.0]]), Matrix([[2.0, 3.0]]))
    np.testing.assert_array_equal(out.data, [[1.0, 2.0, 3.0]])


def test_concat_rows_empty_identity():
    x = Matrix([[4.0, 5.0]])
    out = ad.concat_rows(x, Matrix._wrap(np.zeros((1, 0))))
    np.testing.assert_array_equal(out.data, x.data)


def test_concat_rows_rejects_non_row():
    with pytest.raises(ShapeError):
        ad.concat_rows(Matrix(np.zeros((2, 2))), Matrix([[1.0]]))


def test_concat_rows_backward_splits():
    a = Matrix([[1.0, 2.0]])
    b = Matrix([[3.0]])
    with Tape() as tape:
        tape.backward(ad.sum_all(ad.concat_rows(a, b)))
    np.testing.assert_array_equal(a.grad, [[1.0, 1.0]])
    np.testing.assert_array_equal(b.grad, [[1.0]])


def test_transpose_and_stack_grads():
    def build_t(rng):
        x = Matrix(rng.standard_normal((2, 3)))
        w = Matrix(rng.standard_normal((3, 2)))
        return lambda t: ad.sum_all(ad.mul(w, ad.transpose(t))), x

    def build_stack(rng):
        x = Matrix(rng.standard_normal((1, 3)))
        y = Matrix(rng.standard_normal((1, 3)))
        w = Matrix(rng.standard_normal((2, 3)))
        return lambda t: ad.sum_all(ad.mul(w, ad.stack_rows([t, y]))), x

    check_op(build_t)
    check_op(build_stack)


def test_select_rows_accumulates_duplicates():
    m = Matrix(np.arange(6.0).reshape(3, 2))
    with Tape() as tape:
        out = ad.select_rows(m, [1, 1, 2])
        tape.backward(ad.sum_all(out))
    np.testing.assert_array_equal(m.grad, [[0.0, 0.0], [2.0, 2.0], [1.0, 1.0]])


def test_add_rowvec_grad():
    def build(rng):
        m = Matrix(rng.standard_normal((3, 4)))
        v = Matrix(rng.standard_normal((1, 4)))
        w = Matrix(rng.standard_normal((3, 4)))
        return lambda t: ad.sum_all(ad.mul(w, ad.add_rowvec(m, t))), v

    check_op(build)


def test_normalize_rows_grad():
    def build(rng):
        x = Matrix(rng.standard_normal((3, 4)) + 0.5)
        w = Matrix(rng.standard_normal((3, 4)))
        return lambda t: ad.sum_all(ad.mul(w, ad.normalize_rows(t))), x

    check_op(build)


# ---------------------------------------------------------------------------
# cosine similarity (normalize_rows + matmul, as grounding.cosine_matrix builds it)


def test_cosine_self_is_one():
    v = Matrix([[0.3, -1.2, 2.0]])
    w = Matrix([[0.3, -1.2, 2.0]])
    assert cosine_matrix(v, w).item() == pytest.approx(1.0)


def test_cosine_orthogonal_is_zero():
    out = cosine_matrix(Matrix([[1.0, 0.0]]), Matrix([[0.0, 1.0]]))
    assert out.item() == pytest.approx(0.0)


def test_cosine_zero_norm_guarded_and_finite():
    u = Matrix([[0.0, 0.0]])
    v = Matrix([[1.0, 0.0]])
    with Tape() as tape:
        out = cosine_matrix(u, v)
        tape.backward(ad.sum_all(out))
    assert out.item() == 0.0
    assert np.all(np.isfinite(u.grad)) and np.all(np.isfinite(v.grad))


# ---------------------------------------------------------------------------
# tape semantics


def test_value_used_twice_accumulates_both_contributions():
    def g(x):
        return ad.sum_all(ad.mul(x, x))

    x1 = Matrix([[1.0, -2.0], [0.5, 3.0]])
    with Tape() as tape:
        tape.backward(ad.add(g(x1), g(x1)))
    doubled = x1.grad.copy()

    x2 = Matrix(x1.data.copy())
    with Tape() as tape:
        tape.backward(g(x2))
    np.testing.assert_allclose(doubled, 2.0 * x2.grad)


def test_no_tape_means_no_recording():
    x = Matrix([[1.0]])
    out = ad.tanh(x)
    assert out.grad is None and x.grad is None


def test_backward_skips_entries_whose_outputs_have_no_gradient():
    calls = []
    x = Matrix([[1.0]])
    with Tape() as tape:
        ad.record("probe", (x,), (Matrix([[0.0]]),), lambda: calls.append("probe"))
        tape.backward(ad.sum_all(ad.tanh(x)))
    assert calls == []
    assert x.grad is not None


def test_tape_is_private_to_its_thread():
    # inference on one thread must not land on a tape another thread holds open
    opened, release = threading.Event(), threading.Event()
    recorded = []

    def trainer():
        with Tape() as tape:
            opened.set()
            release.wait(timeout=10)
            recorded.append(len(tape))

    thread = threading.Thread(target=trainer)
    thread.start()
    try:
        assert opened.wait(timeout=10)
        ad.matmul(Matrix([[1.0]]), Matrix([[2.0]]))
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert recorded == [0]


def test_backward_rejects_non_scalar():
    with Tape() as tape:
        out = ad.tanh(Matrix([[1.0, 2.0]]))
        with pytest.raises(ShapeError):
            tape.backward(out)


# ---------------------------------------------------------------------------
# grad_check itself


def test_grad_check_linear_is_near_exact():
    theta = Matrix(np.array([[0.7, -1.1, 0.4]]))
    err = grad_check(lambda t: ad.sum_all(t), theta)
    assert err < 1e-9


def test_grad_check_constant_function():
    theta = Matrix([[1.0, 2.0]])
    const = Matrix([[5.0]])
    err = grad_check(lambda t: ad.scale(const, 1.0), theta)
    assert err == 0.0


def test_grad_check_rejects_non_scalar():
    theta = Matrix([[1.0, 2.0]])
    with pytest.raises(ShapeError):
        grad_check(lambda t: ad.tanh(t), theta)


def test_gradcheck_suite_passes():
    results = run_suite()
    failed = {r.name: r.max_rel_error for r in results if not r.max_rel_error < TOLERANCE}
    assert results and not failed
