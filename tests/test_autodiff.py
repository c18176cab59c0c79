"""Forward values, tape semantics and the `grad_check` oracle of the autodiff ops.

Each op's finite-difference check runs in the gradcheck suite (tests/test_gradcheck.py).
"""

import threading
import tracemalloc

import numpy as np
import pytest

from groundsent import autodiff as ad
from groundsent.autodiff import Matrix, ShapeError, Tape, grad_check
from groundsent.grounding import cosine_matrix


# ---------------------------------------------------------------------------
# Matrix


def test_matrix_shares_a_float64_array():
    arr = np.zeros((2, 3))
    assert Matrix(arr).data is arr


def test_matrix_converts_a_list_to_float64():
    m = Matrix([[1, 2, 3]])
    assert m.data.dtype == np.float64 and m.shape == (1, 3)
    np.testing.assert_array_equal(m.data, [[1.0, 2.0, 3.0]])


@pytest.mark.parametrize("data", [[1.0, 2.0], np.zeros((2, 2, 2))])
def test_matrix_of_1d_or_3d_input_raises(data):
    with pytest.raises(ShapeError, match=r"2-D, got shape \("):
        Matrix(data)


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


def test_concat_rows_definition():
    out = ad.concat_rows(Matrix([[1.0]]), Matrix([[2.0, 3.0]]))
    np.testing.assert_array_equal(out.data, [[1.0, 2.0, 3.0]])


def test_concat_rows_empty_identity():
    x = Matrix([[4.0, 5.0]])
    out = ad.concat_rows(x, Matrix(np.zeros((1, 0))))
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


def test_select_rows_accumulates_duplicates():
    m = Matrix(np.arange(6.0).reshape(3, 2))
    with Tape() as tape:
        out = ad.select_rows(m, [1, 1, 2])
        tape.backward(ad.sum_all(out))
    np.testing.assert_array_equal(m.grad, [[0.0, 0.0], [2.0, 2.0], [1.0, 1.0]])


@pytest.mark.parametrize("ids", [[2], [0, 1, 2], [1, 1, 0]])
def test_select_rows_output_is_a_copy(ids):
    m = Matrix(np.arange(6.0).reshape(3, 2))
    out = ad.select_rows(m, ids)
    out.data[...] = -1.0
    np.testing.assert_array_equal(m.data, np.arange(6.0).reshape(3, 2))


def gathered_grad(select_rows, data, grad, ids, g, grad_rows=None):
    """m.grad after one select_rows backward of upstream gradient g into m = Matrix(data)."""
    m = Matrix(data)
    m.grad = None if grad is None else grad.copy()
    m.grad_rows = grad_rows
    with Tape() as tape:
        out = select_rows(m, ids)
    out.grad = g
    tape.entries[0][3]()
    return m.grad


@pytest.mark.parametrize("preset", [False, True])
def test_select_rows_backward_matches_dense_scatter(dense_select_rows, preset):
    rng = np.random.default_rng(7)
    data = rng.standard_normal((40, 6))
    grad = rng.standard_normal((40, 6)) if preset else None
    ids = np.concatenate([np.full(32, 1), rng.integers(0, 40, 50), [-1, 39, -40]])
    rng.shuffle(ids)
    g = rng.standard_normal((ids.size, 6))
    np.testing.assert_array_equal(gathered_grad(ad.select_rows, data, grad, ids, g),
                                  gathered_grad(dense_select_rows, data, grad, ids, g))


def test_select_rows_backward_into_held_rows_matches_the_dense_rows():
    # each row's sum lands at the row's place in grad_rows, and a held row not gathered
    # keeps its gradient, as it does in a dense .grad
    rng = np.random.default_rng(10)
    data = rng.standard_normal((40, 6))
    ids = np.concatenate([np.full(32, 1), rng.integers(0, 40, 50), [-1, 39, -40]])
    g = rng.standard_normal((ids.size, 6))
    held = np.union1d(ids % 40, [5, 17])
    dense = np.zeros((40, 6))
    dense[held] = rng.standard_normal((held.size, 6))
    np.testing.assert_array_equal(
        gathered_grad(ad.select_rows, data, dense[held], ids, g, grad_rows=held),
        gathered_grad(ad.select_rows, data, dense, ids, g)[held])


@pytest.mark.parametrize("ids", [[1], [3], [0, 3], [-1]])
def test_select_rows_backward_of_a_row_not_held_raises(ids):
    g = np.ones((len(ids), 3))
    with pytest.raises(ValueError, match="not among the grad_rows"):
        gathered_grad(ad.select_rows, np.zeros((4, 3)), np.zeros((2, 3)), ids, g,
                      grad_rows=np.array([0, 2]))


def test_accumulate_into_a_row_held_gradient_raises():
    m = Matrix(np.zeros((4, 3)))
    m.grad, m.grad_rows = np.zeros((2, 3)), np.array([0, 2])
    with pytest.raises(ValueError, match="holds only its grad_rows"):
        m.accumulate(np.ones((4, 3)))
    assert not m.grad.any()


def test_select_rows_backward_leaves_other_rows_bit_for_bit():
    rng = np.random.default_rng(8)
    grad = rng.standard_normal((10, 4))
    grad[5] = -0.0  # the dense scatter turned this into +0.0
    grad[6, 0] = np.nan
    after = gathered_grad(ad.select_rows, np.zeros((10, 4)), grad, [2, 3, 2],
                          rng.standard_normal((3, 4)))
    untouched = np.setdiff1d(np.arange(10), [2, 3])
    assert after[untouched].tobytes() == grad[untouched].tobytes()


def test_select_rows_backward_into_a_set_gradient_allocates_nothing_table_sized():
    v, d_e = 20_000, 300
    m = Matrix(np.zeros((v, d_e)))
    m.grad = np.zeros((v, d_e))
    rng = np.random.default_rng(9)
    with Tape() as tape:
        out = ad.select_rows(m, np.concatenate([np.full(32, 1), rng.integers(0, v, 288)]))
    out.grad = rng.standard_normal(out.shape)
    tracemalloc.start()
    try:
        tape.entries[0][3]()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < v * d_e * 8 / 10


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
        ad.record("probe", (x,), Matrix([[0.0]]), lambda: calls.append("probe"))
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


def test_grad_check_perturbs_theta_in_place_and_restores_it():
    base = np.arange(1.0, 7.0)
    theta = Matrix(np.zeros((2, 2)))
    theta.data = view = base[:4].reshape(2, 2)  # like a model tensor: a view of a vector
    seen = []

    def f(t):
        seen.append(np.shares_memory(t.data, base))
        return ad.sum_all(ad.mul(t, t))

    u = np.array([[1.0, -2.0], [0.5, 0.0]])
    assert grad_check(f, theta) < 1e-9
    assert grad_check(f, theta, directions=[u / np.linalg.norm(u)]) < 1e-9
    assert all(seen) and theta.data is view
    np.testing.assert_array_equal(base, np.arange(1.0, 7.0))


def test_grad_check_direction_catches_a_wrong_gradient():
    def doubled_gradient(x):  # identity forward, backward twice the true gradient
        out = Matrix(x.data)
        ad.record("doubled", (x,), out, lambda: x.accumulate(2.0 * out.grad))
        return out

    theta = Matrix([[0.3, -0.7]])
    err = grad_check(lambda t: ad.sum_all(doubled_gradient(t)), theta,
                     directions=[np.array([[0.6, 0.8]])])
    assert err == pytest.approx(1.0 / 3.0)


def test_grad_check_rejects_non_scalar():
    theta = Matrix([[1.0, 2.0]])
    with pytest.raises(ShapeError):
        grad_check(lambda t: ad.tanh(t), theta)


