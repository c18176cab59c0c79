"""Reverse-mode automatic differentiation over dense float64 matrices.

Every operation computes its forward result with numpy and, when a Tape is
active, records a backward closure. Tape.backward replays the closures in
reverse execution order, accumulating gradients additively, so a value
consumed by k operations receives the sum of k contributions. With no
active tape, ops are plain forward evaluation (inference mode).

The stack of active tapes is held per context (a contextvars.ContextVar),
so each thread, and each asyncio task, records only onto tapes it opened
itself: inference on one thread never lands on another thread's tape. A
single tape must still be recorded by one thread at a time.
"""

from __future__ import annotations

import contextvars

import numpy as np

# Denominator guard for row normalization.
NORM_EPS = 1e-8


class ShapeError(ValueError):
    """Operand shapes incompatible with the requested operation."""


class Matrix:
    """A dense 2-D float64 array plus an accumulated-gradient slot.

    A float64 array is taken as `data` without a copy, so a Matrix over a view
    writes through to the viewed array; other input is converted to float64.
    When `grad_rows` is set, it holds the ascending rows of data whose gradient
    .grad holds, in that order, as a (len(grad_rows), cols) array; every other
    row's gradient is zero, and only `select_rows` adds into that .grad.
    """

    __slots__ = ("data", "grad", "grad_rows")

    def __init__(self, data):
        self.data = np.asarray(data, dtype=np.float64)
        if self.data.ndim != 2:
            raise ShapeError(f"Matrix must be 2-D, got shape {self.data.shape}")
        self.grad: np.ndarray | None = None
        self.grad_rows: np.ndarray | None = None  # None: .grad is shaped like data

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    def item(self) -> float:
        if self.data.shape != (1, 1):
            raise ShapeError(f"item() needs a 1x1 matrix, got {self.shape}")
        return float(self.data[0, 0])

    def accumulate(self, g: np.ndarray) -> None:
        """Add g, shaped like data, to the gradient; the first call stores a copy of g."""
        if self.grad_rows is not None:
            raise ValueError(f"accumulate: the gradient of {self!r} holds only its grad_rows")
        if self.grad is None:
            self.grad = np.array(g, dtype=np.float64)
        else:
            self.grad += g

    def __repr__(self) -> str:
        return f"Matrix({self.rows}x{self.cols})"


_TAPES: contextvars.ContextVar[tuple["Tape", ...]] = contextvars.ContextVar(
    "groundsent_tapes", default=())


class Tape:
    """Ordered record of executed operations, replayed backward for gradients."""

    def __init__(self):
        # Entries are (op name, inputs, output, backward closure) in execution order.
        self.entries: list[tuple] = []

    def __enter__(self) -> "Tape":
        _TAPES.set(_TAPES.get() + (self,))
        return self

    def __exit__(self, *exc) -> None:
        _TAPES.set(_TAPES.get()[:-1])

    def __len__(self) -> int:
        return len(self.entries)

    def backward(self, output: Matrix) -> None:
        """Seed d(output)/d(output) = 1; replay, in reverse, each entry with an output gradient."""
        if output.shape != (1, 1):
            raise ShapeError(f"backward needs a scalar (1x1) output, got {output.shape}")
        output.grad = np.ones((1, 1))
        for _, _, out, backward in reversed(self.entries):
            if out.grad is not None:
                backward()


def record(name: str, inputs: tuple, output: Matrix, backward) -> None:
    """Record a custom op on the active tape, if any.

    Extension hook for composite ops (the LSTM recurrence, fused losses)
    defined outside this module. `backward` reads the output's .grad slot
    and accumulates into the inputs. Tape.backward calls it only when the
    output has a gradient.
    """
    tapes = _TAPES.get()
    if tapes:
        tapes[-1].entries.append((name, inputs, output, backward))


def sigmoid(z: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write the logistic function of z into out, in the tanh form, which cannot overflow."""
    np.tanh(np.multiply(z, 0.5, out=out), out=out)
    out *= 0.5
    out += 0.5
    return out


# ---------------------------------------------------------------------------
# primitive operations


def matmul(a: Matrix, b: Matrix) -> Matrix:
    """Matrix product. Backward: grad_a = g @ b.T, grad_b = a.T @ g."""
    if a.cols != b.rows:
        raise ShapeError(f"matmul: inner dimensions disagree, {a.shape} x {b.shape}")
    out = Matrix(a.data @ b.data)

    def backward():
        g = out.grad
        a.accumulate(g @ b.data.T)
        b.accumulate(a.data.T @ g)

    record("matmul", (a, b), out, backward)
    return out


def _binary_shapes(name: str, a: Matrix, b: Matrix) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"{name}: operand shapes differ, {a.shape} vs {b.shape}")


def add(a: Matrix, b: Matrix) -> Matrix:
    _binary_shapes("add", a, b)
    out = Matrix(a.data + b.data)

    def backward():
        g = out.grad
        a.accumulate(g)
        b.accumulate(g)

    record("add", (a, b), out, backward)
    return out


def mul(a: Matrix, b: Matrix) -> Matrix:
    _binary_shapes("mul", a, b)
    out = Matrix(a.data * b.data)

    def backward():
        g = out.grad
        a.accumulate(g * b.data)
        b.accumulate(g * a.data)

    record("mul", (a, b), out, backward)
    return out


def max2(a: Matrix, b: Matrix) -> Matrix:
    """Elementwise maximum; ties route the gradient to the first operand."""
    _binary_shapes("max2", a, b)
    out = Matrix(np.maximum(a.data, b.data))
    take_a = a.data >= b.data

    def backward():
        g = out.grad
        a.accumulate(np.where(take_a, g, 0.0))
        b.accumulate(np.where(take_a, 0.0, g))

    record("max2", (a, b), out, backward)
    return out


def scale(x: Matrix, s: float) -> Matrix:
    out = Matrix(x.data * s)

    def backward():
        x.accumulate(out.grad * s)

    record("scale", (x,), out, backward)
    return out


def tanh(x: Matrix) -> Matrix:
    y = np.tanh(x.data)
    out = Matrix(y)

    def backward():
        x.accumulate(out.grad * (1.0 - y * y))

    record("tanh", (x,), out, backward)
    return out


def relu(x: Matrix) -> Matrix:
    out = Matrix(np.maximum(x.data, 0.0))
    mask = x.data > 0.0

    def backward():
        x.accumulate(out.grad * mask)

    record("relu", (x,), out, backward)
    return out


def reduce_max_rows(x: Matrix, blocks: int = 1) -> Matrix:
    """Column-wise maximum over each of `blocks` equal runs of consecutive rows, (blocks, cols).

    The gradient of each output entry flows to the first argmax row of its run.
    """
    if x.rows < 1 or x.cols < 1 or blocks < 1 or x.rows % blocks:
        raise ShapeError(f"reduce_max_rows: cannot split {x.shape} into {blocks} runs of rows")
    runs = x.data.reshape(blocks, -1, x.cols)
    out = Matrix(runs.max(axis=1))
    winners = runs.argmax(axis=1)

    def backward():
        gx = np.zeros_like(runs)
        np.put_along_axis(gx, winners[:, None, :], out.grad[:, None, :], axis=1)
        x.accumulate(gx.reshape(x.shape))

    record("reduce_max_rows", (x,), out, backward)
    return out


def concat_rows(a: Matrix, b: Matrix) -> Matrix:
    """Join each row of a with the same row of b: (n,p) ++ (n,q) -> (n,p+q)."""
    if a.rows != b.rows:
        raise ShapeError(f"concat_rows: row counts differ, {a.shape} vs {b.shape}")
    p = a.cols
    out = Matrix(np.hstack([a.data, b.data]))

    def backward():
        g = out.grad
        a.accumulate(g[:, :p])
        b.accumulate(g[:, p:])

    record("concat_rows", (a, b), out, backward)
    return out


def transpose(x: Matrix) -> Matrix:
    out = Matrix(np.ascontiguousarray(x.data.T))

    def backward():
        x.accumulate(out.grad.T)

    record("transpose", (x,), out, backward)
    return out


def select_rows(m: Matrix, ids) -> Matrix:
    """Gather rows by index (embedding lookup).

    Backward sums each used row's gradients from 0 in gather order, then adds
    that sum once, in place, into m.grad; rows not gathered are untouched, and
    nothing shaped like m is made unless m.grad is None. With m.grad_rows set,
    each sum goes to its row's place there; a row not held raises ValueError.
    """
    idx = np.asarray(ids, dtype=np.intp)
    out = Matrix(m.data[idx])  # integer-array indexing copies, so out never aliases m

    def backward():
        cols = m.cols
        # Negative ids name the same row as their positive form, so map them before np.unique.
        rows, where = np.unique(idx % m.rows, return_inverse=True)
        sums = np.zeros((rows.size, cols))
        # Flat indices take np.add.at's fast path; 2-D row indices are about 3x slower.
        np.add.at(sums.reshape(-1), (where.reshape(-1, 1) * cols + np.arange(cols)).reshape(-1),
                  out.grad.reshape(-1))
        if m.grad_rows is not None:
            at = np.searchsorted(m.grad_rows, rows)
            if not (at < m.grad_rows.size).all() or (m.grad_rows[at] != rows).any():
                raise ValueError("select_rows: a gathered row is not among the grad_rows")
            rows = at
        elif m.grad is None:
            m.grad = np.zeros_like(m.data)
        m.grad[rows] += sums

    record("select_rows", (m,), out, backward)
    return out


def add_rowvec(m: Matrix, v: Matrix) -> Matrix:
    """Add a (1, d) row vector to every row of an (n, d) matrix."""
    if v.rows != 1 or v.cols != m.cols:
        raise ShapeError(f"add_rowvec: expected (n,{m.cols}) + (1,{m.cols}), got {m.shape} + {v.shape}")
    out = Matrix(m.data + v.data)

    def backward():
        g = out.grad
        m.accumulate(g)
        v.accumulate(g.sum(axis=0, keepdims=True))

    record("add_rowvec", (m, v), out, backward)
    return out


def sum_all(x: Matrix) -> Matrix:
    """Sum of all entries, as a 1x1 matrix."""
    out = Matrix([[x.data.sum()]])

    def backward():
        x.accumulate(np.full_like(x.data, out.grad[0, 0]))

    record("sum_all", (x,), out, backward)
    return out


def normalize_rows(x: Matrix) -> Matrix:
    """Scale each row to unit L2 norm, with an epsilon-guarded denominator."""
    norms = np.sqrt((x.data * x.data).sum(axis=1, keepdims=True))
    denom = np.maximum(norms, NORM_EPS)
    y = x.data / denom
    out = Matrix(y)
    guarded = norms[:, 0] < NORM_EPS

    def backward():
        g = out.grad
        # Unguarded rows: d/dx (x/|x|) = (g - y (y.g)) / |x|; guarded rows are x/eps.
        gx = (g - y * (g * y).sum(axis=1, keepdims=True)) / denom
        if guarded.any():
            gx[guarded] = g[guarded] / NORM_EPS
        x.accumulate(gx)

    record("normalize_rows", (x,), out, backward)
    return out


# ---------------------------------------------------------------------------
# verification oracle


def grad_check(f, theta: Matrix, eps: float = 1e-5, directions=None) -> float:
    """Compare f's analytic gradient at theta against central differences.

    f must map theta to a scalar (1x1) Matrix and be deterministic. Returns
    the maximum over directions u (arrays shaped like theta; None means
    every unit vector, the entrywise check) of |a - n| / max(1e-12, |a| +
    |n|), with a = <grad, u> and n the central difference along u. theta.data
    is perturbed in place and restored. f is evaluated without an active tape
    for the perturbed points, so only the analytic pass records.
    """
    theta.grad = None
    with Tape() as tape:
        tape.backward(f(theta))  # raises ShapeError unless f returns a scalar
    analytic = np.zeros_like(theta.data) if theta.grad is None else theta.grad
    theta.grad = None
    if directions is None:
        directions = np.eye(theta.data.size).reshape(-1, *theta.shape)

    original = theta.data.copy()
    errors = []
    try:
        for u in directions:
            np.add(original, eps * u, out=theta.data)
            fp = f(theta).item()
            np.add(original, -eps * u, out=theta.data)
            fm = f(theta).item()
            a, n = float((analytic * u).sum()), (fp - fm) / (2.0 * eps)
            errors.append(abs(a - n) / max(1e-12, abs(a) + abs(n)))
    finally:
        theta.data[...] = original
    return float(np.max(errors)) if errors else 0.0
