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
    """A dense 2-D float64 array plus an accumulated-gradient slot."""

    __slots__ = ("data", "grad")

    def __init__(self, data):
        arr = np.array(data, dtype=np.float64)
        if arr.ndim == 0:
            arr = arr.reshape(1, 1)
        elif arr.ndim == 1:
            arr = arr.reshape(1, -1)
        elif arr.ndim != 2:
            raise ShapeError(f"Matrix must be at most 2-D, got shape {arr.shape}")
        self.data = arr
        self.grad: np.ndarray | None = None

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "Matrix":
        # Internal fast path: takes ownership of a float64 2-D array, no copy.
        m = object.__new__(cls)
        m.data = arr
        m.grad = None
        return m

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
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def __repr__(self) -> str:
        return f"Matrix({self.rows}x{self.cols})"


_TAPES: contextvars.ContextVar[tuple["Tape", ...]] = contextvars.ContextVar(
    "groundsent_tapes", default=())


class Tape:
    """Ordered record of executed operations, replayed backward for gradients."""

    def __init__(self):
        # Entries are (op name, inputs, outputs, backward closure) in execution order.
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
        for _, _, outputs, backward in reversed(self.entries):
            for out in outputs:
                if out.grad is not None:
                    backward()
                    break


def record(name: str, inputs: tuple, outputs: tuple, backward) -> None:
    """Record a custom op on the active tape, if any.

    Extension hook for composite ops (LSTM cells, fused losses) defined
    outside this module. `backward` reads the outputs' .grad slots and
    accumulates into the inputs. Tape.backward calls it only when some
    output has a gradient; an op with several outputs must still handle
    those whose .grad is None.
    """
    tapes = _TAPES.get()
    if tapes:
        tapes[-1].entries.append((name, inputs, outputs, backward))


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic function of a numpy array, in the tanh form, which cannot overflow."""
    return 0.5 + 0.5 * np.tanh(0.5 * z)


# ---------------------------------------------------------------------------
# primitive operations


def matmul(a: Matrix, b: Matrix) -> Matrix:
    """Matrix product. Backward: grad_a = g @ b.T, grad_b = a.T @ g."""
    if a.cols != b.rows:
        raise ShapeError(f"matmul: inner dimensions disagree, {a.shape} x {b.shape}")
    out = Matrix._wrap(a.data @ b.data)

    def backward():
        g = out.grad
        a.accumulate(g @ b.data.T)
        b.accumulate(a.data.T @ g)

    record("matmul", (a, b), (out,), backward)
    return out


def _binary_shapes(name: str, a: Matrix, b: Matrix) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"{name}: operand shapes differ, {a.shape} vs {b.shape}")


def add(a: Matrix, b: Matrix) -> Matrix:
    _binary_shapes("add", a, b)
    out = Matrix._wrap(a.data + b.data)

    def backward():
        g = out.grad
        a.accumulate(g)
        b.accumulate(g)

    record("add", (a, b), (out,), backward)
    return out


def mul(a: Matrix, b: Matrix) -> Matrix:
    _binary_shapes("mul", a, b)
    out = Matrix._wrap(a.data * b.data)

    def backward():
        g = out.grad
        a.accumulate(g * b.data)
        b.accumulate(g * a.data)

    record("mul", (a, b), (out,), backward)
    return out


def max2(a: Matrix, b: Matrix) -> Matrix:
    """Elementwise maximum; ties route the gradient to the first operand."""
    _binary_shapes("max2", a, b)
    out = Matrix._wrap(np.maximum(a.data, b.data))
    take_a = a.data >= b.data

    def backward():
        g = out.grad
        a.accumulate(np.where(take_a, g, 0.0))
        b.accumulate(np.where(take_a, 0.0, g))

    record("max2", (a, b), (out,), backward)
    return out


def scale(x: Matrix, s: float) -> Matrix:
    out = Matrix._wrap(x.data * s)

    def backward():
        x.accumulate(out.grad * s)

    record("scale", (x,), (out,), backward)
    return out


def tanh(x: Matrix) -> Matrix:
    y = np.tanh(x.data)
    out = Matrix._wrap(y)

    def backward():
        x.accumulate(out.grad * (1.0 - y * y))

    record("tanh", (x,), (out,), backward)
    return out


def relu(x: Matrix) -> Matrix:
    out = Matrix._wrap(np.maximum(x.data, 0.0))
    mask = x.data > 0.0

    def backward():
        x.accumulate(out.grad * mask)

    record("relu", (x,), (out,), backward)
    return out


def softmax_rows(x: Matrix) -> Matrix:
    """Row-wise softmax with per-row max subtraction for stability."""
    shifted = x.data - x.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=1, keepdims=True)
    out = Matrix._wrap(y)

    def backward():
        g = out.grad
        x.accumulate(y * (g - (g * y).sum(axis=1, keepdims=True)))

    record("softmax_rows", (x,), (out,), backward)
    return out


def reduce_max_rows(x: Matrix) -> Matrix:
    """Column-wise maximum over rows; gradient flows to the first argmax row."""
    if x.rows < 1 or x.cols < 1:
        raise ShapeError(f"reduce_max_rows: empty input {x.shape}")
    out = Matrix._wrap(x.data.max(axis=0, keepdims=True))
    winners = np.argmax(x.data, axis=0)

    def backward():
        gx = np.zeros_like(x.data)
        gx[winners, np.arange(x.cols)] = out.grad[0]
        x.accumulate(gx)

    record("reduce_max_rows", (x,), (out,), backward)
    return out


def concat_rows(a: Matrix, b: Matrix) -> Matrix:
    """Juxtapose two row vectors: (1,p) ++ (1,q) -> (1,p+q)."""
    if a.rows != 1 or b.rows != 1:
        raise ShapeError(f"concat_rows: both operands must be row vectors, got {a.shape}, {b.shape}")
    p = a.cols
    out = Matrix._wrap(np.hstack([a.data, b.data]))

    def backward():
        g = out.grad
        a.accumulate(g[:, :p])
        b.accumulate(g[:, p:])

    record("concat_rows", (a, b), (out,), backward)
    return out


def transpose(x: Matrix) -> Matrix:
    out = Matrix._wrap(np.ascontiguousarray(x.data.T))

    def backward():
        x.accumulate(out.grad.T)

    record("transpose", (x,), (out,), backward)
    return out


def stack_rows(rows: list[Matrix]) -> Matrix:
    """Stack row vectors into an (n, d) matrix; backward splits by row."""
    if not rows:
        raise ShapeError("stack_rows: no rows given")
    for r in rows:
        if r.rows != 1:
            raise ShapeError(f"stack_rows: expected row vectors, got {r.shape}")
    out = Matrix._wrap(np.vstack([r.data for r in rows]))
    inputs = tuple(rows)

    def backward():
        g = out.grad
        for i, r in enumerate(inputs):
            r.accumulate(g[i : i + 1])

    record("stack_rows", inputs, (out,), backward)
    return out


def select_rows(m: Matrix, ids) -> Matrix:
    """Gather rows by index (embedding lookup); backward scatter-adds."""
    idx = np.asarray(ids, dtype=np.intp)
    out = Matrix._wrap(m.data[idx].copy())

    def backward():
        gm = np.zeros_like(m.data)
        np.add.at(gm, idx, out.grad)
        m.accumulate(gm)

    record("select_rows", (m,), (out,), backward)
    return out


def add_rowvec(m: Matrix, v: Matrix) -> Matrix:
    """Add a (1, d) row vector to every row of an (n, d) matrix."""
    if v.rows != 1 or v.cols != m.cols:
        raise ShapeError(f"add_rowvec: expected (n,{m.cols}) + (1,{m.cols}), got {m.shape} + {v.shape}")
    out = Matrix._wrap(m.data + v.data)

    def backward():
        g = out.grad
        m.accumulate(g)
        v.accumulate(g.sum(axis=0, keepdims=True))

    record("add_rowvec", (m, v), (out,), backward)
    return out


def sum_all(x: Matrix) -> Matrix:
    """Sum of all entries, as a 1x1 matrix."""
    out = Matrix._wrap(np.array([[x.data.sum()]]))

    def backward():
        x.accumulate(np.full_like(x.data, out.grad[0, 0]))

    record("sum_all", (x,), (out,), backward)
    return out


def normalize_rows(x: Matrix) -> Matrix:
    """Scale each row to unit L2 norm, with an epsilon-guarded denominator."""
    norms = np.sqrt((x.data * x.data).sum(axis=1, keepdims=True))
    denom = np.maximum(norms, NORM_EPS)
    y = x.data / denom
    out = Matrix._wrap(y)
    guarded = norms[:, 0] < NORM_EPS

    def backward():
        g = out.grad
        # Unguarded rows: d/dx (x/|x|) = (g - y (y.g)) / |x|; guarded rows are x/eps.
        gx = (g - y * (g * y).sum(axis=1, keepdims=True)) / denom
        if guarded.any():
            gx[guarded] = g[guarded] / NORM_EPS
        x.accumulate(gx)

    record("normalize_rows", (x,), (out,), backward)
    return out


# ---------------------------------------------------------------------------
# verification oracle


def grad_check(f, theta: Matrix, eps: float = 1e-5) -> float:
    """Compare f's analytic gradient at theta against central differences.

    f must map theta to a scalar (1x1) Matrix and be deterministic. Returns
    the maximum over entries of |analytic - numeric| / max(1e-12,
    |analytic| + |numeric|). f is evaluated without an active tape for the
    perturbed points, so only the analytic pass records.
    """
    theta.grad = None
    with Tape() as tape:
        out = f(theta)
        if out.shape != (1, 1):
            raise ShapeError(f"grad_check: f must return a scalar, got {out.shape}")
        tape.backward(out)
    analytic = np.zeros_like(theta.data) if theta.grad is None else theta.grad.copy()
    theta.grad = None

    numeric = np.zeros_like(theta.data)
    flat = theta.data.reshape(-1)
    num_flat = numeric.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = f(theta).item()
        flat[i] = orig - eps
        fm = f(theta).item()
        flat[i] = orig
        num_flat[i] = (fp - fm) / (2.0 * eps)

    rel = np.abs(analytic - numeric) / np.maximum(1e-12, np.abs(analytic) + np.abs(numeric))
    return float(rel.max()) if rel.size else 0.0
