"""Reverse-mode automatic differentiation over float64 numpy arrays.

Define-by-run: a fresh `Tape` is opened per forward pass and every
operation executed inside the ``with`` block appends one node. Nodes are
recorded in execution order, which is already topological, so `backward`
is a single reverse sweep.

Gradient semantics: leaf Vars (parameters, inputs created directly)
accumulate gradients across backward calls until `zero_grad`; op outputs
use their grad slot as transient working storage that is consumed during
the sweep. The optimizer is responsible for zeroing parameter grads.

Ops accept plain numpy arrays or scalars anywhere a Var is allowed; such
operands are treated as constants and receive no gradient.
"""

from __future__ import annotations

import threading

import numpy as np

from .errors import ContractError, DegenerateMaskError, DimensionError, ParameterError

_STATE = threading.local()

NEG_INF = -1e30  # additive mask constant; exp() underflows to exactly 0


def _tape():
    return getattr(_STATE, "tape", None)


class Tape:
    """Append-only record of one forward pass.

    Every node's parents were recorded before it, so ``nodes`` is in
    topological order and one reverse sweep visits each node exactly once.
    """

    __slots__ = ("nodes", "_outer")

    def __init__(self):
        self.nodes = []
        self._outer = None

    def __enter__(self):
        self._outer = getattr(_STATE, "tape", None)
        _STATE.tape = self
        return self

    def __exit__(self, exc_type, exc, tb):
        _STATE.tape = self._outer
        return False

    def record(self, out, parents, pullback):
        """Append a node: output Var, parent Vars, and the local-gradient closure."""
        self.nodes.append((out, parents, pullback))


class Var:
    """A differentiable value: float64 array plus a lazily allocated gradient."""

    __slots__ = ("value", "_grad")

    def __init__(self, value):
        self.value = np.asarray(value, dtype=np.float64)
        self._grad = None

    @property
    def shape(self):
        return self.value.shape

    @property
    def grad(self):
        """The gradient, allocated as zeros on first use; `np.zeros` leaves
        the pages of a large table untouched until rows are written."""
        if self._grad is None:
            self._grad = np.zeros(self.value.shape)
        return self._grad

    def add_grad(self, g):
        if g.shape != self.value.shape:
            raise DimensionError(
                f"gradient shape {g.shape} does not match value shape {self.value.shape}"
            )
        if self._grad is None:
            self._grad = np.array(g, dtype=np.float64)
        else:
            self._grad += g

    def zero_grad(self):
        self._grad = None

    def __repr__(self):
        return f"Var(shape={self.value.shape})"


def _value(x):
    return x.value if isinstance(x, Var) else np.asarray(x, dtype=np.float64)


def backward(tape, loss):
    """Reverse sweep: populate gradients of every Var reachable from `loss`.

    Repeated calls on the same tape accumulate into leaf gradients;
    op-output grad slots are cleared as they are consumed.
    """
    if not isinstance(loss, Var) or loss.value.shape != ():
        raise ContractError("backward requires a scalar Var loss")
    recorded = any(out is loss for out, _, _ in tape.nodes)
    if not recorded:
        raise ContractError("loss was not recorded on this tape")
    loss.add_grad(np.ones((), dtype=np.float64))
    for out, _parents, pullback in reversed(tape.nodes):
        g = out._grad
        if g is None:
            continue
        pullback(g)
        out._grad = None


# ---------------------------------------------------------------------------
# op helpers


def _unbroadcast(g, shape):
    """Reduce a broadcast gradient back to `shape`."""
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _record(out, var_parents, pullback):
    t = _tape()
    if t is not None:
        t.record(out, var_parents, pullback)
    return out


# ---------------------------------------------------------------------------
# arithmetic


def add(a, b):
    av, bv = _value(a), _value(b)
    out = Var(av + bv)
    a_var, b_var = isinstance(a, Var), isinstance(b, Var)
    if not (a_var or b_var):
        return out

    def pullback(g):
        if a_var:
            a.add_grad(_unbroadcast(g, av.shape))
        if b_var:
            b.add_grad(_unbroadcast(g, bv.shape))

    return _record(out, tuple(p for p in (a, b) if isinstance(p, Var)), pullback)


def sub(a, b):
    av, bv = _value(a), _value(b)
    out = Var(av - bv)
    a_var, b_var = isinstance(a, Var), isinstance(b, Var)
    if not (a_var or b_var):
        return out

    def pullback(g):
        if a_var:
            a.add_grad(_unbroadcast(g, av.shape))
        if b_var:
            b.add_grad(_unbroadcast(-g, bv.shape))

    return _record(out, tuple(p for p in (a, b) if isinstance(p, Var)), pullback)


def mul(a, b):
    av, bv = _value(a), _value(b)
    out = Var(av * bv)
    a_var, b_var = isinstance(a, Var), isinstance(b, Var)
    if not (a_var or b_var):
        return out

    def pullback(g):
        if a_var:
            a.add_grad(_unbroadcast(g * bv, av.shape))
        if b_var:
            b.add_grad(_unbroadcast(g * av, bv.shape))

    return _record(out, tuple(p for p in (a, b) if isinstance(p, Var)), pullback)


def matmul(a, b):
    """Matrix product for 2-D x 2-D and 2-D x 1-D operands."""
    av, bv = _value(a), _value(b)
    if av.ndim != 2 or bv.ndim not in (1, 2) or av.shape[1] != bv.shape[0]:
        raise DimensionError(f"matmul: incompatible shapes {av.shape} x {bv.shape}")
    out = Var(av @ bv)
    a_var, b_var = isinstance(a, Var), isinstance(b, Var)
    if not (a_var or b_var):
        return out

    def pullback(g):
        if a_var:
            a.add_grad(g @ bv.T if bv.ndim == 2 else np.outer(g, bv))
        if b_var:
            b.add_grad(av.T @ g)

    return _record(out, tuple(p for p in (a, b) if isinstance(p, Var)), pullback)


def transpose(a):
    out = Var(a.value.T)

    def pullback(g):
        a.add_grad(g.T)

    return _record(out, (a,), pullback)


def reshape(a, shape):
    out = Var(a.value.reshape(shape))

    def pullback(g):
        a.add_grad(g.reshape(a.value.shape))

    return _record(out, (a,), pullback)


# ---------------------------------------------------------------------------
# activations


def tanh(x):
    out = Var(np.tanh(x.value))
    ov = out.value

    def pullback(g):
        x.add_grad(g * (1.0 - ov * ov))

    return _record(out, (x,), pullback)


def relu(x):
    out = Var(np.maximum(x.value, 0.0))
    mask = x.value > 0.0

    def pullback(g):
        x.add_grad(g * mask)

    return _record(out, (x,), pullback)


def log(x):
    xv = x.value
    out = Var(np.log(xv))

    def pullback(g):
        x.add_grad(g / xv)

    return _record(out, (x,), pullback)


def clip(x, lo, hi):
    """Clamp values to [lo, hi]; gradient passes only where unclipped."""
    xv = x.value
    out = Var(np.clip(xv, lo, hi))
    inside = (xv > lo) & (xv < hi)

    def pullback(g):
        x.add_grad(g * inside)

    return _record(out, (x,), pullback)


# ---------------------------------------------------------------------------
# softmax family


def masked_softmax(scores, mask):
    """Exp-normalize `scores` over the last axis, giving masked positions
    exactly zero probability.

    `mask` is a {0,1} array of the same shape; every row must keep at
    least one position. Gradient flows only through unmasked positions.
    """
    mv = np.asarray(mask, dtype=np.float64)
    sv = scores.value
    if mv.shape != sv.shape:
        raise DimensionError(f"mask shape {mv.shape} does not match scores shape {sv.shape}")
    if np.any(mv.sum(axis=-1) == 0):
        raise DegenerateMaskError("mask keeps no position in at least one row")
    # (mv - 1) is 0 on kept positions and -1 on masked ones, so masked scores
    # drop to NEG_INF before normalization.
    shifted = sv + (mv - 1.0) * (-NEG_INF)
    shifted = shifted - shifted.max(axis=-1, keepdims=True)
    e = np.exp(shifted) * mv
    out_v = e / e.sum(axis=-1, keepdims=True)
    out = Var(out_v)

    def pullback(g):
        dot = (g * out_v).sum(axis=-1, keepdims=True)
        scores.add_grad(out_v * (g - dot))

    return _record(out, (scores,), pullback)


def softmax(x):
    """Row-wise softmax over the last axis (no masking)."""
    shifted = x.value - x.value.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out_v = e / e.sum(axis=-1, keepdims=True)
    out = Var(out_v)

    def pullback(g):
        dot = (g * out_v).sum(axis=-1, keepdims=True)
        x.add_grad(out_v * (g - dot))

    return _record(out, (x,), pullback)


def gradient_reversal(x, lam):
    """Identity in the forward pass; multiplies the backward gradient by -lam.

    lam == 0 detaches the branch: nothing is recorded, so no gradient
    reaches `x` through this edge.
    """
    lam = float(lam)
    if lam < 0:
        raise ParameterError(f"gradient reversal strength must be >= 0, got {lam}")
    out = Var(x.value)  # float64 in, same array object out: forward is bit-identical
    if lam == 0.0:
        return out

    def pullback(g):
        x.add_grad(-lam * g)

    return _record(out, (x,), pullback)


# ---------------------------------------------------------------------------
# reductions and structural ops


def asum(x):
    out = Var(x.value.sum())

    def pullback(g):
        x.add_grad(np.broadcast_to(g, x.value.shape))

    return _record(out, (x,), pullback)


def sum_axis(x, axis):
    out = Var(x.value.sum(axis=axis))

    def pullback(g):
        x.add_grad(np.broadcast_to(np.expand_dims(g, axis), x.value.shape))

    return _record(out, (x,), pullback)


def concat(parts, axis=-1):
    """Concatenate Vars (or constant arrays) along `axis`."""
    values = [_value(p) for p in parts]
    out = Var(np.concatenate(values, axis=axis))
    sizes = [v.shape[axis] for v in values]
    offsets = np.cumsum([0] + sizes)
    var_parents = tuple(p for p in parts if isinstance(p, Var))
    if not var_parents:
        return out

    def pullback(g):
        gm = np.moveaxis(g, axis, 0)
        for p, j0, j1 in zip(parts, offsets[:-1], offsets[1:]):
            if isinstance(p, Var):
                p.add_grad(np.moveaxis(gm[j0:j1], 0, axis))

    return _record(out, var_parents, pullback)


def column(x, j):
    """Select one column of a 2-D Var, dropping the axis."""
    out = Var(x.value[:, j])

    def pullback(g):
        buf = np.zeros_like(x.value)
        buf[:, j] = g
        x.add_grad(buf)

    return _record(out, (x,), pullback)


def gather_rows(table, ids, row_grad_mask=None):
    """Row lookup `table[ids]`; the backward pass scatter-adds into the table.

    The pullback sums the incoming rows per distinct id into a block of
    only the touched rows, in `ids` order, and adds that block into the
    table's gradient rows; untouched rows are never written. `row_grad_mask`,
    when given, is a {0,1} vector over rows; rows with 0 receive no gradient
    (locked embedding rows).
    """
    ids = np.asarray(ids)
    if ids.size and ids.max() >= table.value.shape[0]:
        raise DimensionError(
            f"row index {int(ids.max())} out of range for table with {table.value.shape[0]} rows"
        )
    out = Var(table.value[ids])

    def pullback(g):
        rows, slots = np.unique(ids, return_inverse=True)
        block = np.zeros((rows.size, table.value.shape[1]))
        np.add.at(block, slots.reshape(-1), g.reshape(-1, table.value.shape[1]))
        if row_grad_mask is not None:
            block *= row_grad_mask[rows, None]
        table.grad[rows] += block

    return _record(out, (table,), pullback)


def attend(alpha, acts):
    """Batched weighted sum of per-position activations:
    out[n] = sum_t alpha[n, t] * acts[n, t], for alpha [N x T] and acts
    [N x T x D]."""
    av, xv = alpha.value, acts.value
    out = Var(np.einsum("nt,ntd->nd", av, xv))

    def pullback(g):
        alpha.add_grad(np.einsum("nd,ntd->nt", g, xv))
        acts.add_grad(av[:, :, None] * g[:, None, :])

    return _record(out, (alpha, acts), pullback)


# ---------------------------------------------------------------------------
# recurrence


def lstm(x, mask, w, b, reverse=False):
    """One LSTM direction over [N x T x d] inputs, recorded as a single node;
    returns the hidden states [N x T x h].

    The gates are stacked row-wise in i, f, o, c order: `w` is
    [4h x (d+h)] and acts on the concatenation [x_t, h_{t-1}], and `b` is
    [4h]. Each step computes
        i, f, o = sigmoid(rows 0:h, h:2h, 2h:3h);  c~ = tanh(rows 3h:4h)
        c_t = f * c_{t-1} + i * c~;                h_t = o * tanh(c_t)
    from a zero initial state, visiting t = 0..T-1, or T-1..0 when
    `reverse` is set.

    `mask` is a {0, 1} array [N x T]. Where it is 0 the position emits a
    zero state and the carried (h, c) pass through unchanged, so a row
    with right padding reads exactly like the shorter sequence in either
    direction.

    The pullback is backpropagation through time over the per-step values
    the forward loop saved; they are kept only while a tape is recording.
    """
    xv, wv, bv = x.value, w.value, b.value
    mv = np.asarray(mask, dtype=np.float64)
    if xv.ndim != 3 or mv.shape != xv.shape[:2]:
        raise DimensionError(f"lstm: mask shape {mv.shape} does not match input {xv.shape}")
    n, t_x, d = xv.shape
    h = bv.shape[0] // 4
    if bv.shape != (4 * h,) or wv.shape != (4 * h, d + h):
        raise DimensionError(
            f"lstm: gate weights {wv.shape} and biases {bv.shape} do not fit input dim {d}"
        )
    recording = _tape() is not None
    saved = []
    out_v = np.empty((n, t_x, h))
    h_prev = np.zeros((n, h))
    c_prev = np.zeros((n, h))
    for t in range(t_x - 1, -1, -1) if reverse else range(t_x):
        inp = np.concatenate([xv[:, t], h_prev], axis=1)
        pre = inp @ wv.T + bv
        gi = 1.0 / (1.0 + np.exp(-pre[:, :h]))
        gf = 1.0 / (1.0 + np.exp(-pre[:, h : 2 * h]))
        go = 1.0 / (1.0 + np.exp(-pre[:, 2 * h : 3 * h]))
        gc = np.tanh(pre[:, 3 * h :])
        c_new = gf * c_prev + gi * gc
        tc = np.tanh(c_new)
        m = mv[:, t : t + 1]
        inv = 1.0 - m
        out_v[:, t] = act = go * tc * m
        if recording:
            saved.append((t, inp, gi, gf, go, gc, c_prev, tc))
        h_prev = act + h_prev * inv
        c_prev = c_new * m + c_prev * inv
    out = Var(out_v)
    if not recording:
        return out

    def pullback(g):
        dx = np.zeros_like(xv)
        dw_t = np.zeros((d + h, 4 * h))
        db = np.zeros(4 * h)
        dh = np.zeros((n, h))  # gradient reaching the carried state
        dc = np.zeros((n, h))
        dpre = np.empty((n, 4 * h))
        for t, inp, gi, gf, go, gc, c_prev, tc in reversed(saved):
            m = mv[:, t : t + 1]
            inv = 1.0 - m
            dh_new = (g[:, t] + dh) * m
            dc_new = dc * m + dh_new * go * (1.0 - tc * tc)
            dpre[:, :h] = dc_new * gc * gi * (1.0 - gi)
            dpre[:, h : 2 * h] = dc_new * c_prev * gf * (1.0 - gf)
            dpre[:, 2 * h : 3 * h] = dh_new * tc * go * (1.0 - go)
            dpre[:, 3 * h :] = dc_new * gi * (1.0 - gc * gc)
            dw_t += inp.T @ dpre
            db += dpre.sum(axis=0)
            dinp = dpre @ wv
            dx[:, t] = dinp[:, :d]
            dh = dh * inv + dinp[:, d:]
            dc = dc * inv + dc_new * gf
        x.add_grad(dx)
        w.add_grad(dw_t.T)
        b.add_grad(db)

    return _record(out, (x, w, b), pullback)


# ---------------------------------------------------------------------------
# verification


def grad_check(f, params, eps=1e-5):
    """Compare analytic gradients of the scalar function `f` against central
    finite differences over every entry of `params`.

    Returns the max over entries of |analytic - numeric| / max(1e-8,
    |analytic| + |numeric|). `f` must be deterministic (dropout off, fixed
    inputs) and rebuild its graph on every call.
    """
    for p in params:
        p.zero_grad()
    with Tape() as tape:
        loss = f()
        backward(tape, loss)
    analytic = [p.grad.copy() for p in params]
    for p in params:
        p.zero_grad()

    worst = 0.0
    for p, ga in zip(params, analytic):
        flat = p.value.reshape(-1)
        ga_flat = ga.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            up = float(f().value)
            flat[i] = orig - eps
            down = float(f().value)
            flat[i] = orig
            numeric = (up - down) / (2.0 * eps)
            a = ga_flat[i]
            err = abs(a - numeric) / max(1e-8, abs(a) + abs(numeric))
            if err > worst:
                worst = err
    return worst
