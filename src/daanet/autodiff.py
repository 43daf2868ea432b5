"""Reverse-mode automatic differentiation over float32 or float64 numpy arrays.

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

Dtype rule: a Var holds a float32 or float64 array as given and turns any
other input into float64; its gradient has the value's dtype. Every op
computes in the dtype of its Var operands (numpy's promotion when they
differ), and constant operands such as masks, weights and targets are
cast to that dtype first, so a float64 constant never promotes a float32
graph.
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
    """A differentiable value: a float32 or float64 array (anything else
    becomes float64) plus a lazily allocated gradient of the same dtype."""

    __slots__ = ("value", "_grad")

    def __init__(self, value):
        value = np.asarray(value)
        if value.dtype != np.float32:
            value = np.asarray(value, dtype=np.float64)
        self.value = value
        self._grad = None

    @property
    def shape(self):
        return self.value.shape

    @property
    def grad(self):
        """The gradient, allocated as zeros on first use; `np.zeros` leaves
        the pages of a large table untouched until rows are written."""
        if self._grad is None:
            self._grad = np.zeros(self.value.shape, dtype=self.value.dtype)
        return self._grad

    def add_grad(self, g):
        if g.shape != self.value.shape:
            raise DimensionError(
                f"gradient shape {g.shape} does not match value shape {self.value.shape}"
            )
        if self._grad is None:
            self._grad = np.array(g, dtype=self.value.dtype)
        else:
            self._grad += g

    def zero_grad(self):
        self._grad = None

    def __repr__(self):
        return f"Var(shape={self.value.shape})"


def _values(*xs):
    """The arrays of an op's operands; constants take the dtype of the Var
    operands (float64 when there are none)."""
    dtypes = [x.value.dtype for x in xs if isinstance(x, Var)]
    dtype = np.result_type(*dtypes) if dtypes else np.float64
    return [x.value if isinstance(x, Var) else np.asarray(x, dtype=dtype) for x in xs]


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
    loss.add_grad(np.ones_like(loss.value))
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
    av, bv = _values(a, b)
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


def mul(a, b):
    av, bv = _values(a, b)
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
    av, bv = _values(a, b)
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


def affine(x, w, b):
    """Affine map x @ w.T + b of [N x in] rows, for weights w [out x in]
    and bias b [out]."""
    xv, wv, bv = x.value, w.value, b.value
    if xv.ndim != 2 or wv.ndim != 2 or xv.shape[1] != wv.shape[1] or bv.shape != wv.shape[:1]:
        raise DimensionError(
            f"affine: input {xv.shape} does not fit weights {wv.shape} and bias {bv.shape}"
        )
    out = Var(xv @ wv.T + bv)

    def pullback(g):
        x.add_grad(g @ wv)
        w.add_grad(g.T @ xv)
        b.add_grad(g.sum(axis=0))

    return _record(out, (x, w, b), pullback)


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


# ---------------------------------------------------------------------------
# softmax family


def masked_softmax(scores, mask):
    """Exp-normalize `scores` over the last axis, giving masked positions
    exactly zero probability.

    `mask` is a {0,1} array of the same shape; every row must keep at
    least one position. Gradient flows only through unmasked positions.
    """
    sv = scores.value
    mv = np.asarray(mask, dtype=sv.dtype)
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


def softmax_cross_entropy(logits, targets, weights):
    """Weighted cross entropy of [N x K] logits against [N x K] targets:
    the scalar -sum_n weights[n] * sum_k targets[n, k] * log_softmax(logits)[n, k].

    The log-sum-exp subtracts each row's max, so saturated logits give a
    finite loss and a gradient of full size. The gradient of row n is
    weights[n] * (softmax * sum_k targets[n, k] - targets[n]); for targets
    that sum to 1 that is weights[n] * (softmax - targets[n]), and a row of
    zero targets gets none.
    """
    zv = logits.value
    tv = np.asarray(targets, dtype=zv.dtype)
    wv = np.asarray(weights, dtype=zv.dtype)
    if zv.ndim != 2 or tv.shape != zv.shape or wv.shape != zv.shape[:1]:
        raise DimensionError(
            f"softmax_cross_entropy: logits {zv.shape}, targets {tv.shape}, weights {wv.shape}"
        )
    shifted = zv - zv.max(axis=1, keepdims=True)
    log_p = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    out = Var(-(wv @ (tv * log_p).sum(axis=1)))

    def pullback(g):
        p = np.exp(log_p) * tv.sum(axis=1, keepdims=True)
        logits.add_grad((g * wv)[:, None] * (p - tv))

    return _record(out, (logits,), pullback)


def gradient_reversal(x, lam):
    """Identity in the forward pass; multiplies the backward gradient by -lam.

    lam == 0 detaches the branch: nothing is recorded, so no gradient
    reaches `x` through this edge.
    """
    lam = float(lam)
    if lam < 0:
        raise ParameterError(f"gradient reversal strength must be >= 0, got {lam}")
    out = Var(x.value)  # same array object out: forward is bit-identical
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
    values = _values(*parts)
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


def gather_rows(table, ids, row_grad_mask=None):
    """Row lookup `table[ids]`; the backward pass scatter-adds into the table.

    The pullback sums the incoming rows per distinct id into a block of
    only the touched rows, in `ids` order, and adds that block into the
    table's gradient rows; untouched rows are never written. `row_grad_mask`,
    when given, is a {0,1} vector over rows; rows with 0 receive no gradient
    (locked embedding rows), and their ids are dropped before the sum.
    """
    ids = np.asarray(ids)
    n_rows = table.value.shape[0]
    if ids.size and (ids.min() < 0 or ids.max() >= n_rows):
        bad = int(ids.min()) if ids.min() < 0 else int(ids.max())
        raise DimensionError(f"row index {bad} out of range for table with {n_rows} rows")
    out = Var(table.value[ids])

    def pullback(g):
        flat_ids = ids.reshape(-1)
        flat_g = g.reshape(-1, table.value.shape[1])
        if row_grad_mask is not None:
            kept = row_grad_mask[flat_ids] != 0
            flat_ids, flat_g = flat_ids[kept], flat_g[kept]
        rows, slots = np.unique(flat_ids, return_inverse=True)
        block = np.zeros((rows.size, table.value.shape[1]), dtype=table.value.dtype)
        np.add.at(block, slots, flat_g)
        table.grad[rows] += block

    return _record(out, (table,), pullback)


def attend(alpha, acts):
    """Batched weighted sum of per-position activations:
    out[n] = sum_t alpha[n, t] * acts[n, t], for alpha [N x T] and acts
    [N x T x D]."""
    av, xv = alpha.value, acts.value
    out = Var((av[:, None, :] @ xv)[:, 0])

    def pullback(g):
        alpha.add_grad((xv @ g[:, :, None])[:, :, 0])
        acts.add_grad(av[:, :, None] * g[:, None, :])

    return _record(out, (alpha, acts), pullback)


# ---------------------------------------------------------------------------
# recurrence


LSTM_BLOCK = 3  # time steps per hoisted input-projection GEMM


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

    `mask` is a {0, 1} array [N x T] whose rows are each a prefix of ones
    (right padding); any other mask raises `ContractError`. A padded
    position emits a zero state and no state is carried through it, so a
    padded row reads exactly like its unpadded sequence in either direction.

    The rows are packed once, stably sorted by length, so the rows still
    inside their sequence at step t are a prefix of the packed batch and
    each step runs over that prefix only. The input projection
    x_t W_x^T + b runs as one GEMM per block of `LSTM_BLOCK` steps, which
    leaves the recurrent GEMM h_{t-1} W_h^T inside the loop. The pullback
    is backpropagation through time over the same prefixes; it collects the
    gate gradients of every step and then forms the x, w and b gradients
    with one GEMM or one sum each. The per-step values it needs are kept
    only while a tape is recording. Every buffer has the dtype of x, w and b.
    """
    xv, wv, bv = x.value, w.value, b.value
    dtype = np.result_type(xv, wv, bv)
    mv = np.asarray(mask, dtype=np.float64)
    if xv.ndim != 3 or mv.shape != xv.shape[:2]:
        raise DimensionError(f"lstm: mask shape {mv.shape} does not match input {xv.shape}")
    n, t_x, d = xv.shape
    h = bv.shape[0] // 4
    if bv.shape != (4 * h,) or wv.shape != (4 * h, d + h):
        raise DimensionError(
            f"lstm: gate weights {wv.shape} and biases {bv.shape} do not fit input dim {d}"
        )
    lengths = np.count_nonzero(mv, axis=1)
    if not np.array_equal(mv, np.arange(t_x) < lengths[:, None]):
        raise ContractError("lstm: each mask row must be a prefix of ones followed by zeros")
    order = np.argsort(-lengths, kind="stable")  # packed row r is caller row order[r]
    live = np.count_nonzero(lengths[:, None] > np.arange(t_x), axis=0)  # rows inside at t
    t_max = int(lengths.max(initial=0))
    step = -1 if reverse else 1
    # Contiguous copies, since a strided slice of w would keep matmul off
    # BLAS. The i, f, o columns are negated, which is exact, so the GEMMs
    # give -pre for the sigmoid gates and one exp serves all three.
    sign = np.where(np.arange(4 * h) < 3 * h, -1.0, 1.0).astype(dtype)
    wx_t = np.ascontiguousarray(wv[:, :d].T * sign)
    wh_t = np.ascontiguousarray(wv[:, d:].T * sign)
    b_signed = bv * sign
    recording = _tape() is not None

    # Per-step values in packed row order. With a tape, slot t+1 holds time
    # t for the pullback, and slots 0 and T+1 stay zero as the cell state
    # before either end; a row that has not started yet also reads zeros,
    # which is the initial state of a reverse pass. Without a tape one slot
    # is overwritten at every step.
    slots = t_x + 2 if recording else 1
    gates = np.zeros((slots, n, 4 * h), dtype)  # sigmoid i, f, o, then tanh(c_t)
    cand = np.zeros((slots, n, h), dtype)  # c~
    cells = np.zeros((slots, n, h), dtype)
    h_state = np.zeros((n, h), dtype)
    out_v = np.zeros((n, t_x, h), dtype)
    proj = np.empty(n * LSTM_BLOCK * 4 * h, dtype)  # one block's input projection
    starts = range(0, t_max, LSTM_BLOCK)
    with np.errstate(over="ignore"):  # exp(-pre) = inf is a saturated gate, 0
        for t0 in reversed(starts) if reverse else starts:
            t1 = min(t0 + LSTM_BLOCK, t_max)
            rows = live[t0]
            xb = xv[order[:rows], t0:t1].reshape(-1, d)
            pb = proj[: xb.shape[0] * 4 * h].reshape(rows, t1 - t0, 4 * h)
            np.matmul(xb, wx_t, out=pb.reshape(-1, 4 * h))
            pb += b_signed
            for t in range(t1 - 1, t0 - 1, -1) if reverse else range(t0, t1):
                lv = live[t]
                cur, prev = (t + 1, t + 1 - step) if recording else (0, 0)
                z = gates[cur, :lv]
                np.matmul(h_state[:lv], wh_t, out=z)
                z += pb[:lv, t - t0]
                gc = np.tanh(z[:, 3 * h :], out=cand[cur, :lv])
                np.exp(z, out=z)  # its c~ block is scratch until tanh(c_t) lands there
                z += 1.0
                np.reciprocal(z, out=z)
                c = np.multiply(z[:, h : 2 * h], cells[prev, :lv], out=cells[cur, :lv])
                c += z[:, :h] * gc
                tc = np.tanh(c, out=z[:, 3 * h :])
                out_v[order[:lv], t] = np.multiply(z[:, 2 * h : 3 * h], tc, out=h_state[:lv])
    out = Var(out_v)
    if not recording:
        return out

    def pullback(g):
        dpre = np.zeros((n, t_x, 4 * h), dtype)  # gate gradients, caller's row order
        dh = np.zeros((n, h), dtype)  # gradient reaching the carried state, packed rows
        dc = np.zeros((n, h), dtype)
        for t in range(t_max) if reverse else range(t_max - 1, -1, -1):
            lv = live[t]
            rows = order[:lv]
            sg = gates[t + 1, :lv]
            gi, gf, go, tc = sg[:, :h], sg[:, h : 2 * h], sg[:, 2 * h : 3 * h], sg[:, 3 * h :]
            gc = cand[t + 1, :lv]
            dh_t = g[rows, t] + dh[:lv]
            dc_t = dc[:lv] + dh_t * go * (1.0 - tc * tc)
            dp = np.empty((lv, 4 * h), dtype)
            np.multiply(dc_t, gc, out=dp[:, :h])
            np.multiply(dc_t, cells[t + 1 - step, :lv], out=dp[:, h : 2 * h])
            np.multiply(dh_t, tc, out=dp[:, 2 * h : 3 * h])
            sig = sg[:, : 3 * h]
            dp[:, : 3 * h] *= sig * (1.0 - sig)
            np.multiply(dc_t, gi, out=dp[:, 3 * h :])
            dp[:, 3 * h :] *= 1.0 - gc * gc
            dpre[rows, t] = dp
            np.matmul(dp, wv[:, d:], out=dh[:lv])
            np.multiply(dc_t, gf, out=dc[:lv])
        # h_{t-1} of every position is its neighbour in the direction of
        # travel: zero past the end it starts from, and zero (padding) where
        # a reverse pass starts a row. dpre is zero on padding, so what
        # h_prev holds there adds nothing.
        h_prev = np.zeros_like(out_v)
        if reverse:
            h_prev[:, :-1] = out_v[:, 1:]
        else:
            h_prev[:, 1:] = out_v[:, :-1]
        dpre = dpre.reshape(-1, 4 * h)
        dw_x = dpre.T @ xv.reshape(-1, d)
        dw_h = dpre.T @ h_prev.reshape(-1, h)
        x.add_grad((dpre @ wv[:, :d]).reshape(xv.shape))
        w.add_grad(np.concatenate([dw_x, dw_h], axis=1))
        b.add_grad(dpre.sum(axis=0))

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
