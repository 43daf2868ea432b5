"""Reverse-mode automatic differentiation over float32 or float64 numpy arrays.

Define-by-run: a fresh `Tape` is opened per forward pass and every
operation executed inside the ``with`` block appends one node. Nodes are
recorded in execution order, which is already topological, so `backward`
is a single reverse sweep.

Gradient semantics: leaf Vars (parameters, inputs created directly)
accumulate gradients across backward calls until `zero_grad`; op outputs
use their grad slot as transient working storage that is consumed during
the sweep. The optimizer is responsible for zeroing parameter grads. A
gradient is dense, or row-tracked when only `gather_rows` has written it:
then the Var keeps one [rows x d] buffer across steps, records the rows
each pullback adds into (`Var.grad_rows`), and `zero_grad` clears only
those rows, so a large embedding table is neither allocated nor cleared
whole per step. A dense `add_grad`, or a write through `Var.grad`, makes
the gradient dense again, and `zero_grad` then drops it.

The ops are the ones the model runs, one node each: `gather_rows` (the
embedding's distinct rows), `bilstm` (the encoder, which reads each
position's input by index from those rows), `split_rows` (the task and
domain rows of a joint encoder pass, one node per part), `mul` (dropout),
`attention` (one task head's scorer, masked softmax and weighted sum),
`masked_mean` (the domain pool), `gradient_reversal`, `affine` and `relu`
(dense layers), `softmax_cross_entropy` (both losses) and `weighted_sum`
(their combination). Their differentiable operands are Vars. The
constants, which get no gradient, are plain arrays or numbers: either
operand of `mul`, the distinct, increasing ids and the row mask of
`gather_rows`, the split point of `split_rows`, the ids and mask of
`bilstm`, the mask of `attention`, the lengths of `masked_mean`, the
targets and weights of `softmax_cross_entropy` and `weighted_sum`, and the
strength of `gradient_reversal`. Row ids must be integers and in range:
otherwise `ContractError` or `DimensionError`. Each op keeps one code
path: `gather_rows` rejects repeated or unsorted ids (`ContractError`)
rather than summing them on a second one.

Dtype rule: a Var holds a float32 or float64 array as given and turns any
other input into float64; its gradient has the value's dtype. Every op
computes in the dtype of its Var operands (numpy's promotion when they
differ), and constant operands such as masks, weights and targets are
cast to that dtype first, so a float64 constant never promotes a float32
graph.

Scratch rule: without a tape, memory that never leaves a call is reused
by later calls instead of being allocated afresh, so that a stream of
same-sized evaluation batches stops faulting new pages in. `scratch` hands
out these buffers: the step buffers, input projections and projection
block of `bilstm`, and the scorer's hidden layer of `attention`
("attention.hidden"). They are kept per thread, so concurrent callers in
different threads never share one; nothing an op or a model function
returns aliases them; and entering a `Tape` drops them, so a training step
never holds a no-tape pass's memory on top of its own. While a tape is
recording, `scratch` returns fresh arrays, which the pullbacks may keep.
"""

from __future__ import annotations

import math
import threading

import numpy as np

from .errors import ContractError, DegenerateMaskError, DimensionError, ParameterError

__all__ = [
    "Tape",
    "Var",
    "affine",
    "attention",
    "backward",
    "bilstm",
    "gather_rows",
    "gradient_reversal",
    "masked_mean",
    "mul",
    "relu",
    "softmax_cross_entropy",
    "split_rows",
    "weighted_sum",
]

_STATE = threading.local()

NEG_INF = -1e30  # additive mask constant; exp() underflows to exactly 0


def _tape():
    return getattr(_STATE, "tape", None)


def scratch(name, shape, dtype):
    """An uninitialized [shape] array for work that never leaves the
    calling op or model function.

    Without a tape it is a view of this thread's buffer `name`, which later
    calls reuse; the buffer grows to the largest size asked for, so a
    smaller batch reuses it too. With a tape it is a fresh array.
    """
    if _tape() is not None:
        return np.empty(shape, dtype)
    size = math.prod(shape)
    pool = getattr(_STATE, "scratch", None)
    if pool is None:
        pool = _STATE.scratch = {}
    buf = pool.get(name)
    if buf is None or buf.dtype != dtype or buf.size < size:
        buf = pool[name] = np.empty(size, dtype)
    return buf[:size].reshape(shape)


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
        _STATE.scratch = None  # the scratch rule: a taped pass drops no-tape buffers
        return self

    def __exit__(self, exc_type, exc, tb):
        _STATE.tape = self._outer
        return False

    def record(self, out, parents, pullback):
        """Append a node: output Var, parent Vars, and the local-gradient closure."""
        self.nodes.append((out, parents, pullback))


class Var:
    """A differentiable value: a float32 or float64 array (anything else
    becomes float64) plus a lazily allocated gradient of the same dtype.

    The gradient is either dense, which may be non-zero on any row, or
    row-tracked, which is non-zero only on the rows `add_grad_rows` wrote.
    `zero_grad` clears only those rows and keeps the buffer, which the
    next gradient reuses while it matches the value's shape and dtype.
    """

    __slots__ = ("value", "_grad", "_rows", "_spare")

    def __init__(self, value):
        value = np.asarray(value)
        if value.dtype != np.float32:
            value = np.asarray(value, dtype=np.float64)
        self.value = value
        self._grad = None
        self._rows = None  # while _grad is set: a list of the rows written, or None for dense
        self._spare = None  # an all-zeros gradient buffer that zero_grad kept

    @property
    def shape(self):
        return self.value.shape

    @property
    def grad(self):
        """The gradient, allocated as zeros on first use. The caller may
        write any row of it, so from then on it counts as dense."""
        if self._grad is None:
            self._grad = self._zeros()
        self._rows = None
        return self._grad

    def _zeros(self):
        """An all-zeros gradient buffer: the one `zero_grad` kept, if it
        still has the value's shape and dtype, or else a new one. A new
        one costs its whole size: glibc can serve a freed block from the
        heap, and `np.zeros` then clears all of it."""
        buf, self._spare = self._spare, None
        if buf is None or buf.shape != self.value.shape or buf.dtype != self.value.dtype:
            buf = np.zeros(self.value.shape, dtype=self.value.dtype)
        return buf

    def add_grad(self, g):
        """Add a gradient of the value's shape; the sum counts as dense. A
        buffer it allocates is C-contiguous, like one `grad` allocates, so
        a pullback may scatter into its flat view."""
        if g.shape != self.value.shape:
            raise DimensionError(
                f"gradient shape {g.shape} does not match value shape {self.value.shape}"
            )
        if self._grad is None:
            self._grad = np.array(g, dtype=self.value.dtype, order="C")
        else:
            self._grad += g
        self._rows = None

    def add_grad_rows(self, rows, block):
        """Add `block` into the gradient rows `rows` (distinct ids, one per
        row of `block`) and record them as written."""
        if self._grad is None:
            self._grad = self._zeros()
            self._rows = []
        if self._rows is not None:
            self._rows.append(rows)
        self._grad[rows] += block

    def grad_rows(self):
        """The rows the gradient may be non-zero on, as an integer array
        that can repeat ids, or None when that may be any row."""
        if self._grad is None:
            return np.empty(0, dtype=np.intp)
        if self._rows is None:
            return None
        return np.concatenate(self._rows) if self._rows else np.empty(0, dtype=np.intp)

    def zero_grad(self):
        """Clear the gradient. A row-tracked buffer is kept for reuse, with
        the rows it recorded set back to zero; a dense one is dropped."""
        if self._grad is not None and self._rows is not None:
            for rows in self._rows:
                self._grad[rows] = 0
            self._spare = self._grad
        self._grad = self._rows = None

    def drop_grad(self):
        """Clear the gradient and drop the buffer `zero_grad` keeps."""
        self._grad = self._rows = self._spare = None

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


# ---------------------------------------------------------------------------
# activations


def relu(x):
    out = Var(np.maximum(x.value, 0.0))
    mask = x.value > 0.0

    def pullback(g):
        x.add_grad(g * mask)

    return _record(out, (x,), pullback)


# ---------------------------------------------------------------------------
# attention and losses


ATTENTION_BLOCK = 1024  # scorer rows per GEMM


def attention(acts, mask, w, b, v):
    """One attention head over [N x T x D] activations, recorded as a single
    node: each position scores v . tanh(W a_t + b), for w [s x D], b [s] and
    v [s]; the scores are exp-normalized over the positions the [N x T]
    {0, 1} `mask` keeps; and the context is sum_t alpha_t a_t.

    Returns (context [N x D], alpha [N x T]). Only the context is recorded:
    alpha is a Var for reading, and no gradient flows back through it.
    Masked positions get alpha exactly 0, so neither the weighted sum nor
    the scores send them any gradient. A mask entry other than 0 or 1
    raises `ContractError`, and a row that keeps no position raises
    `DegenerateMaskError`.

    The scorer's hidden layer tanh(W a + b) over all N·T positions is
    `scratch`, formed by GEMMs of `ATTENTION_BLOCK` rows each, so a large
    evaluation batch neither allocates it afresh nor runs one GEMM over
    every position at once.
    """
    xv, wv, bv, vv = acts.value, w.value, b.value, v.value
    fits = xv.ndim == 3 and wv.ndim == 2 and xv.shape[2] == wv.shape[1]
    if not fits or bv.shape != wv.shape[:1] or vv.shape != bv.shape:
        raise DimensionError(
            f"attention: activations {xv.shape} do not fit scorer weights {wv.shape}, "
            f"bias {bv.shape} and vector {vv.shape}"
        )
    n, t_x, dim = xv.shape
    mv = np.asarray(mask, dtype=np.result_type(xv, wv, bv, vv))
    if mv.shape != (n, t_x):
        raise DimensionError(f"attention: mask shape {mv.shape} does not match scores {(n, t_x)}")
    if not np.all((mv == 0.0) | (mv == 1.0)):
        raise ContractError("attention: the mask must hold only 0 and 1")
    if np.any(mv.sum(axis=-1) == 0):
        raise DegenerateMaskError("mask keeps no position in at least one row")
    flat = xv.reshape(n * t_x, dim)
    # tanh(flat @ w.T + b), in place, one ATTENTION_BLOCK of rows at a time
    hidden = scratch("attention.hidden", (n * t_x, wv.shape[0]), np.result_type(xv, wv, bv))
    for r0 in range(0, n * t_x, ATTENTION_BLOCK):
        block = hidden[r0 : r0 + ATTENTION_BLOCK]
        np.matmul(flat[r0 : r0 + ATTENTION_BLOCK], wv.T, out=block)
        block += bv
        np.tanh(block, out=block)
    scores = (hidden @ vv).reshape(n, t_x)
    # (mv - 1) is 0 on kept positions and -1 on masked ones, so masked scores
    # drop to NEG_INF before normalization.
    shifted = scores + (mv - 1.0) * (-NEG_INF)
    shifted = shifted - shifted.max(axis=-1, keepdims=True)
    e = np.exp(shifted) * mv
    av = e / e.sum(axis=-1, keepdims=True)
    context = Var((av[:, None, :] @ xv)[:, 0])

    def pullback(g):
        # acts is reached twice, through the weighted sum and then through
        # the scores, in that order.
        g_alpha = (xv @ g[:, :, None])[:, :, 0]
        acts.add_grad(av[:, :, None] * g[:, None, :])
        dot = (g_alpha * av).sum(axis=-1, keepdims=True)
        g_scores = (av * (g_alpha - dot)).reshape(-1)
        v.add_grad(hidden.T @ g_scores)
        g_pre = np.outer(g_scores, vv) * (1.0 - hidden * hidden)
        w.add_grad(g_pre.T @ flat)
        b.add_grad(g_pre.sum(axis=0))
        acts.add_grad((g_pre @ wv).reshape(xv.shape))

    return _record(context, (acts, w, b, v), pullback), Var(av)


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


def weighted_sum(losses, weights):
    """The scalar sum_k weights[k] * losses[k] of scalar Vars, summed left
    to right; each weight must be finite and >= 0."""
    if not losses or len(losses) != len(weights):
        raise DimensionError(f"{len(losses)} losses vs {len(weights)} weights")
    if any(loss.value.shape != () for loss in losses):
        raise DimensionError("weighted_sum: every loss must be a scalar")
    if not all(0.0 <= w < math.inf for w in weights):
        raise ParameterError(f"loss weights must be finite and >= 0, got {list(weights)}")
    wv = np.asarray(weights, dtype=np.result_type(*(loss.value for loss in losses)))
    total = losses[0].value * wv[0]
    for loss, w in zip(losses[1:], wv[1:]):
        total = total + loss.value * w
    out = Var(total)

    def pullback(g):
        for loss, w in zip(losses, wv):
            loss.add_grad(g * w)

    return _record(out, tuple(losses), pullback)


def gradient_reversal(x, lam):
    """Identity in the forward pass; multiplies the backward gradient by -lam.

    lam must be finite and >= 0. lam == 0 detaches the branch: nothing is
    recorded, so no gradient reaches `x` through this edge.
    """
    lam = float(lam)
    if not 0.0 <= lam < math.inf:
        raise ParameterError(f"gradient reversal strength must be finite and >= 0, got {lam}")
    out = Var(x.value)  # same array object out: forward is bit-identical
    if lam == 0.0:
        return out

    def pullback(g):
        x.add_grad(-lam * g)

    return _record(out, (x,), pullback)


# ---------------------------------------------------------------------------
# reductions and structural ops


def _row_index(ids, n_rows, op):
    """`ids` as an integer array of rows of an [n_rows x ...] operand of `op`:
    a non-integer dtype raises `ContractError` (numpy would read booleans as
    a mask and reject floats with a bare IndexError), and an id outside
    0..n_rows-1 raises `DimensionError` (-1 would read the last row)."""
    ids = np.asarray(ids)
    if not np.issubdtype(ids.dtype, np.integer):
        raise ContractError(f"{op}: row ids must be integers, got dtype {ids.dtype}")
    if ids.size and (ids.min() < 0 or ids.max() >= n_rows):
        bad = int(ids.min()) if ids.min() < 0 else int(ids.max())
        raise DimensionError(f"{op}: row index {bad} out of range for {n_rows} rows")
    return ids


def gather_rows(table, ids, row_grad_mask):
    """Row lookup `table[ids]` of distinct rows; the backward pass adds
    into the table's gradient rows.

    `ids` is a 1-D array of strictly increasing row ids, as `layers.embed`
    passes them; other ids raise `ContractError`, after `_row_index` has
    checked their dtype and range. `row_grad_mask` is a {0,1} vector over
    rows: rows with 0 receive no gradient (locked embedding rows). The
    pullback drops their ids and adds the incoming rows of the others as
    they are with `Var.add_grad_rows`, which records them, so untouched
    rows are never written. Each id names its own row, so no row needs a
    sum: `add_grad_rows` would drop all but one of a repeated id's rows.
    """
    ids = _row_index(ids, table.value.shape[0], "gather_rows")
    if ids.ndim != 1 or np.any(ids[1:] <= ids[:-1]):
        raise ContractError(
            f"gather_rows: row ids must be 1-D and strictly increasing, got shape {ids.shape}"
        )
    out = Var(table.value[ids])

    def pullback(g):
        kept = row_grad_mask[ids] != 0
        table.add_grad_rows(ids[kept], g[kept])

    return _record(out, (table,), pullback)


def _flat_slots(rows, dim):
    """Entry indices of whole `rows` of a [.. x dim] array flattened to 1-D,
    row after row: the index of numpy's fast 1-D `np.add.at` path."""
    return (rows[:, None] * dim + np.arange(dim)).reshape(-1)


def split_rows(x, n):
    """Rows [:n] and [n:] of `x` as two Vars that view its value, each
    recorded as its own node; a split point outside 0..rows raises
    `DimensionError`.

    Both pullbacks add into the matching rows of x's one gradient buffer,
    so no full-size gradient is built per part and x's gradient is the two
    parts' gradients stacked, with zeros where a part got none.
    """
    xv = x.value
    if xv.ndim < 1 or not 0 <= n <= xv.shape[0]:
        raise DimensionError(f"split_rows: split point {n} outside the rows of {xv.shape}")
    parts = []
    for rows in (slice(None, n), slice(n, None)):

        def pullback(g, rows=rows):
            x.grad[rows] += g

        parts.append(_record(Var(xv[rows]), (x,), pullback))
    return tuple(parts)


def masked_mean(x, lengths):
    """Per-row mean of [N x T x D] activations over each row's `lengths` [N]
    kept positions: the sum over T divided by the length. It reads padded
    positions as zeros, which is what `bilstm` emits there."""
    xv = x.value
    lv = np.asarray(lengths, dtype=np.float64)
    if xv.ndim != 3 or lv.shape != xv.shape[:1]:
        raise DimensionError(f"masked_mean: lengths {lv.shape} do not match activations {xv.shape}")
    if np.any(lv <= 0):
        raise DegenerateMaskError("mask keeps no position in at least one row")
    inv = (1.0 / lv).astype(xv.dtype)[:, None]
    out = Var(xv.sum(axis=1) * inv)

    def pullback(g):
        x.add_grad(np.broadcast_to((g * inv)[:, None, :], xv.shape))

    return _record(out, (x,), pullback)


# ---------------------------------------------------------------------------
# recurrence


LSTM_BLOCK = 3  # time steps per gather of the input projections


def bilstm(x, ids, mask, w_f, b_f, w_b, b_b):
    """Both LSTM directions over the [N x T] positions `ids`, recorded as a
    single node; position (n, t) reads row ids[n, t] of the [V x d] input
    vectors `x`. Returns the states [N x T x 2h], the forward direction's in
    the first half and the reverse direction's in the second.

    Each direction stacks its gates row-wise in i, f, o, c order: `w_f` and
    `w_b` are [4h x (d+h)] and act on the concatenation [x_t, h_{t-1}], and
    `b_f` and `b_b` are [4h]. Each step computes
        i, f, o = sigmoid(rows 0:h, h:2h, 2h:3h);  c~ = tanh(rows 3h:4h)
        c_t = f * c_{t-1} + i * c~;                h_t = o * tanh(c_t)
    from a zero initial state, visiting t = 0..T-1 forward and T-1..0 in
    reverse. Weights that do not fit d, or directions that differ in h,
    raise `DimensionError` naming the direction; so does an id outside
    0..V-1, and ids of a non-integer dtype raise `ContractError`.

    `mask` is a {0, 1} array [N x T] whose rows are each a prefix of ones
    (right padding); any other mask raises `ContractError`. A padded
    position emits a zero state and no state is carried through it, so a
    padded row reads exactly like its unpadded sequence in either direction.

    The input projection x W_x^T + b depends only on the row a position
    reads, so each direction computes it once for all V rows, and each
    block of `LSTM_BLOCK` steps gathers its positions' projections from
    that. The rows are packed once, stably sorted by length, so the rows
    still inside their sequence at step t are a prefix of the packed batch
    and each step runs over that prefix only, with the recurrent GEMM
    h_{t-1} W_h^T. The per-step buffers are gate-major [4 x rows x h], so
    each gate is one contiguous block. The per-step values the pullback
    needs are kept only while a tape is recording; otherwise the step
    buffers and projections are `scratch`. Every buffer has the dtype of
    the operands.

    The pullback is backpropagation through time over the same prefixes,
    and it touches the L live positions only, laid out packed time-major:
    step t is the contiguous rows off[t]:off[t+1], off being the running
    sum of the live counts. It gathers the state gradient and the input
    vectors at those positions once. Each step writes its gate gradients
    into its own block of one [L x 4h] array, and its h_{t-1} block from
    the gates the forward pass kept (o * tanh(c) of the neighbouring step,
    zero where that is padding or past either end). Then the w and b
    gradients take one GEMM or one sum each over L rows, each direction's
    input gradient one GEMM, and one `np.add.at` sums it into the rows of
    x's gradient in position order. No padded position enters any sum, so
    extra padding changes no bit of the states or gradients.
    """
    xv = x.value
    dtype = np.result_type(xv, w_f.value, b_f.value, w_b.value, b_b.value)
    mv = np.asarray(mask, dtype=np.float64)
    if xv.ndim != 2:
        raise DimensionError(f"bilstm: input vectors {xv.shape} are not a [rows x dim] table")
    ids = _row_index(ids, xv.shape[0], "bilstm")
    if ids.ndim != 2 or mv.shape != ids.shape:
        raise DimensionError(f"bilstm: mask shape {mv.shape} does not match ids {ids.shape}")
    n, t_x = ids.shape
    d = xv.shape[1]
    h = b_f.value.size // 4
    directions = (  # name, weights, biases, reverse, half of the output
        ("forward", w_f, b_f, False, np.s_[..., :h]),
        ("reverse", w_b, b_b, True, np.s_[..., h:]),
    )
    for name, w, b, _, _ in directions:
        if b.value.shape != (4 * h,) or w.value.shape != (4 * h, d + h):
            raise DimensionError(
                f"bilstm: {name} gate weights {w.value.shape} and biases {b.value.shape} "
                f"do not fit input dim {d} and hidden size {h}"
            )
    lengths = np.count_nonzero(mv, axis=1)
    if not np.array_equal(mv, np.arange(t_x) < lengths[:, None]):
        raise ContractError("bilstm: each mask row must be a prefix of ones followed by zeros")
    order = np.argsort(-lengths, kind="stable")  # packed row r is caller row order[r]
    live = np.count_nonzero(lengths[:, None] > np.arange(t_x), axis=0)  # rows inside at t
    t_max = int(lengths.max(initial=0))
    recording = _tape() is not None

    out_v = np.zeros((n, t_x, 2 * h), dtype)
    packed_ids = ids[order]
    saved = [
        _lstm_direction(
            xv, packed_ids, w.value, b.value, reverse, out_v[half], order, live, t_max, recording
        )
        for _, w, b, reverse, half in directions
    ]
    out = Var(out_v)
    if not recording:
        return out

    def pullback(g):
        # The live positions in packed time-major order: step t is rows
        # off[t]:off[t+1], whose row r is packed row r, caller row order[r].
        steps = live[:t_max]
        off = np.zeros(t_max + 1, dtype=np.intp)
        np.cumsum(steps, out=off[1:])
        t_of = np.repeat(np.arange(t_max), steps)
        pos = order[np.arange(off[-1]) - off[t_of]] * t_x + t_of
        ids_live = ids.reshape(-1)[pos]
        g_live = g.reshape(-1, 2 * h)[pos]
        x_live = xv[ids_live]
        dx = None
        for (_, w, b, reverse, half), buffers in zip(directions, saved):
            # a contiguous copy: the per-step GEMM on the strided slice was
            # slower at 32 rows, and the result is the same
            wh = np.ascontiguousarray(w.value[:, d:])
            dpre, h_prev = _lstm_direction_pullback(g_live[half], wh, reverse, off, *buffers)
            w.add_grad(np.concatenate([dpre.T @ x_live, dpre.T @ h_prev], axis=1))
            b.add_grad(dpre.sum(axis=0))
            dx_dir = dpre @ w.value[:, :d]
            if dx is None:
                dx = dx_dir
            else:
                dx += dx_dir
            # Free this direction's buffers before the next direction (and
            # then the scatter's index) allocates its own, so that the
            # allocator can hand their pages over instead of faulting in
            # fresh ones.
            del dpre, h_prev, dx_dir
        del x_live
        np.add.at(x.grad.reshape(-1), _flat_slots(ids_live, d), dx.reshape(-1))

    return _record(out, (x, w_f, b_f, w_b, b_b), pullback)


def _lstm_direction(xv, packed_ids, wv, bv, reverse, out_v, order, live, t_max, recording):
    """Run one direction of `bilstm`, writing its states into the [N x T x h]
    view `out_v`; returns the per-step (gates, cand, cells) the pullback
    reads, which are `scratch` unless a tape is recording."""
    n, t_x = packed_ids.shape
    d = xv.shape[1]
    h = bv.shape[0] // 4
    dtype = out_v.dtype
    step = -1 if reverse else 1
    # Contiguous gate-major copies [4 x in x h], since a strided slice of w
    # would keep matmul off BLAS. The i, f, o rows are negated, which is
    # exact, so the GEMMs give -pre for the sigmoid gates and one exp serves
    # all three.
    sign = np.where(np.arange(4 * h) < 3 * h, -1.0, 1.0).astype(dtype)
    w_signed = (wv * sign[:, None]).reshape(4, h, d + h)
    wx_g = np.ascontiguousarray(w_signed[:, :, :d].transpose(0, 2, 1))
    wh_g = np.ascontiguousarray(w_signed[:, :, d:].transpose(0, 2, 1))
    # The signed projection of every input row, gate-major [4 x V x h].
    x_proj = scratch("bilstm.x_proj", (4, xv.shape[0], h), dtype)
    np.matmul(xv, wx_g, out=x_proj)
    x_proj += (bv * sign).reshape(4, 1, h)

    # Per-step values in packed row order; slot s holds 4 x rows x h gates
    # in its first 4*rows*h entries. With a tape, slot t+1 holds time t for
    # the pullback, and slots 0 and T+1 stay zero as the cell state before
    # either end; a row that has not started yet also reads zeros, which is
    # the initial state of a reverse pass. Without a tape one slot is
    # overwritten at every step.
    slots = t_x + 2 if recording else 1
    gates = scratch("bilstm.gates", (slots, 4 * n * h), dtype)  # sigmoid i, f, o, tanh(c_t)
    cand = scratch("bilstm.cand", (slots, n, h), dtype)  # c~
    cells = scratch("bilstm.cells", (slots, n, h), dtype)
    h_state = scratch("bilstm.h", (n, h), dtype)
    proj = scratch("bilstm.proj", (n * LSTM_BLOCK * 4 * h,), dtype)  # one block's projection
    cells.fill(0.0)
    h_state.fill(0.0)
    starts = range(0, t_max, LSTM_BLOCK)
    with np.errstate(over="ignore"):  # exp(-pre) = inf is a saturated gate, 0
        for t0 in reversed(starts) if reverse else starts:
            t1 = min(t0 + LSTM_BLOCK, t_max)
            rows = live[t0]
            pb = proj[: 4 * rows * (t1 - t0) * h].reshape(4, rows, t1 - t0, h)
            # the ids are in range, so "clip" only skips numpy's buffered check
            np.take(x_proj, packed_ids[:rows, t0:t1], axis=1, out=pb, mode="clip")
            for t in range(t1 - 1, t0 - 1, -1) if reverse else range(t0, t1):
                lv = live[t]
                cur, prev = (t + 1, t + 1 - step) if recording else (0, 0)
                z = gates[cur, : 4 * lv * h].reshape(4, lv, h)
                np.matmul(h_state[:lv], wh_g, out=z)
                z += pb[:, :lv, t - t0]
                gc = np.tanh(z[3], out=cand[cur, :lv])
                sig = z[:3]
                np.exp(sig, out=sig)
                sig += 1.0
                np.reciprocal(sig, out=sig)
                c = np.multiply(z[1], cells[prev, :lv], out=cells[cur, :lv])
                c += z[0] * gc
                tc = np.tanh(c, out=z[3])  # z[3] held c~ before tanh, now in cand
                out_v[order[:lv], t] = np.multiply(z[2], tc, out=h_state[:lv])
    return gates, cand, cells


def _lstm_direction_pullback(g, wh, reverse, off, gates, cand, cells):
    """Backpropagation through time for one `bilstm` direction over its L
    live positions in packed time-major order, step t being rows
    off[t]:off[t+1]. From the [L x h] state gradient `g` and the recurrent
    weights `wh` [4h x h] it returns the gate gradients [L x 4h] and the
    h_{t-1} [L x h] each position read, in the direction of travel."""
    n_live, h = g.shape
    t_max = off.size - 1
    dtype = cells.dtype
    step = -1 if reverse else 1
    dpre = np.empty((n_live, 4 * h), dtype)
    h_prev = np.empty((n_live, h), dtype)
    width = int(off[1]) if t_max else 0  # the first step is the widest
    dh = np.zeros((width, h), dtype)  # gradient reaching the carried state, packed rows
    dc = np.zeros((width, h), dtype)
    for t in range(t_max) if reverse else range(t_max - 1, -1, -1):
        lo, hi = off[t], off[t + 1]
        lv = hi - lo
        # h_{t-1} is o * tanh(c) of the neighbouring step nb, the product the
        # forward pass emitted; zero where that step is padding or past
        # either end, which is the initial state.
        nb = t - step
        nw = off[nb + 1] - off[nb] if 0 <= nb < t_max else 0
        ng = gates[nb + 1, : 4 * nw * h].reshape(4, nw, h)
        k = min(lv, nw)
        np.multiply(ng[2, :k], ng[3, :k], out=h_prev[lo : lo + k])
        h_prev[lo + k : hi] = 0.0
        sg = gates[t + 1, : 4 * lv * h].reshape(4, lv, h)
        gi, gf, go, tc = sg
        gc = cand[t + 1, :lv]
        dh_t = g[lo:hi] + dh[:lv]
        dc_t = dc[:lv] + dh_t * go * (1.0 - tc * tc)
        dp = dpre[lo:hi]
        dp_g = dp.reshape(lv, 4, h)
        np.multiply(dc_t, gc, out=dp_g[:, 0])
        np.multiply(dc_t, cells[t + 1 - step, :lv], out=dp_g[:, 1])
        np.multiply(dh_t, tc, out=dp_g[:, 2])
        sig = sg[:3]
        dp_g[:, :3] *= (sig * (1.0 - sig)).transpose(1, 0, 2)
        np.multiply(dc_t, gi, out=dp_g[:, 3])
        dp_g[:, 3] *= 1.0 - gc * gc
        np.matmul(dp, wh, out=dh[:lv])
        np.multiply(dc_t, gf, out=dc[:lv])
    return dpre, h_prev
