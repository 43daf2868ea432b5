"""Neural building blocks: embedding lookup, BiLSTM encoder, per-task
attention head, dense layers, and inverted dropout.

The layers take batches only; a single example is a batch of one. The
embedding gathers the rows of a batch's distinct ids once and returns
them with an [N x T] index into them; the encoder reads that pair with an
[N x T] mask and emits [N x T x 2h] states; the attention head reads
those states with the mask; and dense layers read [N x in] rows. Every
forward function runs on whatever Tape is active; with no tape it is a
plain evaluation.

The encoder is one `autodiff.bilstm` node that runs both directions. Each
direction's four gates are stacked row-wise in i, f, o, c order into one
weight w [4h x (d+h)], applied to [x_t, h_{t-1}], and one bias b [4h].
The mask must be right padding (a prefix of ones per row), which
`autodiff.bilstm` checks: a padded position emits zeros and no state is
carried through it, so in both directions a padded row gives the same
states as its unpadded sequence.

The initializers draw in float64 and store `MODEL_DTYPE` (float32), so
every parameter is float32 and, by the dtype rule of `autodiff`, so is
every activation and gradient computed from them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import DimensionError, ParameterError

__all__ = [
    "MODEL_DTYPE",
    "AttentionHeadParams",
    "BiLstmParams",
    "DenseParams",
    "EmbeddingMatrix",
    "LstmParams",
    "attention_head",
    "bilstm",
    "dense",
    "dropout",
    "embed",
    "glorot_init",
    "random_embedding",
    "uniform_init",
]

MODEL_DTYPE = np.float32  # every model parameter, so the model computes in float32
RECURRENT_INIT_SCALE = 0.08
EMBEDDING_INIT_SCALE = 0.25  # half-width of a fresh embedding row's uniform draw


def uniform_init(rng, shape, scale=RECURRENT_INIT_SCALE):
    return rng.uniform(-scale, scale, size=shape).astype(MODEL_DTYPE)


def glorot_init(rng, shape):
    """Glorot-uniform draw of an [out x in] weight; a vector [s] is drawn
    as one row [1 x s]."""
    n_out, n_in = shape if len(shape) == 2 else (1, *shape)
    limit = np.sqrt(6.0 / (n_in + n_out))
    return rng.uniform(-limit, limit, size=shape).astype(MODEL_DTYPE)


# ---------------------------------------------------------------------------
# embedding


@dataclass
class EmbeddingMatrix:
    """Token-vector table with per-row lock flags.

    Row 0 is the reserved all-zeros padding row and is always locked;
    locked rows get a gradient, never an update (see `models.ParamSlot`).
    """

    table: ad.Var
    locked: np.ndarray
    coverage: float | None = None

    def __post_init__(self):
        if self.table.value.ndim != 2:
            raise DimensionError(
                f"embedding table must be [rows x d], got shape {self.table.value.shape}"
            )
        self.locked = np.asarray(self.locked, dtype=bool)
        if self.locked.shape != (self.table.value.shape[0],):
            raise DimensionError(
                f"locked flags {self.locked.shape} do not match table rows "
                f"{self.table.value.shape[0]}"
            )

    @property
    def vocab_size(self):
        return self.table.value.shape[0]

    @property
    def dim(self):
        return self.table.value.shape[1]


def random_embedding(vocab_size, dim, rng):
    """Fresh tunable embedding table drawn from uniform(-EMBEDDING_INIT_SCALE,
    EMBEDDING_INIT_SCALE); pad row 0 is zero and locked, and the reserved
    unknown-token row 1 starts at zero (tunable) so out-of-vocabulary
    tokens are neutral rather than a random direction."""
    table = uniform_init(rng, (vocab_size, dim), EMBEDDING_INIT_SCALE)
    table[0] = 0.0
    if vocab_size > 1:
        table[1] = 0.0
    locked = np.zeros(vocab_size, dtype=bool)
    locked[0] = True
    return EmbeddingMatrix(table=ad.Var(table), locked=locked)


def embed(matrix, ids):
    """Gather the rows of the distinct ids among `ids` (e.g. [N x T]).

    Returns (rows, index): `rows` is a Var [U x d] holding the U distinct
    ids' rows in ascending id order, and `index` is an integer array shaped
    like `ids` naming the row of `rows` each position reads, so
    rows.value[index] is the table lookup `table[ids]`. Every gathered row,
    locked or not, gets its true gradient (see `autodiff.gather_rows`).

    The distinct ids come from a flag per vocabulary row rather than a
    sort: on a 256 x 30 request batch of 65 distinct ids (2-core x86) that
    took 0.03 ms against 0.4 ms for `np.unique(..., return_inverse=True)`.
    """
    ids = ad._row_index(ids, matrix.vocab_size, "embed")
    seen = np.zeros(matrix.vocab_size, dtype=bool)
    seen[ids] = True
    distinct = np.flatnonzero(seen)
    slot = np.empty(matrix.vocab_size, dtype=np.intp)
    slot[distinct] = np.arange(distinct.size)
    rows = ad.gather_rows(matrix.table, distinct)
    return rows, slot[ids]


# ---------------------------------------------------------------------------
# BiLSTM encoder


@dataclass
class LstmParams:
    """One direction's stacked gates in i, f, o, c row order: w is
    [4h x (d+h)] and b is [4h] (see `autodiff.bilstm`)."""

    w: ad.Var
    b: ad.Var


@dataclass
class BiLstmParams:
    fwd: LstmParams
    bwd: LstmParams


def bilstm(params, x, mask):
    """Run both directions over the [N x T] positions of `x` as one node
    and return per-position concatenated states [N x T x 2h], forward half
    first.

    `x` is the (rows, index) pair that `embed` returns: a Var [U x d] of
    input vectors and an [N x T] integer array naming the row each position
    reads. The [N x T] mask must be right-padding (a prefix of ones per
    row); padded positions emit zero activations and no state is carried
    through them, so each row reads like its unpadded sequence.
    """
    rows, index = x
    return ad.bilstm(rows, index, mask, params.fwd.w, params.fwd.b, params.bwd.w, params.bwd.b)


# ---------------------------------------------------------------------------
# attention head


@dataclass
class AttentionHeadParams:
    """Scorer: score_k = v . tanh(W a_k + b), reduced to one scalar per position."""

    w: ad.Var  # [s x 2h]
    b: ad.Var  # [s]
    v: ad.Var  # [s]


def attention_head(params, acts, mask):
    """Score positions of [N x T x 2h] activations, normalize with the
    [N x T] padding mask, and reduce, as one `autodiff.attention` node.

    Returns (context [N x 2h], alpha [N x T]): the attention-weighted sum
    of activations and the per-position weights used to build it.
    """
    return ad.attention(acts, mask, params.w, params.b, params.v)


# ---------------------------------------------------------------------------
# dense and dropout


@dataclass
class DenseParams:
    w: ad.Var  # [out x in]
    b: ad.Var  # [out]


def dense(params, x, activation=None):
    """Affine map x W^T + b of [N x in] rows, then 'relu' or no activation;
    the output layers use none and return logits."""
    if activation not in (None, "relu"):
        raise ParameterError(f"unknown activation kind {activation!r}")
    out = ad.affine(x, params.w, params.b)
    return ad.relu(out) if activation == "relu" else out


def dropout(x, rate, rng):
    """Inverted dropout: survivors scaled by 1/(1-rate). It draws from `rng`
    when one is given and is the identity when `rng` is None (evaluation).

    The keep-mask is drawn as float64 uniforms (the seeded stream) and built
    in the dtype of `x`."""
    if not 0.0 <= rate < 1.0:
        raise ParameterError(f"dropout rate must be in [0, 1), got {rate}")
    if rng is None or rate == 0.0:
        return x
    dtype = x.value.dtype
    keep = (rng.random(x.value.shape) >= rate).astype(dtype)
    keep *= dtype.type(1.0 / (1.0 - rate))
    return ad.mul(x, keep)
