"""Neural building blocks: embedding lookup, BiLSTM encoder, per-task
attention head, dense layers, and inverted dropout.

The layers take batches only: the encoder and attention head read
[N x T x d] activations with an [N x T] mask, and dense layers read
[N x in] rows; a single example is a batch of one. Every forward function
runs on whatever Tape is active; with no tape it is a plain evaluation.

Each encoder direction is one `autodiff.lstm` node. Its four gates are
stacked row-wise in i, f, o, c order into one weight w [4h x (d+h)],
applied to [x_t, h_{t-1}], and one bias b [4h]. The mask must be right
padding (a prefix of ones per row), which `autodiff.lstm` checks: a padded
position emits zeros and no state is carried through it, so in both
directions a padded row gives the same states as its unpadded sequence.

The initializers draw in float64 and store `MODEL_DTYPE` (float32), so
every parameter is float32 and, by the dtype rule of `autodiff`, so is
every activation and gradient computed from them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import ContractError, DimensionError, ParameterError

MODEL_DTYPE = np.float32  # every model parameter, so the model computes in float32
RECURRENT_INIT_SCALE = 0.08


def uniform_init(rng, shape, scale=RECURRENT_INIT_SCALE):
    return rng.uniform(-scale, scale, size=shape).astype(MODEL_DTYPE)


def glorot_init(rng, n_out, n_in):
    limit = np.sqrt(6.0 / (n_in + n_out))
    return rng.uniform(-limit, limit, size=(n_out, n_in)).astype(MODEL_DTYPE)


# ---------------------------------------------------------------------------
# embedding


@dataclass
class EmbeddingMatrix:
    """Token-vector table with per-row lock flags.

    Row 0 is the reserved all-zeros padding row and is always locked;
    locked rows receive no gradient and no optimizer update.
    """

    table: ad.Var
    locked: np.ndarray
    coverage: float | None = None

    def __post_init__(self):
        self.locked = np.asarray(self.locked, dtype=bool)
        if self.locked.shape != (self.table.value.shape[0],):
            raise DimensionError(
                f"locked flags {self.locked.shape} do not match table rows "
                f"{self.table.value.shape[0]}"
            )
        self._unlocked_f = (~self.locked).astype(np.float64)

    @property
    def vocab_size(self):
        return self.table.value.shape[0]

    @property
    def dim(self):
        return self.table.value.shape[1]

    def unlocked_mask(self):
        return self._unlocked_f


def random_embedding(vocab_size, dim, rng, scale=0.25):
    """Fresh tunable embedding table; pad row 0 is zero and locked, and the
    reserved unknown-token row 1 starts at zero (tunable) so out-of-vocabulary
    tokens are neutral rather than a random direction."""
    table = uniform_init(rng, (vocab_size, dim), scale)
    table[0] = 0.0
    if vocab_size > 1:
        table[1] = 0.0
    locked = np.zeros(vocab_size, dtype=bool)
    locked[0] = True
    return EmbeddingMatrix(table=ad.Var(table), locked=locked)


def embed(matrix, ids):
    """Gather rows for `ids` (e.g. [N x T]); gradients scatter only into
    unlocked rows."""
    return ad.gather_rows(matrix.table, np.asarray(ids), row_grad_mask=matrix.unlocked_mask())


# ---------------------------------------------------------------------------
# BiLSTM encoder


@dataclass
class LstmParams:
    """One direction's stacked gates in i, f, o, c row order: w is
    [4h x (d+h)] and b is [4h] (see `autodiff.lstm`)."""

    w: ad.Var
    b: ad.Var

    def variables(self, prefix):
        return [(f"{prefix}.w", self.w), (f"{prefix}.b", self.b)]


@dataclass
class BiLstmParams:
    fwd: LstmParams
    bwd: LstmParams

    def variables(self, prefix="bilstm"):
        return self.fwd.variables(f"{prefix}.fwd") + self.bwd.variables(f"{prefix}.bwd")


def init_lstm_cell(rng, input_dim, hidden):
    return LstmParams(
        w=ad.Var(uniform_init(rng, (4 * hidden, input_dim + hidden))),
        b=ad.Var(np.zeros(4 * hidden, MODEL_DTYPE)),
    )


def init_bilstm(rng, input_dim, hidden):
    return BiLstmParams(
        fwd=init_lstm_cell(rng, input_dim, hidden),
        bwd=init_lstm_cell(rng, input_dim, hidden),
    )


def bilstm(params, x, mask):
    """Run both directions over [N x T x d] inputs and return per-position
    concatenated states [N x T x 2h], forward half first.

    The [N x T] mask must be right-padding (a prefix of ones per row);
    padded positions emit zero activations and no state is carried through
    them, so each row reads like its unpadded sequence.
    """
    mask2 = np.asarray(mask, dtype=np.float64)
    fwd = ad.lstm(x, mask2, params.fwd.w, params.fwd.b)
    bwd = ad.lstm(x, mask2, params.bwd.w, params.bwd.b, reverse=True)
    return ad.concat([fwd, bwd], axis=2)


# ---------------------------------------------------------------------------
# attention head


@dataclass
class AttentionHeadParams:
    """Scorer: score_k = v . tanh(W a_k + b), reduced to one scalar per position."""

    w: ad.Var  # [s x 2h]
    b: ad.Var  # [s]
    v: ad.Var  # [s]

    def variables(self, prefix="attn"):
        return [(f"{prefix}.w", self.w), (f"{prefix}.b", self.b), (f"{prefix}.v", self.v)]


def init_attention(rng, act_dim, score_dim):
    return AttentionHeadParams(
        w=ad.Var(glorot_init(rng, score_dim, act_dim)),
        b=ad.Var(np.zeros(score_dim, MODEL_DTYPE)),
        v=ad.Var(glorot_init(rng, 1, score_dim)[0]),
    )


def attention_head(params, acts, mask):
    """Score positions of [N x T x 2h] activations, normalize with the
    [N x T] padding mask, and reduce.

    Returns (context [N x 2h], alpha [N x T]): the attention-weighted sum
    of activations and the per-position weights used to build it.
    """
    mask2 = np.asarray(mask, dtype=np.float64)
    n, t_x, act_dim = acts.value.shape

    flat = ad.reshape(acts, (n * t_x, act_dim))
    hidden = ad.tanh(ad.affine(flat, params.w, params.b))
    scores = ad.reshape(ad.matmul(hidden, params.v), (n, t_x))
    alpha = ad.masked_softmax(scores, mask2)
    return ad.attend(alpha, acts), alpha


# ---------------------------------------------------------------------------
# dense and dropout


@dataclass
class DenseParams:
    w: ad.Var  # [out x in]
    b: ad.Var  # [out]

    def variables(self, prefix="dense"):
        return [(f"{prefix}.w", self.w), (f"{prefix}.b", self.b)]


def init_dense(rng, n_in, n_out):
    return DenseParams(
        w=ad.Var(glorot_init(rng, n_out, n_in)), b=ad.Var(np.zeros(n_out, MODEL_DTYPE))
    )


def dense(params, x, activation=None):
    """Affine map x W^T + b of [N x in] rows, then 'relu' or no activation;
    the output layers use none and return logits."""
    if activation not in (None, "relu"):
        raise ParameterError(f"unknown activation kind {activation!r}")
    out = ad.affine(x, params.w, params.b)
    return ad.relu(out) if activation == "relu" else out


def dropout(x, rate, rng, training):
    """Inverted dropout: survivors scaled by 1/(1-rate); eval mode is identity."""
    if not 0.0 <= rate < 1.0:
        raise ParameterError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return x
    if rng is None:
        raise ContractError("training-mode dropout needs a random generator (rng)")
    keep = (rng.random(x.value.shape) >= rate) / (1.0 - rate)
    return ad.mul(x, keep)
