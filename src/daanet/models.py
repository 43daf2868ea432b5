"""Model assembly and losses.

Three variants share one skeleton: an embedding layer and BiLSTM encoder
feed per-task attention heads (context -> dropout -> dense relu -> dense
two-class logits) and, when adversarial training is enabled, a domain
classifier branch behind a gradient-reversal layer. The losses read the
logits directly (`autodiff.softmax_cross_entropy`).

    st       one task head, no domain branch
    st-daan  one task head + domain branch
    mt-daan  one head per task + domain branch
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from functools import reduce
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .data import Vocab
from .errors import (
    ContractError,
    DataError,
    DegenerateMaskError,
    DimensionError,
    LabelError,
    ParameterError,
)
from .layers import (
    AttentionHeadParams,
    BiLstmParams,
    DenseParams,
    EmbeddingMatrix,
    MODEL_DTYPE,
    attention_head,
    bilstm,
    dense,
    dropout,
    embed,
    init_attention,
    init_bilstm,
    init_dense,
    random_embedding,
)

ARCHIVE_FORMAT = 4  # 4: float32 parameters


class ParamSlot(NamedTuple):
    """A named trainable tensor as the optimizer sees it.

    `update_mask` is None, or a {0,1} column [rows x 1] over a 2-D
    parameter: rows marked 0 are locked, and `training.Adam` neither
    updates them nor keeps moments for them.
    """

    name: str
    var: ad.Var
    update_mask: np.ndarray | None


@dataclass
class ModelSpec:
    """Architecture hyperparameters; all loss weights live here so they are
    persisted with the model and reported with every result."""

    t_x: int
    d: int
    h: int = 64
    task_names: tuple = ("task",)
    adversarial: bool = False
    n_domains: int = 0
    lam: float = 1.0
    w_tasks: tuple = ()
    w_domain: float = 0.25
    dropout_rate: float = 0.4
    attn_size: int = 32
    head_hidden: int = 10
    domain_hidden: int = 64

    def __post_init__(self):
        self.task_names = tuple(self.task_names)
        if not self.w_tasks:
            self.w_tasks = tuple(1.0 for _ in self.task_names)
        self.w_tasks = tuple(float(w) for w in self.w_tasks)
        if self.m < 1:
            raise ParameterError("need at least one task")
        if len(self.w_tasks) != self.m:
            raise ParameterError(
                f"{len(self.w_tasks)} task weights for {self.m} tasks"
            )
        if min(self.t_x, self.d, self.h, self.attn_size, self.head_hidden) < 1:
            raise ParameterError("all layer sizes must be positive")
        if self.adversarial and self.n_domains < 2:
            raise ParameterError("adversarial training needs at least 2 source domains")
        if self.lam < 0 or self.w_domain < 0 or any(w < 0 for w in self.w_tasks):
            raise ParameterError("loss weights and reversal strength must be >= 0")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ParameterError("dropout rate must be in [0, 1)")

    @property
    def m(self):
        return len(self.task_names)


@dataclass
class TaskHead:
    attention: AttentionHeadParams
    hidden: DenseParams
    out: DenseParams

    def variables(self, prefix):
        return (
            self.attention.variables(f"{prefix}.attn")
            + self.hidden.variables(f"{prefix}.hidden")
            + self.out.variables(f"{prefix}.out")
        )


@dataclass
class DomainBranch:
    """Domain classifier over the masked mean of the encoder states."""

    hidden: DenseParams
    out: DenseParams

    def variables(self, prefix="domain"):
        return self.hidden.variables(f"{prefix}.hidden") + self.out.variables(f"{prefix}.out")


@dataclass
class TrainedModel:
    spec: ModelSpec
    vocab: Vocab
    embedding: EmbeddingMatrix
    encoder: BiLstmParams
    heads: list
    domain: DomainBranch | None = None

    def parameters(self):
        """Every trainable tensor, with the embedding's locked-row mask."""
        slots = [
            ParamSlot("embedding.table", self.embedding.table, self.embedding.unlocked_mask()[:, None])
        ]
        for name, var in self.encoder.variables("encoder"):
            slots.append(ParamSlot(name, var, None))
        for k, head in enumerate(self.heads):
            for name, var in head.variables(f"head{k}"):
                slots.append(ParamSlot(name, var, None))
        if self.domain is not None:
            for name, var in self.domain.variables():
                slots.append(ParamSlot(name, var, None))
        return slots


def build_model(spec, vocab, embedding=None, seed=0):
    """Initialize a model. Components draw from independent seed streams so
    e.g. adding a domain branch does not shift task-head initialization."""
    if embedding is None:
        emb_rng = np.random.default_rng([seed, 0])
        embedding = random_embedding(len(vocab), spec.d, emb_rng)
    if embedding.dim != spec.d:
        raise DimensionError(f"embedding dim {embedding.dim} does not match spec d={spec.d}")
    if embedding.vocab_size != len(vocab):
        raise DimensionError(
            f"embedding rows {embedding.vocab_size} do not match vocab size {len(vocab)}"
        )
    encoder = init_bilstm(np.random.default_rng([seed, 1]), spec.d, spec.h)
    heads = []
    for k in range(spec.m):
        rng = np.random.default_rng([seed, 10 + k])
        heads.append(
            TaskHead(
                attention=init_attention(rng, 2 * spec.h, spec.attn_size),
                hidden=init_dense(rng, 2 * spec.h, spec.head_hidden),
                out=init_dense(rng, spec.head_hidden, 2),
            )
        )
    domain = None
    if spec.adversarial:
        rng = np.random.default_rng([seed, 1000])
        domain = DomainBranch(
            hidden=init_dense(rng, 2 * spec.h, spec.domain_hidden),
            out=init_dense(rng, spec.domain_hidden, spec.n_domains),
        )
    return TrainedModel(
        spec=spec, vocab=vocab, embedding=embedding, encoder=encoder, heads=heads, domain=domain
    )


# ---------------------------------------------------------------------------
# forward passes


@dataclass
class ForwardResult:
    task_logits: list  # per task: Var [N x 2], negative class first
    alphas: list  # per task: Var [N x T_x]
    domain_logits: object = None  # Var [N x n_domains] or None


def _forward(
    model,
    ids,
    mask,
    training=False,
    rng=None,
    want_tasks=True,
    want_domain=False,
    reverse_domain=True,
):
    spec = model.spec
    mask = np.asarray(mask, dtype=np.float64)
    lengths = mask.sum(axis=-1, keepdims=True)
    if np.any(lengths == 0):
        raise DegenerateMaskError("mask keeps no position in at least one row")
    emb = embed(model.embedding, ids)
    acts = dropout(bilstm(model.encoder, emb, mask), spec.dropout_rate, rng, training)

    task_logits, alphas = [], []
    if want_tasks:
        for head in model.heads:
            context, alpha = attention_head(head.attention, acts, mask)
            context = dropout(context, spec.dropout_rate, rng, training)
            hidden = dense(head.hidden, context, "relu")
            task_logits.append(dense(head.out, hidden))
            alphas.append(alpha)

    domain_logits = None
    if want_domain and model.domain is not None:
        pooled = ad.mul(ad.sum_axis(acts, 1), 1.0 / lengths)  # pads emit zeros, so this is a masked mean
        if reverse_domain:
            pooled = ad.gradient_reversal(pooled, spec.lam)
        hidden = dense(model.domain.hidden, pooled, "relu")
        domain_logits = dense(model.domain.out, hidden)
    return ForwardResult(task_logits=task_logits, alphas=alphas, domain_logits=domain_logits)


def _check_batch(model, batch, need_labels):
    if batch.ids.shape[1] != model.spec.t_x:
        raise DimensionError(
            f"batch encodes T_x={batch.ids.shape[1]} but model expects {model.spec.t_x}"
        )
    if need_labels:
        missing = [t for t in model.spec.task_names if t not in batch.labels]
        if missing:
            raise ContractError(f"batch is missing labels for tasks {missing}")


def st_forward(model, batch, training=False, rng=None):
    """Single-task forward: returns (logits [N x 2], alpha [N x T_x]) as
    Vars; the logits put the negative class first."""
    if model.spec.m != 1:
        raise ContractError(f"st_forward requires a single-task model, got m={model.spec.m}")
    _check_batch(model, batch, need_labels=False)
    out = _forward(model, batch.ids, batch.mask, training=training, rng=rng, want_tasks=True)
    return out.task_logits[0], out.alphas[0]


def mt_daan_forward(model, batch, training=False, rng=None):
    """Multi-task forward: per-task [N x 2] logits and attention vectors
    from the shared encoder, plus [N x n_domains] domain logits when the
    branch exists."""
    _check_batch(model, batch, need_labels=True)
    out = _forward(
        model,
        batch.ids,
        batch.mask,
        training=training,
        rng=rng,
        want_tasks=True,
        want_domain=model.domain is not None,
    )
    return out.task_logits, out.alphas, out.domain_logits


# ---------------------------------------------------------------------------
# losses


def bce_loss(logits, y, present=None):
    """Mean binary cross entropy of [N x 2] logits (negative class first)
    against labels y [N]; rows with `present` == 0 contribute nothing.

    It is the two-class softmax cross entropy against [1 - y, y], which
    equals the binary cross entropy on the logit difference."""
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 1 or logits.value.shape != (y.size, 2):
        raise DimensionError(f"logits {logits.value.shape} vs labels {y.shape}")
    present = np.ones(y.size) if present is None else np.asarray(present, dtype=np.float64)
    n = present.sum()
    if n == 0:
        return ad.Var(np.zeros((), logits.value.dtype))
    return ad.softmax_cross_entropy(logits, np.stack([1.0 - y, y], axis=1), present / n)


def domain_cce_loss(logits, y_onehot):
    """Mean categorical cross entropy of [N x n_domains] logits against
    one-hot domain labels."""
    y = np.asarray(y_onehot, dtype=np.float64)
    if logits.value.shape != y.shape:
        raise DimensionError(f"logits {logits.value.shape} vs labels {y.shape}")
    if not np.array_equal(y.sum(axis=-1), np.ones(y.shape[0])) or not np.all(
        (y == 0.0) | (y == 1.0)
    ):
        raise LabelError("domain labels must be one-hot rows")
    return ad.softmax_cross_entropy(logits, y, np.full(y.shape[0], 1.0 / y.shape[0]))


def mt_daan_loss(task_losses, w_tasks, domain_loss=None, w_domain=0.0):
    """Weighted sum of per-task losses plus the weighted domain loss; with
    one task this is the ST-DAAN loss (the reversal lives inside the domain
    forward graph, not here)."""
    if len(task_losses) != len(w_tasks):
        raise DimensionError(f"{len(task_losses)} losses vs {len(w_tasks)} weights")
    if any(w < 0 for w in w_tasks) or w_domain < 0:
        raise ParameterError("loss weights must be >= 0")
    parts = [ad.mul(loss, float(w)) for loss, w in zip(task_losses, w_tasks)]
    if domain_loss is not None:
        parts.append(ad.mul(domain_loss, float(w_domain)))
    return reduce(ad.add, parts)


def covid_relevance(priority_pred, irrelevant_pred):
    """Compose two binary predictions: relevant iff priority and not irrelevant."""
    if priority_pred not in (0, 1) or irrelevant_pred not in (0, 1):
        raise LabelError(
            f"predictions must be 0 or 1, got ({priority_pred!r}, {irrelevant_pred!r})"
        )
    return int(priority_pred == 1 and irrelevant_pred == 0)


# ---------------------------------------------------------------------------
# persistence


def save_model(model, path):
    """Write a single self-describing .npz archive: spec, vocabulary (plus
    hash), and every parameter tensor (float32). Round-trips are bit-exact."""
    arrays = {}
    for slot in model.parameters():
        arrays["param/" + slot.name] = slot.var.value
    arrays["embedding.locked"] = model.embedding.locked.astype(np.uint8)
    meta = {
        "format": ARCHIVE_FORMAT,
        "spec": asdict(model.spec),
        "vocab_tokens": model.vocab.tokens[2:],  # reserved rows are implicit
        "vocab_sha256": model.vocab.sha256(),
    }
    arrays["meta.json"] = np.array(json.dumps(meta))
    np.savez(path, **arrays)


def _require(entries, names, what, path):
    missing = [name for name in names if name not in entries]
    if missing:
        raise DataError(f"{what} is missing {', '.join(missing)}", path=str(path))


def load_model(path):
    """Rebuild a model from a `save_model` archive; a malformed archive,
    including one whose parameters are not float32, raises DataError
    naming the path."""
    with np.load(path, allow_pickle=False) as archive:
        _require(
            archive.files, ("meta.json", "embedding.locked", "param/embedding.table"), "archive", path
        )
        try:
            meta = json.loads(str(archive["meta.json"]))
        except json.JSONDecodeError as exc:
            raise DataError(f"corrupt meta.json: {exc}", path=str(path)) from None
        if not isinstance(meta, dict) or not isinstance(meta.get("spec", {}), dict):
            raise DataError("meta.json and its spec must be JSON objects", path=str(path))
        if meta.get("format") != ARCHIVE_FORMAT:
            raise DataError(f"unsupported archive format {meta.get('format')}", path=str(path))
        _require(meta, ("spec", "vocab_tokens", "vocab_sha256"), "meta.json", path)
        spec_dict = meta["spec"]
        _require(spec_dict, ("task_names", "w_tasks"), "model spec", path)
        spec_dict["task_names"] = tuple(spec_dict["task_names"])
        spec_dict["w_tasks"] = tuple(spec_dict["w_tasks"])
        try:
            spec = ModelSpec(**spec_dict)
        except TypeError as exc:
            raise DataError(f"bad model spec: {exc}", path=str(path)) from None
        vocab = Vocab(meta["vocab_tokens"])
        if vocab.sha256() != meta["vocab_sha256"]:
            raise DataError("vocabulary hash mismatch in archive", path=str(path))
        params = {
            name[len("param/") :]: archive[name]
            for name in archive.files
            if name.startswith("param/")
        }
        locked = archive["embedding.locked"].astype(bool)

    try:
        embedding = EmbeddingMatrix(table=ad.Var(params.pop("embedding.table")), locked=locked)
        model = build_model(spec, vocab, embedding=embedding, seed=0)
    except DimensionError as exc:
        raise DataError(f"embedding does not fit the model: {exc}", path=str(path)) from None
    for slot in model.parameters():
        placed = slot.name == "embedding.table"  # build_model took it from the archive
        value = slot.var.value if placed else params.pop(slot.name, None)
        if value is None:
            raise DataError(f"archive is missing parameter {slot.name}", path=str(path))
        if value.shape != slot.var.value.shape:
            raise DataError(
                f"parameter {slot.name} has shape {value.shape}, "
                f"expected {slot.var.value.shape}",
                path=str(path),
            )
        if value.dtype != MODEL_DTYPE:
            raise DataError(
                f"parameter {slot.name} is {value.dtype}, expected {np.dtype(MODEL_DTYPE)}",
                path=str(path),
            )
        slot.var.value = value
    if params:
        raise DataError(f"archive has unexpected parameters {sorted(params)}", path=str(path))
    return model
