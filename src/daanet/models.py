"""Model assembly and losses.

Three variants share one skeleton: an embedding layer and BiLSTM encoder
feed per-task attention heads (context -> dropout -> dense relu -> dense
two-class logits) and, when adversarial training is enabled, a domain
classifier branch behind a gradient-reversal layer. The embedding gathers
each distinct token of a batch once, and the encoder reads every position
by index from those rows. The losses read the logits directly
(`autodiff.softmax_cross_entropy`).

    st       one task head, no domain branch
    st-daan  one task head + domain branch
    mt-daan  one head per task + domain branch

`_forward` is the model's one forward path; training, validation,
evaluation and the discriminator diagnostic all run through it. It encodes
a batch once, sends rows [:n_task] to the task heads and the remaining
rows to the domain branch, and drops out only when it is given a random
generator.
"""

from __future__ import annotations

import json
import math
import zipfile
from dataclasses import asdict, dataclass
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
    require_ints,
    require_reals,
)
from .layers import (
    AttentionHeadParams,
    BiLstmParams,
    DenseParams,
    EmbeddingMatrix,
    LstmParams,
    MODEL_DTYPE,
    attention_head,
    bilstm,
    dense,
    dropout,
    embed,
    glorot_init,
    random_embedding,
    uniform_init,
)

__all__ = [
    "ARCHIVE_FORMAT",
    "DomainBranch",
    "ForwardResult",
    "ModelSpec",
    "ParamSlot",
    "TaskHead",
    "TrainedModel",
    "bce_loss",
    "build_model",
    "covid_relevance",
    "domain_cce_loss",
    "load_model",
    "mt_daan_loss",
    "save_model",
]

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
        # numbers are stored as plain Python ints and floats, which JSON
        # (`save_model`) can write
        sizes = {
            "t_x": self.t_x,
            "d": self.d,
            "h": self.h,
            "n_domains": self.n_domains,
            "attn_size": self.attn_size,
            "head_hidden": self.head_hidden,
            "domain_hidden": self.domain_hidden,
        }
        require_ints("layer sizes and n_domains", **sizes)
        rates = {"lam": self.lam, "w_domain": self.w_domain, "dropout_rate": self.dropout_rate}
        require_reals("loss weights, reversal strength and dropout rate", **rates)
        for name, value in sizes.items():
            setattr(self, name, int(value))
        for name, value in rates.items():
            setattr(self, name, float(value))
        if not isinstance(self.adversarial, (bool, np.bool_)):
            raise ParameterError(f"adversarial must be a bool, got {self.adversarial!r}")
        self.adversarial = bool(self.adversarial)
        if isinstance(self.task_names, str):
            raise ParameterError(f"task_names must be a sequence of names, got {self.task_names!r}")
        self.task_names = tuple(self.task_names)
        if isinstance(self.w_tasks, str) or not np.iterable(self.w_tasks):
            raise ParameterError(f"w_tasks must be a sequence of weights, got {self.w_tasks!r}")
        self.w_tasks = tuple(self.w_tasks) or tuple(1.0 for _ in self.task_names)
        require_reals("task weights", **{f"w_tasks[{k}]": w for k, w in enumerate(self.w_tasks)})
        self.w_tasks = tuple(float(w) for w in self.w_tasks)
        if self.m < 1:
            raise ParameterError("need at least one task")
        if "" in self.task_names:
            raise ParameterError(f"empty task name in {self.task_names}")
        if len(set(self.task_names)) != self.m:
            raise ParameterError(f"duplicate task names in {self.task_names}")
        if len(self.w_tasks) != self.m:
            raise ParameterError(
                f"{len(self.w_tasks)} task weights for {self.m} tasks"
            )
        if min(self.t_x, self.d, self.h, self.attn_size, self.head_hidden, self.domain_hidden) < 1:
            raise ParameterError("all layer sizes must be positive")
        if self.adversarial and self.n_domains < 2:
            raise ParameterError("adversarial training needs at least 2 source domains")
        if not self.adversarial and self.n_domains != 0:
            raise ParameterError(
                f"n_domains={self.n_domains} without a domain branch (adversarial=False)"
            )
        if not all(0.0 <= w < math.inf for w in (self.lam, self.w_domain, *self.w_tasks)):
            raise ParameterError("loss weights and reversal strength must be finite and >= 0")
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


@dataclass
class DomainBranch:
    """Domain classifier over the masked mean of the encoder states."""

    hidden: DenseParams
    out: DenseParams


@dataclass
class TrainedModel:
    spec: ModelSpec
    vocab: Vocab
    embedding: EmbeddingMatrix
    encoder: BiLstmParams
    heads: list
    slots: list  # every parameter but the embedding table, as `_assemble` made them
    domain: DomainBranch | None = None

    def parameters(self):
        """Every trainable tensor: the embedding table, with a locked-row
        mask read from `embedding.locked` at each call, then `slots`."""
        mask = self.embedding.unlocked_mask()[:, None]
        return [ParamSlot("embedding.table", self.embedding.table, mask), *self.slots]


def _check_embedding(spec, vocab, embedding):
    """An embedding must have one row per vocabulary entry and d columns."""
    if embedding.dim != spec.d:
        raise DimensionError(f"embedding dim {embedding.dim} does not match spec d={spec.d}")
    if embedding.vocab_size != len(vocab):
        raise DimensionError(
            f"embedding rows {embedding.vocab_size} do not match vocab size {len(vocab)}"
        )


def _assemble(spec, vocab, embedding, fill):
    """The model for `spec` around `embedding`, with every other parameter
    laid out by its `ParamSlot` name and shape.

    Each array comes from `fill(name, shape, stream, init)`. `stream` is
    the component's seed stream (1 for the encoder, 10 + k for head k, 1000
    for the domain branch), and `init` says how a fresh array is drawn:
    `init(rng, shape)`, or None for zeros. `build_model` draws by them;
    `load_model` reads the archive and ignores them. Each parameter's slot
    is recorded as it is made, in `TrainedModel.slots`, so the order of the
    calls below is the order of `parameters()` and of the archive.
    """
    d, h, two_h = spec.d, spec.h, 2 * spec.h
    slots = []

    def param(name, shape, stream, init=None):
        var = ad.Var(fill(name, shape, stream, init))
        slots.append(ParamSlot(name, var, None))
        return var

    def lstm(prefix):
        return LstmParams(
            w=param(f"{prefix}.w", (4 * h, d + h), 1, uniform_init),
            b=param(f"{prefix}.b", (4 * h,), 1),
        )

    def dense_params(prefix, n_in, n_out, stream):
        return DenseParams(
            w=param(f"{prefix}.w", (n_out, n_in), stream, glorot_init),
            b=param(f"{prefix}.b", (n_out,), stream),
        )

    encoder = BiLstmParams(fwd=lstm("encoder.fwd"), bwd=lstm("encoder.bwd"))
    heads = []
    for k in range(spec.m):
        stream, s = 10 + k, spec.attn_size
        attention = AttentionHeadParams(
            w=param(f"head{k}.attn.w", (s, two_h), stream, glorot_init),
            b=param(f"head{k}.attn.b", (s,), stream),
            v=param(f"head{k}.attn.v", (s,), stream, glorot_init),
        )
        heads.append(
            TaskHead(
                attention=attention,
                hidden=dense_params(f"head{k}.hidden", two_h, spec.head_hidden, stream),
                out=dense_params(f"head{k}.out", spec.head_hidden, 2, stream),
            )
        )
    domain = None
    if spec.adversarial:
        domain = DomainBranch(
            hidden=dense_params("domain.hidden", two_h, spec.domain_hidden, 1000),
            out=dense_params("domain.out", spec.domain_hidden, spec.n_domains, 1000),
        )
    return TrainedModel(spec, vocab, embedding, encoder, heads, slots, domain)


def build_model(spec, vocab, embedding=None, seed=0):
    """Initialize a model. Components draw from independent seed streams
    (`[seed, 0]` for a fresh embedding, then the streams of `_assemble`),
    so e.g. adding a domain branch does not shift task-head initialization."""
    if embedding is None:
        embedding = random_embedding(len(vocab), spec.d, np.random.default_rng([seed, 0]))
    _check_embedding(spec, vocab, embedding)
    rngs = {}

    def draw(name, shape, stream, init):
        if init is None:
            return np.zeros(shape, MODEL_DTYPE)
        if stream not in rngs:
            rngs[stream] = np.random.default_rng([seed, stream])
        return init(rngs[stream], shape)

    return _assemble(spec, vocab, embedding, draw)


# ---------------------------------------------------------------------------
# forward passes


@dataclass
class ForwardResult:
    task_logits: list  # per task: Var [n_task x 2], negative class first
    alphas: list  # per task: Var [n_task x T_x]
    domain_logits: object = None  # Var [N - n_task x n_domains], or None without domain rows


def _forward(model, ids, mask, rng=None, n_task=None, reverse_domain=True):
    """Embed and encode the [N x T_x] `ids` once, then send rows [:n_task]
    to the task heads and rows [n_task:] to the domain branch.

    `n_task=None` sends every row to the heads and `n_task=0` every row to
    the domain branch; leaving rows to a model without one raises
    `ContractError`. When both parts have rows, `autodiff.split_rows` hands
    them to their branches. Dropout runs only when `rng` is given, drawing
    for the task rows, then each head's context, then the domain rows.
    `reverse_domain=False` bypasses the gradient reversal, so that finite
    differences can check the true derivative.
    """
    spec = model.spec
    if np.shape(ids)[1:] != (spec.t_x,):
        raise DimensionError(f"ids {np.shape(ids)} do not encode the model's T_x={spec.t_x}")
    n = len(ids)
    n_task = n if n_task is None else n_task
    if not 0 <= n_task <= n:
        raise DimensionError(f"n_task={n_task} outside the {n} rows of the batch")
    if n_task < n and model.domain is None:
        raise ContractError(
            f"n_task={n_task} leaves {n - n_task} rows for a domain branch, and the model has none"
        )
    mask = np.asarray(mask, dtype=np.float64)
    lengths = mask.sum(axis=-1)
    if np.any(lengths == 0):
        raise DegenerateMaskError("mask keeps no position in at least one row")
    states = bilstm(model.encoder, embed(model.embedding, ids), mask)
    task_states = domain_states = states
    if 0 < n_task < n:
        task_states, domain_states = ad.split_rows(states, n_task)

    task_logits, alphas = [], []
    if n_task > 0:
        acts = dropout(task_states, spec.dropout_rate, rng)
        for head in model.heads:
            context, alpha = attention_head(head.attention, acts, mask[:n_task])
            context = dropout(context, spec.dropout_rate, rng)
            hidden = dense(head.hidden, context, "relu")
            task_logits.append(dense(head.out, hidden))
            alphas.append(alpha)

    domain_logits = None
    if n_task < n:
        acts = dropout(domain_states, spec.dropout_rate, rng)
        pooled = ad.masked_mean(acts, lengths[n_task:])
        if reverse_domain:
            pooled = ad.gradient_reversal(pooled, spec.lam)
        hidden = dense(model.domain.hidden, pooled, "relu")
        domain_logits = dense(model.domain.out, hidden)
    return ForwardResult(task_logits=task_logits, alphas=alphas, domain_logits=domain_logits)


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


def domain_cce_loss(logits, domains):
    """Mean categorical cross entropy of [N x K] logits against `domains`
    [N], each row's domain index in 0..K-1 (`Batch.domain`).

    A label array of another shape raises DimensionError; labels that are
    not integers, or lie outside 0..K-1, raise LabelError."""
    domains = np.asarray(domains)
    shape = logits.value.shape
    if len(shape) != 2 or domains.shape != shape[:1]:
        raise DimensionError(f"logits {shape} vs domain labels {domains.shape}")
    if not np.issubdtype(domains.dtype, np.integer):
        raise LabelError(f"domain labels must be integers, got dtype {domains.dtype}")
    n, k = shape
    if n == 0:
        raise DimensionError(f"domain loss of an empty batch: logits {shape}")
    if domains.min() < 0 or domains.max() >= k:
        raise LabelError(
            f"domain labels must lie in 0..{k - 1}, got {domains.min()}..{domains.max()}"
        )
    targets = np.zeros(shape)
    targets[np.arange(n), domains] = 1.0
    return ad.softmax_cross_entropy(logits, targets, np.full(n, 1.0 / n))


def mt_daan_loss(task_losses, w_tasks, domain_loss=None, w_domain=0.0):
    """Weighted sum of per-task losses plus the weighted domain loss, as one
    `autodiff.weighted_sum` node; with one task this is the ST-DAAN loss
    (the reversal lives inside the domain forward graph, not here).
    `w_domain` is read only when there is a domain loss."""
    losses, weights = list(task_losses), list(w_tasks)
    if domain_loss is not None:
        losses.append(domain_loss)
        weights.append(w_domain)
    return ad.weighted_sum(losses, weights)


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
    """Rebuild a model from a `save_model` archive.

    The model is assembled from the archive's arrays alone, laid out as
    `build_model` lays it out, and nothing is drawn. A file that is not a
    readable .npz archive, and a malformed archive, raise DataError naming
    the path: a missing, misshapen or unexpected parameter, one that is
    not float32 or not finite, a vocabulary that is not a list of distinct
    strings, or an embedding that does not fit the spec."""
    try:
        archive = np.load(path, allow_pickle=False)
    except (ValueError, EOFError, zipfile.BadZipFile) as exc:
        # ValueError: neither zip nor .npy, and np.load does not unpickle
        raise DataError(f"not a model archive: {exc}", path=str(path)) from None
    if not isinstance(archive, np.lib.npyio.NpzFile):
        raise DataError("not a model archive: the file holds one .npy array", path=str(path))
    with archive:
        try:
            members = {name: archive[name] for name in archive.files}
        except (ValueError, zipfile.BadZipFile) as exc:
            raise DataError(f"unreadable archive member: {exc}", path=str(path)) from None
    _require(members, ("meta.json", "embedding.locked", "param/embedding.table"), "archive", path)
    try:
        meta = json.loads(str(members["meta.json"]))
    except json.JSONDecodeError as exc:
        raise DataError(f"corrupt meta.json: {exc}", path=str(path)) from None
    if not isinstance(meta, dict) or not isinstance(meta.get("spec", {}), dict):
        raise DataError("meta.json and its spec must be JSON objects", path=str(path))
    if meta.get("format") != ARCHIVE_FORMAT:
        raise DataError(f"unsupported archive format {meta.get('format')}", path=str(path))
    _require(meta, ("spec", "vocab_tokens", "vocab_sha256"), "meta.json", path)
    spec_dict = meta["spec"]
    _require(spec_dict, ("task_names", "w_tasks"), "model spec", path)
    try:
        spec_dict["task_names"] = tuple(spec_dict["task_names"])
        spec_dict["w_tasks"] = tuple(spec_dict["w_tasks"])
        spec = ModelSpec(**spec_dict)
    except (TypeError, ValueError) as exc:  # ValueError includes ParameterError
        raise DataError(f"bad model spec: {exc}", path=str(path)) from None
    tokens = meta["vocab_tokens"]
    if not isinstance(tokens, list) or not all(isinstance(tok, str) for tok in tokens):
        raise DataError("vocab_tokens must be a list of strings", path=str(path))
    try:
        vocab = Vocab(tokens)
    except DataError as exc:  # duplicate tokens
        raise DataError(str(exc), path=str(path)) from None
    if vocab.sha256() != meta["vocab_sha256"]:
        raise DataError("vocabulary hash mismatch in archive", path=str(path))
    params = {
        name[len("param/") :]: value for name, value in members.items() if name.startswith("param/")
    }

    def read(name, shape, _stream=None, _init=None):
        value = params.pop(name, None)
        if value is None:
            raise DataError(f"archive is missing parameter {name}", path=str(path))
        if value.shape != shape:
            raise DataError(
                f"parameter {name} has shape {value.shape}, expected {shape}", path=str(path)
            )
        if value.dtype != MODEL_DTYPE:
            raise DataError(
                f"parameter {name} is {value.dtype}, expected {np.dtype(MODEL_DTYPE)}",
                path=str(path),
            )
        if not np.isfinite(value).all():
            raise DataError(f"parameter {name} holds a value that is not finite", path=str(path))
        return value

    table = params["embedding.table"]
    try:
        embedding = EmbeddingMatrix(
            table=ad.Var(table), locked=members["embedding.locked"].astype(bool)
        )
        _check_embedding(spec, vocab, embedding)
    except DimensionError as exc:
        raise DataError(f"embedding does not fit the model: {exc}", path=str(path)) from None
    read("embedding.table", table.shape)  # the fit is checked; this checks the dtype
    model = _assemble(spec, vocab, embedding, read)
    if params:
        raise DataError(f"archive has unexpected parameters {sorted(params)}", path=str(path))
    return model
