"""Adam optimization, training with early stopping, evaluation metrics,
and the logistic-regression baseline over averaged embeddings.

Training has one epoch loop, the private generator `_epochs`: it runs the
optimizer steps and the validation pass of each epoch and yields one
`_Epoch` record after it. `train` consumes it. It stops after `patience`
epochs in a row without a strictly lower validation monitor, and then
restores the parameters of the best epoch."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .data import make_batches
from .errors import (
    ContractError,
    DimensionError,
    NumericalAbort,
    ParameterError,
    require_counts,
    require_ints,
    require_reals,
)
from .models import _forward, bce_loss, domain_cce_loss, mt_daan_loss

__all__ = [
    "Adam",
    "History",
    "Metrics",
    "TaskMetrics",
    "TrainConfig",
    "binary_f1",
    "domain_discriminator_accuracy",
    "evaluate",
    "lr_baseline",
    "stratified_val_split",
    "train",
]

log = logging.getLogger(__name__)

DIAGNOSTIC_BATCH = 256  # rows per forward pass of domain_discriminator_accuracy
# lr_baseline's gradient descent: step size, convergence tolerance, step limit
LR_STEP = 1.0
LR_TOL = 1e-6
LR_MAX_EPOCHS = 500


@dataclass
class TrainConfig:
    """How `train` runs. Training stops after `patience` epochs in a row
    without a strictly lower validation monitor, or after `max_epochs`.
    `seed` seeds four independent streams: `[seed, 101]` shuffles the
    training batches, `[seed, 102]` draws dropout masks, `[seed, 103]`
    splits off the validation set and `[seed, 104]` shuffles the domain
    batches. The model's initial parameters come from `build_model`'s own
    seed, not from this one."""

    max_epochs: int = 50
    patience: int = 3
    batch_size: int = 32
    val_split: float = 0.15
    learning_rate: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        require_ints(
            "epochs, patience, batch size and seed",
            max_epochs=self.max_epochs,
            patience=self.patience,
            batch_size=self.batch_size,
            seed=self.seed,
        )
        require_reals(
            "validation split and learning rate",
            val_split=self.val_split,
            learning_rate=self.learning_rate,
        )
        if min(self.max_epochs, self.patience, self.batch_size) < 1:
            raise ParameterError("epochs, patience, and batch size must be positive")
        if self.seed < 0:
            raise ParameterError(f"seed must be >= 0, got {self.seed}")
        if self.patience >= self.max_epochs:
            raise ParameterError("patience must be smaller than max_epochs")
        if not 0.0 < self.val_split < 1.0:
            raise ParameterError("validation split must be in (0, 1)")
        if not 0.0 < self.learning_rate < math.inf:
            raise ParameterError("learning rate must be finite and positive")


def _update_rows(slot):
    """Row selector for a slot's updates: the unlocked rows of a masked
    2-D parameter, or the whole array (`...`) when there is no mask."""
    mask = slot.update_mask
    if mask is None:
        return ...
    mask = np.asarray(mask)
    value = slot.var.value
    if value.ndim != 2 or mask.shape != (value.shape[0], 1):
        raise ParameterError(
            f"update mask for {slot.name} must be a [rows x 1] column over a 2-D "
            f"parameter; got mask {mask.shape} for parameter {value.shape}"
        )
    if not np.all((mask == 0) | (mask == 1)):
        raise ParameterError(f"update mask for {slot.name} must hold only 0 and 1")
    return np.flatnonzero(mask[:, 0])


class Adam:
    """Bias-corrected Adam over ParamSlots, updating parameters in place.

    A slot with an update mask (locked embedding rows) is updated only on
    its active rows: the unlocked rows that its gradient has reached at
    some step (`Var.grad_rows`; a dense gradient reaches every row). Its
    moments m and v hold the active rows alone, in order of activation; a
    row gets zero moments appended when it first becomes active. Locked
    rows never get moments, and rows not yet reached cost no time. Adam is
    elementwise, and a row whose gradient and moments are all zero moves
    by exactly 0, so this gives the same numbers, bit for bit, as a
    full-table step that zeroes locked rows.
    """

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, slots, lr=1e-3):
        self.slots = list(slots)
        self.lr = lr
        self.t = 0
        # per slot: the rows it updates (`...` for the whole array, or a
        # masked slot's active rows), and for a masked slot a flag per
        # table row for the unlocked rows not yet active
        self.rows = []
        self.waiting = []
        for slot in self.slots:
            unlocked = _update_rows(slot)
            flags = None
            if unlocked is not ...:
                flags = np.zeros(slot.var.value.shape[0], dtype=bool)
                flags[unlocked] = True
                unlocked = np.empty(0, dtype=np.intp)
            self.rows.append(unlocked)
            self.waiting.append(flags)
        self.m = [np.zeros_like(s.var.value[r]) for s, r in zip(self.slots, self.rows)]
        self.v = [np.zeros_like(m) for m in self.m]

    def _activate(self, i, var):
        """Make the waiting rows that masked slot i's gradient reaches
        active, with zero moments."""
        touched = var.grad_rows()
        waiting = self.waiting[i]
        new = np.flatnonzero(waiting) if touched is None else np.unique(touched[waiting[touched]])
        if new.size:
            waiting[new] = False
            self.rows[i] = np.concatenate([self.rows[i], new])
            pad = np.zeros((new.size,) + self.m[i].shape[1:], dtype=self.m[i].dtype)
            self.m[i] = np.concatenate([self.m[i], pad])
            self.v[i] = np.concatenate([self.v[i], pad])

    def step(self):
        self.t += 1
        correct1 = 1.0 - self.beta1**self.t
        correct2 = 1.0 - self.beta2**self.t
        for i, slot in enumerate(self.slots):
            g = slot.var._grad
            if g is not None and g.shape != slot.var.value.shape:
                raise DimensionError(f"gradient shape mismatch for {slot.name}: {g.shape}")
            if self.waiting[i] is not None:
                self._activate(i, slot.var)
            rows = self.rows[i]
            g = 0.0 if g is None else g[rows]
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * (g * g)
            delta = self.lr * (self.m[i] / correct1) / (np.sqrt(self.v[i] / correct2) + self.eps)
            slot.var.value[rows] -= delta

    def zero_grad(self):
        for slot in self.slots:
            slot.var.zero_grad()


@dataclass
class History:
    """Per-epoch mean training loss, validation monitor and domain loss
    (empty without a domain branch), and the epoch whose parameters
    `train` restored."""

    train_loss: list = field(default_factory=list)
    val_loss: list = field(default_factory=list)
    domain_loss: list = field(default_factory=list)
    best_epoch: int = -1


class _Epoch(NamedTuple):
    """What `_epochs` yields after each epoch: the mean training loss, the
    mean domain loss (None without a domain branch) and the validation
    monitor."""

    epoch: int
    train_loss: float
    domain_loss: float | None
    val_loss: float


def stratified_val_split(examples, val_split, rng):
    """Split off a validation set, stratified by the joint label signature
    so each task's positive rate carries over where group sizes permit."""
    groups = {}
    for ex in examples:
        key = tuple(sorted(ex.labels.items()))
        groups.setdefault(key, []).append(ex)
    train, val = [], []
    for key in sorted(groups):
        members = groups[key]
        order = rng.permutation(len(members))
        n_val = int(round(val_split * len(members)))
        if len(members) > 1:
            n_val = min(max(n_val, 0), len(members) - 1)
        for j, idx in enumerate(order):
            (val if j < n_val else train).append(members[idx])
    return train, val


def _batch_losses(model, batch, rng=None, domain_batch=None, reverse_domain=True):
    """Per-task losses and label counts of `batch`, and the domain loss of
    `domain_batch` (None without one). With a domain batch, both batches
    run through the encoder in one joint pass. Dropout draws from `rng`
    when one is given."""
    missing = [t for t in model.spec.task_names if t not in batch.labels]
    if missing:
        raise ContractError(f"batch is missing labels for tasks {missing}")
    if domain_batch is None:
        out = _forward(model, batch.ids, batch.mask, rng=rng)
    else:
        out = _forward(
            model,
            np.concatenate([batch.ids, domain_batch.ids]),
            np.concatenate([batch.mask, domain_batch.mask]),
            rng=rng,
            n_task=batch.size,
            reverse_domain=reverse_domain,
        )
    losses = []
    counts = []
    for k, task in enumerate(model.spec.task_names):
        y, present = batch.labels[task]
        losses.append(bce_loss(out.task_logits[k], y, present))
        counts.append(present.sum())
    domain_term = None
    if domain_batch is not None:
        domain_term = domain_cce_loss(out.domain_logits, domain_batch.domain)
    return losses, counts, domain_term


def _validation_losses(model, val_batches):
    """Per-task mean validation loss (eval mode); tasks absent from the
    validation set are skipped in the monitor."""
    tasks = model.spec.task_names
    sums = {t: 0.0 for t in tasks}
    counts = {t: 0.0 for t in tasks}
    for batch in val_batches:
        losses, ns, _ = _batch_losses(model, batch)
        for t, loss, n in zip(tasks, losses, ns):
            sums[t] += float(loss.value) * n
            counts[t] += n
    per_task = {t: sums[t] / counts[t] for t in tasks if counts[t] > 0}
    if not per_task:
        raise ContractError("validation set carries no labels for any task")
    monitor = float(np.mean(list(per_task.values())))
    return monitor, per_task


def _check_domain_count(model, split):
    """A domain branch must have one output per source event of the split."""
    if model.domain is not None and model.spec.n_domains != split.n_domains:
        raise ContractError(
            f"the model's domain branch has {model.spec.n_domains} outputs, "
            f"but the split has {split.n_domains} source events"
        )


def _snapshot(model):
    """Copy what training can change: each slot's `_update_rows`, so the
    unlocked rows of a masked table and the whole of every other
    parameter. Locked rows never change and are not copied."""
    snapshot = []
    for slot in model.parameters():
        rows = _update_rows(slot)
        value = slot.var.value
        snapshot.append((slot.var, rows, value.copy() if rows is ... else value[rows]))
    return snapshot


def _restore(snapshot):
    """Write a `_snapshot` back into the arrays it was taken from."""
    for var, rows, saved in snapshot:
        var.value[rows] = saved


def _epochs(model, split, cfg):
    """Train `model` in place, one epoch after another, up to
    `cfg.max_epochs`, yielding an `_Epoch` after each.

    Each optimizer step consumes one labeled task batch and, when the
    adversarial branch is active, one domain batch; the two share one
    encoder pass, and their losses are combined with the model's
    task/domain weights. A domain batch holds source texts, read without
    their task labels, and each row's source-event index. The validation
    monitor is the mean over tasks of the validation loss (task terms
    only). At each yield the model is in that epoch's state and holds no
    gradient buffer. A non-finite training or validation loss raises
    NumericalAbort. Like any generator it runs nothing, its input checks
    included, until the first `next`."""
    spec = model.spec
    if not split.train_labeled:
        raise ContractError("empty training set")
    _check_domain_count(model, split)
    shuffle_rng = np.random.default_rng([cfg.seed, 101])
    dropout_rng = np.random.default_rng([cfg.seed, 102])
    val_rng = np.random.default_rng([cfg.seed, 103])
    domain_rng = np.random.default_rng([cfg.seed, 104])

    train_ex, val_ex = stratified_val_split(split.train_labeled, cfg.val_split, val_rng)
    if not train_ex:
        raise ContractError("validation split left no training examples")
    if not val_ex:
        val_ex = train_ex  # degenerate but keeps the monitor defined
    val_batches = make_batches(
        val_ex, model.vocab, spec.t_x, cfg.batch_size, rng=None, tasks=spec.task_names
    )

    use_domain = spec.adversarial and spec.w_domain > 0
    if use_domain and not split.domain_examples:
        # the endless stream below would never yield a batch
        raise ContractError("the split has no domain examples for the domain branch")

    def domain_stream():
        # one reshuffled pass over the domain examples after another
        while True:
            yield from make_batches(
                split.domain_examples,
                model.vocab,
                spec.t_x,
                cfg.batch_size,
                rng=domain_rng,
                tasks=(),
                domains=split.domain_index,
            )

    domain_batches = domain_stream()
    optimizer = Adam(model.parameters(), lr=cfg.learning_rate)

    for epoch in range(1, cfg.max_epochs + 1):
        task_batches = make_batches(
            train_ex, model.vocab, spec.t_x, cfg.batch_size, rng=shuffle_rng, tasks=spec.task_names
        )
        epoch_loss = 0.0
        epoch_domain = 0.0
        try:
            for bi, batch in enumerate(task_batches):
                dbatch = next(domain_batches) if use_domain else None
                with ad.Tape() as tape:
                    task_losses, _, domain_term = _batch_losses(
                        model, batch, rng=dropout_rng, domain_batch=dbatch
                    )
                    total = mt_daan_loss(task_losses, spec.w_tasks, domain_term, spec.w_domain)
                    total_val = float(total.value)
                    if not np.isfinite(total_val):
                        parts = {
                            t: float(l.value) for t, l in zip(spec.task_names, task_losses)
                        }
                        if domain_term is not None:
                            parts["domain"] = float(domain_term.value)
                        raise NumericalAbort(
                            "non-finite training loss", epoch=epoch, batch=bi, loss_parts=parts
                        )
                    ad.backward(tape, total)
                optimizer.step()
                optimizer.zero_grad()
                epoch_loss += total_val
                if domain_term is not None:
                    epoch_domain += float(domain_term.value)
        finally:
            # Free the gradient buffers that zero_grad keeps for the next
            # step, so that validation and the caller's work at the yield
            # do not run on top of them, and so that no step leaves one on
            # the model, also when it raises.
            for slot in optimizer.slots:
                slot.var.drop_grad()

        n_batches = max(len(task_batches), 1)
        monitor, per_task = _validation_losses(model, val_batches)
        if not np.isfinite(monitor):
            raise NumericalAbort("non-finite validation loss", epoch=epoch, loss_parts=per_task)
        yield _Epoch(
            epoch=epoch,
            train_loss=epoch_loss / n_batches,
            domain_loss=epoch_domain / n_batches if use_domain else None,
            val_loss=monitor,
        )


def train(model, split, cfg):
    """Train `model` in place on a leave-one-event-out split, and return
    its `History`.

    It runs the epochs of `_epochs` and stops after `cfg.patience` epochs
    in a row without a strictly lower validation monitor than the best so
    far (an equal monitor is no improvement), or after `cfg.max_epochs`.
    The parameters of the best epoch are then restored. The best-epoch
    checkpoint holds only what training can change: the unlocked rows of
    the embedding table and every other parameter whole, so with U of V
    table rows unlocked it copies U·d table entries, not V·d. It is
    written back into the live arrays in place, so every parameter keeps
    its array object.
    """
    history = History()
    best = math.inf
    best_epoch = -1
    best_params = None  # epoch 1 always improves: a non-finite monitor raises
    for record in _epochs(model, split, cfg):
        history.train_loss.append(record.train_loss)
        if record.domain_loss is not None:
            history.domain_loss.append(record.domain_loss)
        history.val_loss.append(record.val_loss)
        if record.val_loss < best:
            best, best_epoch = record.val_loss, record.epoch
            best_params = _snapshot(model)
        elif record.epoch - best_epoch >= cfg.patience:
            break
    _restore(best_params)
    history.best_epoch = best_epoch
    return history


# ---------------------------------------------------------------------------
# metrics


@dataclass
class TaskMetrics:
    accuracy: float
    f1: float
    n: int
    degenerate: bool = False


@dataclass
class Metrics:
    per_task: dict  # task -> TaskMetrics

    def mean_f1(self):
        return float(np.mean([tm.f1 for tm in self.per_task.values()]))


def binary_f1(y_true, y_pred):
    """Positive-class F1; with no true positive (no positives present,
    none predicted, or no predicted one right) it scores 0 and is flagged
    degenerate."""
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    tp = np.sum((y_pred == 1) & (y_true == 1))
    if tp == 0:
        return 0.0, True
    fp = np.sum((y_pred == 1) & (y_true != 1))
    fn = np.sum((y_pred != 1) & (y_true == 1))
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    return 2 * precision * recall / (precision + recall), False


def _task_metrics(task, y_true, y_pred):
    """Accuracy (0.0 with no example) and F1 of one task's int label and
    prediction arrays; a degenerate F1 is logged."""
    acc = float(np.mean(y_true == y_pred)) if y_true.size else 0.0
    f1, degenerate = binary_f1(y_true, y_pred)
    if degenerate:
        log.warning("degenerate F1 for task %r (no true positive)", task)
    return TaskMetrics(accuracy=acc, f1=float(f1), n=int(y_true.size), degenerate=degenerate)


def evaluate(model, examples, batch_size=256):
    """Accuracy and F1 per task, over the examples where that task is
    labeled; an example is predicted positive when its positive-class logit
    is at least its negative-class one (probability >= 0.5). Examples that
    label none of the model's tasks raise `ContractError`, and a
    `batch_size` that is not an integer of at least 1 raises
    ParameterError.

    It streams: each slice of `batch_size` examples is batched and run
    before the next is read, so one batch is held at a time."""
    require_counts("batch size", batch_size=batch_size)
    spec = model.spec
    preds = {t: [] for t in spec.task_names}
    truths = {t: [] for t in spec.task_names}
    for start in range(0, len(examples), batch_size):
        (batch,) = make_batches(
            examples[start : start + batch_size],
            model.vocab,
            spec.t_x,
            batch_size,
            rng=None,
            tasks=spec.task_names,
        )
        out = _forward(model, batch.ids, batch.mask)
        for k, task in enumerate(spec.task_names):
            y, present = batch.labels[task]
            keep = present > 0
            z = out.task_logits[k].value[keep]
            preds[task].append(z[:, 1] >= z[:, 0])
            truths[task].append(y[keep])
    per_task = {
        task: _task_metrics(
            task, np.concatenate(truths[task]).astype(int), np.concatenate(preds[task]).astype(int)
        )
        for task in spec.task_names
        if sum(map(len, truths[task]))
    }
    if not per_task:
        raise ContractError("no example carries a label for any of the model's tasks")
    return Metrics(per_task=per_task)


def domain_discriminator_accuracy(model, split):
    """Diagnostic: how well the domain branch identifies source events."""
    if model.domain is None:
        return None
    _check_domain_count(model, split)
    batches = make_batches(
        split.domain_examples,
        model.vocab,
        model.spec.t_x,
        DIAGNOSTIC_BATCH,
        rng=None,
        tasks=(),
        domains=split.domain_index,
    )
    correct = 0
    total = 0
    for batch in batches:
        out = _forward(model, batch.ids, batch.mask, n_task=0)
        pred = out.domain_logits.value.argmax(axis=1)
        correct += int(np.sum(pred == batch.domain))
        total += batch.size
    return correct / total if total else None


# ---------------------------------------------------------------------------
# logistic-regression baseline


def mean_embedding_features(examples, vocab, embedding, t_x):
    """Feature per example: mean of its (truncated) token vectors."""
    table = embedding.table.value
    feats = np.zeros((len(examples), table.shape[1]))
    for i, ex in enumerate(examples):
        ids = vocab.encode(ex.tokens, t_x)
        if ids:
            feats[i] = table[ids].mean(axis=0)
    return feats


def lr_baseline(train_examples, test_examples, vocab, embedding, task, t_x):
    """Binary logistic regression over mean token embeddings, trained by
    full-batch gradient descent (step `LR_STEP`) until the loss moves less
    than `LR_TOL`, for at most `LR_MAX_EPOCHS` steps. A `t_x` that is not
    an integer of at least 1 raises ParameterError."""
    require_counts("t_x", t_x=t_x)
    train_examples = [ex for ex in train_examples if task in ex.labels]
    test_examples = [ex for ex in test_examples if task in ex.labels]
    if not train_examples:
        raise ContractError(f"no training example carries a label for task {task!r}")
    x = mean_embedding_features(train_examples, vocab, embedding, t_x)
    y = np.array([ex.labels[task] for ex in train_examples], dtype=np.float64)
    w = np.zeros(x.shape[1])
    b = 0.0
    prev_loss = np.inf
    for _ in range(LR_MAX_EPOCHS):
        z = x @ w + b
        p = 1.0 / (1.0 + np.exp(-z))
        pc = np.clip(p, 1e-12, 1 - 1e-12)
        loss = -np.mean(y * np.log(pc) + (1 - y) * np.log(1 - pc))
        if abs(prev_loss - loss) < LR_TOL:
            break
        prev_loss = loss
        err = p - y
        w -= LR_STEP * (x.T @ err) / len(y)
        b -= LR_STEP * err.mean()

    xt = mean_embedding_features(test_examples, vocab, embedding, t_x)
    y_true = np.array([ex.labels[task] for ex in test_examples], dtype=int)
    y_pred = ((xt @ w + b) >= 0.0).astype(int)
    return Metrics(per_task={task: _task_metrics(task, y_true, y_pred)})
