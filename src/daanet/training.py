"""Adam optimization, the training loop with early stopping, evaluation
metrics, and the logistic-regression baseline over averaged embeddings."""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .data import make_batches
from .errors import ContractError, DimensionError, NumericalAbort, ParameterError
from .models import _forward, bce_loss, domain_cce_loss, mt_daan_loss

log = logging.getLogger(__name__)


@dataclass
class TrainConfig:
    max_epochs: int = 50
    patience: int = 3
    batch_size: int = 32
    val_split: float = 0.15
    learning_rate: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        if min(self.max_epochs, self.patience, self.batch_size) < 1:
            raise ParameterError("epochs, patience, and batch size must be positive")
        if self.patience >= self.max_epochs:
            raise ParameterError("patience must be smaller than max_epochs")
        if not 0.0 < self.val_split < 1.0:
            raise ParameterError("validation split must be in (0, 1)")
        if self.learning_rate <= 0:
            raise ParameterError("learning rate must be positive")


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
    its unlocked rows, and its moments m and v hold those rows alone, so
    locked rows cost neither memory nor time. Adam is elementwise, so this
    gives the same numbers as a full-table step that zeroes locked rows.
    """

    def __init__(self, slots, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.slots = list(slots)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.rows = [_update_rows(s) for s in self.slots]
        self.m = [np.zeros_like(s.var.value[r]) for s, r in zip(self.slots, self.rows)]
        self.v = [np.zeros_like(m) for m in self.m]

    def step(self):
        self.t += 1
        correct1 = 1.0 - self.beta1**self.t
        correct2 = 1.0 - self.beta2**self.t
        for i, (slot, rows) in enumerate(zip(self.slots, self.rows)):
            g = slot.var._grad
            if g is None:
                g = 0.0
            elif g.shape != slot.var.value.shape:
                raise DimensionError(f"gradient shape mismatch for {slot.name}: {g.shape}")
            else:
                g = g[rows]
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * (g * g)
            delta = self.lr * (self.m[i] / correct1) / (np.sqrt(self.v[i] / correct2) + self.eps)
            slot.var.value[rows] -= delta

    def zero_grad(self):
        for slot in self.slots:
            slot.var.zero_grad()


class EarlyStopper:
    """Stop after `patience` consecutive epochs without improvement; the
    best-so-far epoch is tracked for checkpoint restore."""

    def __init__(self, patience):
        self.patience = patience
        self.best = np.inf
        self.best_epoch = -1
        self.bad_epochs = 0

    def update(self, loss, epoch):
        """Returns 'improved', 'continue', or 'stop'."""
        if loss < self.best:
            self.best = loss
            self.best_epoch = epoch
            self.bad_epochs = 0
            return "improved"
        self.bad_epochs += 1
        return "stop" if self.bad_epochs >= self.patience else "continue"


@dataclass
class History:
    train_loss: list = field(default_factory=list)
    val_loss: list = field(default_factory=list)
    val_task_loss: dict = field(default_factory=dict)  # task -> list
    domain_loss: list = field(default_factory=list)
    best_epoch: int = -1
    stopped_epoch: int = -1


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


def _batch_losses(model, batch, training, rng):
    out = _forward(model, batch.ids, batch.mask, training=training, rng=rng, want_tasks=True)
    losses = []
    counts = []
    for k, task in enumerate(model.spec.task_names):
        y, present = batch.labels[task]
        losses.append(bce_loss(out.task_logits[k], y, present))
        counts.append(present.sum())
    return losses, counts


def _validation_losses(model, val_batches):
    """Per-task mean validation loss (eval mode); tasks absent from the
    validation set are skipped in the monitor."""
    tasks = model.spec.task_names
    sums = {t: 0.0 for t in tasks}
    counts = {t: 0.0 for t in tasks}
    for batch in val_batches:
        losses, ns = _batch_losses(model, batch, training=False, rng=None)
        for t, loss, n in zip(tasks, losses, ns):
            sums[t] += float(loss.value) * n
            counts[t] += n
    per_task = {t: sums[t] / counts[t] for t in tasks if counts[t] > 0}
    if not per_task:
        raise ContractError("validation set carries no labels for any task")
    monitor = float(np.mean(list(per_task.values())))
    return monitor, per_task


def _snapshot(model):
    return [slot.var.value.copy() for slot in model.parameters()]


def _restore(model, snapshot):
    for slot, saved in zip(model.parameters(), snapshot):
        slot.var.value = saved.copy()


def train(model, split, cfg):
    """Train `model` in place on a leave-one-event-out split.

    Each optimizer step consumes one labeled task batch and, when the
    adversarial branch is active, one label-stripped domain batch; their
    losses are combined with the model's task/domain weights. Validation
    loss (task terms only) drives early stopping, and the best-epoch
    parameters are restored before returning.
    """
    spec = model.spec
    if not split.train_labeled:
        raise ContractError("empty training set")
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

    use_domain = spec.adversarial and spec.w_domain > 0 and bool(split.domain_examples)
    domain_batches = []

    def next_domain_batch():
        nonlocal domain_batches
        if not domain_batches:
            domain_batches = make_batches(
                split.domain_examples,
                model.vocab,
                spec.t_x,
                cfg.batch_size,
                rng=domain_rng,
                tasks=(),
                n_domains=split.n_domains,
            )
        return domain_batches.pop(0)

    optimizer = Adam(model.parameters(), lr=cfg.learning_rate)
    stopper = EarlyStopper(cfg.patience)
    history = History(val_task_loss={t: [] for t in spec.task_names})
    best_params = _snapshot(model)

    for epoch in range(1, cfg.max_epochs + 1):
        task_batches = make_batches(
            train_ex, model.vocab, spec.t_x, cfg.batch_size, rng=shuffle_rng, tasks=spec.task_names
        )
        epoch_loss = 0.0
        epoch_domain = 0.0
        for bi, batch in enumerate(task_batches):
            with ad.Tape() as tape:
                task_losses, _ = _batch_losses(model, batch, training=True, rng=dropout_rng)
                domain_term = None
                if use_domain:
                    dbatch = next_domain_batch()
                    dout = _forward(
                        model,
                        dbatch.ids,
                        dbatch.mask,
                        training=True,
                        rng=dropout_rng,
                        want_tasks=False,
                        want_domain=True,
                    )
                    domain_term = domain_cce_loss(dout.domain_logits, dbatch.domain_onehot)
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

        history.train_loss.append(epoch_loss / max(len(task_batches), 1))
        if use_domain:
            history.domain_loss.append(epoch_domain / max(len(task_batches), 1))
        monitor, per_task = _validation_losses(model, val_batches)
        if not np.isfinite(monitor):
            raise NumericalAbort("non-finite validation loss", epoch=epoch, loss_parts=per_task)
        history.val_loss.append(monitor)
        for t in spec.task_names:
            history.val_task_loss[t].append(per_task.get(t, float("nan")))

        verdict = stopper.update(monitor, epoch)
        if verdict == "improved":
            best_params = _snapshot(model)
        elif verdict == "stop":
            history.stopped_epoch = epoch
            break

    _restore(model, best_params)
    history.best_epoch = stopper.best_epoch
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

    def task(self, name):
        return self.per_task[name]

    def mean_accuracy(self):
        return float(np.mean([tm.accuracy for tm in self.per_task.values()]))

    def mean_f1(self):
        return float(np.mean([tm.f1 for tm in self.per_task.values()]))


def binary_f1(y_true, y_pred):
    """Positive-class F1; degenerate cases (no positives present or
    predicted) score 0 and are flagged."""
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    tp = np.sum((y_pred == 1) & (y_true == 1))
    fp = np.sum((y_pred == 1) & (y_true != 1))
    fn = np.sum((y_pred != 1) & (y_true == 1))
    if tp + fp == 0 or tp + fn == 0:
        return 0.0, True
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    if precision + recall == 0:
        return 0.0, True
    return 2 * precision * recall / (precision + recall), False


def evaluate(model, examples, batch_size=256):
    """Accuracy and F1 per task, over the examples where that task is
    labeled; an example is predicted positive when its positive-class logit
    is at least its negative-class one (probability >= 0.5)."""
    spec = model.spec
    batches = make_batches(
        examples, model.vocab, spec.t_x, batch_size, rng=None, tasks=spec.task_names
    )
    preds = {t: [] for t in spec.task_names}
    truths = {t: [] for t in spec.task_names}
    for batch in batches:
        out = _forward(model, batch.ids, batch.mask, training=False, want_tasks=True)
        for k, task in enumerate(spec.task_names):
            y, present = batch.labels[task]
            keep = present > 0
            z = out.task_logits[k].value[keep]
            preds[task].extend((z[:, 1] >= z[:, 0]).astype(int))
            truths[task].extend(y[keep].astype(int))
    per_task = {}
    for task in spec.task_names:
        y_true = np.array(truths[task], dtype=int)
        y_pred = np.array(preds[task], dtype=int)
        if y_true.size == 0:
            continue
        acc = float(np.mean(y_true == y_pred))
        f1, degenerate = binary_f1(y_true, y_pred)
        if degenerate:
            log.warning("degenerate F1 for task %r (no positives predicted or present)", task)
        per_task[task] = TaskMetrics(accuracy=acc, f1=float(f1), n=int(y_true.size), degenerate=degenerate)
    return Metrics(per_task=per_task)


def domain_discriminator_accuracy(model, split, batch_size=256):
    """Diagnostic: how well the domain branch identifies source events."""
    if model.domain is None:
        return None
    batches = make_batches(
        split.domain_examples,
        model.vocab,
        model.spec.t_x,
        batch_size,
        rng=None,
        tasks=(),
        n_domains=split.n_domains,
    )
    correct = 0
    total = 0
    for batch in batches:
        out = _forward(
            model, batch.ids, batch.mask, training=False, want_tasks=False, want_domain=True
        )
        pred = out.domain_logits.value.argmax(axis=1)
        truth = batch.domain_onehot.argmax(axis=1)
        correct += int(np.sum(pred == truth))
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


def lr_baseline(
    train_examples,
    test_examples,
    vocab,
    embedding,
    task,
    t_x,
    lr=1.0,
    max_epochs=500,
    tol=1e-6,
):
    """Binary logistic regression over mean token embeddings, trained by
    full-batch gradient descent until the loss moves less than `tol`."""
    train_examples = [ex for ex in train_examples if task in ex.labels]
    test_examples = [ex for ex in test_examples if task in ex.labels]
    x = mean_embedding_features(train_examples, vocab, embedding, t_x)
    y = np.array([ex.labels[task] for ex in train_examples], dtype=np.float64)
    w = np.zeros(x.shape[1])
    b = 0.0
    prev_loss = np.inf
    for _ in range(max_epochs):
        z = x @ w + b
        p = 1.0 / (1.0 + np.exp(-z))
        pc = np.clip(p, 1e-12, 1 - 1e-12)
        loss = -np.mean(y * np.log(pc) + (1 - y) * np.log(1 - pc))
        if abs(prev_loss - loss) < tol:
            break
        prev_loss = loss
        err = p - y
        w -= lr * (x.T @ err) / len(y)
        b -= lr * err.mean()

    xt = mean_embedding_features(test_examples, vocab, embedding, t_x)
    y_true = np.array([ex.labels[task] for ex in test_examples], dtype=int)
    y_pred = ((xt @ w + b) >= 0.0).astype(int)
    acc = float(np.mean(y_true == y_pred)) if y_true.size else 0.0
    f1, degenerate = binary_f1(y_true, y_pred)
    if degenerate:
        log.warning("degenerate F1 for LR baseline on task %r", task)
    return Metrics(
        per_task={task: TaskMetrics(accuracy=acc, f1=float(f1), n=int(y_true.size), degenerate=degenerate)}
    )
