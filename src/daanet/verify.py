"""Gradient verification harness.

Builds a micro multi-task adversarial model (T_x=5, d=8, h=4, 3 tasks,
3 domains, dropout off), batches for it, and the full training loss of a
task batch and a domain batch, so that the loss gradient can be checked
against central finite differences over every parameter entry
(`autodiff.grad_check`).

Parameters are redrawn at a larger scale than training initialization:
at tiny training-scale activations the attention score bias has a
near-null gradient (softmax ignores uniform score shifts, so only tanh
curvature keeps it alive), which drowns in finite-difference noise. At
O(1) activations every path carries an informative derivative. The
redrawn parameters are float64, so the model built in float32 runs the
check in float64, where central differences at eps=1e-5 resolve.
"""

from __future__ import annotations

import numpy as np

from .data import Batch, Vocab
from .models import ModelSpec, build_model, mt_daan_loss
from .training import _batch_losses

VERIFY_SCALE = 1.2


def make_verification_model(m=3, adversarial=True, n_domains=3, seed=0, scale=VERIFY_SCALE):
    spec = ModelSpec(
        t_x=5,
        d=8,
        h=4,
        task_names=tuple(f"task{k}" for k in range(m)),
        adversarial=adversarial,
        n_domains=n_domains if adversarial else 0,
        lam=1.0,
        w_domain=0.25,
        dropout_rate=0.0,
        attn_size=4,
        head_hidden=6,
        domain_hidden=8,
    )
    vocab = Vocab([f"w{i}" for i in range(10)])
    model = build_model(spec, vocab, seed=seed)
    rng = np.random.default_rng([seed, 77])
    for slot in model.parameters():
        fresh = rng.uniform(-scale, scale, size=slot.var.value.shape)
        if slot.name == "embedding.table":
            fresh[0] = 0.0  # padding row stays zero
        slot.var.value = fresh
    return model


def make_verification_batch(model, n=6, seed=0):
    rng = np.random.default_rng([seed, 78])
    spec = model.spec
    ids = np.zeros((n, spec.t_x), dtype=np.int64)
    mask = np.zeros((n, spec.t_x))
    for r in range(n):
        length = int(rng.integers(2, spec.t_x + 1))
        ids[r, :length] = rng.integers(1, len(model.vocab), size=length)
        mask[r, :length] = 1.0
    labels = {
        task: (rng.integers(0, 2, size=n).astype(float), np.ones(n))
        for task in spec.task_names
    }
    onehot = None
    if spec.adversarial:
        onehot = np.zeros((n, spec.n_domains))
        for r in range(n):
            onehot[r, int(rng.integers(0, spec.n_domains))] = 1.0
    return Batch(ids=ids, mask=mask, labels=labels, domain_onehot=onehot)


def full_loss(model, batch, domain_batch, reverse_domain=False):
    """The complete multi-task adversarial training loss of one step, as
    `training.train` builds it: the task losses of `batch` plus, when the
    model has a domain branch, the domain loss of `domain_batch` (None
    otherwise), with both batches through the encoder in one joint pass.

    For gradient checking the reversal layer is bypassed by default:
    finite differences measure the true derivative, while the reversal
    deliberately propagates its negation into the shared encoder, so the
    two can only agree on the surrogate without the flip. The reversal
    edge itself has an exact contract (forward identity, backward equals
    -lam x upstream) and is verified separately.
    """
    task_losses, _, domain_term = _batch_losses(
        model, batch, domain_batch=domain_batch, reverse_domain=reverse_domain
    )
    spec = model.spec
    return mt_daan_loss(task_losses, spec.w_tasks, domain_term, spec.w_domain)
