import numpy as np
import pytest

from daanet import autodiff as ad
from daanet.data import Batch, Vocab
from daanet.models import ModelSpec, build_model


def asum(x):
    """Sum of every entry of a Var, recorded as one node: the scalar test
    losses are built with it. The model never sums a whole tensor, so it is
    not one of `autodiff`'s ops."""
    out = ad.Var(x.value.sum())
    tape = ad._tape()
    if tape is not None:
        tape.record(out, (x,), lambda g: x.add_grad(np.broadcast_to(g, x.value.shape)))
    return out


def micro_spec(m=1, adversarial=False, n_domains=0, dropout=0.0, lam=1.0, w_domain=0.25):
    return ModelSpec(
        t_x=5,
        d=8,
        h=4,
        task_names=tuple(f"task{k}" for k in range(m)),
        adversarial=adversarial,
        n_domains=n_domains,
        lam=lam,
        w_domain=w_domain,
        dropout_rate=dropout,
        attn_size=4,
        head_hidden=6,
        domain_hidden=8,
    )


def micro_vocab(n_tokens=10):
    return Vocab([f"w{i}" for i in range(n_tokens)])


def make_micro_model(m=1, adversarial=False, n_domains=0, seed=0, dropout=0.0, lam=1.0, w_domain=0.25):
    spec = micro_spec(m=m, adversarial=adversarial, n_domains=n_domains, dropout=dropout, lam=lam, w_domain=w_domain)
    return build_model(spec, micro_vocab(), seed=seed)


def to_float64(variables):
    """Recast Vars to float64 in place. Models and layers are built in
    float32; tests that pin float64 arithmetic (1e-12 comparisons, finite
    differences) cast the parameters with this first."""
    for var in variables:
        var.value = var.value.astype(np.float64)


def make_micro_batch(model, n=4, seed=0, with_domain=False):
    rng = np.random.default_rng(seed)
    spec = model.spec
    t_x = spec.t_x
    ids = np.zeros((n, t_x), dtype=np.int64)
    mask = np.zeros((n, t_x))
    for r in range(n):
        length = int(rng.integers(2, t_x + 1))
        ids[r, :length] = rng.integers(1, len(model.vocab), size=length)
        mask[r, :length] = 1.0
    labels = {
        task: (rng.integers(0, 2, size=n).astype(float), np.ones(n))
        for task in spec.task_names
    }
    domain = None
    if with_domain and spec.n_domains:
        domain = np.array([rng.integers(0, spec.n_domains) for _ in range(n)], dtype=np.int64)
    return Batch(ids=ids, mask=mask, labels=labels, domain=domain)


@pytest.fixture
def micro_model():
    return make_micro_model()
