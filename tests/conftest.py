import numpy as np
import pytest

from daanet.data import Batch, Vocab
from daanet.models import ModelSpec, build_model


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
    onehot = None
    if with_domain and spec.n_domains:
        onehot = np.zeros((n, spec.n_domains))
        for r in range(n):
            onehot[r, int(rng.integers(0, spec.n_domains))] = 1.0
    return Batch(ids=ids, mask=mask, labels=labels, domain_onehot=onehot)


@pytest.fixture
def micro_model():
    return make_micro_model()
