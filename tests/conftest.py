"""Helpers shared by the tests: layer parameters, micro models and
batches, the gradient check and the models it runs on, a corpus for the
logistic-regression baseline, and the parsed package for the structure
tests."""

import ast
from pathlib import Path

import numpy as np
import pytest

from daanet import autodiff as ad
from daanet.data import Batch, Example, Vocab, tokenize
from daanet.layers import (
    MODEL_DTYPE,
    AttentionHeadParams,
    BiLstmParams,
    DenseParams,
    EmbeddingMatrix,
    LstmParams,
    glorot_init,
    uniform_init,
)
from daanet.models import ModelSpec, build_model, mt_daan_loss
from daanet.training import _batch_losses

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "daanet"
GRAD_CHECK_EPS = 1e-5  # central-difference step; resolves in float64
VERIFY_SCALE = 1.2  # half-width of the verification models' parameter draw
# synth_separable_embedding_corpus: train and test sizes, embedding dim,
# distance between the two cluster centres, and words per cluster
SEPARABLE_N_TRAIN = 200
SEPARABLE_N_TEST = 100
SEPARABLE_DIM = 16
SEPARABLE_SEPARATION = 4.0
SEPARABLE_WORDS = 10


def asum(x):
    """Sum of every entry of a Var, recorded as one node: the scalar test
    losses are built with it. The model never sums a whole tensor, so it is
    not one of `autodiff`'s ops."""
    out = ad.Var(x.value.sum())
    tape = ad._tape()
    if tape is not None:
        tape.record(out, (x,), lambda g: x.add_grad(np.broadcast_to(g, x.value.shape)))
    return out


def init_bilstm(rng, input_dim, hidden):
    """Encoder parameters drawn from `rng` as `build_model` draws them:
    each direction's stacked gate weights uniform, its biases zero."""

    def direction():
        return LstmParams(
            w=ad.Var(uniform_init(rng, (4 * hidden, input_dim + hidden))),
            b=ad.Var(np.zeros(4 * hidden, MODEL_DTYPE)),
        )

    return BiLstmParams(fwd=direction(), bwd=direction())


def init_attention(rng, act_dim, score_dim):
    """Attention scorer parameters drawn from `rng` as `build_model` draws them."""
    return AttentionHeadParams(
        w=ad.Var(glorot_init(rng, (score_dim, act_dim))),
        b=ad.Var(np.zeros(score_dim, MODEL_DTYPE)),
        v=ad.Var(glorot_init(rng, (score_dim,))),
    )


def init_dense(rng, n_in, n_out):
    """Dense-layer parameters drawn from `rng` as `build_model` draws them."""
    return DenseParams(
        w=ad.Var(glorot_init(rng, (n_out, n_in))), b=ad.Var(np.zeros(n_out, MODEL_DTYPE))
    )


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


def grad_check(f, params):
    """Compare analytic gradients of the scalar function `f` against central
    finite differences (step `GRAD_CHECK_EPS`) over every entry of `params`.

    Returns the max over entries of |analytic - numeric| / max(1e-8,
    |analytic| + |numeric|). `f` must be deterministic (dropout off, fixed
    inputs) and rebuild its graph on every call.
    """
    for p in params:
        p.zero_grad()
    with ad.Tape() as tape:
        loss = f()
        ad.backward(tape, loss)
    analytic = [p.grad.copy() for p in params]
    for p in params:
        p.zero_grad()

    worst = 0.0
    for p, ga in zip(params, analytic):
        flat = p.value.reshape(-1)
        ga_flat = ga.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + GRAD_CHECK_EPS
            up = float(f().value)
            flat[i] = orig - GRAD_CHECK_EPS
            down = float(f().value)
            flat[i] = orig
            numeric = (up - down) / (2.0 * GRAD_CHECK_EPS)
            a = ga_flat[i]
            err = abs(a - numeric) / max(1e-8, abs(a) + abs(numeric))
            if err > worst:
                worst = err
    return worst


def make_verification_model(m=3, adversarial=True, n_domains=3, seed=0):
    """`make_micro_model` with every parameter redrawn in float64 from
    uniform(-VERIFY_SCALE, VERIFY_SCALE), the padding row kept zero, for
    `grad_check`; its batches are `make_micro_batch(model, n,
    seed=[seed, 78], with_domain=True)`.

    The draw is wider than training initialization: at tiny training-scale
    activations the attention score bias has a near-null gradient (softmax
    ignores uniform score shifts, so only tanh curvature keeps it alive),
    which drowns in finite-difference noise. At O(1) activations every path
    carries an informative derivative. The float64 parameters make the
    float32-built model compute in float64, where central differences at
    `GRAD_CHECK_EPS` resolve.
    """
    model = make_micro_model(m=m, adversarial=adversarial, n_domains=n_domains, seed=seed)
    rng = np.random.default_rng([seed, 77])
    for slot in model.parameters():
        fresh = rng.uniform(-VERIFY_SCALE, VERIFY_SCALE, size=slot.var.value.shape)
        if slot.name == "embedding.table":
            fresh[0] = 0.0  # padding row stays zero
        slot.var.value = fresh
    return model


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


def synth_separable_embedding_corpus(seed=0):
    """Two linearly separable Gaussian word clusters in embedding space.

    Returns (train_examples, test_examples, vocab, embedding); examples
    of class 1 use only cluster-1 words, so mean-of-embeddings features
    are separable by construction.
    """
    rng = np.random.default_rng(seed)
    dim = SEPARABLE_DIM
    direction = np.ones(dim) / np.sqrt(dim)
    pos_words = [f"pos_w{j}" for j in range(SEPARABLE_WORDS)]
    neg_words = [f"neg_w{j}" for j in range(SEPARABLE_WORDS)]
    vocab = Vocab(pos_words + neg_words)
    table = np.zeros((len(vocab), dim), dtype=MODEL_DTYPE)
    centre = SEPARABLE_SEPARATION / 2 * direction
    for word in pos_words:
        table[vocab.index[word]] = centre + 0.5 * rng.normal(size=dim)
    for word in neg_words:
        table[vocab.index[word]] = -centre + 0.5 * rng.normal(size=dim)
    locked = np.ones(len(vocab), dtype=bool)
    embedding = EmbeddingMatrix(table=ad.Var(table), locked=locked)

    def make(n):
        out = []
        for _ in range(n):
            y = int(rng.random() < 0.5)
            pool = pos_words if y == 1 else neg_words
            tokens = rng.choice(pool, size=int(rng.integers(3, 6))).tolist()
            text = " ".join(tokens)
            out.append(Example("blob", text, tokenize(text), {"cluster": y}))
        return out

    return make(SEPARABLE_N_TRAIN), make(SEPARABLE_N_TEST), vocab, embedding


def package_trees():
    """Every module of the package's source tree, parsed: {path: ast.Module}."""
    return {
        path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for path in sorted(PACKAGE.rglob("*.py"))
    }


def names_taken_from(module, trees):
    """The names that the modules of `trees` other than `module` (a module
    name such as "autodiff") take from it: imported by name, or read as an
    attribute of the module imported whole."""
    used = set()
    for path, tree in trees.items():
        if path.stem == module:
            continue
        aliases = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == module:
                used |= {alias.name for alias in node.names}
            elif isinstance(node, ast.ImportFrom):
                aliases |= {a.asname or a.name for a in node.names if a.name == module}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id in aliases:
                    used.add(node.attr)
    return used
