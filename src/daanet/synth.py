"""Synthetic domain-shift corpora for the test and acceptance harness.

`synth_domains` builds a corpus of events that share the tokens which
determine the task labels but differ in per-event nuisance vocabulary,
optionally with event-specific shortcut tokens correlated with the
labels (spurious features that do not transfer across events).
"""

from __future__ import annotations

import numpy as np

from .data import Example, Vocab, tokenize
from .errors import ParameterError
from .layers import MODEL_DTYPE, EmbeddingMatrix
from . import autodiff as ad

FILLER_TOKENS = ["the", "and", "of", "in", "on", "at", "for", "with", "this", "near"]


def signal_token(task_idx, positive, j):
    polarity = "pos" if positive else "neg"
    return f"task{task_idx}_{polarity}_{j}"


def is_signal_token(token):
    return token.startswith("task") and ("_pos_" in token or "_neg_" in token)


def synth_domains(
    n_events=4,
    n_per_event=400,
    n_tasks=2,
    task_signal_tokens=6,
    domain_nuisance_tokens=30,
    noise_rate=0.0,
    nuisance_label_corr=0.0,
    shortcut_tokens=3,
    shortcut_occurrences=(1, 1),
    label_density=1.0,
    signal_occurrences=(1, 2),
    nuisance_mode="disjoint",
    nuisance_skew=0.8,
    min_len=8,
    max_len=14,
    seed=0,
):
    """Generate (examples, task_names).

    Per example: each task draws a fair-coin label and plants tokens from
    that task's positive or negative signal set (signal sets are disjoint
    across tasks and shared by all events). The rest of the sentence is
    filled with shared filler words and nuisance tokens.

    `nuisance_mode` controls the domain shift: "disjoint" gives every
    event its own nuisance vocabulary; "skewed" draws from one shared
    pool, with each event putting `nuisance_skew` of its mass on its own
    slice (so test-event nuisance stays in-vocabulary).

    `nuisance_label_corr` > 0 additionally plants, with that probability,
    an event-and-label-specific shortcut token per task: a feature that
    predicts the label within the event but does not transfer.
    `noise_rate` flips each recorded label after the text is generated.
    `label_density` < 1 drops each task's label independently with that
    probability (at least one label is always kept), mimicking per-task
    annotation sparsity.
    """
    if not 0.0 <= noise_rate < 0.5:
        raise ParameterError("noise rate must be in [0, 0.5)")
    if not 0.0 <= nuisance_label_corr <= 1.0:
        raise ParameterError("nuisance/label correlation must be in [0, 1]")
    if not 0.0 < label_density <= 1.0:
        raise ParameterError("label density must be in (0, 1]")
    if nuisance_mode not in ("disjoint", "skewed"):
        raise ParameterError(f"unknown nuisance mode {nuisance_mode!r}")
    rng = np.random.default_rng([seed, 0])
    # separate streams so corpora with different noise/density stay paired
    noise_rng = np.random.default_rng([seed, 1])
    density_rng = np.random.default_rng([seed, 2])
    task_names = tuple(f"task{k}" for k in range(n_tasks))
    signal = {
        (k, pos): [signal_token(k, pos, j) for j in range(task_signal_tokens)]
        for k in range(n_tasks)
        for pos in (True, False)
    }
    if nuisance_mode == "disjoint":
        nuisance_pools = {
            e: [f"event{e}_nui_{j}" for j in range(domain_nuisance_tokens)]
            for e in range(n_events)
        }
        nuisance_probs = {e: None for e in range(n_events)}
    else:
        shared = [f"nui_{j}" for j in range(domain_nuisance_tokens * n_events)]
        nuisance_pools = {e: shared for e in range(n_events)}
        nuisance_probs = {}
        for e in range(n_events):
            p = np.full(len(shared), (1.0 - nuisance_skew) / len(shared))
            own = slice(e * domain_nuisance_tokens, (e + 1) * domain_nuisance_tokens)
            p[own] += nuisance_skew / domain_nuisance_tokens
            nuisance_probs[e] = p / p.sum()
    shortcut = {
        (e, k, pos): [f"event{e}_task{k}_{'hi' if pos else 'lo'}_{j}" for j in range(shortcut_tokens)]
        for e in range(n_events)
        for k in range(n_tasks)
        for pos in (True, False)
    }

    examples = []
    for e in range(n_events):
        event_id = f"event{e}"
        for _ in range(n_per_event):
            true_labels = {k: int(rng.random() < 0.5) for k in range(n_tasks)}
            tokens = []
            for k in range(n_tasks):
                pool = signal[(k, bool(true_labels[k]))]
                lo, hi = signal_occurrences
                count = int(rng.integers(lo, hi + 1))
                tokens.extend(rng.choice(pool, size=count).tolist())
                if nuisance_label_corr > 0 and rng.random() < nuisance_label_corr:
                    sc_pool = shortcut[(e, k, bool(true_labels[k]))]
                    lo, hi = shortcut_occurrences
                    n_sc = int(rng.integers(lo, hi + 1))
                    tokens.extend(rng.choice(sc_pool, size=n_sc).tolist())
            n_fill = int(rng.integers(2, 4))
            tokens.extend(rng.choice(FILLER_TOKENS, size=n_fill).tolist())
            target_len = int(rng.integers(min_len, max_len + 1))
            while len(tokens) < target_len:
                tokens.append(str(rng.choice(nuisance_pools[e], p=nuisance_probs[e])))
            rng.shuffle(tokens)
            labels = {}
            for k, name in enumerate(task_names):
                y = true_labels[k]
                if noise_rng.random() < noise_rate:
                    y = 1 - y
                labels[name] = y
            if label_density < 1.0:
                kept = [t for t in task_names if density_rng.random() < label_density]
                if not kept:
                    kept = [task_names[int(density_rng.integers(0, n_tasks))]]
                labels = {t: labels[t] for t in kept}
            text = " ".join(tokens)
            examples.append(
                Example(event_id=event_id, text=text, tokens=tokenize(text), labels=labels)
            )
    return examples, list(task_names)


def synth_order_corpus(n_events=2, n_per_event=200, n_fillers=20, seed=0):
    """Corpus whose label depends only on token order: both marker tokens
    appear in every sentence, label 1 iff the first marker precedes the
    second, so a bag-of-embeddings model carries no signal."""
    rng = np.random.default_rng(seed)
    fillers = [f"pad_{j}" for j in range(n_fillers)]
    examples = []
    for e in range(n_events):
        event_id = f"event{e}"
        for _ in range(n_per_event):
            y = int(rng.random() < 0.5)
            first, second = ("marker_a", "marker_b") if y == 1 else ("marker_b", "marker_a")
            chunks = [rng.choice(fillers, size=int(rng.integers(1, 4))).tolist() for _ in range(3)]
            tokens = chunks[0] + [first] + chunks[1] + [second] + chunks[2]
            text = " ".join(tokens)
            examples.append(
                Example(event_id=event_id, text=text, tokens=tokenize(text), labels={"order": y})
            )
    return examples, ["order"]


def synth_separable_embedding_corpus(
    n_train=200, n_test=100, dim=16, separation=4.0, words_per_class=10, seed=0
):
    """Two linearly separable Gaussian word clusters in embedding space.

    Returns (train_examples, test_examples, vocab, embedding); examples
    of class 1 use only cluster-1 words, so mean-of-embeddings features
    are separable by construction.
    """
    rng = np.random.default_rng(seed)
    direction = np.ones(dim) / np.sqrt(dim)
    pos_words = [f"pos_w{j}" for j in range(words_per_class)]
    neg_words = [f"neg_w{j}" for j in range(words_per_class)]
    vocab = Vocab(pos_words + neg_words)
    table = np.zeros((len(vocab), dim), dtype=MODEL_DTYPE)
    for j, word in enumerate(pos_words):
        table[vocab.id_of(word)] = separation / 2 * direction + 0.5 * rng.normal(size=dim)
    for j, word in enumerate(neg_words):
        table[vocab.id_of(word)] = -separation / 2 * direction + 0.5 * rng.normal(size=dim)
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

    return make(n_train), make(n_test), vocab, embedding


def nuisance_unigram_tv_distance(examples, event_a, event_b):
    """Total-variation distance between two events' nuisance unigram
    distributions (tokens that are not shared signal/filler vocabulary)."""

    def dist(event):
        counts = {}
        total = 0
        for ex in examples:
            if ex.event_id != event:
                continue
            for tok in ex.tokens:
                if is_signal_token(tok) or tok in FILLER_TOKENS:
                    continue
                counts[tok] = counts.get(tok, 0) + 1
                total += 1
        return {t: c / total for t, c in counts.items()} if total else {}

    pa, pb = dist(event_a), dist(event_b)
    support = set(pa) | set(pb)
    return 0.5 * sum(abs(pa.get(t, 0.0) - pb.get(t, 0.0)) for t in support)
