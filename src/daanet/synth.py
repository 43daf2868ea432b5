"""Synthetic domain-shift corpora for the test and acceptance harness.

`synth_domains` builds a corpus of events that share the tokens which
determine the task labels but differ in per-event nuisance vocabulary,
optionally with event-specific shortcut tokens correlated with the
labels (spurious features that do not transfer across events). Its
vocabulary sizes, token counts and sentence lengths are the module
constants `SIGNAL_TOKENS`, `SIGNAL_OCCURRENCES`, `NUISANCE_TOKENS`,
`NUISANCE_SKEW`, `SHORTCUT_TOKENS`, `SHORTCUT_OCCURRENCES`, `MIN_LEN` and
`MAX_LEN`; `synth_order_corpus` draws its fillers from `ORDER_FILLERS`
words.
"""

from __future__ import annotations

import numpy as np

from .data import Example, tokenize
from .errors import ParameterError

__all__ = ["synth_domains", "synth_order_corpus"]

FILLER_TOKENS = ["the", "and", "of", "in", "on", "at", "for", "with", "this", "near"]
SIGNAL_TOKENS = 6  # per task and polarity, shared by all events
SIGNAL_OCCURRENCES = (1, 2)  # (least, most) signal tokens planted per task
NUISANCE_TOKENS = 30  # per event, or per event's slice of the skewed pool
NUISANCE_SKEW = 0.8  # skewed mode: share of an event's nuisance mass on its own slice
SHORTCUT_TOKENS = 3  # per event, task and polarity
SHORTCUT_OCCURRENCES = (1, 1)  # (least, most) shortcut tokens planted per task
MIN_LEN = 8  # nuisance tokens fill each sentence up to a length in MIN_LEN..MAX_LEN
MAX_LEN = 14
ORDER_FILLERS = 20  # synth_order_corpus's filler words


def signal_token(task_idx, positive, j):
    polarity = "pos" if positive else "neg"
    return f"task{task_idx}_{polarity}_{j}"


def synth_domains(
    n_events=4,
    n_per_event=400,
    n_tasks=2,
    noise_rate=0.0,
    nuisance_label_corr=0.0,
    label_density=1.0,
    nuisance_mode="disjoint",
    seed=0,
):
    """Generate (examples, task_names).

    Per example: each task draws a fair-coin label and plants tokens from
    that task's positive or negative signal set (signal sets are disjoint
    across tasks and shared by all events). The rest of the sentence is
    filled with shared filler words and nuisance tokens.

    `nuisance_mode` controls the domain shift: "disjoint" gives every
    event its own nuisance vocabulary; "skewed" draws from one shared
    pool, with each event putting `NUISANCE_SKEW` of its mass on its own
    slice (so test-event nuisance stays in-vocabulary).

    `nuisance_label_corr` > 0 additionally plants, with that probability,
    an event-and-label-specific shortcut token per task: a feature that
    predicts the label within the event but does not transfer.
    `noise_rate` flips each recorded label after the text is generated.
    `label_density` < 1 keeps each task's label independently with that
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
        (k, pos): [signal_token(k, pos, j) for j in range(SIGNAL_TOKENS)]
        for k in range(n_tasks)
        for pos in (True, False)
    }
    if nuisance_mode == "disjoint":
        nuisance_pools = {
            e: [f"event{e}_nui_{j}" for j in range(NUISANCE_TOKENS)]
            for e in range(n_events)
        }
        nuisance_probs = {e: None for e in range(n_events)}
    else:
        shared = [f"nui_{j}" for j in range(NUISANCE_TOKENS * n_events)]
        nuisance_pools = {e: shared for e in range(n_events)}
        nuisance_probs = {}
        for e in range(n_events):
            p = np.full(len(shared), (1.0 - NUISANCE_SKEW) / len(shared))
            own = slice(e * NUISANCE_TOKENS, (e + 1) * NUISANCE_TOKENS)
            p[own] += NUISANCE_SKEW / NUISANCE_TOKENS
            nuisance_probs[e] = p / p.sum()
    shortcut = {
        (e, k, pos): [
            f"event{e}_task{k}_{'hi' if pos else 'lo'}_{j}" for j in range(SHORTCUT_TOKENS)
        ]
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
                lo, hi = SIGNAL_OCCURRENCES
                count = int(rng.integers(lo, hi + 1))
                tokens.extend(rng.choice(pool, size=count).tolist())
                if nuisance_label_corr > 0 and rng.random() < nuisance_label_corr:
                    sc_pool = shortcut[(e, k, bool(true_labels[k]))]
                    lo, hi = SHORTCUT_OCCURRENCES
                    n_sc = int(rng.integers(lo, hi + 1))
                    tokens.extend(rng.choice(sc_pool, size=n_sc).tolist())
            n_fill = int(rng.integers(2, 4))
            tokens.extend(rng.choice(FILLER_TOKENS, size=n_fill).tolist())
            target_len = int(rng.integers(MIN_LEN, MAX_LEN + 1))
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


def synth_order_corpus(n_events=2, n_per_event=200, seed=0):
    """Corpus whose label depends only on token order: both marker tokens
    appear in every sentence, label 1 iff the first marker precedes the
    second, so a bag-of-embeddings model carries no signal."""
    rng = np.random.default_rng(seed)
    fillers = [f"pad_{j}" for j in range(ORDER_FILLERS)]
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
