import numpy as np
import pytest

from daanet.data import build_vocab, write_corpus, read_corpus
from daanet.synth import (
    NUISANCE_SKEW,
    NUISANCE_TOKENS,
    synth_domains,
    synth_order_corpus,
)


def nuisance_tokens(examples, event):
    """The nuisance tokens of `event`'s texts, one per occurrence."""
    return [t for ex in examples if ex.event_id == event for t in ex.tokens if "nui_" in t]


class TestSynthDomains:
    def test_seed_determinism(self):
        a, _ = synth_domains(n_events=2, n_per_event=20, seed=7)
        b, _ = synth_domains(n_events=2, n_per_event=20, seed=7)
        assert [(x.event_id, x.text, x.labels) for x in a] == [
            (x.event_id, x.text, x.labels) for x in b
        ]
        c, _ = synth_domains(n_events=2, n_per_event=20, seed=8)
        assert [x.text for x in a] != [x.text for x in c]

    def test_noise_free_labels_linearly_separable_from_signal_bag(self):
        examples, tasks = synth_domains(n_events=1, n_per_event=150, noise_rate=0.0, seed=1)
        # perceptron over bag-of-signal-tokens must reach 100% within event
        vocab = sorted({t for ex in examples for t in ex.tokens if "_pos_" in t or "_neg_" in t})
        col = {t: i for i, t in enumerate(vocab)}
        for task in tasks:
            x = np.zeros((len(examples), len(vocab)))
            for i, ex in enumerate(examples):
                for tok in ex.tokens:
                    if tok in col:
                        x[i, col[tok]] += 1
            y = np.array([ex.labels[task] for ex in examples])
            w = np.zeros(len(vocab))
            b = 0.0
            for _ in range(50):
                errors = 0
                for xi, yi in zip(x, y):
                    pred = 1 if xi @ w + b > 0 else 0
                    if pred != yi:
                        delta = yi - pred
                        w += delta * xi
                        b += delta
                        errors += 1
                if errors == 0:
                    break
            preds = (x @ w + b > 0).astype(int)
            assert np.mean(preds == y) == 1.0

    def test_events_differ_in_nuisance_distribution(self):
        # "disjoint" mode: every event draws its nuisance from a pool of its own
        examples, _ = synth_domains(n_events=2, n_per_event=150, seed=2)
        pools = [set(nuisance_tokens(examples, f"event{e}")) for e in range(2)]
        for e, pool in enumerate(pools):
            assert pool and all(t.startswith(f"event{e}_nui_") for t in pool)
        assert not pools[0] & pools[1]

    def test_skewed_nuisance_shares_one_pool(self):
        # "skewed" mode: one shared pool, most of each event's mass on its own slice
        n_events = 4
        examples, _ = synth_domains(
            n_events=n_events, n_per_event=150, n_tasks=1, nuisance_mode="skewed", seed=0
        )
        own_share = NUISANCE_SKEW + (1.0 - NUISANCE_SKEW) / n_events
        for e in range(n_events):
            tokens = nuisance_tokens(examples, f"event{e}")
            slots = np.array([int(t.removeprefix("nui_")) for t in tokens])
            assert slots.min() >= 0 and slots.max() < NUISANCE_TOKENS * n_events
            own = (slots // NUISANCE_TOKENS) == e
            assert np.mean(own) == pytest.approx(own_share, abs=0.05)
            assert len(set(slots[~own] // NUISANCE_TOKENS)) == n_events - 1

    def test_label_density_drops_labels_and_keeps_one(self):
        density = 0.3
        full, tasks = synth_domains(n_events=2, n_per_event=300, n_tasks=2, seed=6)
        sparse, _ = synth_domains(
            n_events=2, n_per_event=300, n_tasks=2, label_density=density, seed=6
        )
        # the density draw has its own stream: texts and kept labels are unchanged
        assert [ex.text for ex in sparse] == [ex.text for ex in full]
        for a, b in zip(sparse, full):
            assert a.labels and a.labels == {t: b.labels[t] for t in a.labels}
        # each task is kept at `density`, or restored when neither task was kept
        kept_rate = density + (1.0 - density) ** 2 / len(tasks)
        for task in tasks:
            rate = np.mean([task in ex.labels for ex in sparse])
            assert rate == pytest.approx(kept_rate, abs=0.05)

    def test_noise_rate_flips_labels(self):
        clean, tasks = synth_domains(n_events=1, n_per_event=400, noise_rate=0.0, seed=3)
        noisy, _ = synth_domains(n_events=1, n_per_event=400, noise_rate=0.2, seed=3)
        flips = sum(
            a.labels[t] != b.labels[t] for a, b in zip(clean, noisy) for t in tasks
        )
        assert flips / (len(clean) * len(tasks)) == pytest.approx(0.2, abs=0.05)

    def test_shortcut_tokens_present_when_correlated(self):
        examples, _ = synth_domains(
            n_events=2, n_per_event=50, nuisance_label_corr=1.0, seed=4
        )
        assert any("_hi_" in t or "_lo_" in t for ex in examples for t in ex.tokens)
        examples, _ = synth_domains(n_events=2, n_per_event=50, nuisance_label_corr=0.0, seed=4)
        assert not any("_hi_" in t or "_lo_" in t for ex in examples for t in ex.tokens)

    def test_emits_readable_corpus_tsv(self, tmp_path):
        examples, tasks = synth_domains(n_events=2, n_per_event=10, seed=5)
        path = tmp_path / "synth.tsv"
        write_corpus(path, examples, tasks)
        loaded, loaded_tasks = read_corpus(path)
        assert loaded_tasks == tasks
        assert len(loaded) == len(examples)
        assert [e.labels for e in loaded] == [e.labels for e in examples]


class TestSynthOrderCorpus:
    def test_label_is_order_dependent_and_bag_uninformative(self):
        examples, tasks = synth_order_corpus(n_events=1, n_per_event=300, seed=0)
        assert tasks == ["order"]
        for ex in examples:
            ia = ex.tokens.index("marker_a")
            ib = ex.tokens.index("marker_b")
            assert ex.labels["order"] == int(ia < ib)
        # both markers occur exactly once per sentence in both classes
        for ex in examples:
            assert ex.tokens.count("marker_a") == 1
            assert ex.tokens.count("marker_b") == 1

    def test_classes_roughly_balanced(self):
        examples, _ = synth_order_corpus(n_events=1, n_per_event=500, seed=1)
        rate = np.mean([ex.labels["order"] for ex in examples])
        assert 0.4 < rate < 0.6
