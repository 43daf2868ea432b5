import numpy as np
import pytest
from conftest import make_micro_batch, make_micro_model

from daanet import autodiff as ad
from daanet.data import build_vocab, leave_one_out_split
from daanet.errors import NumericalAbort, ParameterError
from daanet.models import (
    ModelSpec,
    ParamSlot,
    bce_loss,
    build_model,
    domain_cce_loss,
    mt_daan_forward,
    mt_daan_loss,
)
from daanet.synth import synth_domains, synth_separable_embedding_corpus
from daanet.training import (
    Adam,
    EarlyStopper,
    Metrics,
    TrainConfig,
    binary_f1,
    domain_discriminator_accuracy,
    evaluate,
    lr_baseline,
    stratified_val_split,
    train,
)


def slot(var):
    return ParamSlot("p", var, None)


class TestAdam:
    def test_zero_gradient_leaves_parameters_t_increments(self):
        w = ad.Var(np.array([1.0, -2.0]))
        opt = Adam([slot(w)], lr=0.1)
        opt.step()
        assert opt.t == 1
        assert np.array_equal(w.value, [1.0, -2.0])

    def test_analytic_first_step(self):
        w = ad.Var(np.array(0.0))
        w.add_grad(np.array(1.0))
        opt = Adam([slot(w)], lr=0.1)
        opt.step()
        # bias correction makes m_hat = g and v_hat = g^2 at t=1
        assert float(w.value) == pytest.approx(-0.1, rel=1e-7)

    def test_three_step_trajectory_matches_reference(self):
        rng = np.random.default_rng(17)
        a = rng.uniform(0.5, 2.0, size=6)
        b = rng.normal(size=6)
        w0 = rng.normal(size=6)

        # independent reference implementation of the bias-corrected update
        lr, b1, b2, eps = 0.05, 0.9, 0.999, 1e-8
        ref = w0.copy()
        m = np.zeros(6)
        v = np.zeros(6)
        for t in range(1, 4):
            g = 2 * a * (ref - b)
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            mhat = m / (1 - b1**t)
            vhat = v / (1 - b2**t)
            ref = ref - lr * mhat / (np.sqrt(vhat) + eps)

        w = ad.Var(w0.copy())
        opt = Adam([slot(w)], lr=lr, beta1=b1, beta2=b2, eps=eps)
        for _ in range(3):
            with ad.Tape() as tape:
                diff = ad.add(w, -b)
                loss = ad.asum(ad.mul(ad.mul(diff, diff), a))
                ad.backward(tape, loss)
            opt.step()
            opt.zero_grad()
        assert np.max(np.abs(w.value - ref)) < 1e-12

    def test_locked_mask_suppresses_update(self):
        w = ad.Var(np.ones((2, 2)))
        mask = np.array([[1.0], [0.0]])
        opt = Adam([ParamSlot("w", w, mask)], lr=0.5)
        w.add_grad(np.ones((2, 2)))
        opt.step()
        assert np.array_equal(w.value[1], [1.0, 1.0])
        assert not np.array_equal(w.value[0], [1.0, 1.0])

    def test_masked_slot_matches_dense_reference_bit_for_bit(self):
        rng = np.random.default_rng(23)
        rows, d = 7, 3
        locked = np.array([True, False, False, True, False, False, True])
        mask = (~locked).astype(np.float64)[:, None]
        w0 = rng.normal(size=(rows, d))
        grads = rng.normal(size=(6, rows, d))
        grads[1:, 2] = 0.0  # unlocked row 2: a gradient at step 1 only
        grads[:, 5] = 0.0  # unlocked row 5: never a gradient
        assert np.all(grads[:, 3] != 0.0)  # locked row 3 gets a gradient

        # independent dense reference: moments over every row, step masked
        lr, b1, b2, eps = 0.05, 0.9, 0.999, 1e-8
        ref = w0.copy()
        m = np.zeros((rows, d))
        v = np.zeros((rows, d))
        for t in range(1, 7):
            g = grads[t - 1]
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * (g * g)
            ref = ref - lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps) * mask

        w = ad.Var(w0.copy())
        opt = Adam([ParamSlot("table", w, mask)], lr=lr, beta1=b1, beta2=b2, eps=eps)
        assert opt.m[0].shape == (np.count_nonzero(~locked), d)
        for t in range(6):
            w.add_grad(grads[t])
            opt.step()
            opt.zero_grad()
        assert np.array_equal(w.value, ref)
        assert np.array_equal(w.value[locked], w0[locked])
        assert not np.array_equal(w.value[2], w0[2])  # momentum carried it on

    @pytest.mark.parametrize(
        "mask",
        [np.array([[1.0], [0.5]]), np.array([1.0, 0.0]), np.ones((2, 2))],
        ids=["fractional", "vector", "wide"],
    )
    def test_bad_update_mask_rejected(self, mask):
        w = ad.Var(np.ones((2, 2)))
        with pytest.raises(ParameterError, match="update mask"):
            Adam([ParamSlot("w", w, mask)])


class TestFloat32Step:
    def test_adversarial_step_with_dropout_stays_float32(self):
        model = make_micro_model(m=2, adversarial=True, n_domains=3, dropout=0.3, seed=3)
        batch = make_micro_batch(model, n=4, seed=3, with_domain=True)
        spec = model.spec
        optimizer = Adam(model.parameters())
        with ad.Tape() as tape:
            logits, _, domain_logits = mt_daan_forward(
                model, batch, training=True, rng=np.random.default_rng(3)
            )
            task_losses = [bce_loss(z, *batch.labels[t]) for z, t in zip(logits, spec.task_names)]
            domain_loss = domain_cce_loss(domain_logits, batch.domain_onehot)
            total = mt_daan_loss(task_losses, spec.w_tasks, domain_loss, spec.w_domain)
            ad.backward(tape, total)
        f32 = np.dtype(np.float32)
        assert len(tape.nodes) > 20
        assert [out.value.dtype for out, _, _ in tape.nodes] == [f32] * len(tape.nodes)
        for slot in model.parameters():
            grad = slot.var._grad  # set by the backward pass, not allocated on read
            assert grad is not None and grad.dtype == f32, slot.name
        optimizer.step()
        for slot, m, v in zip(optimizer.slots, optimizer.m, optimizer.v):
            assert (slot.var.value.dtype, m.dtype, v.dtype) == (f32, f32, f32), slot.name


class TestEarlyStopper:
    def test_worsening_from_epoch_two_stops_at_five(self):
        stopper = EarlyStopper(patience=3)
        losses = {1: 1.0, 2: 0.8, 3: 0.9, 4: 1.0, 5: 1.1}
        outcome = {}
        for epoch in range(1, 6):
            outcome[epoch] = stopper.update(losses[epoch], epoch)
        assert outcome[2] == "improved"
        assert outcome[3] == "continue"
        assert outcome[4] == "continue"
        assert outcome[5] == "stop"
        assert stopper.best_epoch == 2

    def test_recovery_resets_patience(self):
        stopper = EarlyStopper(patience=2)
        seq = [1.0, 0.9, 0.95, 0.85, 0.9, 0.95]
        results = [stopper.update(loss, i + 1) for i, loss in enumerate(seq)]
        assert results == ["improved", "improved", "continue", "improved", "continue", "stop"]


class TestTrainConfig:
    def test_patience_must_be_less_than_epochs(self):
        with pytest.raises(ParameterError):
            TrainConfig(max_epochs=3, patience=3)

    def test_val_split_range(self):
        with pytest.raises(ParameterError):
            TrainConfig(val_split=0.0)


def tiny_split(n_events=3, per_event=30, seed=0, **kwargs):
    examples, tasks = synth_domains(
        n_events=n_events, n_per_event=per_event, n_tasks=1, seed=seed, **kwargs
    )
    split = leave_one_out_split(examples, "event0")
    vocab = build_vocab(split.train_labeled + split.domain_examples)
    return split, vocab, tasks


def tiny_spec(vocab_unused, tasks, adversarial=False, n_domains=0, dropout=0.0):
    return ModelSpec(
        t_x=12,
        d=12,
        h=8,
        task_names=tuple(tasks),
        adversarial=adversarial,
        n_domains=n_domains,
        lam=1.0,
        w_domain=0.25,
        dropout_rate=dropout,
        attn_size=8,
        head_hidden=6,
        domain_hidden=8,
    )


class TestTrainLoop:
    def test_same_seed_gives_identical_history(self):
        split, vocab, tasks = tiny_split()
        cfg = TrainConfig(max_epochs=4, patience=3, batch_size=16, seed=5)

        def run():
            model = build_model(tiny_spec(vocab, tasks), vocab, seed=5)
            return train(model, split, cfg)

        h1, h2 = run(), run()
        assert h1.train_loss == h2.train_loss
        assert h1.val_loss == h2.val_loss
        assert h1.best_epoch == h2.best_epoch

    def test_adversarial_training_runs_and_tracks_domain_loss(self):
        split, vocab, tasks = tiny_split()
        spec = tiny_spec(vocab, tasks, adversarial=True, n_domains=split.n_domains)
        model = build_model(spec, vocab, seed=1)
        cfg = TrainConfig(max_epochs=3, patience=2, batch_size=16, seed=1)
        history = train(model, split, cfg)
        assert len(history.domain_loss) == len(history.train_loss)
        acc = domain_discriminator_accuracy(model, split)
        assert 0.0 <= acc <= 1.0

    def test_nan_loss_aborts_with_diagnostics(self):
        split, vocab, tasks = tiny_split()
        model = build_model(tiny_spec(vocab, tasks), vocab, seed=2)
        model.embedding.table.value[2, 0] = np.nan
        cfg = TrainConfig(max_epochs=2, patience=1, batch_size=16, seed=2)
        with pytest.raises(NumericalAbort) as excinfo:
            train(model, split, cfg)
        assert excinfo.value.epoch == 1

    def test_best_checkpoint_restored(self):
        split, vocab, tasks = tiny_split()
        model = build_model(tiny_spec(vocab, tasks), vocab, seed=3)
        cfg = TrainConfig(max_epochs=6, patience=2, batch_size=16, seed=3)
        history = train(model, split, cfg)
        best = history.best_epoch
        assert best >= 1
        assert history.val_loss[best - 1] == min(history.val_loss)

    def test_locked_rows_unchanged_after_training(self):
        split, vocab, tasks = tiny_split()
        spec = tiny_spec(vocab, tasks)
        rng = np.random.default_rng(0)
        from daanet.layers import random_embedding

        emb = random_embedding(len(vocab), spec.d, rng)
        emb.locked[5] = True
        emb.locked[9] = True
        emb.__post_init__()
        frozen_before = emb.table.value[[0, 5, 9]].copy()
        model = build_model(spec, vocab, embedding=emb, seed=4)
        train(model, split, TrainConfig(max_epochs=3, patience=2, batch_size=16, seed=4))
        assert np.array_equal(model.embedding.table.value[[0, 5, 9]], frozen_before)


class TestStratifiedValSplit:
    def test_preserves_positive_rate(self):
        examples, _ = synth_domains(n_events=1, n_per_event=200, n_tasks=1, seed=3)
        rng = np.random.default_rng(0)
        train_ex, val_ex = stratified_val_split(examples, 0.15, rng)
        assert len(val_ex) == pytest.approx(30, abs=2)
        rate = lambda exs: np.mean([e.labels["task0"] for e in exs])
        assert rate(val_ex) == pytest.approx(rate(train_ex), abs=0.05)

    def test_partition(self):
        examples, _ = synth_domains(n_events=1, n_per_event=50, n_tasks=2, seed=4)
        train_ex, val_ex = stratified_val_split(examples, 0.2, np.random.default_rng(1))
        assert len(train_ex) + len(val_ex) == len(examples)
        ids = {id(e) for e in examples}
        assert {id(e) for e in train_ex} | {id(e) for e in val_ex} == ids


class TestMetrics:
    def test_all_correct(self):
        f1, degenerate = binary_f1([1, 0, 1], [1, 0, 1])
        assert f1 == 1.0 and not degenerate

    def test_all_negative_predictions_without_positives_flags_degenerate(self):
        f1, degenerate = binary_f1([0, 0, 0], [0, 0, 0])
        assert f1 == 0.0 and degenerate

    def test_confusion_matrix_oracle(self):
        rng = np.random.default_rng(11)
        y_true = rng.integers(0, 2, size=200)
        y_pred = rng.integers(0, 2, size=200)
        f1, _ = binary_f1(y_true, y_pred)
        tp = np.sum((y_true == 1) & (y_pred == 1))
        fp = np.sum((y_true == 0) & (y_pred == 1))
        fn = np.sum((y_true == 1) & (y_pred == 0))
        precision = tp / (tp + fp)
        recall = tp / (tp + fn)
        assert f1 == pytest.approx(2 * precision * recall / (precision + recall), abs=1e-12)

    def test_evaluate_invariant_to_ordering(self):
        split, vocab, tasks = tiny_split(per_event=20)
        model = build_model(tiny_spec(vocab, tasks), vocab, seed=6)
        m1 = evaluate(model, split.test)
        shuffled = list(split.test)
        np.random.default_rng(3).shuffle(shuffled)
        m2 = evaluate(model, shuffled)
        for task in tasks:
            assert m1.per_task[task].accuracy == m2.per_task[task].accuracy
            assert m1.per_task[task].f1 == m2.per_task[task].f1

    def test_evaluate_rejects_zero_batch_size(self):
        split, vocab, tasks = tiny_split(per_event=20)
        model = build_model(tiny_spec(vocab, tasks), vocab, seed=6)
        with pytest.raises(ParameterError, match="batch size"):
            evaluate(model, split.test, batch_size=0)

    def test_mean_accessors(self):
        from daanet.training import TaskMetrics

        metrics = Metrics(
            per_task={
                "a": TaskMetrics(accuracy=0.8, f1=0.7, n=10),
                "b": TaskMetrics(accuracy=0.6, f1=0.5, n=10),
            }
        )
        assert metrics.mean_accuracy() == pytest.approx(0.7)
        assert metrics.mean_f1() == pytest.approx(0.6)


class TestLrBaseline:
    def test_separable_clusters(self):
        train_ex, test_ex, vocab, emb = synth_separable_embedding_corpus(seed=0)
        metrics = lr_baseline(train_ex, test_ex, vocab, emb, "cluster", t_x=8)
        assert metrics.per_task["cluster"].accuracy >= 0.99

    def test_zero_features_predict_majority(self):
        train_ex, test_ex, vocab, emb = synth_separable_embedding_corpus(seed=1)
        emb.table.value[:] = 0.0
        majority = int(
            np.mean([e.labels["cluster"] for e in train_ex]) >= 0.5
        )
        metrics = lr_baseline(train_ex, test_ex, vocab, emb, "cluster", t_x=8)
        base_rate = np.mean([e.labels["cluster"] == majority for e in test_ex])
        assert metrics.per_task["cluster"].accuracy == pytest.approx(base_rate)

    def test_deterministic(self):
        train_ex, test_ex, vocab, emb = synth_separable_embedding_corpus(seed=2)
        m1 = lr_baseline(train_ex, test_ex, vocab, emb, "cluster", t_x=8)
        m2 = lr_baseline(train_ex, test_ex, vocab, emb, "cluster", t_x=8)
        assert m1.per_task["cluster"].accuracy == m2.per_task["cluster"].accuracy
