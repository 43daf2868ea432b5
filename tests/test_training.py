import ast
import dataclasses
import math
import sys
import threading

import numpy as np
import pytest
from conftest import (
    asum,
    make_micro_batch,
    make_micro_model,
    package_trees,
    synth_separable_embedding_corpus,
    to_float64,
)

from daanet import autodiff as ad
from daanet import models, training
from daanet.data import Example, build_vocab, leave_one_out_split
from daanet.errors import ContractError, NumericalAbort, ParameterError
from daanet.models import (
    ModelSpec,
    ParamSlot,
    bce_loss,
    build_model,
    domain_cce_loss,
    mt_daan_loss,
)
from daanet.synth import synth_domains
from daanet.training import (
    Adam,
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


class FullTableAdam(Adam):
    """Reference Adam: moments over every row of every slot, out-of-place
    arithmetic, and locked rows skipped only when the update is applied."""

    def __init__(self, slots, **kwargs):
        super().__init__(slots, **kwargs)
        self.m = [np.zeros_like(s.var.value) for s in self.slots]
        self.v = [np.zeros_like(s.var.value) for s in self.slots]

    def step(self):
        self.t += 1
        correct1 = 1.0 - self.beta1**self.t
        correct2 = 1.0 - self.beta2**self.t
        for i, s in enumerate(self.slots):
            g = 0.0 if s.var._grad is None else s.var._grad
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * (g * g)
            delta = self.lr * (self.m[i] / correct1) / (np.sqrt(self.v[i] / correct2) + self.eps)
            rows = ... if s.update_mask is None else s.update_mask[:, 0] != 0
            s.var.value[rows] -= delta[rows]


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
        opt = Adam([slot(w)], lr=lr)
        for _ in range(3):
            with ad.Tape() as tape:
                diff = ad.affine(ad.Var(np.ones((1, 1))), ad.Var(-b[:, None]), w)  # [w - b]
                loss = asum(ad.mul(ad.mul(diff, diff), a))
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
        opt = Adam([ParamSlot("table", w, mask)], lr=lr)
        assert opt.m[0].shape == (0, d)  # no row is active before a gradient
        for t in range(6):
            w.add_grad(grads[t])
            opt.step()
            opt.zero_grad()
        assert opt.m[0].shape == (np.count_nonzero(~locked), d)
        assert np.array_equal(w.value, ref)
        assert np.array_equal(w.value[locked], w0[locked])
        assert not np.array_equal(w.value[2], w0[2])  # momentum carried it on

    def test_active_rows_match_full_table_reference_bit_for_bit(self):
        rng = np.random.default_rng(37)
        rows, d = 10, 4
        locked = np.zeros(rows, dtype=bool)
        locked[[0, 3, 6]] = True
        mask = (~locked).astype(np.float64)[:, None]
        w0 = rng.normal(size=(2, rows, d)).astype(np.float32)
        # per step, the gather_rows calls on table 0, each its own backward
        # call, and each the true gradient of its rows, locked or not; rows
        # first touched at steps 1, 2 and 4, unlocked row 8 never, and
        # locked rows 3 and 6 at steps 3 and 2. Step 2 gathers row 5 three
        # times, so its grad_rows() repeat ids.
        plan = [
            [[1, 2]],
            [[2, 4, 5], [5, 6, 7], [5]],
            [[3, 4]],
            [[9]],
            [],
            [[1]],
        ]
        weights = rng.normal(size=(len(plan), 3, 3, d)).astype(np.float32)
        dense = rng.normal(size=(rows, d)).astype(np.float32)

        def run(opt_class):
            tables = [ad.Var(w.copy()) for w in w0]
            opt = opt_class(
                [ParamSlot(f"table{k}", t, mask) for k, t in enumerate(tables)], lr=0.05
            )
            for step, calls in enumerate(plan):
                for c, ids in enumerate(calls):
                    with ad.Tape() as tape:
                        out = ad.gather_rows(tables[0], np.array(ids))
                        ad.backward(tape, asum(ad.mul(out, weights[step, c, : len(ids)])))
                if step == 1:  # table 1: rows 2 and 5, then one dense gradient
                    with ad.Tape() as tape:
                        out = ad.gather_rows(tables[1], np.array([2, 5]))
                        ad.backward(tape, asum(ad.mul(out, weights[step, 0, :2])))
                if step == 2:
                    tables[1].add_grad(dense)
                opt.step()
                opt.zero_grad()
            return tables

        got, ref = run(Adam), run(FullTableAdam)
        for g, r in zip(got, ref):
            assert g.value.dtype == np.float32
            assert g.value.tobytes() == r.value.tobytes()
        frozen = locked.copy()
        frozen[8] = True  # never reached
        assert np.array_equal(got[0].value[frozen], w0[0][frozen])
        assert not np.array_equal(got[0].value[2], w0[0][2])  # momentum carried it on
        assert np.array_equal(got[1].value[locked], w0[1][locked])

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
            task_losses, _, domain_loss = training._batch_losses(
                model, batch, rng=np.random.default_rng(3), domain_batch=batch
            )
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


class TestJointStep:
    def test_matches_two_pass_reference(self):
        # a training step sends its task and domain batches, of different
        # sizes, through one encoder pass; two single-batch passes on one
        # tape are the reference, with the same dropout draws in float64
        model = make_micro_model(m=2, adversarial=True, n_domains=3, dropout=0.3, seed=5)
        to_float64(slot.var for slot in model.parameters())
        batch = make_micro_batch(model, n=4, seed=5)
        domain_batch = make_micro_batch(model, n=6, seed=6, with_domain=True)
        spec = model.spec

        def joint(rng):
            task_losses, _, domain_loss = training._batch_losses(
                model, batch, rng=rng, domain_batch=domain_batch
            )
            return task_losses, domain_loss

        def two_pass(rng):
            out = models._forward(model, batch.ids, batch.mask, rng=rng)
            dout = models._forward(model, domain_batch.ids, domain_batch.mask, rng=rng, n_task=0)
            task_losses = [
                bce_loss(z, *batch.labels[t]) for z, t in zip(out.task_logits, spec.task_names)
            ]
            return task_losses, domain_cce_loss(dout.domain_logits, domain_batch.domain)

        def step(losses):
            for slot in model.parameters():
                slot.var.zero_grad()
            rng = np.random.default_rng(7)
            with ad.Tape() as tape:
                task_losses, domain_loss = losses(rng)
                total = mt_daan_loss(task_losses, spec.w_tasks, domain_loss, spec.w_domain)
                ad.backward(tape, total)
            encoder_nodes = sum(model.encoder.fwd.w in parents for _, parents, _ in tape.nodes)
            grads = [slot.var.grad.copy() for slot in model.parameters()]
            return float(total.value), encoder_nodes, grads, rng.bit_generator.state

        loss, nodes, grads, state = step(joint)
        ref_loss, ref_nodes, ref_grads, ref_state = step(two_pass)
        assert (nodes, ref_nodes) == (1, 2)
        assert abs(loss - ref_loss) <= 1e-12
        for slot, g, ref in zip(model.parameters(), grads, ref_grads):
            assert np.any(ref) and np.max(np.abs(g - ref)) <= 1e-12, slot.name
        assert state == ref_state


class TestPatience:
    """`train` stops after `patience` epochs in a row without a strictly
    lower validation monitor, and restores the best epoch. The monitor is
    scripted here; the model trains for real."""

    @staticmethod
    def run(monkeypatch, monitors, patience):
        split, vocab, tasks = tiny_split(n_events=3, per_event=12)
        scripted = iter(monitors)
        monkeypatch.setattr(training, "_validation_losses", lambda *args: (next(scripted), {}))
        model = build_model(tiny_spec(vocab, tasks), vocab, seed=0)
        cfg = TrainConfig(max_epochs=len(monitors), patience=patience, batch_size=16)
        history = train(model, split, cfg)
        assert history.val_loss == monitors[: len(history.val_loss)]
        return len(history.val_loss), history.best_epoch

    def test_worsening_from_epoch_two_stops_at_five(self, monkeypatch):
        monitors = [1.0, 0.8, 0.9, 1.0, 1.1, 0.1, 0.1]
        assert self.run(monkeypatch, monitors, patience=3) == (5, 2)

    def test_recovery_resets_patience(self, monkeypatch):
        monitors = [1.0, 0.9, 0.95, 0.85, 0.9, 0.95, 0.1]
        assert self.run(monkeypatch, monitors, patience=2) == (6, 4)

    def test_equal_monitor_is_no_improvement(self, monkeypatch):
        monitors = [1.0, 0.9, 0.9, 0.9, 0.1]
        assert self.run(monkeypatch, monitors, patience=2) == (4, 2)


class TestEpochs:
    def test_yields_each_epoch_without_gradient_buffers_as_train_records_it(self):
        # patience = max_epochs - 1, so train runs every epoch
        split, vocab, tasks = tiny_split()
        spec = tiny_spec(vocab, tasks, adversarial=True, n_domains=split.n_domains, dropout=0.2)
        cfg = TrainConfig(max_epochs=3, patience=2, batch_size=16, seed=6)
        model = build_model(spec, vocab, seed=6)
        records, states = [], []
        for record in training._epochs(model, split, cfg):
            for slot in model.parameters():
                assert slot.var._grad is None and slot.var._spare is None, slot.name
            records.append(record)
            states.append([slot.var.value.tobytes() for slot in model.parameters()])

        trained = build_model(spec, vocab, seed=6)
        history = train(trained, split, cfg)
        assert [r.epoch for r in records] == [1, 2, 3]
        assert [r.train_loss for r in records] == history.train_loss
        assert [r.val_loss for r in records] == history.val_loss
        assert [r.domain_loss for r in records] == history.domain_loss
        best = history.best_epoch
        assert history.val_loss[best - 1] == min(history.val_loss)
        assert [slot.var.value.tobytes() for slot in trained.parameters()] == states[best - 1]


def test_one_epoch_loop():
    # every backward pass and every optimizer in the package sits in
    # training._epochs, so train and any later caller that acts between
    # epochs consume that one loop
    callers = set()
    for path, tree in package_trees().items():

        def visit(node, where):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                where = node.name
            if isinstance(node, ast.Call):
                fn = node.func
                called = fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", None)
                if called in {"backward", "Adam"}:
                    callers.add((path.stem, where, called))
            for child in ast.iter_child_nodes(node):
                visit(child, where)

        visit(tree, None)
    assert callers == {("training", "_epochs", "backward"), ("training", "_epochs", "Adam")}


class TestTrainConfig:
    def test_patience_must_be_less_than_epochs(self):
        with pytest.raises(ParameterError):
            TrainConfig(max_epochs=3, patience=3)

    def test_val_split_range(self):
        with pytest.raises(ParameterError):
            TrainConfig(val_split=0.0)

    @pytest.mark.parametrize("rate", [math.nan, math.inf, -math.inf])
    def test_non_finite_learning_rate_rejected(self, rate):
        with pytest.raises(ParameterError):
            TrainConfig(learning_rate=rate)

    @pytest.mark.parametrize("field", ["max_epochs", "patience", "batch_size", "seed"])
    @pytest.mark.parametrize(
        "value", [2.5, 2.0, "2", True], ids=["fraction", "float", "str", "bool"]
    )
    def test_non_integer_field_rejected(self, field, value):
        fields = {"max_epochs": 5, "patience": 2, field: value}
        with pytest.raises(ParameterError, match=f"{field}="):
            TrainConfig(**fields)

    def test_negative_seed_rejected(self):
        with pytest.raises(ParameterError, match="seed"):
            TrainConfig(seed=-1)

    @pytest.mark.parametrize("field", ["learning_rate", "val_split"])
    @pytest.mark.parametrize("value", ["0.1", True, None], ids=["str", "bool", "none"])
    def test_non_real_rate_rejected(self, field, value):
        with pytest.raises(ParameterError, match=f"{field}="):
            TrainConfig(**{field: value})

    def test_numpy_integers_accepted(self):
        cfg = TrainConfig(max_epochs=np.int64(5), batch_size=np.int32(8), seed=np.int64(3))
        assert (cfg.max_epochs, cfg.batch_size, cfg.seed) == (5, 8, 3)


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

    def test_domain_count_mismatch_rejected(self, monkeypatch):
        # 4 source events against a 2-output domain branch, caught before
        # any forward pass
        split, vocab, tasks = tiny_split(n_events=5, per_event=12)
        model = build_model(tiny_spec(vocab, tasks, adversarial=True, n_domains=2), vocab)

        def no_forward(*args, **kwargs):
            raise AssertionError("forward pass reached")

        monkeypatch.setattr(training, "_forward", no_forward)
        cfg = TrainConfig(max_epochs=2, patience=1, batch_size=16)
        message = "2 outputs, but the split has 4 source events"
        with pytest.raises(ContractError, match=message):
            train(model, split, cfg)
        with pytest.raises(ContractError, match=message):
            domain_discriminator_accuracy(model, split)

    def test_domain_branch_without_domain_examples_rejected(self):
        split, vocab, tasks = tiny_split()
        split = dataclasses.replace(split, domain_examples=[])
        spec = tiny_spec(vocab, tasks, adversarial=True, n_domains=split.n_domains)
        cfg = TrainConfig(max_epochs=2, patience=1, batch_size=16)
        with pytest.raises(ContractError, match="no domain examples"):
            train(build_model(spec, vocab), split, cfg)

    def test_nan_loss_aborts_with_diagnostics(self):
        split, vocab, tasks = tiny_split()
        model = build_model(tiny_spec(vocab, tasks), vocab, seed=2)
        model.embedding.table.value[2, 0] = np.nan
        cfg = TrainConfig(max_epochs=2, patience=1, batch_size=16, seed=2)
        with pytest.raises(NumericalAbort) as excinfo:
            train(model, split, cfg)
        assert excinfo.value.epoch == 1

    def test_abort_after_a_step_leaves_no_gradient_buffer(self, monkeypatch):
        # the second batch's loss is NaN, after one step whose zero_grad
        # kept the embedding table's row-tracked buffer
        split, vocab, tasks = tiny_split()
        model = build_model(tiny_spec(vocab, tasks), vocab, seed=2)
        cfg = TrainConfig(max_epochs=2, patience=1, batch_size=16, seed=2)
        calls = []

        def nan_on_second_call(*args):
            total = mt_daan_loss(*args)
            calls.append(None)
            return ad.Var(np.nan) if len(calls) == 2 else total

        monkeypatch.setattr(training, "mt_daan_loss", nan_on_second_call)
        with pytest.raises(NumericalAbort) as excinfo:
            train(model, split, cfg)
        assert (excinfo.value.epoch, excinfo.value.batch) == (1, 1)
        for slot in model.parameters():
            assert slot.var._grad is None and slot.var._spare is None, slot.name

    def test_best_checkpoint_restored(self):
        split, vocab, tasks = tiny_split()
        model = build_model(tiny_spec(vocab, tasks), vocab, seed=3)
        cfg = TrainConfig(max_epochs=6, patience=2, batch_size=16, seed=3)
        history = train(model, split, cfg)
        best = history.best_epoch
        assert best >= 1
        assert history.val_loss[best - 1] == min(history.val_loss)

    def test_pretrained_rows_match_full_table_adam(self, monkeypatch):
        # most rows locked, as with pretrained vectors: the active-row
        # optimizer must train exactly as a full-table one
        split, vocab, tasks = tiny_split()
        spec = tiny_spec(vocab, tasks, dropout=0.2)
        cfg = TrainConfig(max_epochs=4, patience=3, batch_size=16, seed=7)
        from daanet.layers import random_embedding

        def run():
            emb = random_embedding(len(vocab), spec.d, np.random.default_rng(7))
            emb.locked[2::3] = True
            model = build_model(spec, vocab, embedding=emb, seed=7)
            return model, train(model, split, cfg)

        model, history = run()
        monkeypatch.setattr(training, "Adam", FullTableAdam)
        ref_model, ref_history = run()
        assert history == ref_history
        for slot, ref in zip(model.parameters(), ref_model.parameters()):
            assert slot.var.value.tobytes() == ref.var.value.tobytes(), slot.name
            assert slot.var._grad is None and slot.var._spare is None, slot.name

    def test_locked_rows_unchanged_after_training(self):
        split, vocab, tasks = tiny_split()
        spec = tiny_spec(vocab, tasks)
        rng = np.random.default_rng(0)
        from daanet.layers import random_embedding

        emb = random_embedding(len(vocab), spec.d, rng)
        emb.locked[5] = True
        emb.locked[9] = True
        frozen_before = emb.table.value[[0, 5, 9]].copy()
        model = build_model(spec, vocab, embedding=emb, seed=4)
        train(model, split, TrainConfig(max_epochs=3, patience=2, batch_size=16, seed=4))
        assert np.array_equal(model.embedding.table.value[[0, 5, 9]], frozen_before)


class TestCheckpoint:
    """The best-epoch checkpoint copies only what training can change and
    is written back into the live arrays."""

    # at this seed and rate, validation improves at epochs 1, 2, 4 and 5,
    # and training stops at epoch 7, so the restore moves parameters
    cfg = TrainConfig(max_epochs=8, patience=2, batch_size=16, seed=1, learning_rate=0.02)

    @staticmethod
    def locked_model(vocab, tasks):
        # three rows in four locked, as with pretrained vectors
        from daanet.layers import random_embedding

        spec = tiny_spec(vocab, tasks, dropout=0.2)
        emb = random_embedding(len(vocab), spec.d, np.random.default_rng(1))
        emb.locked[np.arange(len(vocab)) % 4 != 1] = True
        return build_model(spec, vocab, embedding=emb, seed=1)

    def test_restore_matches_full_copy_reference(self, monkeypatch):
        split, vocab, tasks = tiny_split()
        model = self.locked_model(vocab, tasks)
        history = train(model, split, self.cfg)
        assert 1 < history.best_epoch < len(history.val_loss)

        def full_snapshot(model):
            return [(slot.var, slot.var.value.copy()) for slot in model.parameters()]

        def full_restore(snapshot):
            for var, saved in snapshot:
                var.value = saved.copy()

        monkeypatch.setattr(training, "_snapshot", full_snapshot)
        monkeypatch.setattr(training, "_restore", full_restore)
        ref_model = self.locked_model(vocab, tasks)
        assert train(ref_model, split, self.cfg) == history
        for slot, ref in zip(model.parameters(), ref_model.parameters()):
            assert slot.var.value.tobytes() == ref.var.value.tobytes(), slot.name

    def test_holds_the_trainable_rows_and_restores_in_place(self, monkeypatch):
        split, vocab, tasks = tiny_split()
        model = self.locked_model(vocab, tasks)
        slots = model.parameters()
        arrays = [slot.var.value for slot in slots]
        table = model.embedding.table.value
        unlocked = np.count_nonzero(~model.embedding.locked)
        assert unlocked < table.shape[0] // 3
        trainable = unlocked * table.shape[1] * table.itemsize
        trainable += sum(slot.var.value.nbytes for slot in slots[1:])

        events = []
        snapshot, validation_losses = training._snapshot, training._validation_losses

        def spy_snapshot(model):
            events.append(snapshot(model))
            return events[-1]

        def spy_validation_losses(*args):
            events.append("validate")
            return validation_losses(*args)

        monkeypatch.setattr(training, "_snapshot", spy_snapshot)
        monkeypatch.setattr(training, "_validation_losses", spy_validation_losses)
        history = train(model, split, self.cfg)

        # no snapshot before epoch 1, then one after each improving validation
        expected = []
        for epoch, loss in enumerate(history.val_loss):
            expected.append("validate")
            if loss < min(history.val_loss[:epoch], default=math.inf):
                expected.append("snapshot")
        assert [e if e == "validate" else "snapshot" for e in events] == expected
        for taken in events:
            if taken != "validate":
                assert sum(saved.nbytes for _, _, saved in taken) == trainable
        for slot, array in zip(model.parameters(), arrays):
            assert slot.var.value is array, slot.name


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


class TestScratchRule:
    """Buffers reused by no-tape passes (`autodiff.scratch`) never leak into
    a returned value, another thread, or a taped step."""

    def test_no_tape_outputs_survive_a_second_call(self):
        model = make_micro_model(m=2, adversarial=True, n_domains=3, seed=1)
        first = make_micro_batch(model, n=6, seed=1, with_domain=True)
        second = make_micro_batch(model, n=6, seed=2, with_domain=True)
        out = models._forward(model, first.ids, first.mask)
        outputs = out.task_logits + out.alphas
        kept = [v.value.copy() for v in outputs]
        again = models._forward(model, second.ids, second.mask).task_logits
        assert not np.array_equal(again[0].value, kept[0])
        for v, k in zip(outputs, kept):
            assert np.array_equal(v.value, k)

    def test_concurrent_evaluate_matches_sequential(self):
        # more threads than cores, switching often, each on its own examples
        split, vocab, tasks = tiny_split(per_event=60)
        model = build_model(tiny_spec(vocab, tasks), vocab, seed=6)
        parts = [split.test[k::3] for k in range(3)]
        expected = [evaluate(model, part, batch_size=4) for part in parts]
        assert expected[0] != expected[1]
        start = threading.Barrier(len(parts))
        got = [[] for _ in parts]

        def client(k):
            start.wait(timeout=60)
            for _ in range(8):
                got[k].append(evaluate(model, parts[k], batch_size=4))

        threads = [threading.Thread(target=client, args=(k,)) for k in range(len(parts))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert got == [[e] * 8 for e in expected]

    def test_taped_step_ignores_an_earlier_no_tape_pass(self):
        model = make_micro_model(m=2, adversarial=True, n_domains=3, dropout=0.3, seed=3)
        batch = make_micro_batch(model, n=4, seed=3, with_domain=True)
        larger = make_micro_batch(model, n=9, seed=4, with_domain=True)
        spec = model.spec

        def step_grads():
            for slot in model.parameters():
                slot.var.zero_grad()
            with ad.Tape() as tape:
                task_losses, _, domain_loss = training._batch_losses(
                    model, batch, rng=np.random.default_rng(3), domain_batch=batch
                )
                total = mt_daan_loss(task_losses, spec.w_tasks, domain_loss, spec.w_domain)
                ad.backward(tape, total)
            return [slot.var.grad.copy() for slot in model.parameters()]

        first = step_grads()
        training._batch_losses(model, larger, domain_batch=larger)  # no tape
        after = step_grads()
        for a, b in zip(first, after):
            assert np.array_equal(a, b)


class TestMetrics:
    def test_all_correct(self):
        f1, degenerate = binary_f1([1, 0, 1], [1, 0, 1])
        assert f1 == 1.0 and not degenerate

    def test_all_negative_predictions_without_positives_flags_degenerate(self):
        f1, degenerate = binary_f1([0, 0, 0], [0, 0, 0])
        assert f1 == 0.0 and degenerate

    @pytest.mark.parametrize(
        "y_true, y_pred",
        [([0, 0, 0], [0, 1, 0]), ([1, 0, 1], [0, 0, 0]), ([1, 0, 0], [0, 1, 1])],
        ids=["no positives present", "none predicted", "predicted but disjoint"],
    )
    def test_no_true_positive_scores_zero_and_flags_degenerate(self, y_true, y_pred):
        f1, degenerate = binary_f1(y_true, y_pred)
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

    def test_evaluate_same_metrics_at_any_batch_size(self):
        split, vocab, tasks = tiny_split(per_event=40)
        model = build_model(tiny_spec(vocab, tasks), vocab, seed=6)
        results = [evaluate(model, split.test, batch_size=size) for size in (1, 7, 256)]
        assert results[0].per_task[tasks[0]].n == len(split.test)
        assert results[1] == results[0] and results[2] == results[0]

    def test_evaluate_without_task_labels_raises(self):
        split, vocab, tasks = tiny_split(per_event=20)
        model = build_model(tiny_spec(vocab, tasks), vocab, seed=6)
        with pytest.raises(ContractError, match="no example carries a label"):
            evaluate(model, [])
        unlabeled = [Example(ex.event_id, ex.text, ex.tokens, {}) for ex in split.test]
        with pytest.raises(ContractError, match="no example carries a label"):
            evaluate(model, unlabeled)

    def test_evaluate_rejects_zero_batch_size(self):
        split, vocab, tasks = tiny_split(per_event=20)
        model = build_model(tiny_spec(vocab, tasks), vocab, seed=6)
        for examples in (split.test, []):
            with pytest.raises(ParameterError, match="batch size"):
                evaluate(model, examples, batch_size=0)

    def test_mean_accessors(self):
        from daanet.training import TaskMetrics

        metrics = Metrics(
            per_task={
                "a": TaskMetrics(accuracy=0.8, f1=0.7, n=10),
                "b": TaskMetrics(accuracy=0.6, f1=0.5, n=10),
            }
        )
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

    def test_no_labelled_training_example_rejected(self):
        train_ex, test_ex, vocab, emb = synth_separable_embedding_corpus(seed=3)
        with pytest.raises(ContractError, match="'other'"):
            lr_baseline(train_ex, test_ex, vocab, emb, "other", t_x=8)

    @pytest.mark.parametrize(
        "t_x, message",
        [(0, "must be at least 1, got t_x=0"), (2.5, "must be integers, got t_x=2.5")],
    )
    def test_bad_t_x_rejected(self, t_x, message):
        # t_x=0 averaged no tokens and scored the majority class; 2.5 raised a bare TypeError
        train_ex, test_ex, vocab, emb = synth_separable_embedding_corpus(seed=3)
        with pytest.raises(ParameterError, match=f"t_x {message}$"):
            lr_baseline(train_ex, test_ex, vocab, emb, "cluster", t_x=t_x)

    def test_empty_test_set_scores_zero_accuracy(self):
        train_ex, _, vocab, emb = synth_separable_embedding_corpus(seed=3)
        metrics = lr_baseline(train_ex, [], vocab, emb, "cluster", t_x=8).per_task["cluster"]
        assert (metrics.accuracy, metrics.f1, metrics.n, metrics.degenerate) == (0.0, 0.0, 0, True)

    def test_deterministic(self):
        train_ex, test_ex, vocab, emb = synth_separable_embedding_corpus(seed=2)
        m1 = lr_baseline(train_ex, test_ex, vocab, emb, "cluster", t_x=8)
        m2 = lr_baseline(train_ex, test_ex, vocab, emb, "cluster", t_x=8)
        assert m1.per_task["cluster"].accuracy == m2.per_task["cluster"].accuracy
