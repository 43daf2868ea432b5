import ast
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from conftest import (
    make_micro_batch,
    make_micro_model,
    micro_spec,
    micro_vocab,
    to_float64,
)

from daanet import autodiff as ad
from daanet import models, training
from daanet.errors import (
    ContractError,
    DataError,
    DegenerateMaskError,
    DimensionError,
    LabelError,
    ParameterError,
)
from daanet.models import (
    ModelSpec,
    bce_loss,
    build_model,
    covid_relevance,
    domain_cce_loss,
    load_model,
    mt_daan_loss,
    save_model,
)
from daanet.verify import full_loss, make_verification_batch, make_verification_model


def log_softmax(z):
    shifted = z - z.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def forward(model, batch, **kwargs):
    return models._forward(model, batch.ids, batch.mask, **kwargs)


def forward_both(model, batch, **kwargs):
    """One joint pass over `batch` stacked on itself: the task heads and the
    domain branch read the same examples."""
    return models._forward(
        model,
        np.concatenate([batch.ids, batch.ids]),
        np.concatenate([batch.mask, batch.mask]),
        n_task=batch.size,
        **kwargs,
    )


def loss_and_grad(loss_fn, logits, *args):
    z = ad.Var(logits)
    with ad.Tape() as tape:
        loss = loss_fn(z, *args)
        ad.backward(tape, loss)
    return float(loss.value), z.grad


class TestBceLoss:
    def test_half_probability_gives_ln2(self):
        # equal logits for both classes are a probability of 0.5
        loss = bce_loss(ad.Var([[0.0, 0.0]]), [1.0])
        assert abs(float(loss.value) - math.log(2)) < 1e-12

    def test_confidently_wrong_row_keeps_full_gradient(self):
        loss, grad = loss_and_grad(bce_loss, [[0.0, 40.0]], [0.0])
        assert loss == pytest.approx(40.0, rel=1e-12)
        assert np.allclose(grad, [[-1.0, 1.0]], rtol=0, atol=1e-12)

    def test_extreme_logits_stay_finite(self):
        loss, grad = loss_and_grad(bce_loss, [[1000.0, -1000.0], [-1000.0, 1000.0]], [1.0, 0.0])
        assert loss == pytest.approx(2000.0, rel=1e-12)
        assert np.allclose(grad, [[0.5, -0.5], [-0.5, 0.5]], rtol=0, atol=1e-12)

    def test_random_instance_matches_scalar_recomputation(self):
        rng = np.random.default_rng(5)
        z = rng.normal(scale=2.0, size=(10, 2))
        y = rng.integers(0, 2, size=10).astype(float)
        loss = float(bce_loss(ad.Var(z), y).value)
        # binary cross entropy on the logit difference
        p = 1.0 / (1.0 + np.exp(z[:, 0] - z[:, 1]))
        brute = -sum(
            yi * math.log(pi) + (1 - yi) * math.log(1 - pi) for pi, yi in zip(p, y)
        ) / len(y)
        assert abs(loss - brute) < 1e-12

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            bce_loss(ad.Var([[0.0, 0.0], [0.0, 0.0]]), [1.0])

    def test_presence_mask_drops_rows(self):
        z = ad.Var([[0.0, 0.0], [-1.0, 1.2]])
        loss = float(bce_loss(z, [1.0, 0.0], present=[1.0, 0.0]).value)
        assert abs(loss - math.log(2)) < 1e-12

    def test_all_absent_contributes_zero(self):
        loss = bce_loss(ad.Var([[0.0, 0.0], [-1.0, 1.2]]), [1.0, 0.0], present=[0.0, 0.0])
        assert float(loss.value) == 0.0


class TestDomainCceLoss:
    def test_uniform_over_four_domains_gives_ln4(self):
        y_hat = ad.Var(np.full((3, 4), 0.25))
        loss = float(domain_cce_loss(y_hat, np.array([2, 2, 2])).value)
        assert abs(loss - math.log(4)) < 1e-12

    def test_confidently_wrong_row_keeps_full_gradient(self):
        loss, grad = loss_and_grad(domain_cce_loss, [[0.0, 40.0]], np.array([0]))
        assert loss == pytest.approx(40.0, rel=1e-12)
        assert np.allclose(grad, [[-1.0, 1.0]], rtol=0, atol=1e-12)

    def test_extreme_logits_stay_finite(self):
        loss, grad = loss_and_grad(
            domain_cce_loss, [[-1000.0, 1000.0, 0.0], [1000.0, 0.0, -1000.0]], np.array([0, 2])
        )
        assert loss == pytest.approx(2000.0, rel=1e-12)
        assert np.allclose(grad, [[-0.5, 0.5, 0.0], [0.5, 0.0, -0.5]], rtol=0, atol=1e-12)

    def test_random_instance_matches_brute_force(self):
        rng = np.random.default_rng(6)
        z = rng.normal(scale=2.0, size=(6, 3))
        domains = np.array([rng.integers(0, 3) for _ in range(6)])
        loss = float(domain_cce_loss(ad.Var(z), domains).value)
        brute = -sum(log_softmax(z)[i, k] for i, k in enumerate(domains)) / 6
        assert abs(loss - brute) < 1e-12

    @pytest.mark.parametrize(
        "domains, error",
        [
            (np.array([1.0, 0.0]), LabelError),
            (np.array([True, False]), LabelError),
            (np.array([0, 2]), LabelError),
            (np.array([-1, 0]), LabelError),
            (np.array([[1, 0], [0, 1]]), DimensionError),
            (np.array([0, 1, 1]), DimensionError),
        ],
        ids=["float", "bool", "too_large", "negative", "one_hot_rows", "too_many"],
    )
    def test_bad_labels_rejected(self, domains, error):
        z = ad.Var(np.zeros((2, 2)))
        with pytest.raises(error):
            domain_cce_loss(z, domains)

    def test_empty_batch_rejected(self):
        with pytest.raises(DimensionError, match="empty batch"):
            domain_cce_loss(ad.Var(np.zeros((0, 3))), np.zeros(0, dtype=np.int64))


class TestStForward:
    def test_zero_output_weights_give_half_probability(self):
        # equal logits for both classes are a probability of 0.5
        model = make_micro_model()
        model.heads[0].out.w.value = np.zeros_like(model.heads[0].out.w.value)
        model.heads[0].out.b.value = np.zeros_like(model.heads[0].out.b.value)
        batch = make_micro_batch(model, n=6)
        out = forward(model, batch)
        logits, alpha = out.task_logits[0], out.alphas[0]
        assert out.domain_logits is None
        assert logits.value.shape == (6, 2)
        assert np.array_equal(logits.value[:, 0], logits.value[:, 1])
        assert alpha.value.shape == (6, 5)

    def test_duplicated_example_rows_identical(self):
        model = make_micro_model()
        batch = make_micro_batch(model, n=2)
        batch.ids[1] = batch.ids[0]
        batch.mask[1] = batch.mask[0]
        out = forward(model, batch)
        logits, alpha = out.task_logits[0], out.alphas[0]
        assert np.array_equal(logits.value[0], logits.value[1])
        assert np.array_equal(alpha.value[0], alpha.value[1])

    def test_t_x_mismatch_rejected(self):
        model = make_micro_model()
        batch = make_micro_batch(model)
        with pytest.raises(DimensionError, match="T_x=5"):
            models._forward(model, batch.ids[:, :4], batch.mask[:, :4])

    def test_dropout_only_with_rng(self):
        model = make_micro_model(dropout=0.3, seed=4)
        batch = make_micro_batch(model, n=6, seed=4)
        plain = forward(model, batch).task_logits[0].value
        dropped = forward(model, batch, rng=np.random.default_rng(0)).task_logits[0].value
        model.spec.dropout_rate = 0.0
        assert np.array_equal(plain, forward(model, batch).task_logits[0].value)
        assert not np.array_equal(plain, dropped)

    def test_domain_rows_need_a_domain_branch(self):
        model = make_micro_model()
        batch = make_micro_batch(model)
        with pytest.raises(ContractError, match="domain branch"):
            forward(model, batch, n_task=2)
        with pytest.raises(DimensionError, match="n_task=5"):
            forward(model, batch, n_task=5)

    def test_micro_loss_passes_grad_check(self):
        model = make_verification_model(m=1, adversarial=False, n_domains=0, seed=3)
        batch = make_verification_batch(model, n=3, seed=3)
        y, present = batch.labels["task0"]

        def f():
            return bce_loss(forward(model, batch).task_logits[0], y, present)

        params = [slot.var for slot in model.parameters()]
        assert ad.grad_check(f, params) < 1e-4


class TestStDaanLoss:
    """The ST-DAAN loss is `mt_daan_loss` with one unit-weight task."""

    def test_zero_weight_equals_task_loss(self):
        total = mt_daan_loss([ad.Var(0.7)], (1.0,), ad.Var(1.2), 0.0)
        assert float(total.value) == 0.7

    def test_arithmetic(self):
        total = mt_daan_loss([ad.Var(0.7)], (1.0,), ad.Var(1.2), 0.5)
        assert float(total.value) == pytest.approx(1.3, abs=1e-15)

    def test_negative_weight_rejected(self):
        with pytest.raises(ParameterError):
            mt_daan_loss([ad.Var(0.7)], (1.0,), ad.Var(1.2), -0.5)

    @pytest.mark.parametrize("weight", [math.nan, math.inf, -math.inf])
    def test_non_finite_weight_rejected(self, weight):
        with pytest.raises(ParameterError):
            mt_daan_loss([ad.Var(0.7)], (weight,))
        with pytest.raises(ParameterError):
            mt_daan_loss([ad.Var(0.7)], (1.0,), ad.Var(1.2), weight)

    def test_encoder_grad_decomposes_into_task_minus_domain(self):
        w_domain = 0.5
        model = make_micro_model(adversarial=True, n_domains=3, lam=1.0, w_domain=w_domain, seed=9)
        to_float64(slot.var for slot in model.parameters())
        batch = make_micro_batch(model, n=4, seed=9, with_domain=True)
        y, present = batch.labels["task0"]
        encoder_vars = [var for _, var in model.encoder.variables()]

        def run(pass_):
            for slot in model.parameters():
                slot.var.zero_grad()
            with ad.Tape() as tape:
                out = pass_()
                parts = []
                if out.task_logits:
                    parts.append(bce_loss(out.task_logits[0], y, present))
                if out.domain_logits is not None:
                    dl = domain_cce_loss(out.domain_logits, batch.domain)
                    parts.append(ad.mul(dl, w_domain) if not out.task_logits else dl)
                if len(parts) == 1:
                    loss = parts[0]
                else:
                    loss = mt_daan_loss([parts[0]], (1.0,), parts[1], w_domain)
                ad.backward(tape, loss)
            return [v.grad.copy() for v in encoder_vars]

        # the joint pass reads the batch twice: once for the heads, once
        # for the domain branch
        full = run(lambda: forward_both(model, batch))
        task_only = run(lambda: forward(model, batch))
        domain_only = run(lambda: forward(model, batch, n_task=0, reverse_domain=False))
        for g_full, g_task, g_dom in zip(full, task_only, domain_only):
            assert np.allclose(g_full, g_task - g_dom, atol=1e-12)


class TestMtDaanForward:
    def test_identical_heads_give_identical_outputs(self):
        model = make_micro_model(m=2, adversarial=True, n_domains=3)
        for name in ("attention", "hidden", "out"):
            src = getattr(model.heads[0], name)
            dst = getattr(model.heads[1], name)
            for (_, sv), (_, dv) in zip(src.variables("a"), dst.variables("b")):
                dv.value = sv.value.copy()
        batch = make_micro_batch(model, n=4, with_domain=True)
        out = forward_both(model, batch)
        logits, alphas = out.task_logits, out.alphas
        assert np.array_equal(logits[0].value, logits[1].value)
        assert np.array_equal(alphas[0].value, alphas[1].value)
        assert logits[0].value.shape == (4, 2)
        assert out.domain_logits.value.shape == (4, 3)

    def test_alphas_sum_to_one_per_task(self):
        model = make_micro_model(m=3, adversarial=True, n_domains=2)
        batch = make_micro_batch(model, n=5, with_domain=True)
        for alpha in forward(model, batch).alphas:
            assert np.allclose(alpha.value.sum(axis=1), 1.0, atol=1e-9)

    @pytest.mark.parametrize("n_task", [0, None], ids=["domain_only", "tasks"])
    def test_all_padding_row_rejected(self, n_task):
        model = make_micro_model(m=2, adversarial=True, n_domains=3)
        batch = make_micro_batch(model, n=4, with_domain=True)
        batch.ids[2] = 0
        batch.mask[2] = 0.0
        with pytest.raises(DegenerateMaskError):
            forward(model, batch, n_task=n_task)

    def test_every_parameter_gets_a_gradient_with_reversal(self):
        model = make_verification_model()
        batch = make_verification_batch(model)
        domain_batch = make_verification_batch(model, n=4, seed=1)
        with ad.Tape() as tape:
            ad.backward(tape, full_loss(model, batch, domain_batch, reverse_domain=True))
        dead = [slot.name for slot in model.parameters() if not np.any(slot.var.grad)]
        assert dead == []

    def test_missing_task_labels_rejected(self):
        model = make_micro_model(m=2)
        batch = make_micro_batch(model)
        del batch.labels["task1"]
        with pytest.raises(ContractError, match="task1"):
            training._batch_losses(model, batch)

    def test_full_loss_passes_grad_check(self):
        # the reversal edge is bypassed inside full_loss: finite differences
        # measure the true derivative, which the flip deliberately negates;
        # task and domain rows differ, and so do their counts
        model = make_verification_model(m=3, adversarial=True, n_domains=3, seed=4)
        batch = make_verification_batch(model, n=3, seed=4)
        domain_batch = make_verification_batch(model, n=2, seed=5)
        params = [slot.var for slot in model.parameters()]
        assert ad.grad_check(lambda: full_loss(model, batch, domain_batch), params) < 1e-4


class TestFloat32Model:
    def test_built_parameters_are_float32(self):
        model = make_micro_model(m=2, adversarial=True, n_domains=3)
        assert {slot.var.value.dtype for slot in model.parameters()} == {np.dtype(np.float32)}

    def test_float32_logits_match_float64_model(self):
        # the same parameters cast to float64 give the reference; float32
        # rounding moves each output by up to about 5e-7 of its largest value
        model = make_micro_model(m=2, adversarial=True, n_domains=3, seed=12)
        batch = make_micro_batch(model, n=6, seed=12, with_domain=True)
        out32 = forward_both(model, batch)
        to_float64(slot.var for slot in model.parameters())
        out64 = forward_both(model, batch)
        pairs = list(
            zip(
                out32.task_logits + out32.alphas + [out32.domain_logits],
                out64.task_logits + out64.alphas + [out64.domain_logits],
            )
        )
        for got, ref in pairs:
            assert got.value.dtype == np.float32 and ref.value.dtype == np.float64
            assert np.max(np.abs(got.value - ref.value)) <= 1e-5 * np.max(np.abs(ref.value))


class TestMtDaanLoss:
    def test_unit_weights(self):
        total = mt_daan_loss([ad.Var(0.3), ad.Var(0.5)], (1.0, 1.0), None, 0.0)
        assert float(total.value) == pytest.approx(0.8)

    def test_single_task_reduces_to_composition(self):
        direct = 0.42 + 0.25 * 0.9
        viaM = float(mt_daan_loss([ad.Var(0.42)], (1.0,), ad.Var(0.9), 0.25).value)
        assert viaM == pytest.approx(direct, abs=1e-15)

    def test_random_weights_match_dot_product(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            m = int(rng.integers(1, 6))
            losses = rng.uniform(0, 2, size=m)
            weights = rng.uniform(0, 2, size=m)
            d_loss = float(rng.uniform(0, 2))
            w_d = float(rng.uniform(0, 1))
            got = float(
                mt_daan_loss([ad.Var(x) for x in losses], tuple(weights), ad.Var(d_loss), w_d).value
            )
            want = float(np.dot(losses, weights)) + w_d * d_loss
            assert abs(got - want) < 1e-12

    def test_compositionality_with_var_losses(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            m = int(rng.integers(1, 5))
            n = int(rng.integers(2, 8))
            logits = [ad.Var(rng.normal(scale=2.0, size=(n, 2))) for _ in range(m)]
            ys = [rng.integers(0, 2, size=n).astype(float) for _ in range(m)]
            weights = tuple(rng.uniform(0, 2, size=m))
            nd = int(rng.integers(2, 5))
            dz = ad.Var(rng.normal(scale=2.0, size=(n, nd)))
            domains = np.array([rng.integers(0, nd) for _ in range(n)])
            w_d = float(rng.uniform(0, 1))
            task_losses = [bce_loss(z, y) for z, y in zip(logits, ys)]
            total = float(mt_daan_loss(task_losses, weights, domain_cce_loss(dz, domains), w_d).value)
            want = sum(
                w * float(bce_loss(ad.Var(z.value), y).value)
                for w, z, y in zip(weights, logits, ys)
            ) + w_d * float(domain_cce_loss(ad.Var(dz.value), domains).value)
            assert abs(total - want) < 1e-12


class TestHeadIsolationAndDetachment:
    def test_task_loss_gradient_zero_on_other_heads(self):
        model = make_micro_model(m=3, seed=2)
        batch = make_micro_batch(model, n=4, seed=2)
        with ad.Tape() as tape:
            logits = forward(model, batch).task_logits
            loss = bce_loss(logits[0], *batch.labels["task0"])
            ad.backward(tape, loss)
        for k in (1, 2):
            for _, var in model.heads[k].variables(f"head{k}"):
                assert np.array_equal(var.grad, np.zeros_like(var.value))

    def test_zero_lambda_matches_branch_free_encoder_grads(self):
        model = make_micro_model(adversarial=True, n_domains=3, lam=0.0, seed=7)
        batch = make_micro_batch(model, n=4, seed=7, with_domain=True)
        y, present = batch.labels["task0"]
        shared = [("embedding", model.embedding.table)] + model.encoder.variables()

        def run(with_domain):
            for slot in model.parameters():
                slot.var.zero_grad()
            with ad.Tape() as tape:
                out = forward_both(model, batch) if with_domain else forward(model, batch)
                loss = bce_loss(out.task_logits[0], y, present)
                if with_domain:
                    d_loss = domain_cce_loss(out.domain_logits, batch.domain)
                    loss = mt_daan_loss([loss], (1.0,), d_loss, model.spec.w_domain)
                ad.backward(tape, loss)
            return [var.grad.copy() for _, var in shared]

        with_branch = run(True)
        without_branch = run(False)
        for a, b in zip(with_branch, without_branch):
            assert np.array_equal(a, b)


class TestCovidRelevance:
    def test_rule_table(self):
        assert covid_relevance(1, 0) == 1
        assert covid_relevance(1, 1) == 0
        assert covid_relevance(0, 0) == 0
        assert covid_relevance(0, 1) == 0

    def test_rejects_non_binary(self):
        with pytest.raises(LabelError):
            covid_relevance(2, 0)


class TestPersistence:
    def test_round_trip_bit_exact(self, tmp_path):
        model = make_micro_model(m=2, adversarial=True, n_domains=3, seed=5)
        path = tmp_path / "model.npz"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.spec == model.spec
        assert loaded.vocab.tokens == model.vocab.tokens
        assert np.array_equal(loaded.embedding.locked, model.embedding.locked)
        originals = {s.name: s.var.value for s in model.parameters()}
        for slot in loaded.parameters():
            assert slot.var.value.dtype == np.float32, slot.name
            assert np.array_equal(slot.var.value, originals[slot.name]), slot.name

    def test_numpy_number_spec_round_trips(self, tmp_path):
        spec = ModelSpec(
            t_x=np.int64(5),
            d=np.int32(8),
            h=4,
            adversarial=np.bool_(True),
            n_domains=np.int64(3),
            lam=np.float32(0.5),
            w_tasks=(np.float32(2.0),),
        )
        model = build_model(spec, micro_vocab(), seed=1)
        path = tmp_path / "model.npz"
        save_model(model, path)
        loaded = load_model(path).spec
        assert loaded == spec
        assert (type(loaded.t_x), type(loaded.adversarial), type(loaded.lam)) == (int, bool, float)

    def test_forward_identical_after_round_trip(self, tmp_path):
        model = make_micro_model(m=2, adversarial=True, n_domains=2, seed=6)
        batch = make_micro_batch(model, n=4, seed=6, with_domain=True)
        before = forward_both(model, batch)
        path = tmp_path / "model.npz"
        save_model(model, path)
        loaded = load_model(path)
        after = forward_both(loaded, batch)
        pairs = zip(
            before.task_logits + [before.domain_logits], after.task_logits + [after.domain_logits]
        )
        for a, b in pairs:
            assert np.array_equal(a.value, b.value)


def rewrite_archive(src, dst, meta=None, raw_meta=None, extra=None, drop=()):
    """Copy a saved archive, replacing its meta (as a dict or raw text),
    adding arrays and leaving out the entries named in `drop`."""
    with np.load(src) as archive:
        arrays = {name: archive[name] for name in archive.files if name not in drop}
    if meta is not None:
        raw_meta = json.dumps(meta)
    if raw_meta is not None:
        arrays["meta.json"] = np.array(raw_meta)
    arrays.update(extra or {})
    np.savez(dst, **arrays)


class TestArchiveErrors:
    @pytest.fixture
    def saved(self, tmp_path):
        path = tmp_path / "model.npz"
        save_model(make_micro_model(m=2, adversarial=True, n_domains=3, seed=5), path)
        with np.load(path) as archive:
            meta = json.loads(str(archive["meta.json"]))
        return path, meta

    def load_rewritten(self, saved, tmp_path, **kwargs):
        bad = tmp_path / "bad.npz"
        rewrite_archive(saved[0], bad, **kwargs)
        with pytest.raises(DataError, match=re.escape(str(bad))) as excinfo:
            load_model(bad)
        return str(excinfo.value)

    def test_unknown_spec_key(self, saved, tmp_path):
        meta = saved[1]
        meta["spec"]["domain_pooling"] = "mean"
        assert "spec" in self.load_rewritten(saved, tmp_path, meta=meta)

    def test_corrupt_meta_json(self, saved, tmp_path):
        assert "meta.json" in self.load_rewritten(saved, tmp_path, raw_meta='{"format": 2,')

    def test_leftover_parameter(self, saved, tmp_path):
        extra = {"param/domain.attn.w": np.zeros((4, 8))}
        assert "domain.attn.w" in self.load_rewritten(saved, tmp_path, extra=extra)

    @pytest.mark.parametrize(
        "entry",
        [
            "meta.json",
            "embedding.locked",
            "param/embedding.table",
            "meta:spec",
            "meta:vocab_tokens",
            "meta:vocab_sha256",
        ],
    )
    def test_missing_entry(self, saved, tmp_path, entry):
        meta = saved[1]
        if entry.startswith("meta:"):
            entry = entry[len("meta:") :]
            del meta[entry]
            message = self.load_rewritten(saved, tmp_path, meta=meta)
        else:
            message = self.load_rewritten(saved, tmp_path, drop=(entry,))
        assert f"missing {entry}" in message

    @pytest.mark.parametrize("case", ["meta_not_object", "spec_not_object", "locked", "table"])
    def test_malformed_entry(self, saved, tmp_path, case):
        meta = saved[1]
        with np.load(saved[0]) as archive:
            rows, d = archive["param/embedding.table"].shape
        rewrite = {
            "meta_not_object": {"raw_meta": "[3]"},
            "spec_not_object": {"meta": {**meta, "spec": []}},
            "locked": {"extra": {"embedding.locked": np.zeros(rows - 1, dtype=np.uint8)}},
            "table": {"extra": {"param/embedding.table": np.zeros((rows, d - 1))}},
        }[case]
        message = self.load_rewritten(saved, tmp_path, **rewrite)
        assert ("JSON objects" if case.endswith("object") else "embedding") in message

    @pytest.mark.parametrize("name", ["embedding.table", "encoder.fwd.w", "head1.out.b"])
    def test_float64_parameter_rejected(self, saved, tmp_path, name):
        # format-3 archives held float64 parameters
        with np.load(saved[0]) as archive:
            wide = archive["param/" + name].astype(np.float64)
        message = self.load_rewritten(saved, tmp_path, extra={"param/" + name: wide})
        assert f"parameter {name} is float64, expected float32" in message

    @pytest.mark.parametrize(
        "key, value",
        [
            ("dropout_rate", 1.5),
            ("w_tasks", ["abc", 1.0]),
            ("task_names", 5),
            ("domain_hidden", 0),
            ("adversarial", False),
            ("task_names", ["task0", "task0"]),
            ("h", 4.0),
            ("t_x", 8.5),
        ],
        ids=["out_of_range", "not_a_number", "not_a_list", "domain_hidden", "domains_unused",
             "duplicate_task", "float_size", "fractional_t_x"],
    )
    def test_bad_spec_value(self, saved, tmp_path, key, value):
        meta = saved[1]
        meta["spec"][key] = value
        assert "bad model spec" in self.load_rewritten(saved, tmp_path, meta=meta)

    def test_earlier_format_rejected(self, saved, tmp_path):
        meta = saved[1]
        meta["format"] = models.ARCHIVE_FORMAT - 1
        message = self.load_rewritten(saved, tmp_path, meta=meta)
        assert f"format {models.ARCHIVE_FORMAT - 1}" in message


class TestModelSpecValidation:
    def test_adversarial_needs_domains(self):
        with pytest.raises(ParameterError):
            micro_spec(adversarial=True, n_domains=1)

    def test_weight_count_mismatch(self):
        with pytest.raises(ParameterError):
            ModelSpec(t_x=5, d=8, task_names=("a", "b"), w_tasks=(1.0,))

    def test_negative_lambda(self):
        with pytest.raises(ParameterError):
            micro_spec(lam=-1.0)

    @pytest.mark.parametrize(
        "task_names, message",
        [(("prio", "prio"), "duplicate task names"), (("prio", ""), "empty task name")],
        ids=["duplicate", "empty"],
    )
    def test_task_names_checked(self, task_names, message):
        # two heads named alike would read the same labels
        with pytest.raises(ParameterError, match=message):
            ModelSpec(t_x=5, d=8, task_names=task_names)

    def test_bare_string_task_names_rejected(self):
        # "ab" is not the two tasks "a" and "b"
        with pytest.raises(ParameterError, match="task_names"):
            ModelSpec(t_x=5, d=8, task_names="ab")

    @pytest.mark.parametrize(
        "field", ["t_x", "d", "h", "n_domains", "attn_size", "head_hidden", "domain_hidden"]
    )
    @pytest.mark.parametrize(
        "value", [4.0, 8.5, "4", True], ids=["float", "fraction", "str", "bool"]
    )
    def test_non_integer_size_rejected(self, field, value):
        fields = {"t_x": 5, "d": 8, "adversarial": True, "n_domains": 2, field: value}
        with pytest.raises(ParameterError, match=f"{field}="):
            ModelSpec(**fields)

    @pytest.mark.parametrize("field", ["lam", "w_domain", "dropout_rate", "w_tasks"])
    @pytest.mark.parametrize("value", ["0.1", True], ids=["str", "bool"])
    def test_non_real_weight_rejected(self, field, value):
        fields = {"w_tasks": (value,)} if field == "w_tasks" else {field: value}
        with pytest.raises(ParameterError, match=f"{field}"):
            ModelSpec(t_x=5, d=8, adversarial=True, n_domains=2, **fields)

    @pytest.mark.parametrize("w_tasks", [1.0, "1"], ids=["number", "str"])
    def test_w_tasks_must_be_a_sequence(self, w_tasks):
        # "1" would read as the one weight 1.0
        with pytest.raises(ParameterError, match="w_tasks must be a sequence"):
            ModelSpec(t_x=5, d=8, w_tasks=w_tasks)

    @pytest.mark.parametrize("value", ["no", 1, None], ids=["str", "int", "none"])
    def test_non_bool_adversarial_rejected(self, value):
        # "no" would read as true and ask for a domain branch
        with pytest.raises(ParameterError, match="adversarial must be a bool"):
            ModelSpec(t_x=5, d=8, adversarial=value, n_domains=2)

    def test_numpy_integer_sizes_accepted(self):
        spec = ModelSpec(t_x=np.int64(5), d=np.int32(8), adversarial=True, n_domains=np.int64(2))
        assert (spec.t_x, spec.d, spec.n_domains) == (5, 8, 2)

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"adversarial": True, "n_domains": 2, "domain_hidden": 0}, "sizes"),
            ({"adversarial": True, "n_domains": 2, "domain_hidden": -3}, "sizes"),
            ({"n_domains": 7}, "n_domains=7"),
        ],
        ids=["domain_hidden_zero", "domain_hidden_negative", "domains_without_branch"],
    )
    def test_domain_fields_checked(self, fields, message):
        with pytest.raises(ParameterError, match=message):
            ModelSpec(t_x=5, d=8, **fields)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["lam", "w_domain", "w_tasks"])
    def test_non_finite_weight_rejected(self, field, value):
        fields = {"w_tasks": (value,)} if field == "w_tasks" else {field: value}
        with pytest.raises(ParameterError):
            ModelSpec(t_x=5, d=8, adversarial=True, n_domains=2, **fields)


class TestTapeNodes:
    def test_one_node_per_layer_call(self, monkeypatch):
        # the joint pass of a training step: embed, bilstm, the two parts of
        # split_rows and the task rows' dropout (5); per head attention,
        # dropout and the two dense layers (4 nodes, relu included: 5 x 2);
        # the domain rows' dropout, masked mean, reversal and the domain's
        # dense layers (6); three losses and their sum (4)
        model = make_micro_model(m=2, adversarial=True, n_domains=3, dropout=0.3)
        batch = make_micro_batch(model, n=4, with_domain=True)
        head_nodes = []
        attention_head = models.attention_head

        def counted(*args):
            before = len(tape.nodes)
            out = attention_head(*args)
            head_nodes.append(len(tape.nodes) - before)
            return out

        monkeypatch.setattr(models, "attention_head", counted)
        with ad.Tape() as tape:
            out = forward_both(model, batch, rng=np.random.default_rng(0))
            task_losses = [
                bce_loss(z, *batch.labels[task])
                for z, task in zip(out.task_logits, model.spec.task_names)
            ]
            domain_loss = domain_cce_loss(out.domain_logits, batch.domain)
            mt_daan_loss(task_losses, model.spec.w_tasks, domain_loss, model.spec.w_domain)
        assert head_nodes == [1, 1]
        assert len(tape.nodes) == 25


FORWARD_LAYERS = {"embed", "bilstm", "attention_head"}


def test_one_forward_path():
    # every call in the package to the embedding, the encoder or an attention
    # head sits inside models._forward, so the model has one forward path
    package = Path(models.__file__).parent
    callers = set()
    for path in package.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))

        def visit(node, where):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                where = node.name
            if isinstance(node, ast.Call):
                fn = node.func
                called = fn.id if isinstance(fn, ast.Name) else None
                if isinstance(fn, ast.Attribute) and isinstance(fn.value, ast.Name):
                    called = fn.attr if fn.value.id == "layers" else None
                if called in FORWARD_LAYERS:
                    callers.add((path.stem, where, called))
            for child in ast.iter_child_nodes(node):
                visit(child, where)

        visit(tree, None)
    assert callers == {("models", "_forward", name) for name in FORWARD_LAYERS}
