import math
import threading

import numpy as np
import pytest
from conftest import asum, grad_check, names_taken_from, package_trees
from hypothesis import given, settings
from hypothesis import strategies as st

from daanet import autodiff as ad
from daanet.errors import (
    ContractError,
    DegenerateMaskError,
    DimensionError,
    ParameterError,
)


def central_diff(f, x, eps=1e-5):
    """Independent finite-difference gradient of scalar f over array x."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        up = f()
        flat[i] = orig - eps
        down = f()
        flat[i] = orig
        gf[i] = (up - down) / (2 * eps)
    return g


class TestAffine:
    def test_shape_mismatch_names_every_shape(self):
        x = ad.Var(np.ones((2, 3)))
        w = ad.Var(np.ones((4, 2)))
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(4, 2\).*\(4,\)"):
            ad.affine(x, w, ad.Var(np.zeros(4)))


class TestActivation:
    def test_relu_definition(self):
        assert ad.relu(ad.Var(-3.2)).value == 0.0
        assert ad.relu(ad.Var(3.2)).value == 3.2


def reference_attention(xv, mask, wv, bv, vv):
    """Plain float64 attention, position by position: returns (context, alpha)."""
    n, t_x, dim = xv.shape
    context = np.zeros((n, dim))
    alpha = np.zeros((n, t_x))
    for r in range(n):
        kept = [t for t in range(t_x) if mask[r, t]]
        scores = {t: float(vv @ np.tanh(wv @ xv[r, t] + bv)) for t in kept}
        top = max(scores.values())
        z = sum(math.exp(s - top) for s in scores.values())
        for t in kept:
            alpha[r, t] = math.exp(scores[t] - top) / z
            context[r] += alpha[r, t] * xv[r, t]
    return context, alpha


def attention_operands(n, t_x, dim, s, seed):
    rng = np.random.default_rng(seed)
    return [ad.Var(rng.normal(size=shape)) for shape in ((n, t_x, dim), (s, dim), (s,), (s,))]


def attention_alpha(x, mask, scale=1.0):
    """alpha of a one-unit head (w = [[1]], b = [0], v = [scale]) over [N x T]
    values x, so that position t scores exactly scale * tanh(x[n, t])."""
    acts = ad.Var(np.asarray(x, dtype=np.float64)[:, :, None])
    _, alpha = ad.attention(acts, np.asarray(mask), ad.Var([[1.0]]), ad.Var([0.0]), ad.Var([scale]))
    return alpha.value


class TestMaskedSoftmax:
    """The masked softmax inside `ad.attention`, read from its alpha."""

    def test_uniform(self):
        assert np.array_equal(attention_alpha([[0.0, 0.0]], [[1, 1]]), [[0.5, 0.5]])

    def test_masked_tail_direct_evaluation(self):
        # direct e^x normalization over the two kept positions, scores about +-10
        x = np.array([[math.atanh(0.5), -math.atanh(0.5), 0.0]])
        out = attention_alpha(x, [[1, 1, 0]], scale=20.0)[0]
        s0, s1, _ = 20.0 * np.tanh(x[0])
        z = math.exp(s0) + math.exp(s1)
        assert out[2] == 0.0
        assert abs(out[0] - math.exp(s0) / z) < 1e-15
        assert abs(out[1] - math.exp(s1) / z) < 1e-18
        assert abs(out[1] - 2.0611536181902037e-09) < 1e-15

    def test_single_survivor(self):
        out = attention_alpha([[3.0, -2.0, 9.0]], [[1, 0, 0]])
        assert np.array_equal(out, [[1.0, 0.0, 0.0]])

    def test_all_zero_mask(self):
        with pytest.raises(DegenerateMaskError):
            attention_alpha([[1.0, 2.0], [1.0, 2.0]], [[1, 0], [0, 0]])

    def test_mask_of_wrong_shape(self):
        with pytest.raises(DimensionError, match="mask shape"):
            attention_alpha([[1.0, 2.0, 3.0]], [[1, 1]])

    @pytest.mark.parametrize(
        "row", [[1, 0.5, 1], [1, 2, 1], [0.5, 0.5, 0.5], [1, -1, 1], [1, math.nan, 1]]
    )
    def test_mask_not_zero_one_rejected(self, row):
        # a fractional entry would get alpha 0 and an entry above 1 would take
        # all of alpha, whatever the scores
        with pytest.raises(ContractError, match="only 0 and 1"):
            attention_alpha([[0.0, 1.0, 2.0]], [row], scale=5.0)

    def test_backward_only_through_unmasked(self):
        acts, w, b, v = attention_operands(n=2, t_x=4, dim=3, s=2, seed=4)
        mask = np.array([[1, 1, 0, 1], [1, 0, 0, 0]])
        weights = np.random.default_rng(5).normal(size=(2, 3))
        with ad.Tape() as tape:
            context, _ = ad.attention(acts, mask, w, b, v)
            ad.backward(tape, asum(ad.mul(context, weights)))
        assert not np.any(acts.grad[mask == 0])

        def f():
            ref, _ = reference_attention(acts.value, mask, w.value, b.value, v.value)
            return float((ref * weights).sum())

        for var in (acts, w, b, v):
            assert np.allclose(var.grad, central_diff(f, var.value), atol=1e-8)

    @given(
        x=st.lists(st.floats(-3, 3), min_size=1, max_size=12),
        data=st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_contract_properties(self, x, data):
        n = len(x)
        mask = data.draw(
            st.lists(st.integers(0, 1), min_size=n, max_size=n).filter(lambda m: sum(m) > 0)
        )
        out = attention_alpha([x], [mask], scale=50.0)[0]
        assert np.all(out >= 0)
        assert abs(out.sum() - 1.0) <= 1e-9
        assert all(out[i] == 0.0 for i in range(n) if mask[i] == 0)


class TestGradientReversal:
    def test_forward_identity_bitwise(self):
        x = ad.Var(np.array([1.5, -2.25, 3e-300]))
        out = ad.gradient_reversal(x, 0.5)
        assert out.value is x.value

    def test_backward_negates_upstream(self):
        x = ad.Var(np.array([1.0, 2.0]))
        g = np.array([0.7, -1.3])
        with ad.Tape() as tape:
            out = ad.gradient_reversal(x, 1.0)
            loss = asum(ad.mul(out, g))
            ad.backward(tape, loss)
        assert np.array_equal(x.grad, -g)

    def test_lambda_scales_exactly(self):
        x = ad.Var(np.array([4.0]))
        with ad.Tape() as tape:
            out = ad.gradient_reversal(x, 0.25)
            loss = asum(ad.mul(out, np.array([3.0])))
            ad.backward(tape, loss)
        assert x.grad[0] == -0.25 * 3.0

    def test_zero_lambda_detaches(self):
        x = ad.Var(np.array([1.0, 2.0]))
        with ad.Tape() as tape:
            out = ad.gradient_reversal(x, 0.0)
            loss = asum(ad.mul(out, np.array([5.0, 5.0])))
            ad.backward(tape, loss)
        assert np.array_equal(x.grad, [0.0, 0.0])

    def test_negative_lambda_rejected(self):
        with pytest.raises(ParameterError):
            ad.gradient_reversal(ad.Var(1.0), -0.1)

    @pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
    def test_non_finite_lambda_rejected(self, lam):
        with pytest.raises(ParameterError):
            ad.gradient_reversal(ad.Var(1.0), lam)


class TestBackward:
    def test_sum_gives_ones(self):
        x = ad.Var(np.zeros(3))
        with ad.Tape() as tape:
            loss = asum(x)
            ad.backward(tape, loss)
        assert np.array_equal(x.grad, [1.0, 1.0, 1.0])

    def test_relu_grad_is_the_step(self):
        for x, slope in ((2.0, 1.0), (-2.0, 0.0)):
            w = ad.Var(x)
            with ad.Tape() as tape:
                ad.backward(tape, ad.relu(w))
            assert w.grad == slope

    def test_non_scalar_loss_rejected(self):
        x = ad.Var(np.ones(2))
        with ad.Tape() as tape:
            y = ad.mul(x, x)
            with pytest.raises(ContractError):
                ad.backward(tape, y)

    def test_loss_not_on_tape_rejected(self):
        x = ad.Var(1.0)
        with ad.Tape():
            pass
        with ad.Tape() as tape2:
            with pytest.raises(ContractError):
                ad.backward(tape2, x)

    def test_repeated_backward_accumulates(self):
        x = ad.Var(np.ones(3))
        with ad.Tape() as tape:
            loss = asum(x)
            ad.backward(tape, loss)
            ad.backward(tape, loss)
        assert np.array_equal(x.grad, [2.0, 2.0, 2.0])

    def test_unreached_var_keeps_zero_grad(self):
        x = ad.Var(np.ones(2))
        other = ad.Var(np.ones(2))
        with ad.Tape() as tape:
            ad.mul(other, other)
            loss = asum(x)
            ad.backward(tape, loss)
        assert np.array_equal(other.grad, [0.0, 0.0])

    def test_shared_subexpression_dag(self):
        # y = f(x) + g(f(x)) with f = relu, g = square, vs finite differences
        x = ad.Var(np.array([0.3, -0.8, 1.1]))
        with ad.Tape() as tape:
            fx = ad.relu(x)
            y = ad.weighted_sum([asum(fx), asum(ad.mul(fx, fx))], [1.0, 1.0])
            ad.backward(tape, y)

        def f():
            t = np.maximum(x.value, 0.0)
            return float(t.sum() + (t * t).sum())

        num = central_diff(f, x.value)
        assert np.allclose(x.grad, num, atol=1e-8)


class TestGradCheck:
    def test_linear_function_is_exact(self):
        w = ad.Var(np.array([1.0, -2.0, 3.0]))
        c = np.array([0.5, 1.5, -0.25])
        err = grad_check(lambda: asum(ad.mul(w, c)), [w])
        assert err < 1e-10

    def test_small_composite(self):
        rng = np.random.default_rng(3)
        w = ad.Var(rng.normal(size=(4, 3)))
        b = ad.Var(rng.normal(size=4))
        x = ad.Var(rng.normal(size=(2, 3)))
        c = rng.normal(size=(2, 4))

        def f():
            return asum(ad.mul(ad.relu(ad.affine(x, w, b)), c))

        assert grad_check(f, [w, b]) < 1e-6

    def test_corrupted_backward_rule_is_caught(self):
        w = ad.Var(np.array([0.7, -0.2]))

        def bad_square(v):
            out = ad.Var(v.value**2)
            t = ad._tape()
            if t is not None:
                # deliberately wrong local gradient: 3v instead of 2v
                t.record(out, (v,), lambda g: v.add_grad(g * 3.0 * v.value))
            return out

        err = grad_check(lambda: asum(bad_square(w)), [w])
        assert err > 1e-2


class TestStructuralOps:
    def test_gather_rows_respects_row_mask(self):
        table = ad.Var(np.ones((3, 2)))
        keep = np.array([0.0, 1.0, 1.0])
        with ad.Tape() as tape:
            out = ad.gather_rows(table, np.array([0, 1]), row_grad_mask=keep)
            loss = asum(out)
            ad.backward(tape, loss)
        assert np.array_equal(table.grad[0], [0.0, 0.0])
        assert np.array_equal(table.grad[1], [1.0, 1.0])

    def test_gather_rows_two_calls_match_dense_scatter(self):
        # two gathers on one tape that share rows 2 and 4 and the locked row 0
        rng = np.random.default_rng(29)
        table = ad.Var(rng.normal(size=(7, 3)))
        keep = np.array([0.0, 1.0, 1.0, 0.0, 1.0, 1.0, 1.0])
        ids = [np.array([0, 2, 3, 5]), np.array([2, 4])]
        weights = [rng.normal(size=i.shape + (3,)) for i in ids]
        with ad.Tape() as tape:
            parts = [
                asum(ad.mul(ad.gather_rows(table, i, row_grad_mask=keep), w))
                for i, w in zip(ids, weights)
            ]
            ad.backward(tape, ad.weighted_sum(parts, [1.0, 1.0]))

        # dense reference: scatter each call into a full-table buffer, then mask
        ref = np.zeros((7, 3))
        for i, w in zip(ids, weights):
            buf = np.zeros((7, 3))
            buf[i] = w
            ref += buf * keep[:, None]
        assert np.array_equal(table.grad, ref)
        assert np.array_equal(table.grad[[0, 1, 3, 6]], np.zeros((4, 3)))

    def test_gather_rows_increasing_ids_match_dense_scatter(self):
        # strictly increasing ids, as layers.embed passes them, over two
        # backward calls that share rows
        rng = np.random.default_rng(41)
        table = ad.Var(rng.normal(size=(8, 3)).astype(np.float32))
        keep = np.array([0.0, 1.0, 1.0, 0.0, 1.0, 1.0, 1.0, 1.0])
        ids = [np.array([0, 2, 3, 5]), np.array([1, 2, 5, 7])]
        weights = [rng.normal(size=(4, 3)).astype(np.float32) for _ in ids]
        for i, w in zip(ids, weights):
            with ad.Tape() as tape:
                out = ad.gather_rows(table, i, row_grad_mask=keep)
                ad.backward(tape, asum(ad.mul(out, w)))
        ref = np.zeros((8, 3), dtype=np.float32)
        for i, w in zip(ids, weights):
            ref[i] += w * keep[i, None].astype(np.float32)
        assert table.grad.tobytes() == ref.tobytes()

    def test_split_rows_views_and_one_gradient_buffer(self):
        x = ad.Var(np.arange(24.0).reshape(4, 3, 2))
        weights = np.random.default_rng(13).normal(size=(3, 3, 2))
        with ad.Tape() as tape:
            top, bottom = ad.split_rows(x, 1)
            ad.backward(tape, asum(ad.mul(bottom, weights)))
        assert np.shares_memory(top.value, x.value) and np.shares_memory(bottom.value, x.value)
        assert np.array_equal(top.value, x.value[:1]) and np.array_equal(bottom.value, x.value[1:])
        # the part that got no gradient leaves zeros in its rows
        assert np.array_equal(x.grad, np.concatenate([np.zeros((1, 3, 2)), weights]))
        empty, whole = ad.split_rows(x, 0)
        assert empty.shape == (0, 3, 2) and whole.shape == (4, 3, 2)

    def test_gather_rows_out_of_range(self):
        # -1 would otherwise read, and scatter its gradient into, the last row
        table = ad.Var(np.arange(6.0).reshape(3, 2))
        for bad in (3, -1):
            with pytest.raises(DimensionError, match=f"row index {bad} "):
                ad.gather_rows(table, np.array([0, bad]), np.ones(3))

    @pytest.mark.parametrize(
        "ids",
        [np.array([1, 2, 2]), np.array([2, 1]), np.array([[0, 1], [2, 3]])],
        ids=["repeated", "unsorted", "2-D"],
    )
    def test_gather_rows_rejects_ids_that_are_not_distinct_and_increasing(self, ids):
        # a repeated row would lose all but one of its gradient rows in
        # Var.add_grad_rows, so the gather takes distinct rows only
        table = ad.Var(np.arange(8.0).reshape(4, 2))
        with pytest.raises(ContractError, match="1-D and strictly increasing"):
            ad.gather_rows(table, ids, np.ones(4))

    def test_attend_matches_brute_force(self):
        # the whole float64 attention forward against the plain-numpy reference
        acts, w, b, v = attention_operands(n=3, t_x=6, dim=5, s=4, seed=11)
        mask = np.array([[1, 1, 1, 1, 1, 1], [1, 1, 1, 0, 0, 0], [1, 0, 0, 0, 0, 0]])
        context, alpha = ad.attention(acts, mask, w, b, v)
        ref_context, ref_alpha = reference_attention(acts.value, mask, w.value, b.value, v.value)
        assert np.max(np.abs(context.value - ref_context)) < 1e-12
        assert np.max(np.abs(alpha.value - ref_alpha)) < 1e-12

    def test_masked_mean_matches_brute_force(self):
        x = ad.Var(np.random.default_rng(12).normal(size=(3, 4, 2)))
        lengths = np.array([4, 2, 1])
        out = ad.masked_mean(x, lengths)
        for n, length in enumerate(lengths):
            brute = sum(x.value[n, t] for t in range(4)) / length
            assert np.max(np.abs(out.value[n] - brute)) < 1e-12
        with pytest.raises(DegenerateMaskError):
            ad.masked_mean(x, np.array([4, 0, 1]))


def reference_lstm(xv, mask, wv, bv, reverse, g_out):
    """One LSTM direction step by step, with the arithmetic of the earlier
    per-step op: concat [x_t, h], one GEMM, and a masked carry through
    padded positions. Returns the states and the x, w, b gradients of
    sum(states * g_out)."""
    n, t_x, d = xv.shape
    h = bv.shape[0] // 4
    out = np.empty((n, t_x, h))
    saved = []
    h_prev = np.zeros((n, h))
    c_prev = np.zeros((n, h))
    for t in range(t_x - 1, -1, -1) if reverse else range(t_x):
        inp = np.concatenate([xv[:, t], h_prev], axis=1)
        pre = inp @ wv.T + bv
        gi = 1.0 / (1.0 + np.exp(-pre[:, :h]))
        gf = 1.0 / (1.0 + np.exp(-pre[:, h : 2 * h]))
        go = 1.0 / (1.0 + np.exp(-pre[:, 2 * h : 3 * h]))
        gc = np.tanh(pre[:, 3 * h :])
        c_new = gf * c_prev + gi * gc
        tc = np.tanh(c_new)
        m = mask[:, t : t + 1]
        out[:, t] = act = go * tc * m
        saved.append((t, inp, gi, gf, go, gc, c_prev, tc))
        h_prev = act + h_prev * (1.0 - m)
        c_prev = c_new * m + c_prev * (1.0 - m)

    dx = np.zeros_like(xv)
    dw_t = np.zeros((d + h, 4 * h))
    db = np.zeros(4 * h)
    dh = np.zeros((n, h))
    dc = np.zeros((n, h))
    dpre = np.empty((n, 4 * h))
    for t, inp, gi, gf, go, gc, c_prev, tc in reversed(saved):
        m = mask[:, t : t + 1]
        dh_new = (g_out[:, t] + dh) * m
        dc_new = dc * m + dh_new * go * (1.0 - tc * tc)
        dpre[:, :h] = dc_new * gc * gi * (1.0 - gi)
        dpre[:, h : 2 * h] = dc_new * c_prev * gf * (1.0 - gf)
        dpre[:, 2 * h : 3 * h] = dh_new * tc * go * (1.0 - go)
        dpre[:, 3 * h :] = dc_new * gi * (1.0 - gc * gc)
        dw_t += inp.T @ dpre
        db += dpre.sum(axis=0)
        dinp = dpre @ wv
        dx[:, t] = dinp[:, :d]
        dh = dh * (1.0 - m) + dinp[:, d:]
        dc = dc * (1.0 - m) + dc_new * gf
    return out, dx, dw_t.T, db


def assert_bilstm_matches_reference(
    lengths, t_x, d, h, seed, dtype=np.float64, tol=1e-12, taped=True
):
    """Run `ad.bilstm` on `dtype` inputs against the float64 per-step
    reference for each direction, fed the same (rounded) values; every
    output must be within `tol` x max |value|. Without a tape only the
    states are compared; the op then steps in its scratch buffers.

    The positions read a table of 6 input rows: live positions draw from
    the first 5, so most rows repeat, and every padded position reads the
    last, whose gradient must then be exactly 0."""
    rng = np.random.default_rng(seed)
    n = len(lengths)
    mask = (np.arange(t_x) < np.asarray(lengths)[:, None]).astype(np.float64)
    table = rng.normal(size=(6, d)).astype(dtype)
    ids = rng.integers(0, 5, size=(n, t_x))
    ids[mask == 0] = 5
    wv = rng.normal(scale=0.5, size=(2, 4 * h, d + h)).astype(dtype)
    bv = rng.normal(scale=0.5, size=(2, 4 * h)).astype(dtype)
    g_out = rng.normal(size=(n, t_x, 2 * h)).astype(dtype)
    x = ad.Var(table.copy())
    w = [ad.Var(wv[j].copy()) for j in range(2)]
    b = [ad.Var(bv[j].copy()) for j in range(2)]
    if taped:
        with ad.Tape() as tape:
            states = ad.bilstm(x, ids, mask, w[0], b[0], w[1], b[1])
            ad.backward(tape, asum(ad.mul(states, g_out)))
        assert np.all(x.grad[5] == 0.0), "a row read only at padded positions got a gradient"
    else:
        states = ad.bilstm(x, ids, mask, w[0], b[0], w[1], b[1])
    wide = [a.astype(np.float64) for a in (table[ids], wv, bv, g_out)]
    fwd = reference_lstm(wide[0], mask, wide[1][0], wide[2][0], False, wide[3][:, :, :h])
    bwd = reference_lstm(wide[0], mask, wide[1][1], wide[2][1], True, wide[3][:, :, h:])
    checks = [
        ("forward states", states.value[:, :, :h], fwd[0]),
        ("reverse states", states.value[:, :, h:], bwd[0]),
    ]
    if taped:
        dx = np.zeros(table.shape)
        np.add.at(dx, ids, fwd[1] + bwd[1])
        checks += [
            ("dx", x.grad, dx),
            ("forward dw", w[0].grad, fwd[2]),
            ("forward db", b[0].grad, fwd[3]),
            ("reverse dw", w[1].grad, bwd[2]),
            ("reverse db", b[1].grad, bwd[3]),
        ]
    for name, got, ref in checks:
        assert got.dtype == dtype, f"{name}: computed in {got.dtype}"
        scale = np.max(np.abs(ref), initial=0.0)
        err = np.max(np.abs(got - ref), initial=0.0)
        assert err <= tol * scale, f"{name}: max error {err} against max |value| {scale}"


def bilstm_operands(d=3, h=2, h_reverse=None, d_forward=None, d_reverse=None):
    """Random Vars x [4 x d], the ids [[0, 1, 2, 3]] that read its rows in
    turn, and Vars w_f, b_f, w_b, b_b, with the given sizes overridden per
    direction."""
    rng = np.random.default_rng(2)
    x = ad.Var(rng.normal(size=(4, d)))
    ops = [x, np.arange(4)[None]]
    for hd, dd in ((h, d_forward or d), (h_reverse or h, d_reverse or d)):
        ops += [ad.Var(rng.normal(size=(4 * hd, dd + hd))), ad.Var(np.zeros(4 * hd))]
    return ops


class TestRowTrackedGradient:
    """The table gradient that `gather_rows` writes is kept across steps
    and cleared by rows (autodiff's gradient semantics)."""

    @staticmethod
    def gather_backward(table, ids, seed=0):
        w = np.random.default_rng(seed).normal(size=(len(ids), table.shape[1]))
        with ad.Tape() as tape:
            out = ad.gather_rows(table, np.array(ids), np.ones(table.shape[0]))
            ad.backward(tape, asum(ad.mul(out, w.astype(table.value.dtype))))
        return w

    def test_records_rows_and_zero_grad_clears_the_reused_buffer(self):
        table = ad.Var(np.ones((6, 3), dtype=np.float32))
        self.gather_backward(table, [1, 4], seed=1)
        self.gather_backward(table, [2, 4], seed=2)  # row 4 again, in a second gather
        assert sorted(set(table.grad_rows().tolist())) == [1, 2, 4]
        buf = table._grad
        table.zero_grad()
        assert table._grad is None
        assert table.grad is buf and np.array_equal(buf, np.zeros((6, 3)))
        table.zero_grad()  # a write through .grad made it dense: dropped
        w = self.gather_backward(table, [0, 5], seed=3)
        assert table.grad_rows().tolist() == [0, 5]
        ref = np.zeros((6, 3), dtype=np.float32)
        ref[[0, 5]] = w.astype(np.float32)
        assert np.array_equal(table._grad, ref)
        table.zero_grad()
        self.gather_backward(table, [3], seed=4)
        assert np.array_equal(np.flatnonzero(table._grad.any(axis=1)), [3])

    def test_dense_add_grad_counts_as_every_row(self):
        table = ad.Var(np.ones((4, 2)))
        self.gather_backward(table, [1])
        buf = table._grad
        table.add_grad(np.ones((4, 2)))
        assert table.grad_rows() is None
        table.zero_grad()
        assert table._grad is None
        self.gather_backward(table, [2])
        assert table._grad is not buf
        assert np.array_equal(np.flatnonzero(table._grad.any(axis=1)), [2])

    def test_gradient_follows_a_change_of_value_dtype_and_shape(self):
        table = ad.Var(np.ones((5, 2), dtype=np.float32))
        self.gather_backward(table, [1, 3])
        table.zero_grad()
        table.value = table.value.astype(np.float64)
        w = self.gather_backward(table, [2], seed=5)
        assert table._grad.dtype == np.float64
        assert np.array_equal(table._grad[2], w[0])
        table.zero_grad()
        table.value = np.ones((7, 2))
        self.gather_backward(table, [6])
        assert table._grad.shape == (7, 2)


class TestLstm:
    @pytest.mark.parametrize("taped", [False, True])
    def test_unsorted_ragged_batch_matches_per_step_reference(self, taped):
        lengths = (3, 9, 1, 5, 9, 2, 7)
        assert_bilstm_matches_reference(lengths, t_x=9, d=4, h=3, seed=5, taped=taped)

    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_random_lengths_match_per_step_reference(self, data):
        n = data.draw(st.integers(1, 6))
        t_x = data.draw(st.integers(1, 7))
        lengths = data.draw(st.lists(st.integers(0, t_x), min_size=n, max_size=n))
        seed = data.draw(st.integers(0, 2**31))
        taped = data.draw(st.booleans())
        assert_bilstm_matches_reference(lengths, t_x, d=3, h=2, seed=seed, taped=taped)

    @pytest.mark.parametrize("taped", [False, True])
    def test_float32_matches_float64_reference(self, taped):
        # every buffer is float32; rounding stays within 1e-5 x max |value|
        # (about 2e-6 was seen at d=100, h=64, T=30)
        lengths = (3, 9, 1, 5, 9, 2, 7)
        assert_bilstm_matches_reference(
            lengths, t_x=9, d=4, h=3, seed=5, dtype=np.float32, tol=1e-5, taped=taped
        )

    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_random_float32_lengths_match_float64_reference(self, data):
        n = data.draw(st.integers(1, 6))
        t_x = data.draw(st.integers(1, 12))
        lengths = data.draw(st.lists(st.integers(0, t_x), min_size=n, max_size=n))
        seed = data.draw(st.integers(0, 2**31))
        taped = data.draw(st.booleans())
        assert_bilstm_matches_reference(
            lengths, t_x, d=5, h=4, seed=seed, dtype=np.float32, tol=1e-5, taped=taped
        )

    def test_buffers_of_an_earlier_pass_do_not_leak_into_the_initial_state(self):
        # A wider taped pass first leaves its values in memory that the
        # reference case's fresh buffers may be handed; the rows that start
        # a direction, or whose neighbouring step is padding, must read zeros.
        assert_bilstm_matches_reference((20,) * 8 + (3,), t_x=20, d=4, h=3, seed=6)
        assert_bilstm_matches_reference((3, 9, 1, 5, 9, 2, 7), t_x=9, d=4, h=3, seed=5)

    def test_extra_padding_changes_no_bit(self):
        # The same float32 batch at t_x=20 and t_x=30: the states and every
        # gradient are bit-identical, since no sum runs over a padded position.
        rng = np.random.default_rng(11)
        n, d, h = 64, 100, 64
        lengths = rng.integers(1, 21, size=n)
        table = rng.normal(size=(50, d)).astype(np.float32)
        ids = rng.integers(0, 50, size=(n, 30))
        weights = rng.normal(scale=0.1, size=(2, 4 * h, d + h)).astype(np.float32)
        g_out = rng.normal(size=(n, 30, 2 * h)).astype(np.float32)
        runs = []
        for t_x in (20, 30):
            mask = (np.arange(t_x) < lengths[:, None]).astype(np.float32)
            x = ad.Var(table.copy())
            w_f, w_b = (ad.Var(w.copy()) for w in weights)
            b_f, b_b = (ad.Var(np.zeros(4 * h, np.float32)) for _ in range(2))
            params = [x, w_f, b_f, w_b, b_b]
            with ad.Tape() as tape:
                states = ad.bilstm(x, ids[:, :t_x], mask, w_f, b_f, w_b, b_b)
                ad.backward(tape, asum(ad.mul(states, g_out[:, :t_x])))
            assert not states.value[:, 20:].any()
            runs.append([states.value[:, :20]] + [p.grad for p in params])
        for name, short, long in zip(["states", "x", "w_f", "b_f", "w_b", "b_b"], *runs):
            assert short.tobytes() == long.tobytes(), name

    @pytest.mark.parametrize("mask", [[[1, 0, 1, 0]], [[1, 0.5, 0, 0]]], ids=["gap", "fractional"])
    def test_non_prefix_mask_rejected(self, mask):
        x, ids, w_f, b_f, w_b, b_b = bilstm_operands()
        with pytest.raises(ContractError):
            ad.bilstm(x, ids, np.array(mask, dtype=np.float64), w_f, b_f, w_b, b_b)

    def test_directions_with_different_hidden_sizes_rejected(self):
        x, ids, w_f, b_f, w_b, b_b = bilstm_operands(h=2, h_reverse=3)
        with pytest.raises(DimensionError, match="reverse gate weights"):
            ad.bilstm(x, ids, np.ones((1, 4)), w_f, b_f, w_b, b_b)

    @pytest.mark.parametrize("direction", ["forward", "reverse"])
    def test_weights_not_fitting_input_dim_rejected(self, direction):
        sizes = {"d_forward": 4} if direction == "forward" else {"d_reverse": 4}
        x, ids, w_f, b_f, w_b, b_b = bilstm_operands(d=3, **sizes)
        with pytest.raises(DimensionError, match=f"{direction} gate weights .* input dim 3"):
            ad.bilstm(x, ids, np.ones((1, 4)), w_f, b_f, w_b, b_b)


class TestScratch:
    def test_reused_without_a_tape(self):
        a = ad.scratch("test.buf", (4, 3), np.float32)
        b = ad.scratch("test.buf", (2, 3), np.float32)
        assert b.base is a.base and b.dtype == np.float32

    def test_fresh_while_a_tape_records(self):
        with ad.Tape():
            a = ad.scratch("test.buf", (4, 3), np.float32)
            b = ad.scratch("test.buf", (4, 3), np.float32)
        assert not np.shares_memory(a, b)

    def test_entering_a_tape_drops_the_buffers(self):
        a = ad.scratch("test.buf", (4, 3), np.float32)
        with ad.Tape():
            pass
        assert not np.shares_memory(a, ad.scratch("test.buf", (4, 3), np.float32))

    def test_kept_per_thread(self):
        a = ad.scratch("test.buf", (4, 3), np.float32)
        other = []
        thread = threading.Thread(
            target=lambda: other.append(ad.scratch("test.buf", (4, 3), np.float32))
        )
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert not np.shares_memory(a, other[0])

    def test_bilstm_output_does_not_alias_scratch(self):
        x, ids, w_f, b_f, w_b, b_b = bilstm_operands()
        first = ad.bilstm(x, ids, np.ones((1, 4)), w_f, b_f, w_b, b_b).value
        kept = first.copy()
        x.value = -x.value
        second = ad.bilstm(x, ids, np.ones((1, 4)), w_f, b_f, w_b, b_b).value
        assert np.array_equal(first, kept)
        assert not np.array_equal(first, second)

    def test_attention_outputs_do_not_alias_scratch(self):
        acts, w, b, v = attention_operands(n=2, t_x=4, dim=3, s=2, seed=5)
        mask = np.ones((2, 4))
        context, alpha = ad.attention(acts, mask, w, b, v)
        kept = context.value.copy(), alpha.value.copy()
        acts.value = -acts.value
        second, _ = ad.attention(acts, mask, w, b, v)
        assert np.array_equal(context.value, kept[0]) and np.array_equal(alpha.value, kept[1])
        assert not np.array_equal(context.value, second.value)


def blocked_attention_outputs(monkeypatch, block, taped):
    """Context, alpha and, when `taped`, the gradients of acts, w, b and v
    of one float32 attention head over 117 x 20 = 2,340 positions (two full
    blocks of 1,024 and one of 292), with the scorer GEMM run in blocks of
    `block` rows."""
    monkeypatch.setattr(ad, "ATTENTION_BLOCK", block)
    rng = np.random.default_rng(31)
    n, t_x, dim, s = 117, 20, 128, 32
    acts, w, b, v = (
        ad.Var(rng.normal(size=shape).astype(np.float32))
        for shape in ((n, t_x, dim), (s, dim), (s,), (s,))
    )
    lengths = rng.integers(1, t_x + 1, size=n)
    mask = (np.arange(t_x) < lengths[:, None]).astype(np.float32)
    weights = rng.normal(size=(n, dim)).astype(np.float32)
    if not taped:
        context, alpha = ad.attention(acts, mask, w, b, v)
        return [context.value, alpha.value]
    with ad.Tape() as tape:
        context, alpha = ad.attention(acts, mask, w, b, v)
        ad.backward(tape, asum(ad.mul(context, weights)))
    return [context.value, alpha.value] + [p.grad for p in (acts, w, b, v)]


@pytest.mark.parametrize("taped", [False, True], ids=["no_tape", "tape"])
def test_blocked_attention_scorer_matches_one_gemm(monkeypatch, taped):
    assert ad.ATTENTION_BLOCK == 1024
    one_gemm = blocked_attention_outputs(monkeypatch, 10**9, taped)
    blocked = blocked_attention_outputs(monkeypatch, 1024, taped)
    assert len(blocked) == (6 if taped else 2)
    for a, b in zip(blocked, one_gemm):
        assert a.dtype == np.float32 and np.array_equal(a, b)


def test_forward_determinism():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(4, 4))
    b = rng.normal(size=4)
    a = ad.Var(x)
    r1 = ad.mul(ad.relu(ad.affine(a, a, ad.Var(b))), x).value
    r2 = ad.mul(ad.relu(ad.affine(ad.Var(x), ad.Var(x), ad.Var(b))), x).value
    assert np.array_equal(r1, r2)


def test_every_op_passes_grad_check_on_random_shapes():
    rng = np.random.default_rng(42)
    a = ad.Var(rng.normal(size=(3, 4)))
    b = ad.Var(rng.normal(size=(3, 4)))
    acts = ad.Var(rng.normal(size=(2, 3, 4)))
    seq = ad.Var(rng.normal(size=(3, 4, 3)))
    # both LSTM directions over a ragged batch: row lengths (T, 2, 1)
    lstm_w = ad.Var(rng.normal(size=(8, 5)))
    lstm_b = ad.Var(rng.normal(size=8))
    lstm_w_rev = ad.Var(rng.normal(size=(8, 5)))
    lstm_b_rev = ad.Var(rng.normal(size=8))
    lstm_mask = np.array([[1.0, 1.0, 1.0, 1.0], [1.0, 1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]])
    # input rows 0 and 1 repeat, and row 3 is read only at padded positions
    lstm_ids = np.array([[0, 1, 0, 2], [1, 1, 3, 3], [2, 3, 3, 3]])
    lstm_weights = rng.normal(size=(3, 4, 4))
    aff_w = ad.Var(rng.normal(size=(2, 4)))
    aff_b = ad.Var(rng.normal(size=2))
    aff_weights = rng.normal(size=(3, 2))
    # soft, one-hot and all-zero (a masked-out task row) target rows
    xent_targets = np.array([[0.1, 0.2, 0.3, 0.4], [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 0.0]])
    xent_weights = np.array([0.7, 1.9, 0.4])
    att_w = ad.Var(rng.normal(size=(2, 4)))
    att_b = ad.Var(rng.normal(size=2))
    att_v = ad.Var(rng.normal(size=2))
    att_mask = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 1.0]])
    pooled_weights = rng.normal(size=(2, 4))
    split_weights = [rng.normal(size=(1, 4, 3)), rng.normal(size=(2, 4, 3))]
    lstm_rows = ad.Var(rng.normal(size=(4, 3)))

    cases = {
        "mul": lambda: asum(ad.mul(a, b)),
        "affine": lambda: asum(ad.mul(ad.affine(a, aff_w, aff_b), aff_weights)),
        "bilstm": lambda: asum(
            ad.mul(
                ad.bilstm(lstm_rows, lstm_ids, lstm_mask, lstm_w, lstm_b, lstm_w_rev, lstm_b_rev),
                lstm_weights,
            )
        ),
        "relu": lambda: asum(ad.relu(a)),
        "softmax_cross_entropy": lambda: ad.softmax_cross_entropy(a, xent_targets, xent_weights),
        "attention": lambda: asum(
            ad.mul(ad.attention(acts, att_mask, att_w, att_b, att_v)[0], pooled_weights)
        ),
        "masked_mean": lambda: asum(ad.mul(ad.masked_mean(acts, [2, 3]), pooled_weights)),
        # parts of different sizes, each read through its own weights
        "split_rows": lambda: ad.weighted_sum(
            [asum(ad.mul(part, w)) for part, w in zip(ad.split_rows(seq, 1), split_weights)],
            [1.0, 1.0],
        ),
        "weighted_sum": lambda: ad.weighted_sum(
            [ad.softmax_cross_entropy(a, xent_targets, xent_weights), asum(ad.mul(a, b))],
            [0.6, 1.7],
        ),
    }
    for name, f in cases.items():
        params = [a, b, acts, seq, lstm_rows, lstm_w, lstm_b, lstm_w_rev, lstm_b_rev]
        err = grad_check(f, params + [aff_w, aff_b, att_w, att_b, att_v])
        assert err < 1e-4, f"{name}: grad check error {err}"


# Called from the package without a model path needing them.
OP_SET_EXEMPT = {"Var", "Tape", "backward", "scratch"}


def test_every_op_is_used_by_the_package():
    # autodiff holds the model's op set: an op no module of the package
    # uses is a general-purpose op to delete, not to keep
    ops = {
        name
        for name, obj in vars(ad).items()
        if callable(obj) and not name.startswith("_") and obj.__module__ == ad.__name__
    }
    used = names_taken_from("autodiff", package_trees())
    assert sorted(ops - OP_SET_EXEMPT - used) == []


@pytest.mark.parametrize(
    "case", ["scorer", "lengths", "split point", "non-scalar loss", "weight count"]
)
def test_misfit_operands_rejected(case):
    acts, _, b, v = attention_operands(n=2, t_x=3, dim=4, s=2, seed=1)
    call = {
        "scorer": lambda: ad.attention(acts, np.ones((2, 3)), ad.Var(np.ones((2, 5))), b, v),
        "lengths": lambda: ad.masked_mean(acts, np.array([3, 3, 3])),
        "split point": lambda: ad.split_rows(acts, 3),
        "non-scalar loss": lambda: ad.weighted_sum([acts], [1.0]),
        "weight count": lambda: ad.weighted_sum([asum(acts)], [1.0, 1.0]),
    }[case]
    with pytest.raises(DimensionError):
        call()


@pytest.mark.parametrize("op", ["gather_rows", "bilstm"])
@pytest.mark.parametrize(
    "ids, error",
    [
        # numpy would read a boolean array as a mask and return 2 rows
        (np.array([[True, False, True, False]]), ContractError),
        (np.array([[0.0, 1.0, 2.0, 3.0]]), ContractError),
        (np.array([[0, 1, 2, 4]]), DimensionError),
        (np.array([[0, 1, -1, 3]]), DimensionError),
    ],
    ids=["bool", "float", "past the end", "negative"],
)
def test_bad_row_ids_rejected(op, ids, error):
    x, _, w_f, b_f, w_b, b_b = bilstm_operands()  # x has 4 rows
    call = {
        "gather_rows": lambda: ad.gather_rows(x, ids, np.ones(4)),
        "bilstm": lambda: ad.bilstm(x, ids, np.ones((1, 4)), w_f, b_f, w_b, b_b),
    }[op]
    with pytest.raises(error):
        call()
