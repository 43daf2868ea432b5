import math

import numpy as np
import pytest
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


class TestMatmul:
    def test_identity(self):
        a = ad.Var(np.eye(2))
        b = ad.Var([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(ad.matmul(a, b).value, [[1, 2], [3, 4]])

    def test_projector_row_select(self):
        p = ad.Var([[1.0, 0.0], [0.0, 0.0]])
        b = ad.Var([[5.0, 6.0], [7.0, 8.0]])
        assert np.array_equal(ad.matmul(p, b).value, [[5, 6], [0, 0]])

    def test_grad_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        a_val = rng.normal(size=(3, 4))
        b_val = rng.normal(size=(4, 2))
        a = ad.Var(a_val)
        b = ad.Var(b_val)
        with ad.Tape() as tape:
            loss = ad.asum(ad.matmul(a, b))
            ad.backward(tape, loss)
        num = central_diff(lambda: (a.value @ b.value).sum(), a.value)
        assert np.max(np.abs(a.grad - num) / np.maximum(np.abs(num), 1e-12)) < 1e-6

    def test_shape_mismatch_names_both_shapes(self):
        a = ad.Var(np.ones((2, 3)))
        b = ad.Var(np.ones((2, 3)))
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 3\)"):
            ad.matmul(a, b)

    def test_vector_forms(self):
        a = ad.Var(np.arange(6.0).reshape(2, 3))
        v = ad.Var(np.array([1.0, 0.0, -1.0]))
        assert np.allclose(ad.matmul(a, v).value, a.value @ v.value)
        u = ad.Var(np.array([1.0, 2.0]))
        with pytest.raises(DimensionError):
            ad.matmul(u, a)


class TestActivation:
    def test_tanh_at_zero(self):
        assert ad.tanh(ad.Var(0.0)).value == 0.0

    def test_relu_definition(self):
        assert ad.relu(ad.Var(-3.2)).value == 0.0
        assert ad.relu(ad.Var(3.2)).value == 3.2


class TestMaskedSoftmax:
    def test_uniform(self):
        out = ad.masked_softmax(ad.Var([0.0, 0.0]), np.array([1, 1]))
        assert np.allclose(out.value, [0.5, 0.5])

    def test_masked_tail_direct_evaluation(self):
        # direct e^x normalization over the two kept positions
        out = ad.masked_softmax(ad.Var([10.0, -10.0, 0.0]), np.array([1, 1, 0]))
        z = math.exp(10.0) + math.exp(-10.0)
        assert out.value[2] == 0.0
        assert abs(out.value[0] - math.exp(10.0) / z) < 1e-15
        assert abs(out.value[1] - math.exp(-10.0) / z) < 1e-18
        assert abs(out.value[1] - 2.0611536181902037e-09) < 1e-15

    def test_single_survivor(self):
        out = ad.masked_softmax(ad.Var([3.0, -2.0, 9.0]), np.array([1, 0, 0]))
        assert np.array_equal(out.value, [1.0, 0.0, 0.0])

    def test_all_zero_mask(self):
        with pytest.raises(DegenerateMaskError):
            ad.masked_softmax(ad.Var([1.0, 2.0]), np.array([0, 0]))

    def test_backward_only_through_unmasked(self):
        s = ad.Var([0.3, -0.5, 1.2, 0.0])
        mask = np.array([1, 1, 0, 1])
        with ad.Tape() as tape:
            out = ad.masked_softmax(s, mask)
            loss = ad.asum(ad.mul(out, np.array([1.0, 2.0, 3.0, 4.0])))
            ad.backward(tape, loss)
        assert s.grad[2] == 0.0

        def f():
            sv = s.value + (mask - 1.0) * 1e30
            sv = sv - sv.max()
            e = np.exp(sv) * mask
            p = e / e.sum()
            return float((p * [1.0, 2.0, 3.0, 4.0]).sum())

        num = central_diff(f, s.value)
        assert np.allclose(s.grad, num, atol=1e-8)

    @given(
        scores=st.lists(st.floats(-50, 50), min_size=1, max_size=12),
        data=st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_contract_properties(self, scores, data):
        n = len(scores)
        mask = data.draw(
            st.lists(st.integers(0, 1), min_size=n, max_size=n).filter(lambda m: sum(m) > 0)
        )
        out = ad.masked_softmax(ad.Var(scores), np.array(mask)).value
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
            loss = ad.asum(ad.mul(out, g))
            ad.backward(tape, loss)
        assert np.array_equal(x.grad, -g)

    def test_lambda_scales_exactly(self):
        x = ad.Var(np.array([4.0]))
        with ad.Tape() as tape:
            out = ad.gradient_reversal(x, 0.25)
            loss = ad.asum(ad.mul(out, np.array([3.0])))
            ad.backward(tape, loss)
        assert x.grad[0] == -0.25 * 3.0

    def test_zero_lambda_detaches(self):
        x = ad.Var(np.array([1.0, 2.0]))
        with ad.Tape() as tape:
            out = ad.gradient_reversal(x, 0.0)
            loss = ad.asum(ad.mul(out, np.array([5.0, 5.0])))
            ad.backward(tape, loss)
        assert np.array_equal(x.grad, [0.0, 0.0])

    def test_negative_lambda_rejected(self):
        with pytest.raises(ParameterError):
            ad.gradient_reversal(ad.Var(1.0), -0.1)


class TestBackward:
    def test_sum_gives_ones(self):
        x = ad.Var(np.zeros(3))
        with ad.Tape() as tape:
            loss = ad.asum(x)
            ad.backward(tape, loss)
        assert np.array_equal(x.grad, [1.0, 1.0, 1.0])

    def test_tanh_grad_at_zero(self):
        w = ad.Var(0.0)
        with ad.Tape() as tape:
            loss = ad.tanh(w)
            ad.backward(tape, loss)
        assert w.grad == 1.0

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
            loss = ad.asum(x)
            ad.backward(tape, loss)
            ad.backward(tape, loss)
        assert np.array_equal(x.grad, [2.0, 2.0, 2.0])

    def test_unreached_var_keeps_zero_grad(self):
        x = ad.Var(np.ones(2))
        other = ad.Var(np.ones(2))
        with ad.Tape() as tape:
            ad.mul(other, other)
            loss = ad.asum(x)
            ad.backward(tape, loss)
        assert np.array_equal(other.grad, [0.0, 0.0])

    def test_shared_subexpression_dag(self):
        # y = f(x) + g(f(x)) with f = tanh, g = square, vs finite differences
        x = ad.Var(np.array([0.3, -0.8, 1.1]))
        with ad.Tape() as tape:
            fx = ad.tanh(x)
            y = ad.add(ad.asum(fx), ad.asum(ad.mul(fx, fx)))
            ad.backward(tape, y)

        def f():
            t = np.tanh(x.value)
            return float(t.sum() + (t * t).sum())

        num = central_diff(f, x.value)
        assert np.allclose(x.grad, num, atol=1e-8)


class TestGradCheck:
    def test_linear_function_is_exact(self):
        w = ad.Var(np.array([1.0, -2.0, 3.0]))
        c = np.array([0.5, 1.5, -0.25])
        err = ad.grad_check(lambda: ad.asum(ad.mul(w, c)), [w])
        assert err < 1e-10

    def test_small_composite(self):
        rng = np.random.default_rng(3)
        w = ad.Var(rng.normal(size=(4, 3)))
        b = ad.Var(rng.normal(size=4))
        x = rng.normal(size=3)

        def f():
            return ad.asum(ad.tanh(ad.add(ad.matmul(w, x), b)))

        assert ad.grad_check(f, [w, b]) < 1e-6

    def test_corrupted_backward_rule_is_caught(self):
        w = ad.Var(np.array([0.7, -0.2]))

        def bad_square(v):
            out = ad.Var(v.value**2)
            t = ad._tape()
            if t is not None:
                # deliberately wrong local gradient: 3v instead of 2v
                t.record(out, (v,), lambda g: v.add_grad(g * 3.0 * v.value))
            return out

        err = ad.grad_check(lambda: ad.asum(bad_square(w)), [w])
        assert err > 1e-2


class TestStructuralOps:
    def test_concat_and_slice_round_trip_grads(self):
        a = ad.Var(np.array([[1.0, 2.0]]))
        b = ad.Var(np.array([[3.0, 4.0, 5.0]]))
        with ad.Tape() as tape:
            c = ad.concat([a, b], axis=1)
            loss = ad.asum(ad.mul(c, np.array([[1.0, 2.0, 3.0, 4.0, 5.0]])))
            ad.backward(tape, loss)
        assert np.array_equal(a.grad, [[1.0, 2.0]])
        assert np.array_equal(b.grad, [[3.0, 4.0, 5.0]])

    def test_gather_rows_accumulates_duplicates(self):
        table = ad.Var(np.arange(8.0).reshape(4, 2))
        with ad.Tape() as tape:
            out = ad.gather_rows(table, np.array([2, 2]))
            loss = ad.asum(out)
            ad.backward(tape, loss)
        assert np.array_equal(table.grad[2], [2.0, 2.0])
        assert np.array_equal(table.grad[0], [0.0, 0.0])

    def test_gather_rows_respects_row_mask(self):
        table = ad.Var(np.ones((3, 2)))
        keep = np.array([0.0, 1.0, 1.0])
        with ad.Tape() as tape:
            out = ad.gather_rows(table, np.array([0, 1]), row_grad_mask=keep)
            loss = ad.asum(out)
            ad.backward(tape, loss)
        assert np.array_equal(table.grad[0], [0.0, 0.0])
        assert np.array_equal(table.grad[1], [1.0, 1.0])

    def test_gather_rows_two_calls_match_dense_scatter(self):
        rng = np.random.default_rng(29)
        table = ad.Var(rng.normal(size=(7, 3)))
        keep = np.array([0.0, 1.0, 1.0, 0.0, 1.0, 1.0, 1.0])
        ids = [np.array([[2, 3, 2, 0], [5, 2, 3, 3]]), np.array([[4, 4, 3], [2, 0, 4]])]
        weights = [rng.normal(size=i.shape + (3,)) for i in ids]
        with ad.Tape() as tape:
            parts = [
                ad.asum(ad.mul(ad.gather_rows(table, i, row_grad_mask=keep), w))
                for i, w in zip(ids, weights)
            ]
            ad.backward(tape, ad.add(parts[0], parts[1]))

        # dense reference: scatter each call into a full-table buffer, then mask
        ref = np.zeros((7, 3))
        for i, w in zip(ids, weights):
            buf = np.zeros((7, 3))
            np.add.at(buf, i.reshape(-1), w.reshape(-1, 3))
            ref += buf * keep[:, None]
        assert np.array_equal(table.grad, ref)
        assert np.array_equal(table.grad[[0, 1, 3, 6]], np.zeros((4, 3)))

    def test_gather_rows_out_of_range(self):
        table = ad.Var(np.ones((3, 2)))
        with pytest.raises(DimensionError):
            ad.gather_rows(table, np.array([3]))

    def test_attend_matches_brute_force(self):
        rng = np.random.default_rng(11)
        alpha = ad.Var(rng.random((2, 5)))
        acts = ad.Var(rng.normal(size=(2, 5, 3)))
        out = ad.attend(alpha, acts)
        for n in range(2):
            brute = sum(alpha.value[n, k] * acts.value[n, k] for k in range(5))
            assert np.max(np.abs(out.value[n] - brute)) < 1e-12


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


def assert_lstm_matches_reference(lengths, t_x, d, h, reverse, seed):
    rng = np.random.default_rng(seed)
    n = len(lengths)
    mask = (np.arange(t_x) < np.asarray(lengths)[:, None]).astype(np.float64)
    xv = rng.normal(size=(n, t_x, d))
    wv = rng.normal(scale=0.5, size=(4 * h, d + h))
    bv = rng.normal(scale=0.5, size=4 * h)
    g_out = rng.normal(size=(n, t_x, h))
    x, w, b = ad.Var(xv.copy()), ad.Var(wv.copy()), ad.Var(bv.copy())
    with ad.Tape() as tape:
        states = ad.lstm(x, mask, w, b, reverse=reverse)
        ad.backward(tape, ad.asum(ad.mul(states, g_out)))
    expected = reference_lstm(xv, mask, wv, bv, reverse, g_out)
    got_all = (states.value, x.grad, w.grad, b.grad)
    for name, got, ref in zip(("states", "dx", "dw", "db"), got_all, expected):
        scale = np.max(np.abs(ref), initial=0.0)
        err = np.max(np.abs(got - ref), initial=0.0)
        assert err <= 1e-12 * scale, f"{name}: max error {err} against max |value| {scale}"


class TestLstm:
    @pytest.mark.parametrize("reverse", [False, True])
    def test_unsorted_ragged_batch_matches_per_step_reference(self, reverse):
        lengths = (3, 9, 1, 5, 9, 2, 7)
        assert_lstm_matches_reference(lengths, t_x=9, d=4, h=3, reverse=reverse, seed=5)

    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_random_lengths_match_per_step_reference(self, data):
        n = data.draw(st.integers(1, 6))
        t_x = data.draw(st.integers(1, 7))
        lengths = data.draw(st.lists(st.integers(0, t_x), min_size=n, max_size=n))
        reverse = data.draw(st.booleans())
        seed = data.draw(st.integers(0, 2**31))
        assert_lstm_matches_reference(lengths, t_x, d=3, h=2, reverse=reverse, seed=seed)

    @pytest.mark.parametrize("mask", [[[1, 0, 1, 0]], [[1, 0.5, 0, 0]]], ids=["gap", "fractional"])
    def test_non_prefix_mask_rejected(self, mask):
        rng = np.random.default_rng(2)
        x = ad.Var(rng.normal(size=(1, 4, 3)))
        w = ad.Var(rng.normal(size=(8, 5)))
        b = ad.Var(np.zeros(8))
        with pytest.raises(ContractError):
            ad.lstm(x, np.array(mask, dtype=np.float64), w, b)


def test_forward_determinism():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(4, 4))
    a = ad.Var(x)
    mask = np.ones((4, 4))
    r1 = ad.masked_softmax(ad.tanh(ad.matmul(a, a)), mask).value
    r2 = ad.masked_softmax(ad.tanh(ad.matmul(ad.Var(x), ad.Var(x))), mask).value
    assert np.array_equal(r1, r2)


def test_every_op_passes_grad_check_on_random_shapes():
    rng = np.random.default_rng(42)
    a = ad.Var(rng.normal(size=(3, 4)))
    b = ad.Var(rng.normal(size=(4, 3)))
    v = ad.Var(rng.normal(size=4))
    alpha = ad.Var(rng.random((2, 3)))
    acts = ad.Var(rng.normal(size=(2, 3, 4)))
    mask = np.array([1.0, 1.0, 0.0])
    square = ad.Var(rng.normal(size=(3, 3)))
    # one LSTM direction over a ragged batch: row lengths (T, 2, 1)
    seq = ad.Var(rng.normal(size=(3, 4, 3)))
    lstm_w = ad.Var(rng.normal(size=(8, 5)))
    lstm_b = ad.Var(rng.normal(size=8))
    lstm_mask = np.array([[1.0, 1.0, 1.0, 1.0], [1.0, 1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]])
    lstm_weights = rng.normal(size=(3, 4, 2))
    aff_w = ad.Var(rng.normal(size=(2, 4)))
    aff_b = ad.Var(rng.normal(size=2))
    aff_weights = rng.normal(size=(3, 2))
    # soft, one-hot and all-zero (a masked-out task row) target rows
    xent_targets = np.array([[0.1, 0.2, 0.3, 0.4], [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 0.0]])
    xent_weights = np.array([0.7, 1.9, 0.4])

    cases = {
        "matmul": lambda: ad.asum(ad.matmul(a, b)),
        "add": lambda: ad.asum(ad.add(a, ad.reshape(b, (3, 4)))),
        "mul": lambda: ad.asum(ad.mul(a, ad.reshape(b, (3, 4)))),
        "affine": lambda: ad.asum(ad.mul(ad.affine(a, aff_w, aff_b), aff_weights)),
        "lstm": lambda: ad.asum(ad.mul(ad.lstm(seq, lstm_mask, lstm_w, lstm_b), lstm_weights)),
        "lstm_reverse": lambda: ad.asum(
            ad.mul(ad.lstm(seq, lstm_mask, lstm_w, lstm_b, reverse=True), lstm_weights)
        ),
        "tanh": lambda: ad.asum(ad.tanh(a)),
        "relu": lambda: ad.asum(ad.relu(a)),
        "softmax_cross_entropy": lambda: ad.softmax_cross_entropy(a, xent_targets, xent_weights),
        "masked_softmax": lambda: ad.asum(
            ad.mul(ad.masked_softmax(square, np.tile(mask, (3, 1))), 7.0)
        ),
        "attend": lambda: ad.asum(ad.mul(ad.attend(alpha, acts), v)),
        "sum_axis": lambda: ad.asum(ad.mul(ad.sum_axis(a, 0), np.array([1.0, 2.0, 3.0, 4.0]))),
    }
    for name, f in cases.items():
        err = ad.grad_check(f, [a, b, v, alpha, acts, square, seq, lstm_w, lstm_b, aff_w, aff_b])
        assert err < 1e-4, f"{name}: grad check error {err}"
