import numpy as np
import pytest
from conftest import asum, grad_check, init_attention, init_bilstm, init_dense, to_float64

from daanet import autodiff as ad
from daanet import layers
from daanet.errors import ContractError, DimensionError, ParameterError
from daanet.models import ParamSlot
from daanet.training import Adam


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def positions(raw):
    """[N x T x d] inputs as the (rows, index) pair `layers.bilstm` reads,
    with each position reading a row of its own."""
    n, t_x, d = raw.shape
    return ad.Var(raw.reshape(n * t_x, d)), np.arange(n * t_x).reshape(n, t_x)


class TestEmbed:
    def test_pad_ids_give_zero_rows(self, rng):
        emb = layers.random_embedding(5, 4, rng)
        rows, index = layers.embed(emb, np.array([0, 0, 0]))
        assert rows.value[index].shape == (3, 4)
        assert np.array_equal(rows.value[index], np.zeros((3, 4)))

    def test_rows_are_the_distinct_ids_and_index_reads_the_lookup(self, rng):
        emb = layers.random_embedding(6, 3, rng)
        ids = np.array([[4, 2, 4], [2, 5, 0]])
        rows, index = layers.embed(emb, ids)
        assert rows.value.shape == (4, 3) and index.shape == ids.shape
        assert np.array_equal(rows.value, emb.table.value[[0, 2, 4, 5]])
        assert np.array_equal(rows.value[index], emb.table.value[ids])

    @pytest.mark.parametrize(
        "ids, error",
        [
            ([True, False, True], ContractError),
            ([0.0, 2.0], ContractError),
            ([0, 5], DimensionError),
            ([0, -1], DimensionError),  # would wrap to the last row
        ],
        ids=["bool", "float", "past the end", "negative"],
    )
    def test_bad_ids_rejected(self, rng, ids, error):
        emb = layers.random_embedding(5, 4, rng)
        with pytest.raises(error):
            layers.embed(emb, np.array(ids))

    def test_duplicate_ids_share_rows_and_sum_grads(self, rng):
        # ids [2, 2] read one row, whose gradient is the sum of what ids
        # [2, 3] send to two rows holding the same vector
        params = init_bilstm(rng, 4, 3)
        weights = rng.normal(size=(1, 2, 6))
        emb = layers.random_embedding(5, 4, rng)
        emb.table.value[3] = emb.table.value[2]
        grads = []
        for ids in ([[2, 3]], [[2, 2]]):
            emb.table.zero_grad()
            with ad.Tape() as tape:
                rows, index = layers.embed(emb, np.array(ids))
                states = layers.bilstm(params, (rows, index), np.ones((1, 2)))
                ad.backward(tape, asum(ad.mul(states, weights)))
            grads.append(emb.table.grad.copy())
        apart, together = grads
        assert rows.value.shape == (1, 4)
        assert np.array_equal(together[2], apart[2] + apart[3])
        assert np.array_equal(together[3], np.zeros(4))

    def test_locked_row_not_updated_by_adam_despite_gradient(self, rng):
        emb = layers.random_embedding(6, 3, rng)
        emb.locked[4] = True
        before = emb.table.value.copy()
        slots = [ParamSlot("emb", emb.table, emb.unlocked_mask()[:, None])]
        opt = Adam(slots, lr=0.1)
        with ad.Tape() as tape:
            loss = asum(layers.embed(emb, np.array([2, 4]))[0])
            ad.backward(tape, loss)
        # the loss did depend on row 4, but its update must be suppressed
        opt.step()
        assert np.array_equal(emb.table.value[4], before[4])
        assert np.array_equal(emb.table.value[0], before[0])
        assert not np.array_equal(emb.table.value[2], before[2])

    def test_lock_flags_changed_after_construction_hold(self, rng):
        locked = np.array([True, False, False, True, False, False])
        emb = layers.EmbeddingMatrix(ad.Var(rng.normal(size=(6, 3))), locked)
        emb.locked[3] = False
        emb.locked[4] = True
        before = emb.table.value.copy()
        opt = Adam([ParamSlot("emb", emb.table, emb.unlocked_mask()[:, None])], lr=0.1)
        with ad.Tape() as tape:
            ad.backward(tape, asum(layers.embed(emb, np.array([2, 3, 4]))[0]))
        assert np.array_equal(emb.table.grad[3], np.ones(3))
        assert np.array_equal(emb.table.grad[4], np.zeros(3))
        opt.step()
        assert not np.array_equal(emb.table.value[3], before[3])
        assert np.array_equal(emb.table.value[4], before[4])


class TestBiLstm:
    def test_zero_input_zero_biases_gives_zero_activations(self, rng):
        params = init_bilstm(rng, 3, 4)
        x = positions(np.zeros((1, 5, 3)))
        acts = layers.bilstm(params, x, np.ones((1, 5)))
        assert np.array_equal(acts.value, np.zeros((1, 5, 8)))

    def test_single_position_shapes(self, rng):
        params = init_bilstm(rng, 3, 4)
        x = positions(rng.normal(size=(1, 1, 3)))
        acts = layers.bilstm(params, x, np.ones((1, 1)))
        assert acts.value.shape == (1, 1, 8)

    def test_single_example_without_batch_axis_rejected(self, rng):
        params = init_bilstm(rng, 3, 4)
        with pytest.raises(DimensionError):
            layers.bilstm(params, (ad.Var(rng.normal(size=(5, 3))), np.arange(5)), np.ones(5))

    def test_masked_positions_emit_zeros(self, rng):
        params = init_bilstm(rng, 3, 4)
        x = positions(rng.normal(size=(1, 5, 3)))
        acts = layers.bilstm(params, x, np.array([[1, 1, 1, 0, 0]]))
        assert np.array_equal(acts.value[0, 3:], np.zeros((2, 8)))
        assert not np.allclose(acts.value[0, :3], 0.0)

    def test_masked_equals_shorter_sequence(self, rng):
        params = init_bilstm(rng, 3, 4)
        raw = rng.normal(size=(3, 6, 3))
        lengths = (6, 3, 1)
        mask = np.array([[1.0] * n + [0.0] * (6 - n) for n in lengths])
        full = layers.bilstm(params, positions(raw), mask).value
        for r, n in enumerate(lengths):
            alone = layers.bilstm(params, positions(raw[r : r + 1, :n]), np.ones((1, n))).value
            # both halves: forward states [:4] and backward states [4:]
            assert np.allclose(full[r, :n], alone[0], atol=1e-12)

    def test_forward_records_one_node(self, rng):
        params = init_bilstm(rng, 3, 4)
        x = positions(rng.normal(size=(2, 5, 3)))
        with ad.Tape() as tape:
            layers.bilstm(params, x, np.array([[1, 1, 1, 1, 1], [1, 1, 0, 0, 0]]))
        assert len(tape.nodes) == 1

    def test_non_prefix_mask_rejected(self, rng):
        params = init_bilstm(rng, 3, 4)
        x = positions(rng.normal(size=(1, 4, 3)))
        with pytest.raises(ContractError):
            layers.bilstm(params, x, np.array([[1, 0, 1, 0]]))

    def test_forward_direction_causality(self, rng):
        params = init_bilstm(rng, 3, 4)
        base = rng.normal(size=(1, 6, 3))
        changed = base.copy()
        changed[0, 4:] = rng.normal(size=(2, 3))
        mask = np.ones((1, 6))
        a1 = layers.bilstm(params, positions(base), mask).value[0]
        a2 = layers.bilstm(params, positions(changed), mask).value[0]
        # forward half (first 4 dims) at positions <= 3 ignores later tokens
        assert np.array_equal(a1[:4, :4], a2[:4, :4])
        assert not np.allclose(a1[:4, 4:], a2[:4, 4:])

    def test_five_step_unroll_matches_finite_differences(self, rng):
        params = init_bilstm(rng, 2, 3)
        param_vars = [params.fwd.w, params.fwd.b, params.bwd.w, params.bwd.b]
        to_float64(param_vars)
        x = positions(rng.normal(size=(1, 5, 2)))
        mask = np.array([[1, 1, 1, 1, 0]])
        weights = rng.normal(size=(1, 5, 6))

        def f():
            return asum(ad.mul(layers.bilstm(params, x, mask), weights))

        all_vars = param_vars + [x[0]]
        assert grad_check(f, all_vars) < 1e-4


class TestAttentionHead:
    def test_identical_activations_give_uniform_alpha(self, rng):
        params = init_attention(rng, 6, 4)
        row = rng.normal(size=6)
        acts = ad.Var(np.tile(row, (1, 5, 1)))
        _, alpha = layers.attention_head(params, acts, np.ones((1, 5)))
        assert np.allclose(alpha.value, np.full((1, 5), 0.2), atol=1e-12)

    def test_single_survivor_context_equals_activation(self, rng):
        params = init_attention(rng, 6, 4)
        acts_v = rng.normal(size=(1, 4, 6))
        context, alpha = layers.attention_head(
            params, ad.Var(acts_v), np.array([[1, 0, 0, 0]])
        )
        assert np.array_equal(alpha.value, [[1.0, 0.0, 0.0, 0.0]])
        assert np.allclose(context.value, acts_v[:, 0], atol=1e-15)

    def test_context_matches_brute_force(self, rng):
        params = init_attention(rng, 6, 4)
        acts_v = rng.normal(size=(1, 7, 6))
        mask = np.array([[1, 1, 1, 1, 1, 0, 0]])
        context, alpha = layers.attention_head(params, ad.Var(acts_v), mask)
        brute = np.zeros(6)
        for k in range(7):
            brute += alpha.value[0, k] * acts_v[0, k]
        assert np.max(np.abs(context.value[0] - brute)) < 1e-12

    def test_context_in_convex_hull(self, rng):
        params = init_attention(rng, 8, 4)
        for trial in range(25):
            t_x = int(rng.integers(2, 9))
            length = int(rng.integers(1, t_x + 1))
            mask = np.zeros((1, t_x))
            mask[0, :length] = 1
            acts_v = rng.normal(size=(1, t_x, 8))
            context, _ = layers.attention_head(params, ad.Var(acts_v), mask)
            kept = acts_v[0, :length]
            assert np.all(context.value[0] >= kept.min(axis=0) - 1e-12)
            assert np.all(context.value[0] <= kept.max(axis=0) + 1e-12)

    def test_alpha_contract_batched(self, rng):
        params = init_attention(rng, 6, 4)
        acts_v = rng.normal(size=(3, 5, 6))
        mask = np.array([[1, 1, 1, 0, 0], [1, 1, 1, 1, 1], [1, 0, 0, 0, 0]])
        _, alpha = layers.attention_head(params, ad.Var(acts_v), mask)
        assert np.all(alpha.value >= 0)
        assert np.allclose(alpha.value.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(alpha.value[mask == 0] == 0.0)

    def test_grad_check(self, rng):
        params = init_attention(rng, 4, 3)
        param_vars = [params.w, params.b, params.v]
        to_float64(param_vars)
        acts = ad.Var(rng.normal(size=(1, 5, 4)))
        mask = np.array([[1, 1, 1, 1, 0]])
        weights = rng.normal(size=(1, 4))

        def f():
            context, _ = layers.attention_head(params, acts, mask)
            return asum(ad.mul(context, weights))

        all_vars = param_vars + [acts]
        assert grad_check(f, all_vars) < 1e-4


class TestDense:
    def test_zero_weights_give_constant_bias(self, rng):
        params = layers.DenseParams(w=ad.Var(np.zeros((3, 4))), b=ad.Var([1.0, -2.0, 0.5]))
        out = layers.dense(params, ad.Var(rng.normal(size=(6, 4))))
        assert np.allclose(out.value, np.tile([1.0, -2.0, 0.5], (6, 1)))

    def test_unknown_kind(self, rng):
        params = init_dense(rng, 3, 2)
        for kind in ("gelu", "softmax"):
            with pytest.raises(ParameterError):
                layers.dense(params, ad.Var(np.ones((1, 3))), activation=kind)

    def test_grad_check(self, rng):
        params = init_dense(rng, 4, 3)
        to_float64([params.w, params.b])
        x = ad.Var(rng.normal(size=(2, 4)))
        weights = rng.normal(size=(2, 3))

        def f():
            return asum(ad.mul(layers.dense(params, x, activation="relu"), weights))

        assert grad_check(f, [params.w, params.b, x]) < 1e-4


class TestDropout:
    def test_eval_mode_is_identity(self, rng):
        x = ad.Var(rng.normal(size=(4, 4)))
        out = layers.dropout(x, 0.4, None)
        assert out is x

    def test_zero_rate_is_identity(self, rng):
        x = ad.Var(rng.normal(size=(4, 4)))
        out = layers.dropout(x, 0.0, rng)
        assert out is x

    def test_rate_one_rejected(self, rng):
        with pytest.raises(ParameterError):
            layers.dropout(ad.Var(np.ones(3)), 1.0, rng)
        with pytest.raises(ParameterError):
            layers.dropout(ad.Var(np.ones(3)), 1.0, None)

    def test_survivor_fraction_and_mean(self, rng):
        x = ad.Var(np.ones(100_000))
        out = layers.dropout(x, 0.4, rng)
        survivors = np.count_nonzero(out.value) / x.value.size
        assert abs(survivors - 0.6) < 0.01
        assert abs(out.value.mean() - 1.0) < 0.02

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_keep_mask_matches_float64_draw_bit_for_bit(self, dtype):
        # the earlier mask: float64 (draw >= rate) / (1 - rate), cast by ad.mul
        x = ad.Var(np.random.default_rng(5).normal(size=(32, 30, 128)).astype(dtype))
        out = layers.dropout(x, 0.4, np.random.default_rng(9))
        draw = np.random.default_rng(9).random(x.value.shape)
        expected = x.value * ((draw >= 0.4) / (1.0 - 0.4)).astype(dtype)
        assert out.value.dtype == dtype
        assert np.array_equal(out.value, expected)

    def test_keep_mask_reaches_mul_in_activation_dtype(self, rng, monkeypatch):
        seen, mul = [], ad.mul

        def spy(a, b):
            seen.append(b)
            return mul(a, b)

        monkeypatch.setattr(layers.ad, "mul", spy)
        x = ad.Var(np.ones((4, 6), dtype=np.float32))
        layers.dropout(x, 0.4, rng)
        assert [keep.dtype for keep in seen] == [np.dtype(np.float32)]
