"""Layer-by-layer gradient checks and numeric edge cases."""

import tracemalloc

import numpy as np
import pytest
from helpers import (
    check_layer_gradients,
    conv1d_weight_grad_oracle,
    dense_attention_oracle,
    dropout,
    max_rel_error,
    maxpool_argmax_oracle,
    softmax,
)

from vtalarm.errors import InvalidConfig, ShapeMismatch, TooFewSamples, ValueOutOfRange
from vtalarm.nn import layers as nn_layers
from vtalarm.nn.layers import (
    BN_EPS,
    Adam,
    BatchNorm,
    Conv1D,
    Dense,
    Dropout,
    GlobalAvgPool,
    MaxPool1D,
    MultiHeadAttention,
    ReLU,
    adam_step,
    sigmoid,
    weighted_bce_with_logits,
)

GRAD_TOL = 1e-4


def rngs(seed):
    return np.random.default_rng(seed), np.random.default_rng(seed + 1000)


# ------------------------------------------------------------- gradient suite


@pytest.mark.parametrize("seed", range(5))
def test_dense_gradients(seed):
    data_rng, init_rng = rngs(seed)
    b, d_in, d_out = int(data_rng.integers(1, 6)), int(data_rng.integers(2, 7)), int(data_rng.integers(1, 6))
    layer = Dense(d_in, d_out, init_rng)
    x = data_rng.normal(size=(b, d_in))
    assert check_layer_gradients(layer, x, data_rng) <= GRAD_TOL


@pytest.mark.parametrize("seed", range(5))
def test_conv1d_gradients(seed):
    data_rng, init_rng = rngs(seed + 10)
    b, t = int(data_rng.integers(1, 4)), int(data_rng.integers(5, 10))
    c, k = int(data_rng.integers(1, 4)), int(data_rng.integers(1, 4))
    f = int(data_rng.choice([1, 3, 5]))
    layer = Conv1D(c, k, f, init_rng)
    x = data_rng.normal(size=(b, t, c))
    assert check_layer_gradients(layer, x, data_rng) <= GRAD_TOL


@pytest.mark.parametrize("b, t, c, k, f", [(2, 9, 2, 3, 1), (3, 10, 3, 4, 3), (2, 12, 3, 5, 7), (4, 600, 3, 32, 7)])
def test_conv1d_weight_grad_matches_per_tap_oracle(b, t, c, k, f):
    """The last case is the cnn-train benchmark's shape: batch 4, 600x3, 32 filters of 7."""
    rng = np.random.default_rng(140 + f + t)
    layer = Conv1D(c, k, f, rng)
    x = rng.normal(size=(b, t, c))
    out = layer.forward(x, train=True)
    dout = rng.normal(size=out.shape)
    layer.backward(dout)
    assert layer.grads["W"].shape == (k, f, c)
    assert max_rel_error(conv1d_weight_grad_oracle(layer, x, dout), layer.grads["W"]) <= 1e-12


@pytest.mark.parametrize("seed", range(5))
def test_batchnorm_gradients_dense_and_temporal(seed):
    data_rng, _ = rngs(seed + 20)
    n = int(data_rng.integers(2, 6))
    layer = BatchNorm(n)
    x2 = data_rng.normal(size=(int(data_rng.integers(3, 8)), n))
    assert check_layer_gradients(layer, x2, data_rng) <= GRAD_TOL
    layer3 = BatchNorm(n)
    x3 = data_rng.normal(size=(2, int(data_rng.integers(3, 6)), n))
    assert check_layer_gradients(layer3, x3, data_rng) <= GRAD_TOL


@pytest.mark.parametrize("seed", range(5))
def test_maxpool_gradients(seed):
    data_rng, _ = rngs(seed + 30)
    b, t, k = int(data_rng.integers(1, 4)), int(data_rng.integers(4, 11)), int(data_rng.integers(1, 4))
    layer = MaxPool1D()
    x = data_rng.normal(size=(b, t, k))
    assert check_layer_gradients(layer, x, data_rng) <= GRAD_TOL


@pytest.mark.parametrize("seed", range(5))
def test_attention_gradients(seed):
    data_rng, init_rng = rngs(seed + 40)
    heads = int(data_rng.choice([1, 2]))
    model_dim = heads * int(data_rng.integers(2, 4))
    b, t = int(data_rng.integers(1, 3)), int(data_rng.integers(3, 7))
    layer = MultiHeadAttention(model_dim, heads, init_rng)
    x = data_rng.normal(size=(b, t, model_dim))
    assert check_layer_gradients(layer, x, data_rng) <= GRAD_TOL


@pytest.mark.parametrize("tile_rows", [1, 2, 3])
def test_attention_gradients_with_tiles_smaller_than_t(tile_rows, monkeypatch):
    data_rng, init_rng = rngs(tile_rows + 45)
    b, t = 2, 7  # tiles of 1, 2 and 3 rows; the last two leave a ragged last tile
    monkeypatch.setattr(nn_layers, "TILE_BYTES", 8 * t * tile_rows)
    layer = MultiHeadAttention(4, 2, init_rng)
    x = data_rng.normal(size=(b, t, 4))
    assert check_layer_gradients(layer, x, data_rng) <= GRAD_TOL


@pytest.mark.parametrize("seed", range(5))
def test_global_pool_gradients(seed):
    data_rng, _ = rngs(seed + 50)
    x = data_rng.normal(size=(int(data_rng.integers(1, 4)), int(data_rng.integers(2, 9)), int(data_rng.integers(1, 5))))
    assert check_layer_gradients(GlobalAvgPool(), x, data_rng) <= GRAD_TOL


@pytest.mark.parametrize("seed", range(5))
def test_relu_gradients(seed):
    data_rng, _ = rngs(seed + 60)
    x = data_rng.normal(size=(4, int(data_rng.integers(2, 8)))) + 0.05  # keep off the kink
    assert check_layer_gradients(ReLU(), x, data_rng) <= GRAD_TOL


@pytest.mark.parametrize("seed", range(5))
def test_loss_head_gradients(seed):
    rng = np.random.default_rng(seed + 70)
    n = int(rng.integers(3, 12))
    logits = rng.normal(size=n)
    labels = rng.integers(0, 2, size=n)
    if labels.min() == labels.max():
        labels[0] = 1 - labels[0]
    weights = rng.uniform(0.5, 2.0, size=n)
    _, analytic = weighted_bce_with_logits(logits, labels, weights)
    eps = 1e-6
    numeric = np.zeros(n)
    for i in range(n):
        up, down = logits.copy(), logits.copy()
        up[i] += eps
        down[i] -= eps
        numeric[i] = (
            weighted_bce_with_logits(up, labels, weights)[0]
            - weighted_bce_with_logits(down, labels, weights)[0]
        ) / (2 * eps)
    assert max_rel_error(numeric, analytic) <= GRAD_TOL


def test_dropout_backward_reuses_mask():
    rng = np.random.default_rng(80)
    layer = Dropout(0.4, np.random.default_rng(81))
    x = rng.normal(size=(6, 10))
    out = layer.forward(x, train=True)
    mask = (out != 0).astype(float) / 0.6
    dout = rng.normal(size=out.shape)
    assert np.allclose(layer.backward(dout), dout * mask)


# ----------------------------------------------------------- pointwise pieces


def test_softmax_rows_sum_to_one_and_shift_invariance():
    rng = np.random.default_rng(90)
    x = rng.normal(size=(4, 7))
    s = softmax(x)
    assert np.allclose(s.sum(axis=1), 1.0)
    assert np.allclose(softmax(x + 100.0), s)
    assert np.all(np.isfinite(softmax(np.array([[1000.0, -1000.0]]))))


def test_sigmoid_stable_at_extremes():
    out = sigmoid(np.array([-1000.0, 0.0, 1000.0]))
    assert out[0] == 0.0
    assert out[1] == 0.5
    assert out[2] == 1.0
    assert np.all(np.isfinite(out))


def test_relu_zeroes_negatives_only():
    x = np.array([[-1.0, 0.0, 2.5]])
    assert ReLU().forward(x, train=True).tolist() == [[0.0, 0.0, 2.5]]


@pytest.mark.parametrize("n", [3, 64, 67])  # numpy's scalar loop, then its SIMD loop with and without a tail
def test_relu_gives_the_where_forms_bytes_on_signed_zeros(n):
    rng = np.random.default_rng(160 + n)
    x = rng.normal(size=(2, n))
    x[:, ::3] = 0.0
    x[:, 1::3] = -0.0
    dout = rng.normal(size=x.shape)
    want = np.where(x > 0, x, 0.0)
    layer = ReLU()
    assert layer.forward(x, train=True).tobytes() == want.tobytes()
    assert layer.backward(dout).tobytes() == (dout * (x > 0)).tobytes()
    inference_input = x.copy()
    got = layer.forward(inference_input, train=False)
    assert got.tobytes() == want.tobytes()
    assert np.shares_memory(got, inference_input)  # inference writes into its input


# ----------------------------------------------------------------- batch norm


def test_batchnorm_normalizes_batch_statistics():
    rng = np.random.default_rng(100)
    layer = BatchNorm(4)
    x = rng.normal(loc=3.0, scale=2.0, size=(64, 4))
    out = layer.forward(x, train=True)
    assert np.allclose(out.mean(axis=0), 0.0, atol=1e-10)
    assert np.allclose(out.var(axis=0), 1.0, atol=1e-4)


def test_batchnorm_running_stats_update_rule():
    rng = np.random.default_rng(101)
    layer = BatchNorm(3)
    x = rng.normal(size=(16, 3))
    layer.forward(x, train=True)
    assert np.allclose(layer.state["running_mean"], 0.1 * x.mean(axis=0))
    assert np.allclose(layer.state["running_var"], 0.9 * 1.0 + 0.1 * x.var(axis=0))


def test_batchnorm_inference_uses_running_stats():
    layer = BatchNorm(2)
    layer.state["running_mean"] = np.array([1.0, -1.0])
    layer.state["running_var"] = np.array([4.0, 0.25])
    out = layer.forward(np.array([[3.0, 0.0]]), train=False)
    assert out[0, 0] == pytest.approx(1.0, rel=1e-5)
    assert out[0, 1] == pytest.approx(2.0, rel=1e-4)


@pytest.mark.parametrize("train", [True, False])
def test_batchnorm_forward_is_bit_identical_to_the_textbook_formula(train):
    rng = np.random.default_rng(102)
    layer = BatchNorm(32)
    layer.params = {"gamma": rng.normal(size=32), "beta": rng.normal(size=32)}
    layer.state = {"running_mean": rng.normal(size=32), "running_var": rng.uniform(0.5, 2.0, size=32)}
    x = rng.normal(loc=1.0, size=(6, 50, 32))
    if train:
        mean, var = x.mean(axis=(0, 1)), x.var(axis=(0, 1))
    else:
        mean, var = layer.state["running_mean"], layer.state["running_var"]
    want = layer.params["gamma"] * ((x - mean) * (1.0 / np.sqrt(var + BN_EPS))) + layer.params["beta"]
    assert layer.forward(x, train).tobytes() == want.tobytes()


def test_batchnorm_inference_writes_into_its_input():
    # in a predict batch the input is the convolution's fresh output; a second array would set the peak
    x = np.random.default_rng(108).normal(size=(3, 20, 4))
    layer = BatchNorm(4)
    want = layer.forward(x.copy(), train=False)
    got = layer.forward(x, train=False)
    assert np.shares_memory(got, x)
    assert got.tobytes() == want.tobytes()


def test_batchnorm_inference_peak_stays_near_the_input_size():
    # the cnn's BatchNorm input in a default-budget predict batch, about 7.4 MB
    x = np.random.default_rng(103).normal(size=(48, 600, 32))
    layer = BatchNorm(32)
    tracemalloc.start()
    try:
        layer.forward(x, train=False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * x.nbytes


def test_attention_inference_peak_stays_near_its_input_and_output():
    # one batch row's projections at a time: the whole batch's would be 3.4 times the input
    x = np.random.default_rng(104).normal(size=(48, 300, 32))
    layer = MultiHeadAttention(32, 4, np.random.default_rng(105))
    tracemalloc.start()
    try:
        layer.forward(x, train=False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3 * x.nbytes


def test_batchnorm_rejects_single_element_batch():
    with pytest.raises(TooFewSamples):
        BatchNorm(3).forward(np.zeros((1, 3)), train=True)


# -------------------------------------------------------------------- pooling


def test_maxpool_drops_odd_tail_and_prefers_first_on_ties():
    x = np.array([[[1.0], [1.0], [0.0], [5.0], [9.0]]])  # T=5, tail dropped
    layer = MaxPool1D()
    out = layer.forward(x, train=True)
    assert out.shape == (1, 2, 1)
    assert out[0, :, 0].tolist() == [1.0, 5.0]
    dx = layer.backward(np.ones_like(out))
    # tie in the first window routes to the earlier sample
    assert dx[0, :, 0].tolist() == [1.0, 0.0, 0.0, 1.0, 0.0]


@pytest.mark.parametrize("t", [8, 9])
def test_maxpool_matches_argmax_form_bit_for_bit(t):
    rng = np.random.default_rng(150 + t)
    x = rng.integers(-2, 3, size=(3, t, 4)).astype(float)  # small integers: many tied windows
    x[0, 0, 0], x[0, 1, 0] = 0.0, -0.0  # a tie between the two zeros keeps the first one's sign
    x[1, 0, 1], x[1, 1, 1] = -0.0, 0.0
    layer = MaxPool1D()
    out = layer.forward(x, train=True)
    dout = rng.normal(size=out.shape)
    want_out, want_dx = maxpool_argmax_oracle(x, dout)
    assert out.tobytes() == want_out.tobytes()
    assert layer.backward(dout).tobytes() == want_dx.tobytes()


@pytest.mark.parametrize("b, t, k", [(1, 6, 1), (2, 7, 3), (2, 128, 1), (1, 131, 64)])
def test_maxpool_gives_the_argmax_forms_bytes_on_signed_zero_ties(b, t, k):
    """3 windows a row hit numpy's scalar loop, 64 and more its SIMD loop."""
    rng = np.random.default_rng(170 + t)
    x = rng.normal(size=(b, t, k))
    x[:, 0:-1:4], x[:, 1::4] = 0.0, -0.0  # ties of 0.0 then -0.0
    x[:, 2:-1:4], x[:, 3::4] = -0.0, 0.0  # and of -0.0 then 0.0
    dout = rng.normal(size=(b, t // 2, k))
    dout[:, ::5] = 0.0
    layer = MaxPool1D()
    out = layer.forward(x, train=True)
    want_out, want_dx = maxpool_argmax_oracle(x, dout)
    assert out.tobytes() == want_out.tobytes()
    assert layer.backward(dout).tobytes() == want_dx.tobytes()
    assert layer.forward(x, train=False).tobytes() == want_out.tobytes()


# ------------------------------------------------------------------ attention


def attention_case(seed, b, t, model_dim=8, heads=2):
    rng = np.random.default_rng(seed)
    layer = MultiHeadAttention(model_dim, heads, rng)
    return layer, rng.normal(size=(b, t, model_dim)), rng.normal(size=(b, t, model_dim))


@pytest.mark.parametrize("b, t", [(1, 3), (2, 17), (3, 64), (2, 300)])
def test_attention_matches_dense_oracle_in_one_tile(b, t):
    layer, x, dout = attention_case(111 + t, b, t)
    assert layer._tile_rows(t) == t
    out, dx, grads = dense_attention_oracle(layer, x, dout)
    # the oracle divides before P.V and reduces the row max and sum on
    # their own; the layer folds the shift and the sum into its products
    assert max_rel_error(out, layer.forward(x, train=True)) <= 1e-12
    # the dO.O row term and the GEMM weight gradients round differently
    assert max_rel_error(dx, layer.backward(dout)) <= 1e-12
    for name, grad in grads.items():
        assert max_rel_error(grad, layer.grads[name]) <= 1e-12, name


def test_attention_matches_dense_oracle_on_inputs_scaled_by_ten():
    layer, x, dout = attention_case(115, 2, 64)
    x *= 10.0  # scores in the hundreds: exp overflows unless the max shift is exact
    out, dx, grads = dense_attention_oracle(layer, x, dout)
    got = layer.forward(x, train=True)
    got_dx = layer.backward(dout)
    assert np.all(np.isfinite(got)) and np.all(np.isfinite(got_dx))
    assert max_rel_error(out, got) <= 1e-12
    assert max_rel_error(dx, got_dx) <= 1e-12
    for name, grad in grads.items():
        assert max_rel_error(grad, layer.grads[name]) <= 1e-12, name


def test_attention_training_and_inference_forward_give_the_same_bytes():
    layer, x, _ = attention_case(116, 3, 40)
    assert layer.forward(x, train=True).tobytes() == layer.forward(x, train=False).tobytes()


@pytest.mark.parametrize("tile_rows", [1, 5, 16, 63])
def test_attention_matches_dense_oracle_in_tiles_smaller_than_t(tile_rows, monkeypatch):
    b, t = 2, 64  # 5 and 63 rows leave a ragged last tile
    layer, x, dout = attention_case(112 + tile_rows, b, t)
    out, dx, grads = dense_attention_oracle(layer, x, dout)
    monkeypatch.setattr(nn_layers, "TILE_BYTES", 8 * t * tile_rows)
    assert layer._tile_rows(t) == tile_rows
    assert max_rel_error(out, layer.forward(x, train=True)) <= 1e-12
    assert max_rel_error(dx, layer.backward(dout)) <= 1e-12
    for name, grad in grads.items():
        assert max_rel_error(grad, layer.grads[name]) <= 1e-12, name


def shifts_and_row_maxes(layer):
    """Each query row's softmax shift, as the last training forward wrote
    it, and the row's max score, (B, H, T) each."""
    _, q, k, _, _, _ = layer._cache
    d = layer.d_k
    scores = q[..., :d] @ k[..., :d].swapaxes(-1, -2)
    return -q[..., d], scores.max(axis=-1)


def assert_shifts_bound_the_row_maxes(layer):
    shift, row_max = shifts_and_row_maxes(layer)
    # the bound and the max are sums of d_k products rounded in different orders
    assert np.all(shift >= row_max - 1e-12 * np.maximum(1.0, np.abs(row_max)))
    assert np.all(shift - row_max <= nn_layers.SHIFT_SLACK)


@pytest.mark.parametrize("tile_rows", [64, 5, 63])
def test_attention_backward_rebuilds_the_forward_probabilities_bit_for_bit(tile_rows, monkeypatch):
    b, t, heads = 2, 64, 4  # one tile, then ragged last tiles
    layer, x, dout = attention_case(114 + tile_rows, b, t, model_dim=12, heads=heads)
    monkeypatch.setattr(nn_layers, "TILE_BYTES", 8 * t * tile_rows)
    tiles = []  # copies of the exp tiles, batch row by row: the forward's, then the backward's
    make_tiles = layer._tiles

    def recorded(q, k, scratch):
        for hi, rows, e in make_tiles(q, k, scratch):
            tiles.append((hi, rows.start, e.copy()))
            yield hi, rows, e

    monkeypatch.setattr(layer, "_tiles", recorded)
    layer.forward(x, train=True)
    assert_shifts_bound_the_row_maxes(layer)
    layer.backward(dout)
    n = b * heads * -(-t // tile_rows)
    assert len(tiles) == 2 * n
    for (*at, forward), (*again, backward) in zip(tiles[:n], tiles[n:]):
        assert at == again
        assert np.array_equal(forward, backward)


@pytest.mark.parametrize("scale", [1.0, 10.0, 30.0])
def test_attention_shift_is_at_least_the_row_max_and_at_most_the_slack_above_it(scale):
    layer, x, _ = attention_case(117, 3, 64)
    layer.forward(scale * x, train=True)
    assert_shifts_bound_the_row_maxes(layer)


def test_attention_rows_over_the_slack_take_their_exact_max():
    layer, x, _ = attention_case(118, 2, 64)
    x *= 10.0
    layer.forward(x, train=True)
    shift, row_max = shifts_and_row_maxes(layer)
    exact = np.isclose(shift, row_max, rtol=1e-14, atol=0)
    assert 0 < exact.sum() < exact.size  # some rows fell back, some kept their bound
    assert_shifts_bound_the_row_maxes(layer)


@pytest.mark.parametrize("scale, tile_rows", [(1.0, 64), (10.0, 64), (10.0, 5)])
def test_attention_on_the_exact_max_fallback_matches_the_dense_oracle(scale, tile_rows, monkeypatch):
    b, t = 2, 64  # 5 rows leave a ragged last tile
    layer, x, dout = attention_case(119, b, t)
    x *= scale
    monkeypatch.setattr(nn_layers, "SHIFT_SLACK", -1.0)  # every row's bound is more than -1 above its diagonal score
    monkeypatch.setattr(nn_layers, "TILE_BYTES", 8 * t * tile_rows)
    out, dx, grads = dense_attention_oracle(layer, x, dout)
    got = layer.forward(x, train=True)
    shift, row_max = shifts_and_row_maxes(layer)
    assert np.allclose(shift, row_max, rtol=1e-14, atol=0)
    got_dx = layer.backward(dout)
    assert np.all(np.isfinite(got)) and np.all(np.isfinite(got_dx))
    assert max_rel_error(out, got) <= 1e-12
    assert max_rel_error(dx, got_dx) <= 1e-12
    for name, grad in grads.items():
        assert max_rel_error(grad, layer.grads[name]) <= 1e-12, name


def test_attention_inference_forward_keeps_no_cache():
    layer, x, _ = attention_case(113, 2, 9)
    layer.forward(x, train=True)
    _, q, k, _, _, row_sums = layer._cache
    assert row_sums.shape == (2, 2, 9)  # each query row's sum of exp(score - shift)
    d = layer.d_k
    scores = q[..., :d] @ k[..., :d].swapaxes(-1, -2)
    assert max_rel_error(np.exp(scores + q[..., d:]).sum(axis=-1), row_sums) <= 1e-12  # q's last column is -shift
    # the max's own term, exp(max - shift), keeps every sum a normal float
    assert np.all(row_sums >= np.exp(-nn_layers.SHIFT_SLACK))
    layer.forward(x, train=False)
    assert layer._cache is None  # the row sums went with it


def test_attention_rejects_indivisible_heads():
    with pytest.raises(InvalidConfig):
        MultiHeadAttention(10, 4, np.random.default_rng(0))


def test_conv1d_inference_peak_stays_near_its_output():
    # a default-budget predict batch at cnn-train's input: 27 rows of 600 x 3, 32 filters
    x = np.random.default_rng(106).normal(size=(27, 600, 3))
    layer = Conv1D(3, 32, 7, np.random.default_rng(107))
    tracemalloc.start()
    try:
        out = layer.forward(x, train=False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.8 * out.nbytes


def test_conv1d_rejects_an_even_filter_size():
    with pytest.raises(InvalidConfig):
        Conv1D(3, 8, 6, np.random.default_rng(0))


def test_attention_shape_check():
    layer = MultiHeadAttention(8, 2, np.random.default_rng(1))
    with pytest.raises(ShapeMismatch):
        layer.forward(np.zeros((2, 5, 6)), train=True)


# -------------------------------------------------------------------- dropout


def test_dropout_inference_and_p_zero_are_identity():
    rng = np.random.default_rng(120)
    x = rng.normal(size=(50, 20))
    assert np.array_equal(dropout(x, 0.5, train=False, rng=0), x)
    assert np.array_equal(dropout(x, 0.0, train=True, rng=0), x)


def test_dropout_zero_fraction_and_inverted_scaling():
    rng = np.random.default_rng(121)
    x = np.ones((200, 200))
    out = dropout(x, 0.3, train=True, rng=rng)
    zero_fraction = np.mean(out == 0.0)
    assert abs(zero_fraction - 0.3) < 0.02
    survivors = out[out != 0]
    assert np.allclose(survivors, 1.0 / 0.7)
    assert abs(out.mean() - 1.0) < 0.02  # expectation preserved


def test_dropout_rejects_bad_probability():
    with pytest.raises(InvalidConfig):
        Dropout(1.0)


# ----------------------------------------------------------------------- loss


def test_bce_hand_value_and_gradient():
    logits = np.array([0.0, 0.0])
    labels = np.array([1, 0])
    loss, grad = weighted_bce_with_logits(logits, labels)
    assert loss == pytest.approx(np.log(2.0))
    assert np.allclose(grad, [(0.5 - 1) / 2, (0.5 - 0) / 2])


def test_bce_weighted_gradient_formula():
    rng = np.random.default_rng(130)
    logits = rng.normal(size=8)
    labels = rng.integers(0, 2, size=8)
    weights = rng.uniform(0.1, 3.0, size=8)
    _, grad = weighted_bce_with_logits(logits, labels, weights)
    expected = weights * (sigmoid(logits) - labels) / weights.sum()
    assert np.allclose(grad, expected)


def test_bce_clamps_extreme_probabilities():
    loss, _ = weighted_bce_with_logits(np.array([1000.0, -1000.0]), np.array([0, 1]))
    assert np.isfinite(loss)
    assert loss == pytest.approx(-np.log(1e-7), rel=1e-6)


def test_bce_rejects_bad_labels():
    with pytest.raises(ValueOutOfRange):
        weighted_bce_with_logits(np.zeros(2), np.array([0, 2]))


# ----------------------------------------------------------------------- adam


def test_adam_step_matches_hand_computation():
    param = np.array([1.0, -2.0])
    grad = np.array([0.5, -1.5])
    state = {}
    adam_step(param, grad, state, lr=0.01)
    m = 0.1 * grad
    v = 0.001 * grad**2
    m_hat = m / 0.1
    v_hat = v / 0.001
    expected = np.array([1.0, -2.0]) - 0.01 * m_hat / (np.sqrt(v_hat) + 1e-8)
    assert np.allclose(param, expected, atol=1e-12)
    assert state["t"] == 1


def test_adam_step_is_bit_identical_to_the_textbook_update():
    rng = np.random.default_rng(106)
    param, state = rng.normal(size=(5, 3)), {}
    want, m, v = param.copy(), np.zeros((5, 3)), np.zeros((5, 3))
    for t in range(1, 6):
        grad = rng.normal(size=(5, 3)) * 10.0 ** rng.integers(-6, 2)
        adam_step(param, grad, state, lr=0.003)
        m = 0.9 * m + (1 - 0.9) * grad
        v = 0.999 * v + (1 - 0.999) * grad * grad
        want -= 0.003 * (m / (1 - 0.9**t)) / (np.sqrt(v / (1 - 0.999**t)) + 1e-8)
        assert param.tobytes() == want.tobytes(), t
        assert state["m"].tobytes() == m.tobytes() and state["v"].tobytes() == v.tobytes(), t


def test_adam_converges_on_quadratic():
    param = np.array([5.0])
    state = {}
    for _ in range(2000):
        adam_step(param, 2.0 * param, state, lr=0.05)
    assert abs(param[0]) < 1e-3


def test_adam_optimizer_keeps_per_tensor_state():
    optimizer = Adam(lr=0.1)
    a, b = np.array([1.0]), np.array([2.0])
    optimizer.step([("a", a, np.array([1.0])), ("b", b, np.array([1.0]))])
    assert set(optimizer.states) == {"a", "b"}
    assert optimizer.states["a"]["t"] == 1
