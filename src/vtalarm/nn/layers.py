"""Differentiable layers with explicit forward/backward passes.

Every layer caches what its backward pass needs in ``_cache`` during a
training forward; an inference forward (``train=False``) clears it, so
no activation outlives a predict call. An inference forward may also
write its output into its input (``BatchNorm`` and ``ReLU`` do):
``Model.predict`` only ever passes a layer the previous layer's fresh
output, so a caller of ``forward(x, train=False)`` must not need ``x``
afterwards. Layers expose parameters and gradients as name->array
dicts. Gradients follow the standard chain-rule derivations; each one
is pinned by the central finite-difference suite in the tests.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..errors import InvalidConfig, ShapeMismatch, TooFewSamples, ValueOutOfRange

TILE_BYTES = 1 << 20  # bytes of one attention score tile, (query rows, T) float64
SHIFT_SLACK = 200.0  # most an attention row's softmax shift may exceed its max score
BN_MOMENTUM, BN_EPS = 0.9, 1e-5  # BatchNorm's running-stat momentum and variance floor
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Stable branch form: never exponentiates a positive argument."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


class Layer:
    """Base layer: parameter-free identity."""

    def __init__(self):
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}
        self.state: dict[str, np.ndarray] = {}
        self._cache = None

    def forward(self, x: np.ndarray, train: bool) -> np.ndarray:
        raise NotImplementedError

    def backward(self, dout: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class Dense(Layer):
    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator):
        super().__init__()
        self.in_dim, self.out_dim = in_dim, out_dim
        self.params = {
            "W": rng.normal(0.0, np.sqrt(2.0 / in_dim), size=(out_dim, in_dim)),
            "b": np.zeros(out_dim),
        }

    def forward(self, x, train):
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise ShapeMismatch(f"Dense expects (B, {self.in_dim}), got {x.shape}")
        self._cache = x if train else None
        return x @ self.params["W"].T + self.params["b"]

    def backward(self, dout):
        self.grads = {"W": dout.T @ self._cache, "b": dout.sum(axis=0)}
        return dout @ self.params["W"]


class ReLU(Layer):
    """max(x, 0), with +0.0 for every non-positive input; an inference
    forward writes it into ``x``."""

    def forward(self, x, train):
        self._cache = x > 0 if train else None
        out = np.maximum(x, 0.0, out=None if train else x)
        out += 0.0  # a -0.0 input comes out +0.0 whichever operand maximum returns on the tie
        return out

    def backward(self, dout):
        return dout * self._cache


class Conv1D(Layer):
    """Same-padded 1D cross-correlation over time, (B, T, C) -> (B, T, K).

    Forward is one product of the (B T, F C) column matrix, whose row
    (b, t) holds the padded input's samples t .. t + F - 1, with the
    weights viewed as (K, F C). A training forward keeps the columns, so
    the weight gradient is one product too; the input gradient adds up
    one product per filter tap.
    """

    def __init__(self, in_channels: int, n_filters: int, filter_size: int, rng):
        super().__init__()
        if filter_size % 2 != 1:
            raise InvalidConfig("filter_size must be odd for symmetric same padding")
        self.c, self.k, self.f = in_channels, n_filters, filter_size
        fan_in = filter_size * in_channels
        self.params = {
            "W": rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(n_filters, filter_size, in_channels)),
            "b": np.zeros(n_filters),
        }

    def forward(self, x, train):
        if x.ndim != 3 or x.shape[2] != self.c:
            raise ShapeMismatch(f"Conv1D expects (B, T, {self.c}), got {x.shape}")
        b, t, _ = x.shape
        pad = (self.f - 1) // 2
        x_pad = np.zeros((b, t + 2 * pad, self.c))
        x_pad[:, pad : pad + t, :] = x
        windows = sliding_window_view(x_pad, self.f, axis=1)  # (B, T, C, F): [.., s, c, f] = x_pad[.., s + f, c]
        cols = np.ascontiguousarray(windows.transpose(0, 1, 3, 2)).reshape(b * t, self.f * self.c)
        del windows, x_pad  # the output is not allocated beside them
        self._cache = cols if train else None
        out = cols @ self.params["W"].reshape(self.k, -1).T
        out += self.params["b"]
        return out.reshape(b, t, self.k)

    def backward(self, dout):
        cols, (b, t, k) = self._cache, dout.shape
        pad = (self.f - 1) // 2
        w = self.params["W"]
        dx_pad = np.zeros((b, t + 2 * pad, self.c))
        for f in range(self.f):
            dx_pad[:, f : f + t, :] += dout @ w[:, f, :]
        flat = dout.reshape(b * t, k)
        self.grads = {"W": (flat.T @ cols).reshape(w.shape), "b": dout.sum(axis=(0, 1))}
        return dx_pad[:, pad : pad + t, :]


class BatchNorm(Layer):
    """Normalize the trailing feature axis over all leading axes.

    Train mode uses batch statistics (population variance) and updates
    running stats with momentum ``BN_MOMENTUM``; inference uses the running
    stats and writes its output into ``x``. Both add ``BN_EPS`` to the
    variance.
    """

    def __init__(self, n_features: int):
        super().__init__()
        self.n_features = n_features
        self.params = {"gamma": np.ones(n_features), "beta": np.zeros(n_features)}
        self.state = {
            "running_mean": np.zeros(n_features),
            "running_var": np.ones(n_features),
        }

    def forward(self, x, train):
        if x.shape[-1] != self.n_features:
            raise ShapeMismatch(f"BatchNorm expects trailing dim {self.n_features}, got {x.shape}")
        axes = tuple(range(x.ndim - 1))
        if train:
            m = int(np.prod([x.shape[a] for a in axes]))
            if m < 2:
                raise TooFewSamples("train-mode batchnorm needs >= 2 elements per feature")
            mean = x.mean(axis=axes)
            xhat = x - mean
            # the variance from the centered array, as np.var computes it
            out = np.square(xhat)
            var = out.sum(axis=axes) / m
            self.state["running_mean"] = BN_MOMENTUM * self.state["running_mean"] + (1 - BN_MOMENTUM) * mean
            self.state["running_var"] = BN_MOMENTUM * self.state["running_var"] + (1 - BN_MOMENTUM) * var
        else:
            mean, var = self.state["running_mean"], self.state["running_var"]
            # inference keeps no xhat, and its input is the previous layer's fresh output
            out = xhat = np.subtract(x, mean, out=x)
        inv_std = 1.0 / np.sqrt(var + BN_EPS)
        xhat *= inv_std
        self._cache = (xhat, inv_std, axes) if train else None
        np.multiply(xhat, self.params["gamma"], out=out)
        out += self.params["beta"]
        return out

    def backward(self, dout):
        xhat, inv_std, axes = self._cache
        m = dout.size // dout.shape[-1]
        scratch = dout * xhat
        self.grads = {"gamma": scratch.sum(axis=axes), "beta": dout.sum(axis=axes)}
        mean_dout, mean_dout_xhat = self.grads["beta"] / m, self.grads["gamma"] / m
        dx = dout - mean_dout
        dx -= np.multiply(xhat, mean_dout_xhat, out=scratch)
        dx *= self.params["gamma"] * inv_std
        return dx


class MaxPool1D(Layer):
    """Non-overlapping windows of 2 over time; an odd tail sample is dropped.

    Backward routes the gradient to the larger sample; ties go to the earlier
    one, and so does the output's sign on a tie of 0.0 and -0.0. A -0.0
    gradient reaches a later winner as +0.0.
    """

    def forward(self, x, train):
        if x.ndim != 3 or x.shape[1] < 2:
            raise ShapeMismatch(f"MaxPool1D expects (B, T>=2, K), got {x.shape}")
        t2 = x.shape[1] // 2
        first, second = x[:, 0 : 2 * t2 : 2], x[:, 1 : 2 * t2 : 2]
        self._cache = (second > first, x.shape[1]) if train else None
        return np.maximum(second, first)  # maximum returns its second operand on a tie

    def backward(self, dout):
        later, t = self._cache
        b, t2, k = dout.shape
        dx = np.zeros((b, t, k))
        to_later = np.multiply(dout, later, out=dx[:, 1 : 2 * t2 : 2])
        to_later += 0.0  # -0.0 where the earlier sample won becomes +0.0
        np.subtract(dout, to_later, out=dx[:, 0 : 2 * t2 : 2])
        return dx


class MultiHeadAttention(Layer):
    """Self-attention: per head softmax(Q K^T / sqrt(d_k)) V, heads
    concatenated and projected back to the model dimension. Projections
    are bias-free; no masking.

    The (T, T) score matrices are never held whole. Each (batch, head)
    slice is worked through in blocks of query rows whose (rows, T)
    float64 tile fits ``TILE_BYTES``. A tile holds whole key rows, so its
    softmax is exact and needs no online rescaling. Every head works on
    its projections with one extra column: [q / sqrt(d_k), -shift],
    [k, 1] and [v, 1], so a tile's one product is the shifted scores,
    exponentiated in place to E. The product E [v, 1] carries the
    unnormalized head and the row sum l, and the head is divided by l on
    (rows, d_k) only, after the product (Dao 2023).

    Softmax is the same under any shift of a row, so the shift need not
    be the row max, only at least it (no exp overflows) and not far above
    it (the max's own term, and with it l, stays a normal float). Query
    row i's shift is the bound sum_c max(q_ic max_j k_jc, q_ic min_j k_jc),
    O(T d_k) per head, which no score of the row exceeds. Where the bound
    is more than ``SHIFT_SLACK`` above the diagonal score q_i . k_i, itself
    at most the row max, the row takes its exact max from score tiles.

    An inference forward projects one batch row at a time into one
    row-sized buffer, so it holds little beyond its input and output. A
    training forward keeps every row's shifted queries and l. Backward rebuilds
    E bit for bit from the same product, takes softmax backward's row
    term sum_j P_ij dP_ij as dO_i . O_i (Dao et al. 2022), and scales
    [dO, -dO . O] by 1/l once, so one product per tile gives
    (dP - dO . O) / l and one multiply by E gives the score gradient.
    """

    def __init__(self, model_dim: int, n_heads: int, rng):
        super().__init__()
        if model_dim % n_heads != 0:
            raise InvalidConfig(f"model_dim {model_dim} not divisible by {n_heads} heads")
        self.model_dim, self.n_heads = model_dim, n_heads
        self.d_k = model_dim // n_heads
        self._heads = np.repeat(np.eye(n_heads), self.d_k, axis=0)  # (model_dim, H): column c is in head c // d_k
        std = np.sqrt(2.0 / model_dim)
        self.params = {
            name: rng.normal(0.0, std, size=(model_dim, model_dim))
            for name in ("Wq", "Wk", "Wv", "Wo")
        }

    def _split(self, x):
        """(..., T, model_dim) -> (..., H, T, d_k)."""
        t = x.shape[-2]
        return x.reshape(x.shape[:-2] + (t, self.n_heads, self.d_k)).swapaxes(-3, -2)

    def _augmented(self, x, out, scratch):
        """Write one row's per-head [q / sqrt(d_k), -shift], [k, 1] and [v, 1]
        into ``out``, (3, H, T, d_k + 1), from ``x``, (T, model_dim)."""
        d = self.d_k
        queries = x @ self.params["Wq"]
        queries /= np.sqrt(d)
        keys = x @ self.params["Wk"]
        out[0, ..., :d] = self._split(queries)
        out[1, ..., :d] = self._split(keys)
        out[2, ..., :d] = self._split(x @ self.params["Wv"])
        out[1:, ..., d] = 1.0
        # per column c, max(q_c max_j k_jc, q_c min_j k_jc) = |q_c| half_range_c + q_c mid_c;
        # summed over a head's columns, it bounds each score of the row from above
        top, bottom = keys.max(axis=0), keys.min(axis=0)
        buf = np.abs(queries)
        shift = buf @ (self._heads * ((top - bottom) / 2)[:, None])
        shift += queries @ (self._heads * ((top + bottom) / 2)[:, None])  # (T, H)
        np.multiply(queries, keys, out=buf)  # summed per head, the diagonal scores q_i . k_i: at most the row max
        loose = shift - buf @ self._heads > SHIFT_SLACK
        q, k = out[0, ..., :d], out[1, ..., :d]
        step = len(scratch)
        for hi in np.flatnonzero(loose.any(axis=0)):
            rows = np.flatnonzero(loose[:, hi])
            for r0 in range(0, len(rows), step):
                some = rows[r0 : r0 + step]
                shift[some, hi] = np.matmul(q[hi, some], k[hi].T, out=scratch[: len(some)]).max(axis=1)
        out[0, ..., d] = -shift.T
        return out

    @staticmethod
    def _tile_rows(t: int) -> int:
        return max(1, min(t, TILE_BYTES // (8 * t)))

    def _tiles(self, q, k, scratch):
        """Yield (head, query rows, E) for every tile of one batch row,
        E = exp(q k^T) in ``scratch``, which the next tile overwrites. The
        queries' last column, minus the shift, meets k's column of ones, so
        E is exp(scores - shift), and the same q gives the same E bit for bit."""
        h, t, _ = q.shape
        step = len(scratch)
        for hi in range(h):
            keys = k[hi].T
            for r0 in range(0, t, step):
                rows = slice(r0, min(r0 + step, t))
                tile = scratch[: rows.stop - r0]
                np.matmul(q[hi, rows], keys, out=tile)
                np.exp(tile, out=tile)
                yield hi, rows, tile

    def forward(self, x, train):
        if x.ndim != 3 or x.shape[2] != self.model_dim:
            raise ShapeMismatch(f"attention expects (B, T, {self.model_dim}), got {x.shape}")
        b, t, dim = x.shape
        h, d = self.n_heads, self.d_k
        # training keeps every batch row's projections for backward; inference reuses one row's
        kept = b if train else 1
        qkv = np.empty((3, kept, h, t, d + 1))
        heads = np.empty((kept, t, h, d))  # the heads already in merged order
        row_sums = np.empty((kept, h, t))
        out = np.empty((b, t, dim))
        scratch = np.empty((self._tile_rows(t), t))
        ev = np.empty((len(scratch), d + 1))
        for bi in range(b):
            slot = bi if train else 0
            q, k, v = self._augmented(x[bi], qkv[:, slot], scratch)
            for hi, rows, e in self._tiles(q, k, scratch):
                part = ev[: len(e)]
                np.matmul(e, v[hi], out=part)  # [E v, l]
                np.divide(part[:, :d], part[:, d:], out=heads[slot, rows, hi])
                row_sums[slot, hi, rows] = part[:, d]
            np.matmul(heads[slot].reshape(t, dim), self.params["Wo"], out=out[bi])
        self._cache = (x, *qkv, heads.reshape(b, t, dim), row_sums) if train else None
        return out

    def backward(self, dout):
        x, q, k, v, merged, row_sums = self._cache
        p = self.params
        b, h, t, _ = q.shape
        d, dim = self.d_k, self.model_dim
        d_merged = dout @ p["Wo"].T
        # [dO, -dO . O] / l per head, dO . O being softmax backward's row term
        d_heads = np.empty((b, h, t, d + 1))
        d_heads[..., :d] = self._split(d_merged)
        d_heads[..., d] = -(d_merged * merged).reshape(b, t, h, d).sum(axis=3).transpose(0, 2, 1)
        d_heads /= row_sums[..., None]

        # d_q, d_k, d_v in merged (B, T, H, d) order, viewed per head
        grads = np.zeros((3, b, t, h, d))
        d_q, d_k, d_v = (g.transpose(0, 2, 1, 3) for g in grads)
        scratch = np.empty((self._tile_rows(t), t))
        d_scores = np.empty_like(scratch)
        for bi in range(b):
            for hi, rows, e in self._tiles(q[bi], k[bi], scratch):
                dh = d_heads[bi, hi, rows]
                tile = d_scores[: len(e)]
                np.matmul(dh, v[bi, hi].T, out=tile)  # (dP - dO . O) / l
                d_v[bi, hi] += e.T @ dh[:, :d]
                # the tile becomes d_scores, the gradient of q k^T / sqrt(d_k)
                tile *= e
                np.matmul(tile, k[bi, hi, :, :d], out=d_q[bi, hi, rows])
                d_k[bi, hi] += tile.T @ q[bi, hi, rows, :d]
        grads[0] /= np.sqrt(d)  # the scores took q over sqrt(d_k)

        x_rows = x.reshape(b * t, dim)
        dq_full, dk_full, dv_full = (g.reshape(b * t, dim) for g in grads)
        self.grads = {
            "Wq": x_rows.T @ dq_full,
            "Wk": x_rows.T @ dk_full,
            "Wv": x_rows.T @ dv_full,
            "Wo": merged.reshape(b * t, dim).T @ dout.reshape(b * t, dim),
        }
        dx = dq_full @ p["Wq"].T + dk_full @ p["Wk"].T + dv_full @ p["Wv"].T
        return dx.reshape(b, t, dim)


class GlobalAvgPool(Layer):
    """Mean over the time axis, (B, T, K) -> (B, K)."""

    def forward(self, x, train):
        if x.ndim != 3:
            raise ShapeMismatch(f"GlobalAvgPool expects (B, T, K), got {x.shape}")
        self._cache = x.shape[1] if train else None
        return x.mean(axis=1)

    def backward(self, dout):
        t = self._cache
        return np.repeat(dout[:, None, :] / t, t, axis=1)


class Dropout(Layer):
    """Inverted dropout: train-time zeroing with 1/(1-p) survivor scaling."""

    def __init__(self, p: float, rng: np.random.Generator | None = None):
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise InvalidConfig(f"dropout probability must be in [0, 1), got {p}")
        self.p = p
        self.rng = rng

    def forward(self, x, train):
        if not train or self.p == 0.0:
            self._cache = None  # backward passes the gradient through
            return x
        self._cache = (self.rng.random(x.shape) >= self.p) / (1.0 - self.p)
        return x * self._cache

    def backward(self, dout):
        return dout if self._cache is None else dout * self._cache


def weighted_bce_with_logits(
    logits: np.ndarray, labels: np.ndarray, weights: np.ndarray | None = None
) -> tuple[float, np.ndarray]:
    """Weighted binary cross-entropy through a stable sigmoid.

    Probabilities are clamped to [1e-7, 1 - 1e-7] inside the log; the
    returned gradient w.r.t. the logits is w * (p - y) / sum(w).
    """
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels)
    if not np.all((labels == 0) | (labels == 1)):
        raise ValueOutOfRange("labels must be 0 or 1")
    y = labels.astype(np.float64)
    w = np.ones_like(y) if weights is None else np.asarray(weights, dtype=np.float64)
    if w.shape != y.shape or logits.shape != y.shape:
        raise ShapeMismatch("logits, labels and weights must share one shape")
    p = sigmoid(logits)
    pc = np.clip(p, 1e-7, 1.0 - 1e-7)
    sw = w.sum()
    loss = -np.sum(w * (y * np.log(pc) + (1.0 - y) * np.log(1.0 - pc))) / sw
    dlogits = w * (p - y) / sw
    return float(loss), dlogits


def adam_step(param: np.ndarray, grad: np.ndarray, state: dict, lr: float) -> None:
    """One in-place Adam update with bias correction, at ``ADAM_BETA1``,
    ``ADAM_BETA2`` and ``ADAM_EPS``.

    ``state`` carries "m", "v" (moment arrays) and "t" (step count);
    an empty dict is initialized on first use. The moments and the
    parameter are updated in place through two scratch arrays, each
    element with the operations of the textbook formula in its order.
    """
    if param.shape != grad.shape:
        raise ShapeMismatch(f"param {param.shape} vs grad {grad.shape}")
    if not state:
        state["m"] = np.zeros_like(param)
        state["v"] = np.zeros_like(param)
        state["t"] = 0
    state["t"] += 1
    m, v, t = state["m"], state["v"], state["t"]
    m *= ADAM_BETA1
    scratch = (1 - ADAM_BETA1) * grad
    m += scratch  # beta1 m + (1 - beta1) g
    v *= ADAM_BETA2
    np.multiply(1 - ADAM_BETA2, grad, out=scratch)
    scratch *= grad
    v += scratch  # beta2 v + (1 - beta2) g g
    denom = np.divide(v, 1 - ADAM_BETA2**t, out=scratch)
    np.sqrt(denom, out=denom)
    denom += ADAM_EPS  # sqrt(v_hat) + eps
    step = m / (1 - ADAM_BETA1**t)
    step *= lr
    step /= denom  # lr m_hat / (sqrt(v_hat) + eps)
    param -= step


class Adam:
    """Adam over each layer's ``params`` by its ``grads``, one state slot per
    (layer, key)."""

    def __init__(self, lr: float):
        self.lr = lr
        self.states: dict[tuple[Layer, str], dict] = {}

    def step(self, layers: list[Layer]) -> None:
        for layer in layers:
            for key, param in layer.params.items():
                adam_step(param, layer.grads[key], self.states.setdefault((layer, key), {}), self.lr)


__all__ = [
    "sigmoid",
    "Layer",
    "Dense",
    "ReLU",
    "Conv1D",
    "BatchNorm",
    "MaxPool1D",
    "MultiHeadAttention",
    "GlobalAvgPool",
    "Dropout",
    "weighted_bce_with_logits",
    "adam_step",
    "Adam",
]
