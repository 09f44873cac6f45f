"""Tests for the convolution/dense/activation primitives, including
property-based checks of the im2col/col2im adjoint pair, numerical
gradient validation, and bit-exactness of every conv stage against the
einsum formulation the GEMMs replaced."""

import hypothesis
import hypothesis.strategies as st
import numpy as np
import pytest

from repro.nn import functional as F


def naive_conv(x, w, b, stride):
    """Reference convolution with explicit loops."""
    n, c, h, width = x.shape
    o, i, k, _ = w.shape
    oh = (h - k) // stride + 1
    ow = (width - k) // stride + 1
    y = np.zeros((n, o, oh, ow), dtype=np.float64)
    for ni in range(n):
        for oi in range(o):
            for r in range(oh):
                for col in range(ow):
                    patch = x[ni, :, r * stride:r * stride + k,
                              col * stride:col * stride + k]
                    y[ni, oi, r, col] = (patch * w[oi]).sum() + b[oi]
    return y.astype(np.float32)


small_conv = st.tuples(
    st.integers(1, 2),            # batch
    st.integers(1, 3),            # in channels
    st.integers(1, 4),            # out channels
    st.sampled_from([(5, 2, 1), (5, 2, 2), (7, 3, 2), (4, 3, 1)]),
)


class TestConvForward:
    def test_output_size(self):
        assert F.conv_output_size(84, 8, 4) == 20
        assert F.conv_output_size(20, 4, 2) == 9

    def test_output_size_too_small(self):
        with pytest.raises(ValueError):
            F.conv_output_size(3, 4, 1)

    def test_channel_mismatch_raises(self):
        x = np.zeros((1, 3, 8, 8), dtype=np.float32)
        w = np.zeros((4, 2, 3, 3), dtype=np.float32)
        with pytest.raises(ValueError):
            F.conv_forward(x, w, np.zeros(4, dtype=np.float32), 1)

    @hypothesis.given(small_conv, st.integers(0, 2 ** 31 - 1))
    @hypothesis.settings(max_examples=25, deadline=None)
    def test_matches_naive_convolution(self, dims, seed):
        n, c, o, (size, k, stride) = dims
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, c, size, size)).astype(np.float32)
        w = rng.standard_normal((o, c, k, k)).astype(np.float32)
        b = rng.standard_normal(o).astype(np.float32)
        y, _ = F.conv_forward(x, w, b, stride)
        np.testing.assert_allclose(y, naive_conv(x, w, b, stride),
                                   rtol=1e-4, atol=1e-4)

    def test_a3c_conv1_shape(self):
        x = np.zeros((2, 4, 84, 84), dtype=np.float32)
        w = np.zeros((16, 4, 8, 8), dtype=np.float32)
        y, rows = F.conv_forward(x, w, np.zeros(16, dtype=np.float32), 4)
        assert y.shape == (2, 16, 20, 20)
        assert y.flags.c_contiguous
        assert rows.shape == (2 * 400, 4 * 64)
        assert rows.flags.c_contiguous


class TestIm2ColAdjoint:
    @hypothesis.given(small_conv, st.integers(0, 2 ** 31 - 1))
    @hypothesis.settings(max_examples=25, deadline=None)
    def test_col2im_is_adjoint_of_im2col(self, dims, seed):
        """<im2col(x), y> == <x, col2im(y)> — the defining property of
        the adjoint, which backward propagation relies on."""
        n, c, _o, (size, k, stride) = dims
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, c, size, size)).astype(np.float64)
        cols, _ = F.im2col(x, k, stride)
        y = rng.standard_normal(cols.shape)
        lhs = float((cols * y).sum())
        back = F.col2im(y, x.shape, k, stride)
        rhs = float((x * back).sum())
        assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_col2im_accumulates_overlaps(self):
        rows = np.ones((4, 4), dtype=np.float32)  # k=2, 3x3 input, s=1
        out = F.col2im(rows, (1, 1, 3, 3), 2, 1)
        # centre element overlaps all four windows
        assert out[0, 0, 1, 1] == 4.0
        assert out[0, 0, 0, 0] == 1.0

    @hypothesis.given(small_conv, st.integers(0, 2 ** 31 - 1))
    @hypothesis.settings(max_examples=25, deadline=None)
    def test_transposed_gather_holds_the_patch_values(self, dims, seed):
        n, c, _o, (size, k, stride) = dims
        x = np.random.default_rng(seed).standard_normal(
            (n, c, size, size)).astype(np.float32)
        rows, _ = F.im2col(x, k, stride)
        cols = F.im2col_transposed(x, k, stride)
        assert cols.flags.c_contiguous
        np.testing.assert_array_equal(cols, rows.T)


# -- the einsum formulation the GEMMs replaced (reference only) -------------

def _einsum_im2col(x, kernel, stride):
    n, c, h, w = x.shape
    oh = (h - kernel) // stride + 1
    ow = (w - kernel) // stride + 1
    sn, sc, sh, sw = x.strides
    view = np.lib.stride_tricks.as_strided(
        x, shape=(n, c, kernel, kernel, oh, ow),
        strides=(sn, sc, sh, sw, sh * stride, sw * stride))
    return view.reshape(n, c * kernel * kernel, oh * ow), (oh, ow)


def _einsum_forward(x, weight, bias, stride):
    o, i, k, _ = weight.shape
    cols, (oh, ow) = _einsum_im2col(x, k, stride)
    y = np.einsum("ok,nkp->nop", weight.reshape(o, i * k * k), cols,
                  optimize=True)
    y += bias[None, :, None]
    return y.reshape(x.shape[0], o, oh, ow)


def _einsum_backward_input(dy, weight, stride, input_shape):
    n, o, oh, ow = dy.shape
    _, i, k, _ = weight.shape
    dcols = np.einsum("ok,nop->nkp", weight.reshape(o, i * k * k),
                      dy.reshape(n, o, oh * ow), optimize=True)
    cols = dcols.reshape(n, i, k, k, oh, ow)
    out = np.zeros(input_shape, dtype=cols.dtype)
    for ki in range(k):
        for kj in range(k):
            out[:, :, ki:ki + stride * oh:stride,
                kj:kj + stride * ow:stride] += cols[:, :, ki, kj]
    return out


def _einsum_grad_params(x, dy, weight_shape, stride):
    o, _, k, _ = weight_shape
    n = dy.shape[0]
    cols, _ = _einsum_im2col(x, k, stride)
    dy_flat = dy.reshape(n, o, -1)
    dw = np.einsum("nop,nkp->ok", dy_flat, cols, optimize=True)
    return dw.reshape(weight_shape), dy_flat.sum(axis=(0, 2))


#: (in channels, input size, out channels, kernel, stride)
A3C_CONVS = {"Conv1": (4, 84, 16, 8, 4), "Conv2": (16, 20, 32, 4, 2)}
#: Small odd shapes, where a transposed-view GC operand changes bits.
SMALL_CONVS = [(3, 7, 4, 3, 2), (2, 5, 3, 2, 1), (1, 4, 2, 3, 1)]


class TestConvMatchesEinsumBitForBit:
    """Every stage issues the exact GEMM ``np.einsum(..., optimize=True)``
    issued, so the results agree as ``view(np.uint32)``."""

    @staticmethod
    def _check(shape, batch, seed, policy=None):
        c, size, o, k, stride = shape
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((batch, c, size, size)).astype(np.float32)
        w = rng.standard_normal((o, c, k, k)).astype(np.float32)
        b = rng.standard_normal(o).astype(np.float32)
        if policy is not None:
            x = policy(x, "act")
        y, _ = F.conv_forward(x, w, b, stride, policy=policy, key="c")
        dy = rng.standard_normal(y.shape).astype(np.float32)
        dx = F.conv_backward_input(dy, w, stride, x.shape, policy=policy,
                                   key="c")
        dw, db = F.conv_grad_params(x, dy, w.shape, stride)
        if policy is not None:
            w, b = policy(w, "c.weight"), policy(b, "c.bias")
        for got, want in ((y, _einsum_forward(x, w, b, stride)),
                          (dx, _einsum_backward_input(dy, w, stride,
                                                      x.shape)),
                          *zip((dw, db), _einsum_grad_params(
                              x, dy, w.shape, stride))):
            assert got.shape == want.shape
            assert got.dtype == want.dtype == np.float32
            np.testing.assert_array_equal(got.view(np.uint32),
                                          want.view(np.uint32))

    @pytest.mark.parametrize("batch", [1, 5, 16, 80])
    @pytest.mark.parametrize("layer", sorted(A3C_CONVS))
    def test_a3c_layers(self, layer, batch):
        self._check(A3C_CONVS[layer], batch, seed=batch)

    @pytest.mark.parametrize("shape", SMALL_CONVS, ids=str)
    def test_small_odd_shapes_every_batch(self, shape):
        for batch in range(1, 81):
            self._check(shape, batch, seed=batch)

    @pytest.mark.parametrize("precision", ["fp16", "int8"])
    @pytest.mark.parametrize("shape", [A3C_CONVS["Conv2"], *SMALL_CONVS],
                             ids=str)
    def test_quantized_policies(self, precision, shape):
        from repro.nn.quant import policy_for
        for batch in (1, 5, 16):
            self._check(shape, batch, seed=batch,
                        policy=policy_for(precision))


# -- the per-value gather im2col replaced (reference only) -------------------

def _strided_im2col(x, kernel, stride):
    """Reshape a ``(n, oh, ow, c, ki, kj)`` window view: a copy that
    moves one value at a time."""
    n, c, h, w = x.shape
    oh = (h - kernel) // stride + 1
    ow = (w - kernel) // stride + 1
    sn, sc, sh, sw = x.strides
    view = np.lib.stride_tricks.as_strided(
        x, shape=(n, oh, ow, c, kernel, kernel),
        strides=(sn, sh * stride, sw * stride, sc, sh, sw))
    return view.reshape(-1, c * kernel * kernel), (oh, ow)


class TestGatherMatchesStridedReshape:
    """Copying whole kernel rows moves the same bytes as the per-value
    strided reshape, for every dtype and input layout."""

    @staticmethod
    def _check(x, kernel, stride):
        got, shape = F.im2col(x, kernel, stride)
        want, want_shape = _strided_im2col(x, kernel, stride)
        bits = np.dtype(f"u{x.itemsize}")
        assert shape == want_shape
        assert got.shape == want.shape
        assert got.dtype == x.dtype
        assert got.flags.c_contiguous
        np.testing.assert_array_equal(got.view(bits), want.view(bits))

    @pytest.mark.parametrize("dtype", [np.float32, np.float16])
    @pytest.mark.parametrize("layer", ["Conv1", "Conv2"])
    def test_a3c_layers(self, layer, dtype):
        c, size, _o, k, stride = A3C_CONVS[layer]
        for batch in (1, 5, 16):
            x = np.random.default_rng(batch).standard_normal(
                (batch, c, size, size)).astype(dtype)
            self._check(x, k, stride)

    @pytest.mark.parametrize("dtype", [np.float32, np.float16])
    @pytest.mark.parametrize("shape", SMALL_CONVS, ids=str)
    def test_small_odd_shapes(self, shape, dtype):
        c, size, _o, k, stride = shape
        for batch in range(1, 9):
            x = np.random.default_rng(batch).standard_normal(
                (batch, c, size, size)).astype(dtype)
            self._check(x, k, stride)

    @pytest.mark.parametrize("dtype", [np.float32, np.float16])
    def test_non_contiguous_input(self, dtype):
        base = np.random.default_rng(0).standard_normal(
            (3, 5, 11, 13)).astype(dtype)
        for x in (base[:, ::2], base[..., 1:], base.transpose(0, 1, 3, 2),
                  base[::-1, :, ::2, ::-1]):
            assert not x.flags.c_contiguous
            self._check(x, 3, 2)
            self._check(x, 2, 1)

    @hypothesis.given(small_conv, st.integers(0, 2 ** 31 - 1))
    @hypothesis.settings(max_examples=25, deadline=None)
    def test_random_small_shapes(self, dims, seed):
        n, c, _o, (size, k, stride) = dims
        x = np.random.default_rng(seed).standard_normal(
            (n, c, size, size)).astype(np.float32)
        self._check(x, k, stride)


class TestGradients:
    def _conv_setup(self, seed=0):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((2, 3, 7, 7)).astype(np.float64)
        w = rng.standard_normal((4, 3, 3, 3)).astype(np.float64)
        b = rng.standard_normal(4).astype(np.float64)
        return x, w, b

    def test_conv_backward_input_matches_numerical(self):
        x, w, b = self._conv_setup()
        target = np.random.default_rng(1).standard_normal((2, 4, 3, 3))

        def loss():
            y, _ = F.conv_forward(x, w, b, 2)  # float64 throughout
            return float((y * target).sum())

        dx = F.conv_backward_input(target, w, 2, x.shape)
        from repro.nn.gradcheck import numerical_gradient
        numeric = numerical_gradient(loss, x, eps=1e-5)
        np.testing.assert_allclose(dx, numeric, rtol=1e-4, atol=1e-7)

    def test_conv_grad_params_matches_numerical(self):
        x, w, b = self._conv_setup()
        target = np.random.default_rng(1).standard_normal((2, 4, 3, 3))

        def loss():
            y, _ = F.conv_forward(x, w, b, 2)  # float64 throughout
            return float((y * target).sum())

        dw, db = F.conv_grad_params(x, target, w.shape, 2)
        from repro.nn.gradcheck import numerical_gradient
        np.testing.assert_allclose(dw, numerical_gradient(loss, w, 1e-5),
                                   rtol=1e-4, atol=1e-7)
        np.testing.assert_allclose(db, numerical_gradient(loss, b, 1e-5),
                                   rtol=1e-4, atol=1e-7)

    def test_dense_gradients_match_numerical(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((4, 6)).astype(np.float64)
        w = rng.standard_normal((5, 6)).astype(np.float64)
        b = rng.standard_normal(5).astype(np.float64)
        target = rng.standard_normal((4, 5))

        def loss():
            return float((F.dense_forward(x, w, b) * target).sum())

        from repro.nn.gradcheck import numerical_gradient
        dw, db = F.dense_grad_params(x, target)
        dx = F.dense_backward_input(target, w)
        np.testing.assert_allclose(dw, numerical_gradient(loss, w, 1e-5),
                                   rtol=1e-3, atol=1e-6)
        np.testing.assert_allclose(db, numerical_gradient(loss, b, 1e-5),
                                   rtol=1e-3, atol=1e-6)
        np.testing.assert_allclose(dx, numerical_gradient(loss, x, 1e-5),
                                   rtol=1e-3, atol=1e-6)


class TestReLU:
    def test_forward_clamps_negatives(self):
        x = np.array([-2.0, -0.5, 0.0, 0.5, 2.0], dtype=np.float32)
        np.testing.assert_array_equal(
            F.relu_forward(x), [0.0, 0.0, 0.0, 0.5, 2.0])

    def test_backward_masks_gradient(self):
        x = np.array([-1.0, 1.0], dtype=np.float32)
        dy = np.array([5.0, 5.0], dtype=np.float32)
        np.testing.assert_array_equal(F.relu_backward(dy, x), [0.0, 5.0])

    @hypothesis.given(st.integers(0, 2 ** 31 - 1))
    @hypothesis.settings(max_examples=20, deadline=None)
    def test_relu_gradient_zero_exactly_where_input_nonpositive(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(50).astype(np.float32)
        dy = rng.standard_normal(50).astype(np.float32)
        dx = F.relu_backward(dy, x)
        np.testing.assert_array_equal(dx[x <= 0], 0.0)
        np.testing.assert_array_equal(dx[x > 0], dy[x > 0])
