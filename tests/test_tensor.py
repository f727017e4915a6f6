import numpy as np
import pytest

from conftest import check_gradients
from mtlkit import tensor as T
from mtlkit.errors import NonScalarRoot, ShapeMismatch


def t(data, grad=True):
    return T.Tensor(np.asarray(data, dtype=np.float64), requires_grad=grad)


class TestForward:
    def test_relu_values(self):
        out = T.relu(t([-1.0, 0.0, 2.0]))
        assert np.array_equal(out.data, [0.0, 0.0, 2.0])

    def test_matmul_identity(self, rng):
        x = t(rng.normal(size=(1, 1)))
        out = T.matmul(x, t([[1.0]]))
        assert np.allclose(out.data, x.data)

    def test_conv2d_all_ones(self):
        # 3x3 all-ones image, single 2x2 all-ones kernel, stride 1, no padding
        x = t(np.ones((1, 1, 3, 3)))
        w = t(np.ones((1, 1, 2, 2)))
        out = T.conv2d(x, w, t(np.zeros(1)))
        assert out.shape == (1, 1, 2, 2)
        assert np.array_equal(out.data, np.full((1, 1, 2, 2), 4.0))

    def test_conv2d_padding_stride(self, rng):
        x = t(rng.normal(size=(2, 3, 6, 6)))
        w = t(rng.normal(size=(4, 3, 3, 3)))
        b = t(rng.normal(size=4))
        assert T.conv2d(x, w, b, padding=1).shape == (2, 4, 6, 6)
        assert T.conv2d(x, w, b, stride=2, padding=1).shape == (2, 4, 3, 3)

    def test_conv2d_channel_mismatch(self, rng):
        with pytest.raises(ShapeMismatch):
            T.conv2d(t(np.ones((1, 2, 4, 4))), t(np.ones((1, 3, 3, 3))), t(np.zeros(1)))

    @pytest.mark.parametrize("bias_shape", [(3,), (1,), (), (2, 1)])
    def test_conv2d_bias_must_match_output_channels(self, bias_shape):
        with pytest.raises(ShapeMismatch):
            T.conv2d(t(np.ones((1, 3, 4, 4))), t(np.ones((2, 3, 3, 3))), t(np.zeros(bias_shape)))

    def test_maxpool_ties_first_index(self):
        x = t(np.full((1, 1, 2, 2), 3.0))
        out = T.maxpool2d(x, 2)
        T.backward(T.tsum(out))
        # tie broken by lowest flat index: all gradient lands on (0, 0)
        expected = np.zeros((1, 1, 2, 2))
        expected[0, 0, 0, 0] = 1.0
        assert np.array_equal(x.grad, expected)

    def test_maxpool_requires_tiling(self):
        with pytest.raises(ShapeMismatch):
            T.maxpool2d(t(np.ones((1, 1, 3, 3))), 2)

    def test_global_avg_pool(self, rng):
        x = t(rng.normal(size=(2, 3, 4, 5)))
        out = T.global_avg_pool(x)
        assert np.allclose(out.data, x.data.mean(axis=(2, 3)))

    def test_add_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            T.add(t([1.0, 2.0]), t([[1.0, 2.0]]))

    def test_bias_add_rejects_4d(self, rng):
        # a conv layer's bias belongs to conv2d; bias_add is 2-D only
        with pytest.raises(ShapeMismatch):
            T.bias_add(t(rng.normal(size=(2, 3, 2, 2))), t([1.0, 2.0, 3.0]))

    def test_bias_add_shape_mismatch(self, rng):
        with pytest.raises(ShapeMismatch):
            T.bias_add(t(rng.normal(size=(2, 3))), t([1.0, 2.0]))
        with pytest.raises(ShapeMismatch):
            T.bias_add(t(rng.normal(size=(2, 3))), t(np.ones((1, 3))))

    def test_flatten(self, rng):
        x = t(rng.normal(size=(2, 3, 4)))
        assert T.flatten(x).shape == (2, 12)


class TestBackward:
    def test_sum_grad_ones(self, rng):
        x = t(rng.normal(size=(3, 4)))
        T.backward(T.tsum(x))
        assert np.array_equal(x.grad, np.ones((3, 4)))

    def test_relu_subgradient(self):
        x = t([-1.0, 2.0])
        T.backward(T.tsum(T.relu(x)))
        assert np.array_equal(x.grad, [0.0, 1.0])

    def test_relu_zero_is_zero(self):
        x = t([0.0])
        T.backward(T.tsum(T.relu(x)))
        assert x.grad[0] == 0.0

    def test_non_scalar_root(self, rng):
        with pytest.raises(NonScalarRoot):
            T.backward(t(rng.normal(size=(2,))))

    def test_accumulation_two_paths(self, rng):
        x = t(rng.normal(size=(3,)))
        # x used twice: grad is the sum of both path gradients
        T.backward(T.tsum(T.add(x, x)))
        assert np.allclose(x.grad, 2.0 * np.ones(3))

    def test_two_roots_over_one_graph(self):
        # each walk yields its own root's gradient: nothing from the first
        # walk is left on the shared node h
        x = t([1.0, 2.0])
        h = T.relu(x)
        T.backward(T.tsum(h))
        assert np.array_equal(x.grad, [1.0, 1.0])
        x.grad = None
        T.backward(T.tsum(T.scale(h, 3)))
        assert np.array_equal(x.grad, [3.0, 3.0])
        assert h.grad is None

    def test_leaf_gradient_adds_across_walks(self):
        x = t([1.0, 2.0])
        T.backward(T.tsum(x))
        T.backward(T.tsum(T.scale(x, 2)))
        assert np.array_equal(x.grad, [3.0, 3.0])

    def test_determinism(self, rng):
        xdata = rng.normal(size=(2, 3, 4, 4))
        wdata = rng.normal(size=(2, 3, 3, 3))

        bdata = rng.normal(size=2)

        def run():
            x, w, b = t(xdata.copy()), t(wdata.copy()), t(bdata.copy())
            out = T.tsum(T.relu(T.conv2d(x, w, b, padding=1)))
            T.backward(out)
            return out.data.copy(), x.grad.copy(), w.grad.copy(), b.grad.copy()

        a, b = run(), run()
        for lhs, rhs in zip(a, b):
            assert np.array_equal(lhs, rhs)


class TestGradientCheck:
    """Central finite differences vs autodiff for every op kind."""

    def test_relu(self, rng):
        x = t(rng.uniform(-1, 1, size=(3, 4)))
        check_gradients(lambda: T.tsum(T.relu(x)), [x])

    def test_matmul(self, rng):
        x, w = t(rng.uniform(-1, 1, size=(3, 4))), t(rng.uniform(-1, 1, size=(4, 2)))
        check_gradients(lambda: T.tsum(T.matmul(x, w)), [x, w])

    def test_conv2d(self, rng):
        x = t(rng.uniform(-1, 1, size=(2, 2, 5, 5)))
        w = t(rng.uniform(-1, 1, size=(3, 2, 3, 3)))
        b = t(rng.uniform(-1, 1, size=3))
        check_gradients(lambda: T.tsum(T.relu(T.conv2d(x, w, b, padding=1))), [x, w, b])

    def test_conv2d_strided(self, rng):
        x = t(rng.uniform(-1, 1, size=(1, 2, 6, 6)))
        w = t(rng.uniform(-1, 1, size=(2, 2, 3, 3)))
        b = t(rng.uniform(-1, 1, size=2))
        check_gradients(lambda: T.tsum(T.conv2d(x, w, b, stride=2)), [x, w, b])

    def test_maxpool(self, rng):
        x = t(rng.uniform(-1, 1, size=(2, 2, 4, 4)))
        check_gradients(lambda: T.tsum(T.maxpool2d(x, 2)), [x])

    def test_global_avg_pool(self, rng):
        x = t(rng.uniform(-1, 1, size=(2, 3, 4, 4)))
        check_gradients(lambda: T.tsum(T.global_avg_pool(x)), [x])

    def test_add_scale_bias_flatten(self, rng):
        x = t(rng.uniform(-1, 1, size=(2, 3, 2, 2)))
        y = t(rng.uniform(-1, 1, size=(2, 3, 2, 2)))
        b = t(rng.uniform(-1, 1, size=12))

        def f():
            z = T.bias_add(T.flatten(T.scale(T.add(x, y), 0.7)), b)
            return T.tsum(z)

        check_gradients(f, [x, y, b])

    def test_sum_squares(self, rng):
        x = t(rng.uniform(-1, 1, size=(5,)))
        check_gradients(lambda: T.sum_squares(x), [x])


# ---------------------------------------------------------------------------
# kernels against direct-loop references


def conv2d_loop(x, w, bias, g, stride, padding):
    """Direct-loop cross-correlation plus bias: (output, weight grad, input
    grad, bias grad) for upstream gradient g."""
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    bsz, _, hp, wp = xp.shape
    cout, _, kh, kw = w.shape
    ho, wo = (hp - kh) // stride + 1, (wp - kw) // stride + 1
    out = np.zeros((bsz, cout, ho, wo))
    gw = np.zeros_like(w)
    gxp = np.zeros_like(xp)
    for b in range(bsz):
        for o in range(cout):
            for r in range(ho):
                for c in range(wo):
                    rows = slice(r * stride, r * stride + kh)
                    cols = slice(c * stride, c * stride + kw)
                    out[b, o, r, c] = np.sum(xp[b, :, rows, cols] * w[o]) + bias[o]
                    gw[o] += g[b, o, r, c] * xp[b, :, rows, cols]
                    gxp[b, :, rows, cols] += g[b, o, r, c] * w[o]
    gx = gxp[:, :, padding : hp - padding, padding : wp - padding]
    return out, gw, gx, g.sum((0, 2, 3))


def maxpool_loop(x, g, k):
    """Direct-loop k x k max pooling: (output, input grad); a tie goes to the
    first element in row-major window order."""
    bsz, c, h, wd = x.shape
    out = np.zeros((bsz, c, h // k, wd // k))
    gx = np.zeros_like(x)
    for b in range(bsz):
        for ch in range(c):
            for r in range(h // k):
                for col in range(wd // k):
                    best = None
                    for i in range(k):
                        for j in range(k):
                            v = x[b, ch, r * k + i, col * k + j]
                            if best is None or v > best[0]:
                                best = (v, r * k + i, col * k + j)
                    out[b, ch, r, col] = best[0]
                    gx[b, ch, best[1], best[2]] += g[b, ch, r, col]
    return out, gx


def vjp(out, g):
    """Run out's backward rule on upstream gradient g (not just ones) and set
    each parent's .grad to the gradient the rule returns for it."""
    for p, pg in zip(out._parents, out._backward(g)):
        p.grad = pg


class TestKernelReference:
    @pytest.mark.parametrize("bsz", [1, 20])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("padding", [0, 1, 2])
    def test_conv2d_matches_loop(self, rng, bsz, stride, padding):
        # padding 2 is >= the kernel width
        self.check_conv2d(rng, bsz, (3, 2), stride, padding)

    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("padding", [0, 1])
    def test_conv2d_1x1_matches_loop(self, rng, stride, padding):
        self.check_conv2d(rng, 2, (1, 1), stride, padding)

    @staticmethod
    def check_conv2d(rng, bsz, kernel, stride, padding):
        x = t(rng.normal(size=(bsz, 3, 7, 5)))
        w = t(rng.normal(size=(4, 3, *kernel)))
        b = t(rng.normal(size=4))
        out = T.conv2d(x, w, b, stride=stride, padding=padding)
        g = rng.normal(size=out.shape)
        vjp(out, g)
        ref_out, ref_gw, ref_gx, ref_gb = conv2d_loop(x.data, w.data, b.data, g, stride, padding)
        assert out.data.flags.c_contiguous
        np.testing.assert_allclose(out.data, ref_out, rtol=0, atol=1e-12)
        np.testing.assert_allclose(w.grad, ref_gw, rtol=0, atol=1e-12)
        np.testing.assert_allclose(x.grad, ref_gx, rtol=0, atol=1e-12)
        np.testing.assert_allclose(b.grad, ref_gb, rtol=0, atol=1e-12)

    def test_conv2d_constant_input_skips_input_grad(self, rng):
        x = t(rng.normal(size=(2, 3, 6, 4)), grad=False)
        w = t(rng.normal(size=(2, 3, 3, 3)))
        b = t(rng.normal(size=2))
        out = T.conv2d(x, w, b, padding=1)
        g = rng.normal(size=out.shape)
        vjp(out, g)
        _, ref_gw, _, ref_gb = conv2d_loop(x.data, w.data, b.data, g, 1, 1)
        assert x.grad is None
        np.testing.assert_allclose(w.grad, ref_gw, rtol=0, atol=1e-12)
        np.testing.assert_allclose(b.grad, ref_gb, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("k", [2, 3])
    def test_maxpool_matches_loop_exactly(self, rng, k):
        # post-ReLU input: many windows are all zero, where ties are certain
        data = np.maximum(rng.normal(size=(20, 3, 6 * k // 2, 4 * k // 2)) - 0.5, 0.0)
        data[0, 0] = 0.0
        data[1, 1, :k, :k] = 2.0  # one window tied at a non-zero maximum
        data[2, 2, :k, :k] = -0.0  # a zero tie whose first element is -0.0
        data[2, 2, k - 1, k - 1] = 0.0
        x = t(data)
        out = T.maxpool2d(x, k)
        g = rng.normal(size=out.shape)
        vjp(out, g)
        ref_out, ref_gx = maxpool_loop(x.data, g, k)
        assert (ref_out == 0.0).any() and np.signbit(ref_out[2, 2, 0, 0])
        assert out.data.tobytes() == ref_out.tobytes()
        assert x.grad.tobytes() == ref_gx.tobytes()
