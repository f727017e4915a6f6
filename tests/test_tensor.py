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
        # 3x3 all-ones image and kernel, same-padded: each output counts the
        # image pixels in its 3x3 neighbourhood
        x = t(np.ones((1, 1, 3, 3)))
        w = t(np.ones((1, 1, 3, 3)))
        out = T.conv2d(x, w, t(np.zeros(1)))
        assert out.shape == (1, 1, 3, 3)
        assert np.array_equal(out.data[0, 0], [[4.0, 6.0, 4.0], [6.0, 9.0, 6.0], [4.0, 6.0, 4.0]])

    @pytest.mark.parametrize("kernel", [(3, 3), (1, 5), (5, 1), (7, 3)])
    def test_conv2d_keeps_the_image_size(self, rng, kernel):
        x = t(rng.normal(size=(2, 3, 6, 5)))
        w = t(rng.normal(size=(4, 3, *kernel)))
        assert T.conv2d(x, w, t(rng.normal(size=4))).shape == (2, 4, 6, 5)

    @pytest.mark.parametrize("kernel", [(2, 2), (3, 2), (2, 3), (4, 1)])
    def test_conv2d_rejects_an_even_kernel(self, kernel):
        w = t(np.ones((2, 3, *kernel)))
        with pytest.raises(ShapeMismatch, match="odd kernel"):
            T.conv2d(t(np.ones((1, 3, 4, 4))), w, t(np.zeros(2)))

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
            out = T.tsum(T.relu(T.conv2d(x, w, b)))
            T.backward(out)
            return out.data.copy(), x.grad.copy(), w.grad.copy(), b.grad.copy()

        a, b = run(), run()
        for lhs, rhs in zip(a, b):
            assert np.array_equal(lhs, rhs)


def every_op(rng):
    """One call of every op on leaves that require a gradient."""
    x4 = t(rng.normal(size=(2, 3, 4, 4)))
    w4, b4 = t(rng.normal(size=(2, 3, 3, 3))), t(rng.normal(size=2))
    x2, w2, b2 = t(rng.normal(size=(2, 3))), t(rng.normal(size=(3, 4))), t(rng.normal(size=4))
    return [T.relu(x2), T.add(x2, x2), T.scale(x2, 2.0), T.flatten(x4), T.tsum(x2),
            T.sum_squares(x2), T.matmul(x2, w2), T.bias_add(T.matmul(x2, w2), b2),
            T.conv2d(x4, w4, b4), T.maxpool2d(x4, 2), T.global_avg_pool(x4)]


class TestNoGrad:
    def test_ops_record_no_graph(self, rng):
        with T.no_grad():
            outs = every_op(rng)
        for out in outs:
            assert out._parents == () and out._backward is None
            assert out.requires_grad is False

    def test_values_match_recorded_ops(self):
        recorded = every_op(np.random.default_rng(1))
        with T.no_grad():
            plain = every_op(np.random.default_rng(1))
        for a, b in zip(recorded, plain):
            assert a.requires_grad and np.array_equal(a.data, b.data)

    def test_flag_restored_after_exception(self):
        with pytest.raises(ShapeMismatch):
            with T.no_grad():
                T.add(t(np.ones(2)), t(np.ones(3)))
        assert T.relu(t([1.0]))._parents != ()
        with T.no_grad():
            with T.no_grad():
                pass
            assert T.relu(t([1.0]))._parents == ()
        assert T.relu(t([1.0])).requires_grad

    def test_gradients_after_the_block_unchanged(self, rng):
        xdata = rng.normal(size=(2, 3, 4, 4))
        wdata, bdata = rng.normal(size=(2, 3, 3, 3)), rng.normal(size=2)

        def run():
            x, w, b = t(xdata), t(wdata.copy()), t(bdata.copy())
            out = T.tsum(T.maxpool2d(T.relu(T.conv2d(x, w, b)), 2))
            T.backward(out)
            return out.data, x.grad, w.grad, b.grad

        before = run()
        with T.no_grad():
            assert T.tsum(T.relu(t(xdata)))._backward is None
        for lhs, rhs in zip(before, run()):
            assert np.array_equal(lhs, rhs)


class TestPrecision:
    """Ops compute in their activation's dtype; gradients come back in each parent's."""

    def test_tensor_keeps_float32_and_widens_the_rest(self):
        f64 = np.zeros(3)
        assert T.Tensor(f64).data is f64
        assert T.Tensor(np.zeros(3, np.float32)).data.dtype == np.float32
        for data in ([1, 2], 1.5, np.zeros(2, np.float16), np.zeros(2, np.int32)):
            assert T.Tensor(data).data.dtype == np.float64

    def test_float32_activations_with_float64_parameters(self, rng):
        def f32(*shape):
            return T.Tensor(rng.normal(size=shape).astype(np.float32), requires_grad=True)

        x4, x2 = f32(2, 3, 4, 4), f32(2, 3)
        w4, b4 = t(rng.normal(size=(2, 3, 3, 3))), t(rng.normal(size=2))
        w2, b2 = t(rng.normal(size=(3, 2))), t(rng.normal(size=2))
        outs = [T.relu(x2), T.add(x2, x2), T.scale(x2, 2.0), T.flatten(x4), T.matmul(x2, w2),
                T.bias_add(T.matmul(x2, w2), b2), T.conv2d(x4, w4, b4),
                T.maxpool2d(x4, 2), T.global_avg_pool(x4)]
        assert [o.data.dtype for o in outs] == [np.float32] * len(outs)
        # the scalar reductions widen their value: the loss roots are float64 too
        outs += [T.tsum(x2), T.sum_squares(x2)]
        assert outs[-2].data.dtype == outs[-1].data.dtype == np.float64
        for out in outs:
            grads = out._backward(np.ones_like(out.data))
            assert [g.dtype for g in grads] == [p.data.dtype for p in out._parents]
        # leaves: the float32 activation gets a float32 .grad, the parameters float64
        T.backward(T.tsum(T.bias_add(T.matmul(T.flatten(T.conv2d(x4, w4, b4)),
                                              t(rng.normal(size=(32, 2)))), b2)))
        assert x4.grad.dtype == np.float32
        assert w4.grad.dtype == b4.grad.dtype == b2.grad.dtype == np.float64


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
        check_gradients(lambda: T.tsum(T.relu(T.conv2d(x, w, b))), [x, w, b])

    def test_conv2d_non_square_kernel(self, rng):
        x = t(rng.uniform(-1, 1, size=(1, 2, 4, 6)))
        w = t(rng.uniform(-1, 1, size=(2, 2, 1, 5)))
        b = t(rng.uniform(-1, 1, size=2))
        check_gradients(lambda: T.tsum(T.conv2d(x, w, b)), [x, w, b])

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


def conv2d_loop(x, w, bias, g):
    """Direct-loop same-padded cross-correlation plus bias, with x zero-padded
    by kh//2 rows and kw//2 columns: (output, weight grad, input grad, bias
    grad) for upstream gradient g."""
    cout, _, kh, kw = w.shape
    ph, pw = kh // 2, kw // 2
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    bsz, _, h, wd = x.shape
    out = np.zeros((bsz, cout, h, wd))
    gw = np.zeros_like(w)
    gxp = np.zeros_like(xp)
    for b in range(bsz):
        for o in range(cout):
            for r in range(h):
                for c in range(wd):
                    rows, cols = slice(r, r + kh), slice(c, c + kw)
                    out[b, o, r, c] = np.sum(xp[b, :, rows, cols] * w[o]) + bias[o]
                    gw[o] += g[b, o, r, c] * xp[b, :, rows, cols]
                    gxp[b, :, rows, cols] += g[b, o, r, c] * w[o]
    gx = gxp[:, :, ph : ph + h, pw : pw + wd]
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
    @pytest.mark.parametrize("kernel", [(3, 3), (5, 3), (3, 7), (9, 1)])
    def test_conv2d_matches_loop(self, rng, bsz, kernel):
        # on the 7 x 5 image, a 7-wide or 9-tall kernel reaches past both edges
        self.check_conv2d(rng, bsz, kernel)

    @pytest.mark.parametrize("bsz", [1, 2])
    def test_conv2d_1x1_matches_loop(self, rng, bsz):
        self.check_conv2d(rng, bsz, (1, 1))

    @staticmethod
    def check_conv2d(rng, bsz, kernel):
        x = t(rng.normal(size=(bsz, 3, 7, 5)))
        w = t(rng.normal(size=(4, 3, *kernel)))
        b = t(rng.normal(size=4))
        out = T.conv2d(x, w, b)
        g = rng.normal(size=out.shape)
        vjp(out, g)
        ref_out, ref_gw, ref_gx, ref_gb = conv2d_loop(x.data, w.data, b.data, g)
        assert out.data.flags.c_contiguous
        np.testing.assert_allclose(out.data, ref_out, rtol=0, atol=1e-12)
        np.testing.assert_allclose(w.grad, ref_gw, rtol=0, atol=1e-12)
        np.testing.assert_allclose(x.grad, ref_gx, rtol=0, atol=1e-12)
        np.testing.assert_allclose(b.grad, ref_gb, rtol=0, atol=1e-12)

    def test_conv2d_constant_input_skips_input_grad(self, rng):
        x = t(rng.normal(size=(2, 3, 6, 4)), grad=False)
        w = t(rng.normal(size=(2, 3, 3, 3)))
        b = t(rng.normal(size=2))
        out = T.conv2d(x, w, b)
        g = rng.normal(size=out.shape)
        vjp(out, g)
        _, ref_gw, _, ref_gb = conv2d_loop(x.data, w.data, b.data, g)
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


# ---------------------------------------------------------------------------
# bitwise pins: each fast path against a copy of the slice / stack code it replaced


def im2col(xp, kh, kw, ho, wo, off=0):
    """The (B, C*kh*kw, ho*wo) im2col matrix of an already padded xp, one
    strided slice per tap."""
    bsz, c = xp.shape[:2]
    cols = np.empty((bsz, c, kh, kw, ho, wo), xp.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i, j] = xp[:, :, off + i : off + i + ho, off + j : off + j + wo]
    return cols.reshape(bsz, c * kh * kw, ho * wo)


def im2col_padded(x, kh, kw):
    """im2col of x zero-padded by kh//2 rows and kw//2 columns, by a padded copy."""
    bsz, c, h, wd = x.shape
    ph, pw = kh // 2, kw // 2
    xp = np.zeros((bsz, c, h + 2 * ph, wd + 2 * pw), x.dtype)
    xp[:, :, ph : ph + h, pw : pw + wd] = x
    return im2col(xp, kh, kw, h, wd)


def conv2d_slices(x, w, b, g, padding):
    """Stride-1 conv2d by a padded copy and one strided slice per tap, with
    the input gradient taken from the zero-framed g: (out, gw, gx, gb) in
    x's dtype, by the same matmul calls as conv2d."""
    bsz, cin, h, wd = x.shape
    cout, _, kh, kw = w.shape
    xp = np.zeros((bsz, cin, h + 2 * padding, wd + 2 * padding), x.dtype)
    xp[:, :, padding : padding + h, padding : padding + wd] = x
    cols = im2col(xp, kh, kw, h, wd)
    wc = w.astype(x.dtype)
    out = np.matmul(wc.reshape(cout, -1), cols)
    out += b.astype(x.dtype)[:, None]
    gw = np.matmul(g.reshape(bsz, cout, h * wd), cols.transpose(0, 2, 1)).sum(axis=0)
    gd = np.zeros((bsz, cout, h + 2 * padding + kh - 1, wd + 2 * padding + kw - 1), x.dtype)
    gd[:, :, kh - 1 : kh - 1 + h, kw - 1 : kw - 1 + wd] = g
    wflip = wc[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(cin, -1)
    gx = np.matmul(wflip, im2col(gd, kh, kw, h, wd, off=padding)).reshape(x.shape)
    return (out.reshape(bsz, cout, h, wd), gw.reshape(w.shape).astype(w.dtype), gx,
            g.sum(axis=(0, 2, 3)).astype(b.dtype))


def maxpool_stack(x, g, k):
    """k x k max pooling by stacking the k*k window views and one np.where
    per window element: (out, input grad)."""
    bsz, c, h, wd = x.shape
    ho, wo = h // k, wd // k
    tiles = x.reshape(bsz, c, ho, k, wo, k)
    win = np.stack([tiles[:, :, :, i, :, j] for i in range(k) for j in range(k)])
    top = win.max(axis=0)
    idx = np.zeros(top.shape, np.intp)
    found = np.zeros(top.shape, bool)
    for v in win[:-1]:
        found |= (v == top) | (v != v)
        idx += ~found
    flat = win.reshape(k * k, -1)
    out = flat[idx.reshape(-1), np.arange(flat.shape[1])].reshape(top.shape)
    gx = np.empty((bsz, c, ho, k, wo, k), x.dtype)
    for n in range(k * k):
        gx[:, :, :, n // k, :, n % k] = np.where(idx == n, g, 0.0)
    return out, gx.reshape(x.shape)


def specials(dtype):
    tiny = np.finfo(dtype).smallest_subnormal
    return np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, tiny, -tiny, 3 * tiny,
                     -5 * tiny, 1.0, -1.0], dtype)


DTYPES = [np.float32, np.float64]


class TestBitwisePins:
    @staticmethod
    def check_im2col(x, kh, kw):
        cols = T._im2col_same(x, kh, kw)
        want = im2col_padded(x, kh, kw)
        assert cols.flags.c_contiguous
        assert cols.dtype == want.dtype == x.dtype and cols.shape == want.shape
        assert cols.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("kernel", [(1, 1), (3, 3), (5, 5), (7, 7), (1, 3), (3, 1),
                                        (3, 5), (7, 3), (1, 7)])
    def test_im2col_matches_a_padded_copy(self, dtype, kernel):
        # (1, 1) to (4, 2) lie inside a 5 x 5 or 7 x 7 kernel's reach: the
        # zero ends there are longer than the image
        rng = np.random.default_rng(list(kernel))
        for h, wd in [(1, 1), (1, 6), (5, 1), (2, 3), (4, 2), (6, 7), (9, 8)]:
            x = rng.normal(size=(2, 3, h, wd)).astype(dtype)
            border = np.zeros((h, wd), bool)
            border[[0, -1], :] = border[:, [0, -1]] = True
            for c in range(3):  # the specials, shifted per channel, on every border pixel
                vals = np.roll(np.resize(specials(dtype), border.sum()), 5 * c)
                x[0, c][border] = vals
                x[1, c][border] = vals[::-1]
            self.check_im2col(x, *kernel)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("layout", ["transposed", "broadcast"])
    def test_im2col_reads_a_non_contiguous_input(self, rng, dtype, layout):
        if layout == "transposed":
            x = rng.normal(size=(2, 3, 6, 5)).astype(dtype).transpose(0, 1, 3, 2)
        else:  # the zero-stride gradient global_avg_pool's backward returns
            g = rng.normal(size=(2, 3)).astype(dtype)
            x = np.broadcast_to(g[:, :, None, None] / 30, (2, 3, 5, 6))
        assert not x.flags.c_contiguous
        for kernel in [(1, 1), (3, 3), (5, 3)]:
            self.check_im2col(x, *kernel)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("kernel", [1, 3, 5])
    @pytest.mark.parametrize("trial", range(4))
    def test_same_padded_conv2d_matches_slices(self, dtype, kernel, trial):
        rng = np.random.default_rng([kernel, trial])
        bsz, cin, cout = (int(v) for v in rng.integers(1, 5, 3))
        h, wd = (int(v) for v in rng.integers(1, 12, 2))
        if trial == 0:
            wd = h + 3  # H != W for certain
        self.check_same_conv(rng, dtype, (bsz, cin, h, wd), cout, kernel)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("kernel", [5, 7])
    @pytest.mark.parametrize("hw", [(1, 1), (2, 2), (1, 7), (6, 1), (2, 5), (4, 3)])
    def test_same_padded_conv2d_smaller_than_the_kernels_reach(self, rng, dtype, kernel, hw):
        # a k x k kernel's flat shifts reach up to (k//2) * (W + 1) past either
        # end of the image, and its rows up to k//2 past either edge
        self.check_same_conv(rng, dtype, (3, 2, *hw), 3, kernel)

    @staticmethod
    def check_same_conv(rng, dtype, shape, cout, kernel):
        x = T.Tensor(rng.normal(size=shape).astype(dtype), requires_grad=True)
        x.data[x.data < -1.5] = -0.0  # signed zeros must survive both the copy and the frame
        w = t(rng.normal(size=(cout, shape[1], kernel, kernel)))
        b = t(rng.normal(size=cout))
        out = T.conv2d(x, w, b)
        g = rng.normal(size=out.shape).astype(dtype)
        g[g < -1.5] = -0.0
        vjp(out, g)
        ref = conv2d_slices(x.data, w.data, b.data, g, kernel // 2)
        for got, want in zip((out.data, w.grad, x.grad, b.grad), ref):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_relu_matches_where(self, rng, dtype):
        # np.fmax keeps a -0.0 at some positions of some lengths (where its
        # vector loop meets its tail), so -0.0 and the specials visit every offset
        cases = []
        for n in range(1, 26):
            for p in range(n):
                cases.append(rng.normal(size=n).astype(dtype))
                cases[-1][p] = -0.0
        cases += [np.concatenate([rng.normal(size=lead).astype(dtype), specials(dtype)])
                  for lead in range(17)]
        for data in cases:
            out = T.relu(T.Tensor(data)).data
            want = np.where(data > 0, data, 0.0)
            assert out.dtype == want.dtype == dtype
            assert out.tobytes() == want.tobytes() and not np.signbit(out).any()
        data = np.concatenate([specials(dtype), rng.normal(size=40).astype(dtype)])
        x = T.Tensor(data, requires_grad=True)
        out = T.relu(x)
        g = np.concatenate([specials(dtype), rng.normal(size=40).astype(dtype)])[::-1].copy()
        with np.errstate(invalid="ignore"):  # inf * 0 on both sides
            (gx,) = out._backward(g)
            assert gx.tobytes() == (g * (data > 0.0)).tobytes()

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("k", [2, 3])
    def test_maxpool_matches_stack(self, rng, dtype, k):
        data = rng.normal(size=(3, 4, 4 * k, 2 * k)).astype(dtype)
        data[0, 0] = 0.0
        data[0, 0, ::2, ::2] = -0.0  # 0.0 / -0.0 ties, -0.0 first in some windows
        data[0, 1, :k, :k] = -0.0
        data[1, 1, k - 1, k - 1] = np.nan  # a NaN window: the NaN wins
        data[1, 2, :k, :k] = np.nan
        data[1, 2, 0, 0] = 1.0  # a NaN window whose first element is a number
        data[2, 0, k : 2 * k, :k] = np.inf
        x = T.Tensor(data, requires_grad=True)
        out = T.maxpool2d(x, k)
        g = rng.normal(size=out.shape).astype(dtype)
        g[g < 0] = -0.0  # -0.0 upstream gradients must keep their sign
        vjp(out, g)
        ref_out, ref_gx = maxpool_stack(data, g, k)
        assert np.isnan(ref_out).any() and np.signbit(ref_out[0, 1, 0, 0])
        assert out.data.dtype == x.grad.dtype == dtype
        assert out.data.tobytes() == ref_out.tobytes()
        assert x.grad.tobytes() == ref_gx.tobytes()

    def test_maxpool_reads_a_non_contiguous_input(self, rng):
        data = rng.normal(size=(2, 3, 4, 6)).transpose(0, 1, 3, 2)
        out = T.maxpool2d(t(data), 2)
        assert out.data.tobytes() == maxpool_stack(data, np.zeros(out.shape), 2)[0].tobytes()

    def test_pool_table_is_cached_and_read_only(self):
        base, offs = T._pool_table((2, 3, 4, 6), 2)
        assert T._pool_table((2, 3, 4, 6), 2)[0] is base
        assert not base.flags.writeable and not offs.flags.writeable
        assert base[1, 2, 1, 2] == ((1 * 3 + 2) * 4 + 2) * 6 + 4
        assert list(offs) == [0, 1, 6, 7]


# ---------------------------------------------------------------------------
# rematerialisation: conv2d's backward rebuilds the im2col matrix it once kept


def conv2d_keeping_cols(x, w, b):
    """conv2d as it was while its backward rule kept the forward pass's im2col
    matrix alive instead of rebuilding it from x."""
    bsz, cin, h, wd = x.shape
    cout, _, kh, kw = w.shape
    cols = T._im2col_same(x.data, kh, kw)  # cached for the weight gradient
    wc = w.data.astype(x.data.dtype, copy=False)
    out = np.matmul(wc.reshape(cout, -1), cols)
    out += b.data.astype(x.data.dtype, copy=False)[:, None]

    def bwd(g):
        g3 = g.reshape(bsz, cout, h * wd)
        gw = np.matmul(g3, cols.transpose(0, 2, 1)).sum(axis=0).reshape(w.shape)
        gw = gw.astype(w.data.dtype, copy=False)
        gb = g.sum(axis=(0, 2, 3)).astype(b.data.dtype, copy=False)
        if not x.requires_grad:
            return None, gw, gb
        gcols = T._im2col_same(g.astype(x.data.dtype, copy=False), kh, kw)
        wflip = wc[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(cin, -1)
        return np.matmul(wflip, gcols).reshape(bsz, cin, h, wd), gw, gb

    return T._result(out.reshape(bsz, cout, h, wd), (x, w, b), bwd)


def assert_same_bytes(got, want):
    for a, b in zip(got, want, strict=True):
        if b is None:
            assert a is None
        else:
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestRematerialisedConv:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("x_grad", [True, False])
    @pytest.mark.parametrize("kernel", [(1, 1), (3, 3), (3, 5)])
    def test_conv2d_matches_the_kept_matrix_bytes(self, dtype, x_grad, kernel):
        rng = np.random.default_rng([*kernel, x_grad])
        xdata = rng.normal(size=(3, 4, 7, 6)).astype(dtype)
        xdata[xdata < -1.5] = -0.0
        wdata, bdata = rng.normal(size=(5, 4, *kernel)), rng.normal(size=5)
        g = rng.normal(size=(3, 5, 7, 6)).astype(dtype)
        runs = []
        for conv in (T.conv2d, conv2d_keeping_cols):
            x = T.Tensor(xdata.copy(), requires_grad=x_grad)
            w, b = t(wdata), t(bdata)
            out = conv(x, w, b)
            vjp(out, g)
            runs.append((out.data, x.grad, w.grad, b.grad))
        assert (runs[0][1] is None) == (not x_grad)
        assert_same_bytes(*runs)

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_one_graph_walked_from_two_roots(self, dtype):
        # two convs, so the second rebuilds its matrix from an intermediate
        # activation; each walk must read the same bytes the first one did
        rng = np.random.default_rng(7)
        xdata = rng.normal(size=(2, 3, 6, 5)).astype(dtype)
        shapes = [(4, 3, 3, 3), (4,), (2, 4, 3, 5), (2,)]
        params = [rng.normal(size=s) for s in shapes]
        runs = []
        for conv in (T.conv2d, conv2d_keeping_cols):
            x = T.Tensor(xdata.copy(), requires_grad=True)
            leaves = [t(p) for p in params]
            y = conv(T.relu(conv(x, *leaves[:2])), *leaves[2:])
            walks = []
            for root in (T.tsum(T.relu(y)), T.sum_squares(y)):
                for leaf in (x, *leaves):
                    leaf.grad = None
                T.backward(root)
                walks += [y.data, x.grad, *(leaf.grad for leaf in leaves)]
            runs.append(walks)
        assert not np.array_equal(runs[0][1], runs[0][7])  # the roots differ
        assert_same_bytes(*runs)
