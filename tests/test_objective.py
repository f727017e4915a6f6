import math

import numpy as np
import pytest

from conftest import check_gradients
from mtlkit import objective as O
from mtlkit import tensor as T
from mtlkit.errors import BadConfig, BadLabel
from mtlkit.network import DualHeadNet, NetConfig
from mtlkit.tensor import Tensor


class TestSigmoid:
    def test_zero(self):
        assert np.allclose(O.sigmoid(np.array([[0.0]])), 0.5)

    def test_ln3(self):
        out = O.sigmoid(np.array([[math.log(3.0)]]))
        assert abs(out[0, 0] - 0.75) < 1e-12

    def test_symmetry(self):
        a = O.sigmoid(np.array([[-2.0, 2.0]]))
        assert abs(a[0, 0] + a[0, 1] - 1.0) < 1e-12

    def test_saturated_finite(self):
        a = O.sigmoid(np.array([[-1e4, 1e4]]))
        assert np.isfinite(a).all()


class TestSoftmax:
    def test_uniform(self):
        b = O.softmax(np.full((1, 4), 3.0))
        assert np.allclose(b, 0.25, atol=1e-12)

    def test_direct_value(self):
        b = O.softmax(np.array([[1.0, 0.0, 0.0]]))
        assert abs(b[0, 0] - math.e / (math.e + 2)) < 1e-12

    def test_rows_sum_to_one(self, rng):
        b = O.softmax(rng.normal(size=(5, 7)) * 100)
        assert np.abs(b.sum(axis=1) - 1.0).max() < 1e-12

    def test_shift_invariance(self, rng):
        t = rng.normal(size=(3, 4))
        a = O.softmax(t)
        b = O.softmax(t + 100.0)
        assert np.abs(a - b).max() < 1e-12


class TestLesionLoss:
    def test_closed_form_2ln2(self):
        node = O.lesion_loss(Tensor([[0.0, 0.0]]), [[1, 0]])
        assert abs(node.item() - 2 * math.log(2)) < 1e-12

    def test_saturated_correct(self):
        node = O.lesion_loss(Tensor([[50.0]]), [[1]])
        assert 0 <= node.item() < 1e-9

    def test_extreme_logits_finite(self):
        node = O.lesion_loss(Tensor([[1e4, -1e4]]), [[0, 1]])
        assert np.isfinite(node.item())

    def test_term_by_term_oracle(self):
        s = [1.0, -1.0, 0.5]
        u = [1, 1, 0]
        expected = 0.0
        for ss, uu in zip(s, u):  # direct per-term evaluation
            a = 1.0 / (1.0 + math.exp(-ss))
            expected -= uu * math.log(a) + (1 - uu) * math.log(1 - a)
        node = O.lesion_loss(Tensor([s]), [u])
        assert abs(node.item() - expected) < 1e-12

    def test_bad_label(self):
        with pytest.raises(BadLabel):
            O.lesion_loss(Tensor([[0.0]]), [[2]])

    def test_monotone_decreasing_in_positive_logit(self):
        vals = [O.lesion_loss(Tensor([[s]]), [[1]]).item() for s in (-1.0, 0.0, 1.0, 3.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_gradient(self, rng):
        logits = Tensor(rng.uniform(-1, 1, size=(3, 4)), requires_grad=True)
        u = (rng.random((3, 4)) < 0.5).astype(float)
        check_gradients(lambda: O.lesion_loss(logits, u), [logits])


class TestLocationLoss:
    def test_uniform_ln4(self):
        node = O.location_loss(Tensor([[1.0, 1.0, 1.0, 1.0]]), [2])
        assert abs(node.item() - math.log(4)) < 1e-12

    def test_direct_value(self):
        node = O.location_loss(Tensor([[1.0, 0.0, 0.0]]), [1])
        assert abs(node.item() + math.log(math.e / (math.e + 2))) < 1e-12

    def test_label_range(self):
        with pytest.raises(BadLabel):
            O.location_loss(Tensor([[0.0, 0.0]]), [0])
        with pytest.raises(BadLabel):
            O.location_loss(Tensor([[0.0, 0.0]]), [3])

    def test_extreme_logits_finite(self):
        node = O.location_loss(Tensor([[1e4, -1e4]]), [2])
        assert np.isfinite(node.item())

    def test_gradient(self, rng):
        logits = Tensor(rng.uniform(-1, 1, size=(3, 5)), requires_grad=True)
        v = rng.integers(1, 6, size=3)
        check_gradients(lambda: O.location_loss(logits, v), [logits])


@pytest.mark.parametrize("loss, labels", [(O.lesion_loss, [[1, 0, 1, 0, 0], [0, 1, 1, 0, 1]]),
                                          (O.location_loss, [5, 2])])
def test_float32_logits_float64_value_float32_gradient(rng, loss, labels):
    # the value is the float64 loss of the same (widened) logits, bit for bit
    data = rng.uniform(-3, 3, size=(2, 5)).astype(np.float32)
    narrow = loss(Tensor(data, requires_grad=True), labels)
    wide = loss(Tensor(data.astype(np.float64), requires_grad=True), labels)
    assert narrow.data.dtype == np.float64 and narrow.item() == wide.item()
    (g,) = narrow._backward(np.float64(1.0))
    assert g.dtype == np.float32
    assert np.array_equal(g, wide._backward(np.float64(1.0))[0].astype(np.float32))


class TestJointLoss:
    def net(self, P=2, Q=4, seed=0):
        return DualHeadNet(NetConfig(width=4, blocks=1), P, Q, seed)

    def loss(self, net, batch, u, v, **kwargs):
        les_logits, loc_logits, _, _ = net.forward(batch)
        return O.joint_loss(les_logits, loc_logits, u, v, **kwargs)

    def test_gamma_zero_sum(self, rng):
        # no decay term in the objective: total is exactly the two task losses
        net = self.net()
        batch = rng.normal(size=(1, 3, 8, 8))
        bd, node = self.loss(net, batch, [[1, 0]], [2])
        assert abs(bd.total - (bd.lesion_loss + bd.location_loss)) == 0.0
        assert abs(node.item() - bd.total) < 1e-12

    def test_total_is_optimised_node_with_aux_weight(self, rng):
        net = self.net()
        bd, node = self.loss(net, rng.normal(size=(2, 3, 8, 8)), [[1, 0], [0, 1]], [1, 4],
                             aux_weight=0.5)
        assert bd.total == float(node.data)
        assert abs(bd.total - (bd.lesion_loss + 0.5 * bd.location_loss)) < 1e-12

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("special", [(), (np.inf, -np.inf), (np.inf, -np.inf, np.nan)],
                             ids=["finite", "inf", "inf-and-nan"])
    def test_unit_aux_weight_keeps_the_bits_of_the_plain_sum(self, rng, dtype, special):
        # scaling by 1.0 is exact: the loss and both logit gradients equal les + loc byte for byte
        les, loc = rng.normal(size=(4, 3)) * 5, rng.normal(size=(4, 5)) * 5
        for i, x in enumerate(special):
            les[i, i % 3], loc[3 - i, i] = x, -x
        u, v = [[1, 0, 1], [0, 1, 0], [1, 1, 0], [0, 0, 1]], [1, 4, 2, 5]

        def bits(build):
            les_t, loc_t = (Tensor(a.astype(dtype), requires_grad=True) for a in (les, loc))
            with np.errstate(invalid="ignore", over="ignore"):
                node = build(les_t, loc_t)
                T.backward(node)
            return [(a.dtype, a.tobytes()) for a in (node.data, les_t.grad, loc_t.grad)]

        joint = bits(lambda a, b: O.joint_loss(a, b, u, v, aux_weight=1.0)[1])
        assert joint == bits(lambda a, b: T.add(O.lesion_loss(a, u), O.location_loss(b, v)))
        if special:
            assert not np.isfinite(np.frombuffer(joint[0][1])).all()

    def test_single_task_modes(self, rng):
        net = self.net()
        batch = rng.normal(size=(2, 3, 8, 8))
        les_logits, loc_logits, _, _ = net.forward(batch)
        les = O.lesion_loss(les_logits, [[1, 0], [0, 1]]).item()
        loc = O.location_loss(loc_logits, [1, 4]).item()
        bd, node = self.loss(net, batch, [[1, 0], [0, 1]], [1, 4], mode="lesion_only")
        assert (bd.lesion_loss, bd.location_loss, bd.total, node.item()) == (les, None, les, les)
        bd, node = self.loss(net, batch, [[1, 0], [0, 1]], [1, 4], mode="location_only")
        assert (bd.lesion_loss, bd.location_loss, bd.total, node.item()) == (None, loc, loc, loc)

    def test_unknown_mode_rejected(self, rng):
        with pytest.raises(BadConfig):
            self.loss(self.net(), rng.normal(size=(1, 3, 8, 8)), [[1, 0]], [2], mode="both")

    def test_zero_heads_closed_form(self, rng):
        net = self.net()
        for p in (net.lesion_w, net.lesion_b, net.location_w, net.location_b):
            p.data[:] = 0.0
        bd, _ = self.loss(net, rng.normal(size=(1, 3, 8, 8)), [[1, 0]], [3])
        assert abs(bd.total - (2 * math.log(2) + math.log(4))) < 1e-12

    def test_breakdown_components_nonnegative(self, rng):
        net = self.net()
        bd, _ = self.loss(net, rng.normal(size=(2, 3, 8, 8)), [[1, 0], [0, 1]], [1, 4])
        assert bd.lesion_loss >= 0 and bd.location_loss >= 0
        assert bd.total == bd.lesion_loss + bd.location_loss

    def test_full_net_gradient_check(self, rng):
        net = self.net(seed=5)
        batch = rng.uniform(-1, 1, size=(2, 3, 8, 8))
        u = np.array([[1.0, 0.0], [1.0, 1.0]])
        v = np.array([2, 4])

        def f():
            return self.loss(net, batch, u, v)[1]

        check_gradients(f, [p.tensor for p in net.parameters()])

    def test_head_gradient_task_independence(self, rng):
        # lesion-head gradient does not depend on v; location-head not on u
        batch = rng.normal(size=(2, 3, 8, 8))
        u = np.array([[1.0, 0.0], [0.0, 1.0]])

        def grads(v):
            net = self.net(seed=9)
            _, node = self.loss(net, batch, u, v)
            T.backward(node)
            return net.lesion_w.grad.copy(), net.location_w.grad.copy()

        les_a, loc_a = grads([1, 2])
        les_b, loc_b = grads([4, 3])
        assert np.array_equal(les_a, les_b)
        assert not np.array_equal(loc_a, loc_b)
