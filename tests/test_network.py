import os

import numpy as np
import pytest

from mtlkit import network
from mtlkit import tensor as T
from mtlkit.errors import BadConfig, CheckpointError, ShapeMismatch
from mtlkit.network import DualHeadNet, NetConfig, load_checkpoint, save_checkpoint
from mtlkit.objective import joint_loss


def small_net(P=3, Q=4, seed=0, **kw):
    return DualHeadNet(NetConfig(width=4, blocks=1, **kw), P, Q, seed)


def test_seed_determinism():
    a, b = small_net(seed=7), small_net(seed=7)
    for pa, pb in zip(a.parameters(), b.parameters()):
        assert np.array_equal(pa.tensor.data, pb.tensor.data)


def test_full_scale_head_shapes():
    net = DualHeadNet(NetConfig(), P=25, Q=23, seed=0)
    assert net.lesion_w.shape == (net.feature_dim, 25)
    assert net.location_w.shape == (net.feature_dim, 23)


@pytest.mark.parametrize("config", [NetConfig(), NetConfig(in_channels=1, width=5, blocks=0),
                                    NetConfig(width=3, blocks=3)])
def test_param_shapes_match_the_built_net(config):
    net = DualHeadNet(config, P=4, Q=6, seed=0)
    assert network._param_shapes(config, 4, 6) == [p.tensor.shape for p in net.parameters()]


def test_single_location_rejected():
    with pytest.raises(BadConfig):
        DualHeadNet(NetConfig(), P=3, Q=1, seed=0)


def test_bad_config():
    with pytest.raises(BadConfig):
        DualHeadNet(NetConfig(width=0), P=3, Q=4, seed=0)
    with pytest.raises(BadConfig):
        DualHeadNet(NetConfig(), P=0, Q=4, seed=0)


def test_zero_heads_give_zero_logits(rng):
    net = small_net()
    net.lesion_w.data[:] = 0.0
    net.location_w.data[:] = 0.0
    les, loc, _, _ = net.forward(np.zeros((1, 3, 8, 8)))
    assert np.array_equal(les.data, np.zeros((1, 3)))
    assert np.array_equal(loc.data, np.zeros((1, 4)))


def test_features_are_spatial_mean_of_conv_maps(rng):
    net = small_net()
    _, _, feat, maps = net.forward(rng.normal(size=(2, 3, 8, 8)))
    assert np.allclose(feat.data, maps.data.mean(axis=(2, 3)), atol=1e-12)


def test_batch_invariance(rng):
    net = small_net()
    batch = rng.normal(size=(2, 3, 8, 8))
    les2, loc2, _, _ = net.forward(batch)
    les_a, loc_a, _, _ = net.forward(batch[:1])
    les_b, loc_b, _, _ = net.forward(batch[1:])
    assert np.allclose(les2.data, np.vstack([les_a.data, les_b.data]), atol=1e-12)
    assert np.allclose(loc2.data, np.vstack([loc_a.data, loc_b.data]), atol=1e-12)


def test_infer_draws_one_batch_per_forward(rng, monkeypatch):
    # images come from an iterable batch_size at a time, so memory does not
    # grow with their number; the arrays equal the forwards of those batches
    net = small_net()
    images = rng.normal(size=(7, 3, 8, 8))
    drawn, per_forward = [0], []
    forward = DualHeadNet.forward

    def counting_forward(self, batch):
        per_forward.append((len(batch), drawn[0]))
        return forward(self, batch)

    def draw():
        for img in images:
            drawn[0] += 1
            yield img

    monkeypatch.setattr(DualHeadNet, "forward", counting_forward)
    out = net.infer(draw(), batch_size=3)
    monkeypatch.undo()
    assert per_forward == [(3, 3), (3, 6), (1, 7)]
    chunks = [net.forward(images[i : i + 3]) for i in (0, 3, 6)]
    for j, got in enumerate(out):
        assert np.array_equal(got, np.concatenate([c[j].data for c in chunks]))


def test_shared_trunk_head_isolation(rng):
    net = small_net()
    batch = rng.normal(size=(2, 3, 8, 8))
    _, loc_before, _, _ = net.forward(batch)
    les_before, _, _, _ = net.forward(batch)
    net.lesion_w.data += 0.5
    net.lesion_b.data += 0.1
    _, loc_after, _, _ = net.forward(batch)
    assert np.array_equal(loc_before.data, loc_after.data)
    net2 = small_net()
    net2.location_w.data += 0.5
    les_after, _, _, _ = net2.forward(batch)
    assert np.array_equal(les_before.data, les_after.data)


def test_gradient_flow_from_both_heads(rng):
    # trunk gradient under the joint loss differs from either single-task one
    batch = rng.normal(size=(2, 3, 8, 8))
    u = np.array([[1, 0, 0], [0, 1, 1]])
    v = np.array([1, 3])

    def trunk_grad(loss_fn):
        net = small_net(seed=3)
        _, node = loss_fn(net)
        T.backward(node)
        return net.conv1_w.grad.copy()

    from mtlkit.objective import lesion_loss, location_loss

    g_joint = trunk_grad(lambda n: joint_loss(*n.forward(batch)[:2], u, v))
    g_les = trunk_grad(lambda n: (None, lesion_loss(n.forward(batch)[0], u)))
    g_loc = trunk_grad(lambda n: (None, location_loss(n.forward(batch)[1], v)))
    assert np.allclose(g_joint, g_les + g_loc, atol=1e-12)
    assert not np.allclose(g_joint, g_les)
    assert not np.allclose(g_joint, g_loc)


def _graph(root):
    nodes, stack = {}, [root]
    while stack:
        node = stack.pop()
        if id(node) not in nodes:
            nodes[id(node)] = node
            stack.extend(node._parents)
    return list(nodes.values())


def test_backward_leaves_gradients_only_on_leaves(rng):
    net = small_net(seed=4)
    les, loc, _, _ = net.forward(rng.normal(size=(2, 3, 8, 8)))
    _, node = joint_loss(les, loc, np.array([[1, 0, 0], [0, 1, 1]]), np.array([1, 3]))
    T.backward(node)
    nodes = _graph(node)
    assert [n for n in nodes if n._parents and n.grad is not None] == []
    ids = {id(n) for n in nodes}
    for p in net.parameters():
        assert id(p.tensor) in ids and p.tensor.grad is not None, p.name


def test_per_task_gradients_from_one_forward(rng):
    # one forward and two backward calls give each task's trunk gradient,
    # exactly as two separate forwards do
    from mtlkit.objective import lesion_loss, location_loss

    batch = rng.normal(size=(2, 3, 8, 8))
    u = np.array([[1, 0, 0], [0, 1, 1]])
    v = np.array([1, 3])
    net = small_net(seed=3)
    les, loc, _, _ = net.forward(batch)
    T.backward(lesion_loss(les, u))
    g_les = net.conv1_w.grad
    net.conv1_w.grad = None
    T.backward(location_loss(loc, v))
    g_loc = net.conv1_w.grad

    def separate(loss_fn):
        fresh = small_net(seed=3)
        T.backward(loss_fn(*fresh.forward(batch)[:2]))
        return fresh.conv1_w.grad

    assert np.array_equal(g_les, separate(lambda les, loc: lesion_loss(les, u)))
    assert np.array_equal(g_loc, separate(lambda les, loc: location_loss(loc, v)))


def test_forward_builds_eighteen_op_nodes(rng):
    # stem conv, relu, pool (3); per block conv, relu, conv, add, relu (2 x 5);
    # global pool (1); two matmul + bias_add heads (4). Each conv carries its
    # bias, so no node of its own adds it.
    net = DualHeadNet(NetConfig(), P=3, Q=4, seed=0)
    les, loc, _, _ = net.forward(rng.normal(size=(1, 3, 8, 8)))
    ops = {id(n) for root in (les, loc) for n in _graph(root) if n._parents}
    assert len(ops) == 18


def test_forward_rejects_bad_channels(rng):
    with pytest.raises(ShapeMismatch):
        small_net().forward(rng.normal(size=(1, 2, 8, 8)))


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path, rng):
        net = small_net(seed=11)
        bufs = [rng.normal(size=p.tensor.shape) for p in net.parameters()]
        path = tmp_path / "net.ckpt"
        save_checkpoint(path, net, bufs, {"optimizer": {"lr": 0.001}, "epoch": 4})
        loaded, lbufs, state = load_checkpoint(path)
        for pa, pb in zip(net.parameters(), loaded.parameters()):
            assert np.array_equal(pa.tensor.data, pb.tensor.data)
        for ba, bb in zip(bufs, lbufs):
            assert np.array_equal(ba, bb)
        assert state["epoch"] == 4
        assert loaded.P == net.P and loaded.Q == net.Q

    def test_save_twice_identical_bytes(self, tmp_path):
        net = small_net(seed=2)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(p1, net)
        save_checkpoint(p2, net)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOPE" + b"\0" * 16)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_save_leaves_only_the_checkpoint(self, tmp_path):
        save_checkpoint(tmp_path / "net.ckpt", small_net())
        save_checkpoint(tmp_path / "net.ckpt", small_net(seed=1))
        assert os.listdir(tmp_path) == ["net.ckpt"]

    def test_failed_write_keeps_the_old_checkpoint(self, tmp_path, monkeypatch):
        path = tmp_path / "net.ckpt"
        save_checkpoint(path, small_net(seed=5))
        old = path.read_bytes()

        class TornFile:
            """A file whose one write stores half its bytes, then fails."""

            def __init__(self, p, mode):
                self.f = open(p, mode)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

            def write(self, data):
                self.f.write(data[: len(data) // 2])
                raise OSError(28, "No space left on device")

        monkeypatch.setattr(network, "open", TornFile, raising=False)
        with pytest.raises(OSError):
            save_checkpoint(path, small_net(seed=6))
        monkeypatch.undo()
        assert path.read_bytes() == old
        loaded, _, _ = load_checkpoint(path)
        assert loaded.seed == 5
