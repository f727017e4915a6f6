import math
import os
import tracemalloc

import numpy as np
import pytest

from mtlkit import network
from mtlkit import tensor as T
from mtlkit.errors import BadConfig, CheckpointError, ShapeMismatch
from mtlkit.network import DualHeadNet, NetConfig, load_checkpoint, save_checkpoint
from mtlkit.objective import TASKS, joint_loss


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


def test_init_draws_glorot_weights_in_order():
    # one generator seeded with the net's seed draws conv1_w, then each block's
    # w1 and w2, then lesion_w and location_w; a conv's fans count its 3x3 taps,
    # and every bias starts at zero
    P, Q, w, c = 5, 4, NetConfig().width, NetConfig().in_channels
    rng = np.random.default_rng(3)

    def glorot(shape, fan_in, fan_out):
        a = math.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-a, a, size=shape)

    ref = {"conv1_w": glorot((w, c, 3, 3), c * 9, w * 9), "conv1_b": np.zeros(w)}
    for i in range(NetConfig().blocks):
        ref[f"block{i}_w1"] = glorot((w, w, 3, 3), w * 9, w * 9)
        ref[f"block{i}_b1"] = np.zeros(w)
        ref[f"block{i}_w2"] = glorot((w, w, 3, 3), w * 9, w * 9)
        ref[f"block{i}_b2"] = np.zeros(w)
    ref["lesion_w"], ref["lesion_b"] = glorot((w, P), w, P), np.zeros(P)
    ref["location_w"], ref["location_b"] = glorot((w, Q), w, Q), np.zeros(Q)
    params = DualHeadNet(NetConfig(), P, Q, seed=3).parameters()
    assert [p.name for p in params] == list(ref)
    for p in params:
        assert np.array_equal(p.tensor.data, ref[p.name]), p.name


@pytest.mark.parametrize("mode, heads", [
    ("mtl", ["lesion_w", "lesion_b", "location_w", "location_b"]),
    ("lesion_only", ["lesion_w", "lesion_b"]),
    ("location_only", ["location_w", "location_b"]),
])
def test_parameters_of_each_mode(mode, heads):
    net = DualHeadNet(NetConfig(width=4, blocks=2, head_w_mult=3.0, head_b_mult=7.0), 3, 4, 0)
    trunk = ["conv1_w", "conv1_b"] + [f"block{i}_{n}" for i in range(2)
                                      for n in ("w1", "b1", "w2", "b2")]
    params = net.parameters(TASKS[mode])
    assert [p.name for p in params] == trunk + heads
    assert [p.lr_mult for p in params] == [1.0] * len(trunk) + [3.0, 7.0] * (len(heads) // 2)
    for p in params[len(trunk):]:
        assert p.tensor is getattr(net, p.name)
    # with no argument: the trunk and both heads, lesion first
    assert [(p.name, p.tensor, p.lr_mult) for p in net.parameters()] == [
        (p.name, p.tensor, p.lr_mult) for p in net.parameters(TASKS["mtl"])]
    assert [p.name for p in net.parameters()] == trunk + ["lesion_w", "lesion_b",
                                                         "location_w", "location_b"]


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
    # grow with their number; the arrays equal the float32 forwards of those
    # batches, widened to float64
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
    chunks = [net.forward(images[i : i + 3].astype(np.float32)) for i in (0, 3, 6)]
    for j, got in enumerate(out):
        assert np.array_equal(got, np.concatenate([c[j].data for c in chunks]).astype(np.float64))


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


def test_a_training_forward_keeps_no_im2col_matrix(rng):
    # conv2d rebuilds its (B, C*kh*kw, H*W) matrix in backward, so the graph
    # holds activations, relu masks and pool indices: 3.2 MB, measured at the
    # first forward of a process, against 9.4 MB while each conv kept its
    # matrix, whose five matrices come to 6.2 MB
    net = DualHeadNet(NetConfig(), P=3, Q=4, seed=0)
    batch = rng.normal(size=(20, 3, 28, 28)).astype(np.float32)
    cfg, bsz, pooled = net.config, 20, 14 * 14
    matrices = 4 * bsz * (cfg.in_channels * 9 * 28 * 28 + 2 * cfg.blocks * cfg.width * 9 * pooled)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        outs = net.forward(batch)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert outs[0].requires_grad and outs[0]._parents  # the graph is there
    assert held < matrices, (held, matrices)


class TestPrecision:
    """A float32 batch runs forward and backward in float32; the float64
    parameters still receive float64 gradients."""

    U, V = np.array([[1, 0, 0], [0, 1, 1], [1, 1, 0]]), np.array([1, 3, 4])

    def test_float32_batch_stays_float32(self, rng):
        net = DualHeadNet(NetConfig(width=4, blocks=2), 3, 4, seed=2)
        outs = net.forward(rng.normal(size=(3, 3, 8, 8)).astype(np.float32))
        assert [o.data.dtype for o in outs] == [np.float32] * 4
        _, node = joint_loss(outs[0], outs[1], self.U, self.V)
        nodes = _graph(node)
        # float64: the parameters, the two task losses, the scaled location loss
        # and the sum; the rest float32
        les_loss, scaled = node._parents
        losses = (node, les_loss, scaled, *scaled._parents)
        wide = {id(p.tensor) for p in net.parameters()} | {id(n) for n in losses}
        for n in nodes:
            assert n.data.dtype == (np.float64 if id(n) in wide else np.float32)
        rules = [n for n in nodes if n._backward is not None]
        assert len(rules) == 22  # 18 forward ops, two task losses, the scale and the sum
        for n in rules:
            for parent, g in zip(n._parents, n._backward(np.ones_like(n.data))):
                assert g is None or g.dtype == parent.data.dtype  # None: the batch's own
        T.backward(node)
        for p in net.parameters():
            assert p.tensor.data.dtype == p.tensor.grad.dtype == np.float64, p.name

    def test_float32_gradients_match_float64(self, rng):
        # stated tolerance: 1e-5 of each parameter's largest gradient entry;
        # the float32 forward and backward measured 1.4e-7 to 3.9e-7 on seeds 0-4
        batch = rng.normal(size=(3, 3, 12, 12))
        grads = []
        for dtype in (np.float64, np.float32):
            net = DualHeadNet(NetConfig(width=8, blocks=2), 3, 4, seed=5)
            les, loc, _, _ = net.forward(batch.astype(dtype))
            T.backward(joint_loss(les, loc, self.U, self.V)[1])
            grads.append([p.tensor.grad for p in net.parameters()])
        for g64, g32 in zip(*grads):
            assert np.abs(g32 - g64).max() <= 1e-5 * np.abs(g64).max()

    def test_infer_forwards_float32_and_returns_float64(self, rng):
        net = small_net()
        images = rng.normal(size=(5, 3, 8, 8))
        first, second = net.infer(images, batch_size=2), net.infer(images, batch_size=2)
        assert [a.dtype for a in first] == [np.float64] * 3
        # deterministic: the same call twice gives the same bytes
        assert [a.tobytes() for a in first] == [a.tobytes() for a in second]
        # each float32 value widened exactly: narrowing back loses nothing
        assert all(np.array_equal(a.astype(np.float32).astype(np.float64), a) for a in first)


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
        assert state["epoch"] == 4 and state["mode"] == "mtl"   # a state without a mode is mtl
        assert loaded.P == net.P and loaded.Q == net.Q

    def test_set_parameters_takes_one_array_per_parameter(self):
        net, other = small_net(seed=1), small_net(seed=2)
        net.set_parameters([p.tensor.data for p in other.parameters()])
        assert all(np.array_equal(p.tensor.data, q.tensor.data)
                   for p, q in zip(net.parameters(), other.parameters()))
        assert net.lesion_w.data is other.lesion_w.data
        with pytest.raises(ValueError):
            net.set_parameters([p.tensor.data for p in other.parameters()][:-1])

    @pytest.mark.parametrize("edit", [
        lambda bufs: [np.zeros((7, 7, 7))], lambda bufs: bufs[:-1], lambda bufs: bufs + bufs[:1],
        lambda bufs: [np.zeros((7, 7, 7))] + bufs[1:], lambda bufs: bufs[::-1],
    ], ids=["one-odd-buffer", "one-short", "one-extra", "first-wrong-shape", "reversed"])
    def test_momentum_buffers_must_fit_the_table(self, tmp_path, monkeypatch, edit):
        net = small_net()
        path = tmp_path / "net.ckpt"
        save_checkpoint(path, net, edit([np.zeros(p.tensor.shape) for p in net.parameters()]))
        monkeypatch.setattr(network, "DualHeadNet", lambda *a: pytest.fail("net was built"))
        with pytest.raises(CheckpointError, match="momentum buffers do not match"):
            load_checkpoint(path)

    @pytest.mark.parametrize("mode", sorted(TASKS))
    def test_momentum_buffers_follow_the_stored_mode(self, tmp_path, mode):
        # an optimizer holds buffers only for the parameters its mode trains
        net = small_net()
        bufs = [np.full(p.tensor.shape, 0.5) for p in net.parameters(TASKS[mode])]
        path = tmp_path / "net.ckpt"
        save_checkpoint(path, net, bufs, {"mode": mode})
        _, loaded, state = load_checkpoint(path)
        assert state["mode"] == mode
        assert all(np.array_equal(a, b) for a, b in zip(loaded, bufs, strict=True))
        for other in [m for m in TASKS if m != mode]:
            save_checkpoint(path, net, bufs, {"mode": other})
            with pytest.raises(CheckpointError, match="momentum buffers"):
                load_checkpoint(path)

    @pytest.mark.parametrize("buffers", [False, True], ids=["no-buffers", "buffers"])
    @pytest.mark.parametrize("mode", ["unknown", "both", "", None, 1, ["mtl"], {"mtl": 1}],
                             ids=["unknown", "both", "empty", "null", "int", "list", "object"])
    def test_mode_outside_tasks_is_rejected(self, tmp_path, monkeypatch, mode, buffers):
        net = small_net()
        path = tmp_path / "net.ckpt"
        bufs = [np.zeros(p.tensor.shape) for p in net.parameters()] if buffers else []
        save_checkpoint(path, net, bufs, {"mode": mode})
        monkeypatch.setattr(network, "DualHeadNet", lambda *a: pytest.fail("net was built"))
        with pytest.raises(CheckpointError, match="unknown mode"):
            load_checkpoint(path)

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
