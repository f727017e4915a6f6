import os

import numpy as np
import pytest

from mtlkit import tensor as T


def finite_difference(f, params, step=1e-5):
    """Central-difference gradients of scalar f() w.r.t. each param tensor."""
    grads = []
    for p in params:
        flat = p.data.reshape(-1)
        g = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            lp = float(f().data)
            flat[i] = orig - step
            lm = float(f().data)
            flat[i] = orig
            g[i] = (lp - lm) / (2 * step)
        grads.append(g.reshape(p.data.shape))
    return grads


def max_rel_err(auto, fd):
    return float(np.max(np.abs(auto - fd) / np.maximum(1.0, np.abs(fd))))


def check_gradients(f, params, tol=1e-4, step=1e-5):
    """Run f forward+backward, compare every param grad to central differences."""
    for p in params:
        p.grad = None
    out = f()
    T.backward(out)
    fds = finite_difference(f, params, step)
    worst = 0.0
    for p, fd in zip(params, fds):
        assert p.grad is not None, "missing gradient"
        worst = max(worst, max_rel_err(p.grad, fd))
    assert worst < tol, f"gradient mismatch: {worst}"
    return worst


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(autouse=True)
def no_unreaped_children():
    """Fail a test that leaves a child process of the test process unreaped."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"test left a child process running or unreaped (waitpid gave pid {pid})")
