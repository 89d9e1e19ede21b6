"""Adam optimizer: hand-traced updates, state handling, and convergence."""

import numpy as np
import pytest

from ftnet import tensor as T
from ftnet.errors import UsageError


def make_param(name, values):
    return T.Parameter(name, np.asarray(values, dtype=np.float64))


def reference_adam(theta, grads, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Textbook recurrence, scalar, written independently of the engine."""
    m = v = 0.0
    t = 0
    for g in grads:
        t += 1
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1**t)
        v_hat = v / (1 - beta2**t)
        theta -= lr * m_hat / (np.sqrt(v_hat) + eps)
    return theta


def test_single_step_matches_reference():
    p = make_param("w", [1.0])
    p.tensor.grad = np.full((1, 1, 1), 0.5)
    T.adam_step([p], lr=0.1)
    want = reference_adam(1.0, [0.5], 0.1)
    # First step moves by almost exactly lr: m_hat/sqrt(v_hat) == g/|g|.
    np.testing.assert_allclose(p.data.ravel(), [want], rtol=0, atol=0)
    assert p.data.ravel()[0] == pytest.approx(1.0 - 0.1, abs=1e-8)


def test_multi_step_matches_reference():
    grads = [1.0, -0.3, 0.8, 0.8, -2.0]
    p = make_param("w", [0.0])
    theta = 0.0
    for g in grads:
        p.tensor.grad = np.full((1, 1, 1), g)
        T.adam_step([p], lr=0.01)
    theta = reference_adam(theta, grads, 0.01)
    np.testing.assert_allclose(p.data.ravel(), [theta], rtol=1e-15)


def test_bias_correction_uses_per_parameter_step_count():
    # A parameter that joins later must be corrected by its own t, not a global one.
    p1 = make_param("a", [0.0])
    p2 = make_param("b", [0.0])
    p1.tensor.grad = np.ones((1, 1, 1))
    T.adam_step([p1], lr=0.1)
    p1.tensor.grad = np.ones((1, 1, 1))
    p2.tensor.grad = np.ones((1, 1, 1))
    T.adam_step([p1, p2], lr=0.1)
    assert p1.step_count == 2
    assert p2.step_count == 1
    # p2's single update equals p1's first one.
    np.testing.assert_allclose(p2.data.ravel(), [-0.1], atol=1e-8)


def test_gradients_cleared_after_step():
    p = make_param("w", [1.0])
    p.tensor.grad = np.ones((1, 1, 1))
    T.adam_step([p], lr=0.1)
    assert p.tensor.grad is None


def test_missing_gradient_fails_before_any_update():
    p1 = make_param("a", [1.0])
    p2 = make_param("b", [1.0])
    p1.tensor.grad = np.ones((1, 1, 1))
    before = p1.data.copy()
    with pytest.raises(UsageError):
        T.adam_step([p1, p2], lr=0.1)
    # p1 must be untouched even though it came first.
    np.testing.assert_array_equal(p1.data, before)
    assert p1.step_count == 0


def test_converges_on_quadratic():
    # Minimize (w - 3)^2 by autodiff gradients; Adam should land near 3.
    p = make_param("w", [0.0])
    target = T.Tensor(np.array([3.0]))
    for _ in range(400):
        diff = T.sub(p.tensor, target)
        loss = T.mul(diff, diff).sum()
        loss.backward()
        T.adam_step([p], lr=0.05)
    assert p.data.ravel()[0] == pytest.approx(3.0, abs=1e-3)
