"""Tests for the A3C objective, its head gradients, and the optimizers."""

import hypothesis
import hypothesis.strategies as st
import numpy as np
import pytest

from repro.nn import (
    ParameterSet,
    RMSProp,
    SGD,
    Adam,
    a3c_loss_and_head_gradients,
    entropy,
    log_softmax,
    softmax,
)
from repro.nn.gradcheck import numerical_gradient

finite_logits = st.lists(
    st.floats(min_value=-20, max_value=20), min_size=2, max_size=8)


class TestSoftmax:
    @hypothesis.given(finite_logits)
    def test_softmax_is_distribution(self, raw):
        probs = softmax(np.array(raw, dtype=np.float32))
        assert probs.sum() == pytest.approx(1.0, abs=1e-5)
        assert (probs >= 0).all()

    @hypothesis.given(finite_logits, st.floats(-100, 100))
    def test_shift_invariance(self, raw, shift):
        logits = np.array(raw, dtype=np.float64)
        np.testing.assert_allclose(softmax(logits),
                                   softmax(logits + shift), atol=1e-10)

    @hypothesis.given(finite_logits)
    def test_log_softmax_consistent(self, raw):
        logits = np.array(raw, dtype=np.float64)
        np.testing.assert_allclose(log_softmax(logits),
                                   np.log(softmax(logits)), atol=1e-9)

    @hypothesis.given(finite_logits)
    def test_entropy_bounds(self, raw):
        probs = softmax(np.array(raw, dtype=np.float64))
        h = float(entropy(probs))
        assert -1e-9 <= h <= np.log(len(raw)) + 1e-9

    def test_uniform_maximises_entropy(self):
        assert float(entropy(np.full(4, 0.25))) == \
            pytest.approx(np.log(4), abs=1e-6)


class TestA3CLoss:
    def _batch(self, seed=0, n=5, actions_count=4):
        rng = np.random.default_rng(seed)
        logits = rng.standard_normal((n, actions_count)).astype(np.float32)
        values = rng.standard_normal(n).astype(np.float32)
        actions = rng.integers(0, actions_count, n)
        returns = rng.standard_normal(n).astype(np.float32)
        return logits, values, actions, returns

    def test_shape_validation(self):
        logits, values, actions, returns = self._batch()
        with pytest.raises(ValueError):
            a3c_loss_and_head_gradients(logits, values[:-1], actions,
                                        returns)

    def test_action_range_validation(self):
        logits, values, actions, returns = self._batch()
        actions = actions.copy()
        actions[0] = 99
        with pytest.raises(ValueError):
            a3c_loss_and_head_gradients(logits, values, actions, returns)

    def test_value_gradient_is_value_minus_return(self):
        logits, values, actions, returns = self._batch()
        result = a3c_loss_and_head_gradients(logits, values, actions,
                                             returns)
        np.testing.assert_allclose(result.dvalues, values - returns,
                                   rtol=1e-6)

    def test_logit_gradient_matches_numerical(self):
        logits, values, actions, returns = self._batch()
        logits64 = logits.astype(np.float64)

        def loss():
            r = a3c_loss_and_head_gradients(
                logits64, values, actions, returns, entropy_beta=0.01)
            return r.policy_loss

        result = a3c_loss_and_head_gradients(logits, values, actions,
                                             returns, entropy_beta=0.01)
        numeric = numerical_gradient(loss, logits64, eps=1e-4)
        np.testing.assert_allclose(result.dlogits, numeric, rtol=2e-2,
                                   atol=2e-4)

    def test_value_loss_is_half_squared_advantage(self):
        logits, values, actions, returns = self._batch()
        result = a3c_loss_and_head_gradients(logits, values, actions,
                                             returns)
        expected = 0.5 * float(((returns - values) ** 2).sum())
        assert result.value_loss == pytest.approx(expected, rel=1e-5)

    def test_positive_advantage_reinforces_action(self):
        """With R > V, gradient descent should raise the chosen logit."""
        logits = np.zeros((1, 3), dtype=np.float32)
        values = np.zeros(1, dtype=np.float32)
        result = a3c_loss_and_head_gradients(
            logits, values, np.array([1]),
            np.array([1.0], dtype=np.float32), entropy_beta=0.0)
        assert result.dlogits[0, 1] < 0      # descent raises logit 1
        assert result.dlogits[0, 0] > 0

    def test_entropy_term_pushes_toward_uniform(self):
        logits = np.array([[5.0, 0.0, 0.0]], dtype=np.float32)
        values = np.zeros(1, dtype=np.float32)
        result = a3c_loss_and_head_gradients(
            logits, values, np.array([0]),
            np.array([0.0], dtype=np.float32), entropy_beta=1.0)
        # advantage is 0, so only the entropy term acts: descent should
        # lower the dominant logit.
        assert result.dlogits[0, 0] > 0


class TestOptimizers:
    def _params(self):
        params = ParameterSet({"w": np.array([1.0, 2.0],
                                             dtype=np.float32)})
        grads = ParameterSet({"w": np.array([0.5, -0.5],
                                            dtype=np.float32)})
        return params, grads

    def test_sgd_step(self):
        params, grads = self._params()
        SGD(learning_rate=0.1).step(params, grads)
        np.testing.assert_allclose(params["w"], [0.95, 2.05], rtol=1e-6)

    def test_rmsprop_matches_manual_recurrence(self):
        params, grads = self._params()
        opt = RMSProp(learning_rate=0.01, rho=0.9, eps=0.1)
        theta = params["w"].copy()
        g = np.zeros_like(theta)
        for _ in range(5):
            opt.step(params, grads)
            grad = grads["w"]
            g = 0.9 * g + 0.1 * grad * grad
            theta = theta - 0.01 * grad / np.sqrt(g + 0.1)
        np.testing.assert_allclose(params["w"], theta, rtol=1e-5)

    def test_rmsprop_learning_rate_override(self):
        params, grads = self._params()
        opt = RMSProp(learning_rate=0.01)
        before = params["w"].copy()
        opt.step(params, grads, learning_rate=0.0)
        np.testing.assert_array_equal(params["w"], before)

    def test_rmsprop_statistics_shared_and_exposed(self):
        params, grads = self._params()
        opt = RMSProp()
        assert opt.statistics is None
        opt.step(params, grads)
        assert opt.statistics is not None
        assert (opt.statistics["w"] > 0).all()

    def test_adam_converges_on_quadratic(self):
        params = ParameterSet({"x": np.array([5.0], dtype=np.float32)})
        opt = Adam(learning_rate=0.2)
        for _ in range(200):
            grads = ParameterSet({"x": 2.0 * params["x"]})
            opt.step(params, grads)
        assert abs(float(params["x"][0])) < 0.05

    def test_rmsprop_descends_quadratic(self):
        params = ParameterSet({"x": np.array([5.0], dtype=np.float32)})
        opt = RMSProp(learning_rate=0.1)
        start_loss = float(params["x"][0] ** 2)
        for _ in range(100):
            grads = ParameterSet({"x": 2.0 * params["x"]})
            opt.step(params, grads)
        assert float(params["x"][0] ** 2) < start_loss * 0.01


class TestRMSPropInPlace:
    """The in-place RMSProp against the expression form it replaced."""

    RHO, EPS = 0.99, 0.1

    def _sets(self, rng, scale=1.0):
        shapes = {"conv.weight": (16, 4, 8, 8), "conv.bias": (16,),
                  "fc.weight": (64, 300)}
        return ParameterSet({
            name: (scale * rng.standard_normal(shape)).astype(np.float32)
            for name, shape in shapes.items()})

    def _reference_step(self, params, g, grads, lr):
        # The expression form: every intermediate a fresh fp32 array.
        for name in grads:
            grad = grads[name]
            g[name] *= self.RHO
            g[name] += (1.0 - self.RHO) * grad * grad
            params[name] -= lr * grad / np.sqrt(g[name] + self.EPS)

    def test_steps_bit_identical_to_expression(self):
        rng = np.random.default_rng(5)
        params = self._sets(rng)
        expected = params.copy()
        g_expected = params.zeros_like()
        opt = RMSProp(learning_rate=7e-4, rho=self.RHO, eps=self.EPS)
        for step, lr in enumerate((7e-4, 6.9e-4, 3e-4, 1e-5, 0.0, 2e-3)):
            grads = self._sets(rng, scale=10.0 ** (step % 3 - 1))
            opt.step(params, grads, learning_rate=lr)
            self._reference_step(expected, g_expected, grads, lr)
            for name in params:
                assert np.array_equal(params[name].view(np.uint32),
                                      expected[name].view(np.uint32))
                assert np.array_equal(
                    opt.statistics[name].view(np.uint32),
                    g_expected[name].view(np.uint32))

    def test_statistics_arrays_keep_identity(self):
        rng = np.random.default_rng(6)
        params = self._sets(rng)
        shared = params.zeros_like()
        arrays = {name: shared[name] for name in shared}
        opt = RMSProp()
        opt.adopt_statistics(shared)
        for _ in range(3):
            opt.step(params, self._sets(rng))
        for name, array in arrays.items():
            assert opt.statistics[name] is array
            assert (array > 0).all()

    def test_no_parameter_sized_allocation_after_first_step(self):
        import tracemalloc
        rng = np.random.default_rng(7)
        params = self._sets(rng)
        grads = self._sets(rng)
        opt = RMSProp()
        opt.step(params, grads)
        smallest = min(params[name].nbytes for name in params
                       if params[name].size > 1000)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base, _ = tracemalloc.get_traced_memory()
            for _ in range(3):
                opt.step(params, grads)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - base < smallest // 4
