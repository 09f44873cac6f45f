"""Tests for the layer objects and the Table 1 network topology."""

import numpy as np
import pytest

from repro.nn import (
    A3CNetwork,
    Conv2D,
    Dense,
    Flatten,
    ParameterSet,
    ReLU,
    Sequential,
)
from repro.nn.gradcheck import check_param_gradients
from repro.nn.network import MLPPolicyNetwork


class TestLayerContracts:
    def test_conv_param_shapes(self):
        conv = Conv2D("c", 4, 16, kernel=8, stride=4)
        shapes = conv.param_shapes()
        assert shapes["weight"] == (16, 4, 8, 8)
        assert shapes["bias"] == (16,)
        assert conv.num_params() == 4112

    def test_conv_output_shape_validates_channels(self):
        conv = Conv2D("c", 4, 16, kernel=8, stride=4)
        with pytest.raises(ValueError):
            conv.output_shape((3, 84, 84))

    def test_backward_before_forward_raises(self):
        conv = Conv2D("c", 1, 1, kernel=2, stride=1)
        params = ParameterSet()
        conv.init_params(params)
        with pytest.raises(RuntimeError):
            conv.backward_input(np.zeros((1, 1, 2, 2), dtype=np.float32),
                                params)

    @pytest.mark.parametrize("precision", ["fp32", "fp16"])
    def test_conv_grads_ignore_later_writes_to_the_input(self, precision):
        """GC reads the input cached at FW time, not the caller's array
        as it is when ``grad_params`` runs."""
        from repro.nn.quant import policy_for
        conv = Conv2D("c", 2, 3, kernel=3, stride=2)
        conv.policy = policy_for(precision)
        params = ParameterSet()
        conv.init_params(params, np.random.default_rng(0))
        rng = np.random.default_rng(1)
        x = rng.standard_normal((4, 2, 9, 9)).astype(np.float32)
        dy = rng.standard_normal((4, 3, 4, 4)).astype(np.float32)

        def grads(mutate):
            given = x.copy()
            conv.forward(given, params)
            if mutate:
                given[...] = rng.standard_normal(given.shape)
            out = ParameterSet()
            conv.grad_params(dy, out)
            return out

        clean, mutated = grads(False), grads(True)
        for key in ("c.weight", "c.bias"):
            np.testing.assert_array_equal(mutated[key], clean[key])

    def test_dense_shape_validation(self):
        dense = Dense("d", 10, 5)
        with pytest.raises(ValueError):
            dense.output_shape((9,))
        assert dense.output_shape((10,)) == (5,)

    def test_relu_and_flatten_have_no_params(self):
        assert ReLU("r").param_shapes() == {}
        assert Flatten("f").param_shapes() == {}

    def test_flatten_round_trip(self):
        flat = Flatten("f")
        params = ParameterSet()
        x = np.arange(24, dtype=np.float32).reshape(2, 3, 2, 2)
        y = flat.forward(x, params)
        assert y.shape == (2, 12)
        back = flat.backward_input(y, params)
        np.testing.assert_array_equal(back, x)

    def test_init_params_uses_layer_names(self):
        dense = Dense("FC9", 4, 3)
        params = ParameterSet()
        dense.init_params(params, np.random.default_rng(0))
        assert "FC9.weight" in params
        assert "FC9.bias" in params


class TestSequential:
    def test_shape_validation_at_construction(self):
        with pytest.raises(ValueError):
            Sequential([Dense("d", 10, 5)], input_shape=(9,))

    def test_gradcheck_small_stack(self):
        rng = np.random.default_rng(0)
        model = Sequential([
            Conv2D("c1", 2, 3, kernel=3, stride=2),
            ReLU("r1"),
            Flatten("f"),
            Dense("d1", 3 * 3 * 3, 4),
        ], input_shape=(2, 7, 7))
        params = model.init_params(rng)
        x = rng.standard_normal((2, 2, 7, 7)).astype(np.float64)
        target = rng.standard_normal((2, 4))

        def loss():
            y = model.forward(x.astype(np.float32), params)
            return float((y * target).sum())

        loss()  # populate caches
        grads = model.backward_and_grads(target.astype(np.float32), params)
        for name in params:
            params[name] = params[name].astype(np.float64)
        check_param_gradients(loss, params, grads, eps=1e-4)


class TestA3CNetworkTable1:
    """The exact Table 1 numbers."""

    @pytest.fixture(scope="class")
    def topology(self):
        return A3CNetwork(num_actions=6).topology()

    def test_input_features(self, topology):
        assert topology.input_features == 28224  # "28K"

    def test_conv1_row(self, topology):
        conv1 = topology.layers[0]
        assert conv1.num_params == 4112          # "4K"
        assert conv1.num_outputs == 6400         # "6K"
        assert (conv1.kernel, conv1.stride) == (8, 4)

    def test_conv2_row(self, topology):
        conv2 = topology.layers[1]
        assert conv2.num_params == 8224          # "8K"
        assert conv2.num_outputs == 2592         # "3K"
        assert (conv2.kernel, conv2.stride) == (4, 2)

    def test_fc3_row(self, topology):
        fc3 = topology.layers[2]
        assert fc3.num_params == 663808          # "664K"
        assert fc3.num_outputs == 256

    def test_fc4_row(self, topology):
        fc4 = topology.layers[3]
        assert fc4.num_params == 8224            # "8K"
        assert fc4.num_outputs == 32

    def test_total_parameters(self, topology):
        assert topology.num_params == 684368
        # ~2.6 MB of fp32, the paper's "2,592KB" parameter set
        assert topology.param_bytes == 684368 * 4

    def test_table1_rows_render(self, topology):
        rows = topology.table1_rows()
        assert rows[0]["layer"] == "Input"
        assert rows[1]["params"] == 4112
        assert len(rows) == 5


class TestA3CNetworkBehaviour:
    def test_forward_shapes(self):
        net = A3CNetwork(num_actions=6)
        params = net.init_params(np.random.default_rng(0))
        x = np.zeros((3, 4, 84, 84), dtype=np.float32)
        logits, values = net.forward(x, params)
        assert logits.shape == (3, 6)
        assert values.shape == (3,)

    def test_fc4_width_must_fit_heads(self):
        with pytest.raises(ValueError):
            A3CNetwork(num_actions=32, fc4_width=32)

    def test_padded_outputs_receive_no_gradient(self):
        net = A3CNetwork(num_actions=6)
        params = net.init_params(np.random.default_rng(0))
        x = np.random.default_rng(1).standard_normal(
            (2, 4, 84, 84)).astype(np.float32)
        net.forward(x, params)
        grads = net.backward_and_grads(
            np.ones((2, 6), dtype=np.float32),
            np.ones(2, dtype=np.float32), params)
        fc4_grad = grads["FC4.weight"]
        np.testing.assert_array_equal(fc4_grad[7:], 0.0)
        assert np.abs(fc4_grad[:7]).max() > 0

    def test_deterministic_init(self):
        net = A3CNetwork(num_actions=4)
        a = net.init_params(np.random.default_rng(5))
        b = net.init_params(np.random.default_rng(5))
        assert a.allclose(b)


class TestMLPPolicyNetwork:
    def test_forward_and_backward(self):
        net = MLPPolicyNetwork(num_actions=3, input_shape=(7, 7))
        params = net.init_params(np.random.default_rng(0))
        x = np.zeros((2, 7, 7), dtype=np.float32)
        logits, values = net.forward(x, params)
        assert logits.shape == (2, 3)
        grads = net.backward_and_grads(np.ones_like(logits),
                                       np.ones(2, dtype=np.float32),
                                       params)
        assert "FC2.weight" in grads
