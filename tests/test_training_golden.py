"""Training stays bit-identical while skipping work nothing reads.

A3C never uses the gradient of the loss with respect to the network
input, so the backward pass stops after the GC stage of the first
parameterised layer (paper Section 4.3), and ``MaxAndSkip`` renders only
the frames it observes.  Each run below is compared, parameter by
parameter as ``view(np.uint32)``, with the same run in this process
through a reference that still does the discarded work: every layer's BW
stage, including the first, and every emulated frame rendered (the game
behind a plain :class:`~repro.envs.base.Wrapper`).  Spies show the
skipped BW stage is really never called.

The final parameter hashes are also compared with hashes recorded from
a version of the code that did all that work.  Serial training hashes
depend on the BLAS build and thread count, so they are keyed by host
fingerprint, and that check is skipped on a host with no record.
"""

import functools
import hashlib

import numpy as np
import pytest

from perfbench import host
from repro.ale import make_game
from repro.core import A3CConfig, A3CTrainer
from repro.core.paac import PAACTrainer
from repro.envs import BatchedVectorEnv, Catch, make_atari_env
from repro.envs.base import Wrapper
from repro.nn.network import A3CNetwork, MLPPolicyNetwork
from repro.nn.parameters import ParameterSet

#: Final parameter hashes per host fingerprint, recorded with the full
#: backward pass and every frame rendered.
RECORDED = {
    "8afd99e1e852": {
        "a3c_breakout": "463237e06d91cd6c",
        "paac_breakout": "16e5ce01165f5cb2",
        "mlp_catch": "32580a08db192dbf",
        "grads_fp16": "d39ef1139c7a8d1d",
        "grads_int8": "ca7a1e7b72b6034e",
    },
}


def params_hash(params) -> str:
    digest = hashlib.sha256()
    for name in params.names():
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(params[name]).tobytes())
    return digest.hexdigest()[:16]


def assert_bit_identical(got, want) -> None:
    assert got.names() == want.names()
    for name in got.names():
        assert np.array_equal(got[name].view(np.uint32),
                              want[name].view(np.uint32)), name


def _full_backward(model):
    """``model.backward_and_grads`` with every layer's BW stage."""
    def backward_and_grads(dy, params):
        grads = ParameterSet()
        for layer in reversed(model.layers):
            layer.grad_params(dy, grads)
            dy = layer.backward_input(dy, params)
        return grads
    return backward_and_grads


def _reference(network):
    network.model.backward_and_grads = _full_backward(network.model)
    return network


def _spy_backward_input(network, calls):
    for layer in network.model.layers:
        inner = layer.backward_input

        def spy(dy, params, _name=layer.name, _inner=inner):
            calls[_name] = calls.get(_name, 0) + 1
            return _inner(dy, params)
        layer.backward_input = spy


def _a3c_breakout(reference: bool):
    actions = make_game("breakout").action_space.n
    config = A3CConfig(num_agents=2, t_max=5, max_steps=120,
                       anneal_steps=10_000, seed=3)
    if reference:
        return A3CTrainer(
            lambda agent: make_atari_env(Wrapper(make_game("breakout"))),
            lambda: _reference(A3CNetwork(actions)), config)
    return A3CTrainer(lambda agent: make_atari_env(make_game("breakout")),
                      lambda: A3CNetwork(actions), config)


def _paac_breakout(reference: bool):
    venv = BatchedVectorEnv("breakout", 4, seed=5)
    config = A3CConfig(num_agents=4, t_max=5, max_steps=100,
                       anneal_steps=10_000, seed=5)
    wrap = _reference if reference else (lambda network: network)
    return PAACTrainer(None, lambda: wrap(A3CNetwork(venv.action_space.n)),
                       config, vector_env=venv)


def _mlp_catch(reference: bool):
    config = A3CConfig(num_agents=2, t_max=5, max_steps=300,
                       learning_rate=1e-2, anneal_steps=10_000, seed=7)
    wrap = _reference if reference else (lambda network: network)
    return A3CTrainer(lambda agent: Catch(size=5),
                      lambda: wrap(MLPPolicyNetwork(3, (5, 5), hidden=16)),
                      config)


def _quantized_grads(precision: str, reference: bool):
    net = A3CNetwork(4, precision=precision)
    if reference:
        _reference(net)
    rng = np.random.default_rng(21)
    params = net.init_params(rng)
    steps = []
    for _ in range(2):
        states = rng.random((5, 4, 84, 84), dtype=np.float32)
        net.forward(states, params)
        dlogits = rng.standard_normal((5, 4)).astype(np.float32)
        dvalues = rng.standard_normal(5).astype(np.float32)
        steps.append(net.backward_and_grads(dlogits, dvalues, params))
    return steps


def _train(make, spy_networks, **train):
    """``(params, reference params, BW calls by layer)`` of one run."""
    trainer = make(reference=False)
    calls = {}
    for network in spy_networks(trainer):
        _spy_backward_input(network, calls)
    trainer.train(**train)
    reference = make(reference=True)
    reference.train(**train)
    return trainer.server.params, reference.server.params, calls


def _agent_networks(trainer):
    return [agent.network for agent in trainer.agents]


@functools.lru_cache(maxsize=None)
def _run(case: str):
    if case == "a3c_breakout":
        return _train(_a3c_breakout, _agent_networks, actors="serial")
    if case == "paac_breakout":
        return _train(_paac_breakout, lambda trainer: [trainer.network])
    return _train(_mlp_catch, _agent_networks, actors="serial")


@pytest.mark.parametrize("case", ["a3c_breakout", "paac_breakout"])
def test_conv_training_is_bit_identical(case):
    params, reference, calls = _run(case)
    assert_bit_identical(params, reference)
    assert calls.get("Conv2", 0) > 0
    assert "Conv1" not in calls


def test_mlp_skips_first_dense_input_gradient():
    params, reference, calls = _run("mlp_catch")
    assert_bit_identical(params, reference)
    assert calls.get("FC2", 0) > 0
    assert "FC1" not in calls and "Flatten" not in calls


def _quantized_hash(steps) -> str:
    digest = hashlib.sha256()
    for grads in steps:
        digest.update(params_hash(grads).encode())
    return digest.hexdigest()[:16]


@pytest.mark.parametrize("precision", ["fp16", "int8"])
def test_quantized_gradients_unchanged(precision):
    got = _quantized_grads(precision, reference=False)
    for grads, want in zip(got, _quantized_grads(precision, reference=True)):
        assert_bit_identical(grads, want)


@pytest.mark.parametrize("case", sorted(next(iter(RECORDED.values()))))
def test_matches_recorded_hash(case):
    fingerprint = host.fingerprint_id(host.fingerprint())
    if fingerprint not in RECORDED:
        pytest.skip(f"no hashes recorded for host fingerprint "
                    f"{fingerprint} ({host.fingerprint()}); the "
                    f"in-process comparisons still run")
    if case.startswith("grads_"):
        got = _quantized_hash(_quantized_grads(case[6:], reference=False))
    else:
        got = params_hash(_run(case)[0])
    assert got == RECORDED[fingerprint][case]
