"""Fused agent chains vs generator processes: bit-exact equivalence.

The throughput experiment runs each agent of a GPU-family sim as a
callback chain (`repro.gpu.platform._GPUAgentChain` / `_GA3CAgentChain`)
instead of the generator `repro.platforms.throughput._agent_process`.
The contract is that every modelled number — IPS, simulated seconds,
utilisation, inference latencies, and the metrics recorded with
observability on — is bit-identical to the generator agents, not merely
close: the chains must create the same events in the same heap order.

The generator agents run whenever a sim has no ``agent_chain``, so the
reference here is the same platform behind a wrapper that hides it.
"""

import pytest

from repro import obs
from repro.obs.prof import baseline
from repro.platforms.throughput import measure_ips
from repro.sim import Engine

FIELDS = ("ips", "sim_seconds", "utilisation", "routines",
          "inference_latencies")

# One scenario per simulator family — plain GPU device, the CPU
# executor pool, GA3C's predictor/trainer queues — plus the batched
# host model (different step_time through the same chain).
SCENARIOS = ("gpu-cudnn-n8", "a3c-tf-cpu-n8", "ga3c-tf-n8",
             "ga3c-tf-batched-n8")
BY_NAME = {scenario.name: scenario for scenario in baseline.SCENARIOS}


class _GeneratorAgents:
    """A platform whose sims hide ``agent_chain``, so the throughput
    experiment runs every agent as an ``_agent_process`` generator."""

    def __init__(self, platform):
        self._platform = platform

    def __getattr__(self, name):
        return getattr(self._platform, name)

    def build_sim(self, engine):
        return _NoAgentChain(self._platform.build_sim(engine))


class _NoAgentChain:
    def __init__(self, sim):
        self._sim = sim

    def __getattr__(self, name):
        if name == "agent_chain":
            raise AttributeError(name)
        return getattr(self._sim, name)


def _measure(name, num_agents, generator=False):
    scenario = BY_NAME[name]
    platform = scenario.build()
    if generator:
        platform = _GeneratorAgents(platform)
    return measure_ips(platform, num_agents, t_max=scenario.t_max,
                       routines_per_agent=scenario.routines,
                       host=scenario.build_host())


def _assert_same(fused, generator):
    for field in FIELDS:
        assert getattr(fused, field) == getattr(generator, field), field


@pytest.mark.parametrize("name", SCENARIOS)
@pytest.mark.parametrize("num_agents", (1, 3, 8))
def test_chain_matches_generator(name, num_agents):
    _assert_same(_measure(name, num_agents),
                 _measure(name, num_agents, generator=True))


@pytest.mark.parametrize("name", SCENARIOS)
def test_chain_matches_generator_with_telemetry(name):
    """With observability on, the chains record the same task profiles,
    kernel recordings and gauges as the generator agents."""
    runs = []
    for generator in (False, True):
        with obs.enabled_scope(reset=True):
            result = _measure(name, 8, generator=generator)
            runs.append((result, obs.metrics().snapshot()))
    (fused, fused_rows), (reference, reference_rows) = runs
    _assert_same(fused, reference)
    assert fused_rows and fused_rows == reference_rows


def test_fpga_sims_keep_generator_path():
    """FPGASim has no agent_chain, so its agents are generators either
    way and the wrapper changes nothing."""
    platform = BY_NAME["fa3c-n8"].build()
    assert not hasattr(platform.build_sim(Engine()), "agent_chain")
    _assert_same(_measure("fa3c-n8", 4),
                 _measure("fa3c-n8", 4, generator=True))
