"""Per-step trajectories of the scalar Atari stack stay exact.

Wrapped directly round a game, ``MaxAndSkip`` renders only the frames it
takes the max of.  Every step of ``make_atari_env(make_game(name))``
under fixed seeds and actions — observation bytes, reward, done and
lives — is compared at zero tolerance against the same run through
``make_atari_env(Wrapper(make_game(name)))``: a game behind a plain
wrapper is stepped the generic way, rendering every emulated frame.
Both run in this process, so the check holds on any host.

A game that ends at sub-frame ``j`` of a cycle shows the agent
``max(frame j-1, frame j)`` (or frame 0 alone), and frame ``j-1`` was
never rendered.  The runs force game overs at every sub-frame of the
cycle through the frame limit, and the test asserts all four sub-frames
occur for every game.  Tracing tools wrap a game's methods on the
instance; the forced runs are repeated with such wrappers in place.

Each run's digest is also compared with one recorded from a version of
the code that rendered every frame, keyed by host fingerprint (floats
and BLAS kernels round differently across builds); on a host with no
record that test is skipped.  Record the current host (only from code
known to render every frame)::

    PYTHONPATH=src python -m tests.test_env_golden --record
"""

import functools
import hashlib
import json
import os
import sys

import numpy as np
import pytest

from perfbench import host
from repro.ale import GAME_NAMES, make_game
from repro.envs import make_atari_env
from repro.envs.base import Wrapper

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "env_golden.json")
SKIP = 4
SEED = 11
#: Agent steps per natural-play run.
PLAY_STEPS = 160
#: Agent steps per forced-game-over run.
FORCED_STEPS = 48
RUNS = ("play", "lives1") + tuple(f"end{j}" for j in range(SKIP))


def _digest(obs, reward, done, lives) -> str:
    step = hashlib.sha256(np.ascontiguousarray(obs).tobytes())
    step.update(repr((float(reward), bool(done), int(lives))).encode())
    return step.hexdigest()[:12]


def _traced(game):
    """``game`` with ``step``, ``reset`` and ``_render`` replaced on the
    instance by closures over the bound methods, as a tracer installs
    them; returns the render counter."""
    renders = [0]
    for name in ("step", "reset", "_render"):
        inner = getattr(game, name)

        def wrapper(*args, _inner=inner, _name=name):
            if _name == "_render":
                renders[0] += 1
            return _inner(*args)
        setattr(game, name, wrapper)
    return renders


@functools.lru_cache(maxsize=None)
def _run(name: str, run: str, variant: str):
    """Per-step digests, sub-frames of every game over, and renders.

    ``variant`` is ``skip`` (the game wrapped directly), ``every`` (the
    game behind a plain :class:`Wrapper`, so every frame is rendered) or
    ``traced`` (``skip`` with instance-level method wrappers).

    ``play`` is random play.  ``end<j>`` caps the episode at a frame
    count that ends the game on sub-frame ``j`` of a skip cycle (cycles
    start at frame 0 after a reset and advance ``SKIP`` frames until the
    game ends); ``lives1`` starts every game on its last life, so the
    first miss ends it wherever in the cycle it falls.
    """
    game = make_game(name)
    renders = _traced(game) if variant == "traced" else [None]
    env = make_atari_env(Wrapper(game) if variant == "every" else game)
    index = GAME_NAMES.index(name)
    env.seed(SEED + index)
    rng = np.random.default_rng(1000 + 7 * index + RUNS.index(run))
    steps = PLAY_STEPS
    if run.startswith("end"):
        sub_frame = int(run[3:])
        game.MAX_FRAMES = SKIP * (5 + 2 * sub_frame) + sub_frame + 1
        steps = FORCED_STEPS

    def reset():
        obs = env.reset()
        if run == "lives1" and game.frame == 0:
            game.lives = 1
        return obs

    reset()
    digests = []
    endings = []
    for _ in range(steps):
        before = game.frame
        obs, reward, done, info = env.step(int(rng.integers(
            env.action_space.n)))
        digests.append(_digest(obs, reward, done, info["lives"]))
        if game.game_over:
            endings.append(game.frame - before - 1)
        if done:
            reset()
    return tuple(digests), tuple(endings), renders[0]


def _run_digest(name: str, run: str) -> str:
    return hashlib.sha256("".join(_run(name, run, "skip")[0]).encode()
                          ).hexdigest()[:16]


def _assert_same(name: str, run: str, variant: str) -> None:
    got, got_ends, _ = _run(name, run, variant)
    want, want_ends, _ = _run(name, run, "every")
    assert len(got) == len(want)
    for step, (a, b) in enumerate(zip(got, want)):
        assert a == b, f"{name}/{run}/{variant}: first mismatch at step {step}"
    assert got_ends == want_ends


@pytest.mark.parametrize("name", GAME_NAMES)
def test_matches_rendering_every_frame(name):
    endings = set()
    for run in RUNS:
        _assert_same(name, run, "skip")
        endings.update(_run(name, run, "skip")[1])
    assert endings >= set(range(SKIP)), \
        f"{name}: game overs only at sub-frames {sorted(endings)}"


@pytest.mark.parametrize("name", GAME_NAMES)
def test_instance_wrappers_do_not_reach_saved_frames(name):
    # A game over at sub-frame 1 or 2 draws the frame before it from a
    # saved state; a wrapper on the live game must not draw it instead.
    for run in ("end1", "end2"):
        _assert_same(name, run, "traced")
        assert {1, 2} & set(_run(name, run, "traced")[1])
    # Rendering every frame would draw SKIP per step, plus resets.
    assert _run(name, "end1", "traced")[2] < 3 * FORCED_STEPS


@pytest.fixture(scope="module")
def recorded():
    with open(GOLDEN) as handle:
        golden = json.load(handle)
    key = host.fingerprint_id(host.fingerprint())
    if key not in golden:
        pytest.skip(f"no trajectories recorded for host fingerprint {key} "
                    f"({host.fingerprint()}); the in-process checks "
                    f"still run")
    return golden[key]["runs"]


@pytest.mark.parametrize("name", GAME_NAMES)
def test_trajectories_match_recorded(recorded, name):
    for run in RUNS:
        assert _run_digest(name, run) == recorded[name][run], f"{name}/{run}"


def _record() -> None:
    golden = {}
    if os.path.exists(GOLDEN):
        with open(GOLDEN) as handle:
            golden = json.load(handle)
    print_ = host.fingerprint()
    key = host.fingerprint_id(print_)
    golden[key] = {"fingerprint": print_,
                   "runs": {name: {run: _run_digest(name, run)
                                   for run in RUNS}
                            for name in GAME_NAMES}}
    with open(GOLDEN, "w") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"recorded host {key} in {GOLDEN}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python -m tests.test_env_golden --record")
    _record()
