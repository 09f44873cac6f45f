"""BatchedVectorEnv as a bit-exact drop-in for SyncVectorEnv.

The batched path must reproduce the scalar wrapper stack — MaxAndSkip /
EpisodicLife / AtariPreprocessing / FrameStack / ClipReward / TimeLimit
— per slot: same observations, rewards, dones, infos and finished
scores under the same seed and actions.  ``Catch``-style toy envs are
not covered (the engine wraps the SoA Atari games only).
"""

import numpy as np
import pytest

from repro.ale import GAME_NAMES, make_game
from repro.ale.vec import make_vec_game
from repro.envs import BatchedVectorEnv, SyncVectorEnv, make_atari_env
from repro.envs.wrappers import MaxAndSkip
from repro.envs.batched import BatchPreprocessor
from repro.envs.preprocessing import preprocess_frame

SEED = 17
BATCH = 3


def _game(name, max_frames=None):
    game = make_game(name)
    if max_frames is not None:
        game.MAX_FRAMES = max_frames
    return game


def _scalar_vec(name, batch, seed, max_frames=None, **kwargs):
    return SyncVectorEnv(
        [lambda: make_atari_env(_game(name, max_frames), **kwargs)
         for _ in range(batch)],
        seed=seed)


def _assert_steps_match(step_a, step_b, context):
    assert np.array_equal(step_a.observations, step_b.observations), context
    assert np.array_equal(step_a.rewards, step_b.rewards), context
    assert np.array_equal(step_a.dones, step_b.dones), context
    assert step_a.infos == step_b.infos, context
    assert step_a.finished_scores == step_b.finished_scores, context


def _record_skip_frames(scalar):
    """Patch every slot's ``MaxAndSkip`` to keep its latest frame.

    That is the de-flickered frame the batched env leaves in ``_raw``,
    also for a game that ends in the cycle, whose frame the vector env
    then replaces by the reset observation."""
    latest = [None] * scalar.num_envs
    for index, env in enumerate(scalar.envs):
        while not isinstance(env, MaxAndSkip):
            env = env.env

        def step(action, _step=env.step, _index=index):
            result = _step(action)
            latest[_index] = result[0]
            return result
        env.step = step
    return latest


def _run_pair(name, steps=150, batch=BATCH, seed=SEED, max_frames=None,
              **kwargs):
    """Step the batched and the scalar stack with the same random actions
    and compare every result and every slot's latest MaxAndSkip frame;
    ``max_frames`` overrides the games' frame limit in both."""
    engine = make_vec_game(name, batch)
    if max_frames is not None:
        engine.max_frames = max_frames
    batched = BatchedVectorEnv(engine, seed=seed, **kwargs)
    scalar = _scalar_vec(name, batch, seed, max_frames, **kwargs)
    skip_frames = _record_skip_frames(scalar)
    obs_b = batched.reset()
    obs_s = scalar.reset()
    assert obs_b.dtype == obs_s.dtype == np.float32
    assert np.array_equal(obs_b, obs_s)
    rng = np.random.default_rng(99)
    for step in range(steps):
        actions = rng.integers(0, batched.action_space.n, size=batch)
        context = (name, step, kwargs)
        _assert_steps_match(batched.step(actions),
                            scalar.step(actions.tolist()), context)
        for index, frame in enumerate(skip_frames):
            if frame is not None:
                assert np.array_equal(batched._raw[index], frame), context
    batched.close()
    scalar.close()


@pytest.mark.parametrize("name", GAME_NAMES)
def test_default_stack_bit_identical(name):
    _run_pair(name)


def test_no_episodic_life():
    _run_pair("breakout", steps=120, episodic_life=False)


def test_unclipped_rewards():
    _run_pair("qbert", steps=120, clip_rewards=False)


def test_time_limit_truncation():
    _run_pair("pong", steps=120, max_episode_steps=25)


def test_frame_skip_and_stack_variants():
    _run_pair("seaquest", steps=80, frame_skip=2, stack=2)


def _first_life_loss(name, batch, frame_skip, cap=2000):
    """Frames emulated by the end of the first step in which a slot of
    ``_run_pair``'s scalar stack loses a life (None if none does within
    ``cap`` frames).  Until a game ends, every slot has emulated the same
    number of frames, a multiple of ``frame_skip``."""
    scalar = _scalar_vec(name, batch, SEED, frame_skip=frame_skip)
    scalar.reset()
    rng = np.random.default_rng(99)
    n = scalar.action_space.n
    for step in range(1, cap // frame_skip + 1):
        result = scalar.step(rng.integers(0, n, size=batch).tolist())
        if any(info.get("life_lost") for info in result.infos):
            return step * frame_skip
        if result.finished_scores:
            return None
    return None


SKIP_CYCLE = [(skip, sub) for skip in (1, 2, 3, 4) for sub in range(skip)]


@pytest.mark.parametrize("skip,sub", SKIP_CYCLE,
                         ids=[f"skip{s}-sub{j}" for s, j in SKIP_CYCLE])
@pytest.mark.parametrize("name", GAME_NAMES)
def test_game_over_at_every_sub_frame(name, skip, sub):
    """Every game ends at sub-frame ``sub`` of a MaxAndSkip cycle.

    The frame limit is set so that the slot that loses the first life
    ends its game in the NOOP cycle of the pseudo-reset that follows,
    while the other slot ends its game at the same sub-frame of an
    ordinary step the step after.  So both a pseudo-reset and a full
    reset meet a game over at each sub-frame, including those whose
    previous frame was never drawn."""
    batch = 2
    lost_at = _first_life_loss(name, batch, skip)
    if make_game(name).START_LIVES > 1:
        assert lost_at is not None, "no life lost: pick another seed"
    start = lost_at if lost_at is not None else 3 * skip
    limit = start + sub + 1
    steps = start // skip + 3
    _run_pair(name, steps=steps, batch=batch, max_frames=limit,
              frame_skip=skip)


def test_reset_after_steps_matches():
    """A mid-run reset (EpisodicLife pseudo-reset regime) stays aligned."""
    name = "breakout"
    batched = BatchedVectorEnv(name, num_envs=2, seed=SEED)
    scalar = _scalar_vec(name, 2, SEED)
    batched.reset()
    scalar.reset()
    rng = np.random.default_rng(3)
    for _ in range(60):
        actions = rng.integers(0, batched.action_space.n, size=2)
        batched.step(actions)
        scalar.step(actions.tolist())
    assert np.array_equal(batched.reset(), scalar.reset())


class TestConstructor:
    def test_name_requires_num_envs(self):
        with pytest.raises(ValueError):
            BatchedVectorEnv("pong")

    def test_accepts_prebuilt_engine(self):
        from repro.ale.vec import make_vec_game
        engine = make_vec_game("pong", 2)
        vec = BatchedVectorEnv(engine, seed=SEED)
        assert vec.num_envs == 2
        assert np.array_equal(vec.reset(),
                              _scalar_vec("pong", 2, SEED).reset())

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            BatchedVectorEnv("pong", num_envs=2, frame_skip=0)
        with pytest.raises(ValueError):
            BatchedVectorEnv("pong", num_envs=2, stack=0)
        with pytest.raises(ValueError):
            BatchedVectorEnv("pong", num_envs=2, max_episode_steps=0)

    def test_observations_before_reset_raises(self):
        with pytest.raises(RuntimeError):
            _ = BatchedVectorEnv("pong", num_envs=1, seed=0).observations

    def test_action_count_validated(self):
        vec = BatchedVectorEnv("pong", num_envs=2, seed=0)
        vec.reset()
        with pytest.raises(ValueError):
            vec.step([0])


class TestBatchPreprocessor:
    def test_matches_scalar_preprocess_frame(self):
        rng = np.random.default_rng(0)
        frames = rng.integers(0, 256, size=(4, 210, 160, 3),
                              dtype=np.uint8)
        batched = BatchPreprocessor(210, 160, 84, 84)(frames)
        for index in range(4):
            assert np.array_equal(batched[index],
                                  preprocess_frame(frames[index]))

    def test_identity_size_skips_resize(self):
        rng = np.random.default_rng(1)
        frames = rng.integers(0, 256, size=(2, 84, 84, 3), dtype=np.uint8)
        out = BatchPreprocessor(84, 84, 84, 84)(frames)
        assert out.shape == (2, 84, 84)
        for index in range(2):
            assert np.array_equal(out[index],
                                  preprocess_frame(frames[index]))
