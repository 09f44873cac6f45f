"""DeepMind-style Atari preprocessing wrappers.

The stack assembled by :func:`make_atari_env` reproduces the preprocessing
of the original DQN/A3C papers, which the FA3C evaluation inherits:

* **MaxAndSkip** — repeat each action for 4 frames, observing the pixelwise
  max of the last two (de-flickers sprites drawn on alternating frames).
* **EpisodicLife** — treat a life loss as episode end for training.
* **AtariPreprocessing** — grayscale + bilinear resize to 84x84, [0, 1].
* **FrameStack** — stack the last 4 processed frames into ``(4, 84, 84)``,
  the Table 1 network input (28K features).
* **ClipReward** — clip rewards to the sign, as in the DQN/A3C training
  setup.
"""

from __future__ import annotations

import collections
import typing

import numpy as np

from repro.envs.base import Env, TimeLimit, Wrapper
from repro.envs.preprocessing import BatchPreprocessor
from repro.envs.spaces import Box


class MaxAndSkip(Wrapper):
    """Repeat the action ``skip`` frames; observe the max of the last two.

    Wrapped directly around an :class:`~repro.ale.games.base.AtariGame`,
    it renders only the frames it takes the max of: the others are
    emulated with ``advance``.  A game that ends early in the cycle shows
    the agent its last two frames, the first of which was not rendered;
    that frame is drawn from a copy of the game state saved before the
    frame after it.  Rendering reads game state and never the RNG, so
    the observations are the same as rendering every frame.
    """

    def __init__(self, env: Env, skip: int = 4):
        super().__init__(env)
        if skip < 1:
            raise ValueError(f"skip must be >= 1, got {skip}")
        self.skip = skip
        # Imported here: repro.ale builds on repro.envs, so a module-level
        # import would be circular.
        from repro.ale.games.base import AtariGame
        self._game = env if isinstance(env, AtariGame) else None

    def step(self, action: int):
        if self._game is not None:
            return self._step_game(action)
        total_reward = 0.0
        done = False
        info: dict = {}
        frames: typing.List[np.ndarray] = []
        for _ in range(self.skip):
            obs, reward, done, info = self.env.step(action)
            frames.append(obs)
            total_reward += reward
            if done:
                break
        if len(frames) >= 2:
            obs = np.maximum(frames[-1], frames[-2])
        else:
            obs = frames[-1]
        return obs, total_reward, done, info

    def _step_game(self, action: int):
        game = self._game
        first_seen = self.skip - 2
        total_reward = 0.0
        saved = None
        frames: typing.List[np.ndarray] = []
        for index in range(self.skip):
            if 0 < index <= first_seen:
                # Frame index-1 was not rendered: keep its state in case
                # this frame ends the game.
                saved = game.save_state()
            if index >= first_seen:
                obs, reward, done, info = game.step(action)
                frames.append(obs)
            else:
                reward, done, info = game.advance(action)
                if done:
                    frames.append(game.observe())
            total_reward += reward
            if done:
                break
        if len(frames) == 2:
            obs = np.maximum(frames[0], frames[1])
        elif index > 0:
            obs = np.maximum(game.observe_saved(saved), frames[0])
        else:
            obs = frames[0]
        return obs, total_reward, done, info


class EpisodicLife(Wrapper):
    """End training episodes on life loss, but only truly reset when the
    underlying game is over.

    Requires the wrapped env to report the remaining lives via
    ``info["lives"]``.
    """

    def __init__(self, env: Env):
        super().__init__(env)
        self._lives = 0
        self._game_over = True

    def reset(self) -> np.ndarray:
        if self._game_over:
            obs = self.env.reset()
        else:
            # Life-loss pseudo-reset: keep playing the same game with a
            # no-op so training episodes stay short.
            obs, _, done, _ = self.env.step(0)
            if done:
                obs = self.env.reset()
        self._lives = self._current_lives()
        return obs

    def _current_lives(self) -> int:
        game = self.unwrapped
        return int(getattr(game, "lives", 0))

    def step(self, action: int):
        obs, reward, done, info = self.env.step(action)
        self._game_over = done
        lives = info.get("lives", self._current_lives())
        if 0 < lives < self._lives:
            done = True
            info = dict(info, life_lost=True)
        self._lives = lives
        return obs, reward, done, info


class AtariPreprocessing(Wrapper):
    """Grayscale + resize each ``(H, W, 3)`` frame to ``(height, width)``
    in [0, 1]."""

    def __init__(self, env: Env, height: int = 84, width: int = 84):
        super().__init__(env)
        self.height = height
        self.width = width
        in_height, in_width, _ = env.observation_space.shape
        self._pre = BatchPreprocessor(in_height, in_width, height, width)
        self.observation_space = Box(0.0, 1.0, (height, width))

    def _process(self, frame: np.ndarray) -> np.ndarray:
        return self._pre(frame[None])[0]

    def reset(self) -> np.ndarray:
        return self._process(self.env.reset())

    def step(self, action: int):
        obs, reward, done, info = self.env.step(action)
        return self._process(obs), reward, done, info


class FrameStack(Wrapper):
    """Stack the last ``count`` observations along a leading axis."""

    def __init__(self, env: Env, count: int = 4):
        super().__init__(env)
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        self.count = count
        base = env.observation_space
        self.observation_space = Box(base.low, base.high,
                                     (count,) + base.shape)
        self._frames: collections.deque = collections.deque(maxlen=count)

    def _stacked(self) -> np.ndarray:
        return np.stack(self._frames, axis=0)

    def reset(self) -> np.ndarray:
        obs = self.env.reset()
        self._frames.clear()
        for _ in range(self.count):
            self._frames.append(obs)
        return self._stacked()

    def step(self, action: int):
        obs, reward, done, info = self.env.step(action)
        self._frames.append(obs)
        return self._stacked(), reward, done, info


class ClipReward(Wrapper):
    """Clip rewards to their sign: {-1, 0, +1}."""

    def step(self, action: int):
        obs, reward, done, info = self.env.step(action)
        info = dict(info, raw_reward=reward)
        return obs, float(np.sign(reward)), done, info


def make_atari_env(env: Env, frame_skip: int = 4, stack: int = 4,
                   episodic_life: bool = True, clip_rewards: bool = True,
                   size: int = 84,
                   max_episode_steps: typing.Optional[int] = None) -> Env:
    """Assemble the standard DeepMind preprocessing stack around ``env``.

    The result produces ``(stack, size, size)`` float32 observations in
    [0, 1] — the input of the Table 1 network.
    """
    wrapped: Env = MaxAndSkip(env, skip=frame_skip)
    if episodic_life:
        wrapped = EpisodicLife(wrapped)
    wrapped = AtariPreprocessing(wrapped, height=size, width=size)
    wrapped = FrameStack(wrapped, count=stack)
    if clip_rewards:
        wrapped = ClipReward(wrapped)
    if max_episode_steps is not None:
        wrapped = TimeLimit(wrapped, max_episode_steps)
    return wrapped
