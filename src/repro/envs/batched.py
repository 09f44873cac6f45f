"""Batched DeepMind preprocessing over the structure-of-arrays engine.

:class:`BatchedVectorEnv` is a drop-in replacement for
:class:`~repro.envs.vector.SyncVectorEnv` wrapping ``N`` copies of one
Atari game: one :meth:`step` advances every slot through the full
MaxAndSkip / EpisodicLife / grayscale-resize / FrameStack / ClipReward /
TimeLimit stack with batched NumPy, instead of N wrapper chains of
Python calls.  Per slot it is bit-identical to
``SyncVectorEnv([make_atari_env(make_game(name)) ...], seed=s)`` — same
observations, rewards, dones, infos and finished scores under the same
seed and action sequence (see ``tests/test_envs_batched.py``).

The frame-skip loop advances only still-active slots (``engine.advance``
accepts a slot subset), so a slot whose game ends mid-cycle drops out
exactly where the scalar MaxAndSkip loop breaks, and draws only the
frames the agent observes.
"""

from __future__ import annotations

import typing

import numpy as np

from repro.envs.preprocessing import BatchPreprocessor
from repro.envs.spaces import Box
from repro.envs.vector import VectorStep
from repro.perf.hotpath import hot_path


class BatchedVectorEnv:
    """N copies of one Atari game stepped as a single batch.

    Drop-in for :class:`~repro.envs.vector.SyncVectorEnv` (same
    ``reset``/``step``/``observations`` protocol and
    :class:`~repro.envs.vector.VectorStep` results), built on
    :func:`repro.ale.vec.make_vec_game` instead of N scalar wrapper
    chains.
    """

    def __init__(self, game: typing.Union[str, "VecAtariGame"],
                 num_envs: typing.Optional[int] = None,
                 seed: typing.Optional[int] = None,
                 frame_skip: int = 4, stack: int = 4,
                 episodic_life: bool = True, clip_rewards: bool = True,
                 size: int = 84,
                 max_episode_steps: typing.Optional[int] = None):
        # Imported here: repro.ale builds on repro.envs, so a module-level
        # import would be circular.
        from repro.ale.vec import make_vec_game
        from repro.ale.vec.base import VecAtariGame
        if isinstance(game, VecAtariGame):
            engine = game
        else:
            if num_envs is None:
                raise ValueError("num_envs is required when game is a name")
            engine = make_vec_game(game, num_envs)
        if frame_skip < 1:
            raise ValueError(f"skip must be >= 1, got {frame_skip}")
        if stack < 1:
            raise ValueError(f"count must be >= 1, got {stack}")
        if max_episode_steps is not None and max_episode_steps < 1:
            raise ValueError(f"max_steps must be >= 1, "
                             f"got {max_episode_steps}")
        self.engine = engine
        self.num_envs = engine.batch
        self.frame_skip = int(frame_skip)
        self.stack = int(stack)
        self.episodic_life = bool(episodic_life)
        self.clip_rewards = bool(clip_rewards)
        self.max_episode_steps = max_episode_steps
        self.action_space = engine.action_space
        self.observation_space = Box(0.0, 1.0, (stack, size, size))
        if seed is not None:
            # Lazy for the same layering reason as SyncVectorEnv: the
            # contract lives with the backend protocol.
            from repro.backends.protocol import derive_agent_seed
            engine.seed([derive_agent_seed(seed, index)
                         for index in range(self.num_envs)])

        batch = self.num_envs
        height, width = engine.screen.height, engine.screen.width
        self._pre = BatchPreprocessor(height, width, size, size)
        self._prev = np.zeros((batch, height, width, 3), dtype=np.uint8)
        self._raw = np.zeros_like(self._prev)
        self._lives = np.zeros(batch, dtype=np.int64)
        # EpisodicLife._game_over per slot: a fresh env fully resets.
        self._ep_game_over = np.ones(batch, dtype=bool)
        self._elapsed = np.zeros(batch, dtype=np.int64)
        self._scores = np.zeros(batch)
        self._observations: typing.Optional[np.ndarray] = None
        self._all = np.arange(batch, dtype=np.intp)

    # -- internals ---------------------------------------------------------

    @hot_path
    def _skip_slots(self, slots: np.ndarray,
                    actions: np.ndarray) -> typing.Tuple[np.ndarray,
                                                         np.ndarray]:
        """One MaxAndSkip cycle for ``slots``; the de-flickered frames land
        in ``self._raw[slots]``.  Returns (total_rewards, dones).

        Only the frames the agent sees are drawn, as the scalar
        ``MaxAndSkip`` does: sub-frame ``skip-2`` of the slots that go on
        to the last sub-frame, and each slot's final frame.  A slot whose
        game ends at sub-frame ``j``, ``1 <= j <= skip-2``, shows frame
        ``j-1`` too, drawn from the copy of its state saved before
        sub-frame ``j``.
        """
        engine = self.engine
        first_seen = self.frame_skip - 2
        rewards = np.zeros(slots.size)
        dones = np.zeros(slots.size, dtype=bool)
        seen = np.zeros(slots.size, dtype=np.int64)
        alive = np.ones(slots.size, dtype=bool)
        for sub in range(self.frame_skip):
            idx = np.nonzero(alive)[0]
            if idx.size == 0:
                break
            current = slots[idx]
            if 0 < sub <= first_seen:
                engine.save_slots(current)
            sub_rewards, sub_dones = engine.advance(actions[idx], current)
            rewards[idx] += sub_rewards
            seen[idx] += 1
            dones[idx] = sub_dones
            alive[idx] = ~sub_dones
            if sub == first_seen:
                going_on = current[~sub_dones]
                if going_on.size:
                    engine.render(going_on)
                    self._prev[going_on] = engine.frames[going_on]
        two = seen >= 2
        # Ended before the last sub-frame, with an earlier frame to show.
        early = slots[two & (seen < self.frame_skip)]
        if early.size:
            engine.render_saved(early)
            self._prev[early] = engine.frames[early]
        engine.render(slots)
        pair = slots[two]
        if pair.size:
            self._raw[pair] = np.maximum(engine.frames[pair],
                                         self._prev[pair])
        single = slots[~two]
        if single.size:
            self._raw[single] = engine.frames[single]
        return rewards, dones

    def _pseudo_reset(self, slots: np.ndarray,
                      new_obs: np.ndarray) -> None:
        """EpisodicLife life-loss reset: one NOOP skip cycle per slot (full
        engine reset if the game ends during it), stacked into
        ``new_obs``."""
        engine = self.engine
        _, died = self._skip_slots(slots,
                                   np.zeros(slots.size, dtype=np.int64))
        kept = slots[~died]
        if kept.size:
            new_obs[kept] = self._pre(self._raw[kept])[:, None]
        lost = slots[died]
        if lost.size:
            engine.reset_slots(lost)
            new_obs[lost] = self._pre(engine.frames[lost])[:, None]

    # -- SyncVectorEnv protocol --------------------------------------------

    def reset(self) -> np.ndarray:
        """Reset every slot; returns stacked observations."""
        engine = self.engine
        self._scores[:] = 0.0
        self._elapsed[:] = 0
        if self.episodic_life:
            full = self._ep_game_over.copy()
        else:
            full = np.ones(self.num_envs, dtype=bool)
        new_obs = np.empty(
            (self.num_envs, self.stack) + self._pre.out_shape,
            dtype=np.float32)
        pseudo_idx = np.nonzero(~full)[0]
        if pseudo_idx.size:
            self._pseudo_reset(pseudo_idx, new_obs)
        full_idx = np.nonzero(full)[0]
        if full_idx.size:
            engine.reset_slots(full_idx)
            new_obs[full_idx] = self._pre(engine.frames[full_idx])[:, None]
        self._lives[:] = engine.lives
        self._observations = new_obs
        return new_obs

    @property
    def observations(self) -> np.ndarray:
        """The latest stacked observations."""
        if self._observations is None:
            raise RuntimeError("reset() the vector env first")
        return self._observations

    @hot_path
    def step(self, actions: typing.Sequence[int]) -> VectorStep:
        """Step every slot; finished slots auto-reset."""
        if len(actions) != self.num_envs:
            raise ValueError(f"expected {self.num_envs} actions, "
                             f"got {len(actions)}")
        old_obs = self.observations
        engine = self.engine
        batch = self.num_envs
        actions = np.asarray(actions, dtype=np.int64)

        rewards_raw, done_raw = self._skip_slots(self._all, actions)
        lives = engine.lives.copy()
        dones = done_raw.copy()
        life_lost = np.zeros(batch, dtype=bool)
        if self.episodic_life:
            # As EpisodicLife: a life lost in the step that hits the frame
            # limit still counts as a life loss, so its score carries on.
            life_lost = (lives > 0) & (lives < self._lives)
            dones |= life_lost
            self._ep_game_over = done_raw.copy()
        self._lives = lives
        truncated = np.zeros(batch, dtype=bool)
        if self.max_episode_steps is not None:
            self._elapsed += 1
            truncated = (self._elapsed >= self.max_episode_steps) & ~dones
            dones |= truncated

        # Per-slot infos, captured before any resets (as the scalar stack
        # observes them).
        scores = engine.score
        infos: typing.List[dict] = []
        for index in range(batch):
            info = {"lives": int(lives[index]),
                    "score": float(scores[index])}
            if life_lost[index]:
                info["life_lost"] = True
            if self.clip_rewards:
                info["raw_reward"] = float(rewards_raw[index])
            if truncated[index]:
                info["truncated"] = True
            infos.append(info)

        if self.clip_rewards:
            rewards = np.sign(rewards_raw).astype(np.float32)
        else:
            rewards = rewards_raw.astype(np.float32)
        self._scores += rewards_raw
        finished: typing.List[typing.Tuple[int, float]] = []
        done_idx = np.nonzero(dones)[0]
        for index in done_idx:
            if not infos[index].get("life_lost"):
                finished.append((int(index), float(self._scores[index])))
                self._scores[index] = 0.0

        # New frame stacks: live slots shift-and-append; finished slots
        # rebuild from their reset observation.
        new_obs = np.empty((batch, self.stack) + self._pre.out_shape,
                           dtype=np.float32)
        live_idx = np.nonzero(~dones)[0]
        if live_idx.size:
            new_obs[live_idx, :-1] = old_obs[live_idx, 1:]
            new_obs[live_idx, -1] = self._pre(self._raw[live_idx])
        if self.episodic_life:
            pseudo_idx = np.nonzero(dones & ~done_raw)[0]
            full_idx = np.nonzero(done_raw)[0]
        else:
            pseudo_idx = np.zeros(0, dtype=np.intp)
            full_idx = done_idx
        if pseudo_idx.size:
            self._pseudo_reset(pseudo_idx, new_obs)
        if full_idx.size:
            engine.reset_slots(full_idx)
            new_obs[full_idx] = self._pre(engine.frames[full_idx])[:, None]
        if done_idx.size:
            self._lives[done_idx] = engine.lives[done_idx]
            self._elapsed[done_idx] = 0

        self._observations = new_obs
        return VectorStep(observations=new_obs, rewards=rewards,
                          dones=dones, infos=infos,
                          finished_scores=finished)

    def close(self) -> None:
        close = getattr(self.engine, "close", None)
        if close is not None:
            close()
