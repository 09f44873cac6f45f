"""Structure-of-arrays batched Atari games.

Each game's state lives in ``(B, ...)`` arrays and one :meth:`step`
advances all ``B`` environments together: elementwise dynamics run as
vectorized NumPy over the batch axis, and every slot renders into one
preallocated ``(B, 210, 160, 3)`` frame buffer instead of allocating a
fresh frame per env per step.

Bit-exactness contract
----------------------

Slot ``i`` of a batched game is bit-identical to a scalar
:class:`repro.ale.games.base.AtariGame` stepped with the same seed and
action sequence:

* every slot owns an independent ``np.random.Generator``, seeded exactly
  like the scalar env, and draws are made only for the slots (and in the
  per-slot order) the scalar game would make them;
* elementwise float64 arithmetic (``+ - * /``, ``np.clip``, ``abs``) is
  IEEE-identical whether applied to a Python/NumPy scalar or an array
  lane, so bulk dynamics vectorize without changing a single bit;
* operations whose reduction order could differ from the scalar code
  (e.g. ``np.linalg.norm``) and rare discrete events (serves, launches,
  enemy hops) run per affected slot with the scalar game's exact
  expression sequence;
* rendering issues the same ``fill_rect`` sequence per slot, with
  batch-constant rectangles stamped across slots in one write and fixed
  cell grids (bricks, lives) drawn in one masked copy;
* a frame is a function of the slot's state alone, so :meth:`advance`
  can run frames nobody looks at and :meth:`render` draws only those
  that are observed.
"""

from __future__ import annotations

import copy
import typing

import numpy as np

from repro.ale.games.base import (
    ALE_ACTIONS,
    SCREEN_HEIGHT,
    SCREEN_WIDTH,
    AtariGame,
    Color,
    RectGrid,
    clip_rect,
    color_tile,
    pixel_view,
)
from repro.envs.spaces import Box, Discrete
from repro.perf.hotpath import hot_path


class BatchScreen:
    """A shared ``(B, H, W, 3)`` frame buffer with per-slot drawing.

    Every method rounds and clips with
    :func:`~repro.ale.games.base.clip_rect` and copies from a
    :func:`~repro.ale.games.base.color_tile`, as
    :class:`~repro.ale.games.base.Screen` does, so a slot's pixels equal
    the scalar game's; :meth:`fill_rect_slots` stamps one batch-constant
    rectangle into many slots with a single write.
    """

    def __init__(self, batch: int, height: int = SCREEN_HEIGHT,
                 width: int = SCREEN_WIDTH):
        self.batch = batch
        self.height = height
        self.width = width
        self.pixels = np.zeros((batch, height, width, 3), dtype=np.uint8)

    def clear_slots(self, slots: np.ndarray, color: Color) -> None:
        """Fill the whole frame of every listed slot with one colour."""
        tile = color_tile(color, self.height, self.width)
        if slots.size == self.batch:
            self.pixels[:] = tile
        else:
            self.pixels[slots] = tile

    def fill_rect(self, slot: int, top: float, left: float, height: float,
                  width: float, color: Color) -> None:
        """Fill a rectangle in one slot, clipped to the frame."""
        t, l, b, r = clip_rect(top, left, height, width,
                               self.height, self.width)
        if b > t and r > l:
            self.pixels[slot, t:b, l:r] = \
                color_tile(color, self.height, self.width)[t:b, l:r]

    def fill_rect_slots(self, slots: np.ndarray, top: float, left: float,
                        height: float, width: float, color: Color) -> None:
        """Fill the same rectangle in every listed slot at once."""
        t, l, b, r = clip_rect(top, left, height, width,
                               self.height, self.width)
        if b > t and r > l:
            block = color_tile(color, self.height, self.width)[t:b, l:r]
            if slots.size == self.batch:
                self.pixels[:, t:b, l:r] = block
            else:
                self.pixels[slots, t:b, l:r] = block

    def fill_grid_slots(self, slots: np.ndarray, grid: RectGrid,
                        on: np.ndarray) -> None:
        """Fill each listed slot's cells of ``grid``; ``on`` holds one row
        of cell flags per slot."""
        t, l, b, r = grid.box
        mask = grid.mask(on)
        colors = pixel_view(grid.colors)
        if slots.size == self.batch:
            np.copyto(pixel_view(self.pixels[:, t:b, l:r]), colors,
                      where=mask)
        else:
            block = self.pixels[slots, t:b, l:r]
            np.copyto(pixel_view(block), colors, where=mask)
            self.pixels[slots, t:b, l:r] = block


class VecAtariGame:
    """Base class for the batched games.

    Subclasses point :attr:`SCALAR_GAME` at their scalar counterpart
    (action set, lives and frame limit are inherited from it) and
    implement :meth:`_alloc`, :meth:`_reset_slots`, :meth:`_step_slots`
    and :meth:`_render_slots`, all operating on ``(B,)``-leading arrays.

    Unlike :class:`~repro.envs.base.Env`, stepping takes an optional
    ``slots`` index array so callers (the batched frame-skip loop) can
    advance a sub-batch while other slots sit on a finished frame.
    :meth:`step` is :meth:`advance` followed by :meth:`render`; the
    frame-skip loop calls them apart and draws only observed frames.
    """

    #: The scalar game this engine reproduces bit-for-bit per slot.
    SCALAR_GAME: typing.Type[AtariGame] = AtariGame

    def __init__(self, batch: int):
        if batch < 1:
            raise ValueError(f"batch must be >= 1, got {batch}")
        scalar = self.SCALAR_GAME
        self.batch = batch
        self.action_meanings = scalar.ACTION_MEANINGS
        self.start_lives = scalar.START_LIVES
        self.max_frames = scalar.MAX_FRAMES
        self.action_space = Discrete(len(self.action_meanings))
        self.observation_space = Box(0, 255,
                                     (SCREEN_HEIGHT, SCREEN_WIDTH, 3),
                                     dtype=np.uint8)
        self.screen = BatchScreen(batch)
        self.lives = np.zeros(batch, dtype=np.int64)
        self.score = np.zeros(batch)
        self.frame = np.zeros(batch, dtype=np.int64)
        self.game_over = np.ones(batch, dtype=bool)
        self.rngs = [np.random.default_rng() for _ in range(batch)]
        # Per-action lookup tables for vectorized decode_move.
        meanings = self.action_meanings
        for meaning in meanings:
            if meaning not in ALE_ACTIONS:
                raise ValueError(f"unknown action meaning {meaning!r}")
        decoded = [AtariGame.decode_move(m) for m in meanings]
        self._act_dx = np.array([d[0] for d in decoded], dtype=np.int64)
        self._act_dy = np.array([d[1] for d in decoded], dtype=np.int64)
        self._act_fire = np.array([d[2] for d in decoded], dtype=bool)
        self._act_right = np.array(["RIGHT" in m for m in meanings],
                                   dtype=bool)
        self._act_left = np.array(["LEFT" in m for m in meanings],
                                  dtype=bool)
        self._all_slots = np.arange(batch, dtype=np.intp)
        before = set(vars(self))
        self._alloc(batch)
        self._state = ("lives", "score", "frame", "game_over") + tuple(
            name for name in vars(self) if name not in before)
        self._saved: typing.Dict[str, typing.Any] = {}
        for name in self._state:
            value = getattr(self, name)
            if isinstance(value, np.ndarray) and value.shape[:1] == (batch,):
                self._saved[name] = np.empty_like(value)
            elif isinstance(value, list) and len(value) == batch:
                self._saved[name] = [None] * batch
            else:
                raise TypeError(f"{type(self).__name__}._alloc set "
                                f"{name!r}, which is neither a (B, ...) "
                                f"array nor a per-slot list")

    # -- subclass hooks ---------------------------------------------------

    def _alloc(self, batch: int) -> None:
        """Allocate the game's state: ``(B, ...)`` arrays and per-slot
        lists, nothing else (constants live at module level), so
        :meth:`save_slots` can copy all of it."""
        raise NotImplementedError

    def _reset_slots(self, slots: np.ndarray) -> None:
        """Initialise game state for a new episode in the listed slots."""
        raise NotImplementedError

    def _step_slots(self, slots: np.ndarray,
                    actions: np.ndarray) -> np.ndarray:
        """Advance the listed slots one frame; return per-slot rewards."""
        raise NotImplementedError

    def _render_slots(self, slots: np.ndarray) -> None:
        """Draw the listed slots into :attr:`screen`."""
        raise NotImplementedError

    # -- batched protocol --------------------------------------------------

    def seed(self, seeds: typing.Sequence[int]) -> None:
        """Seed every slot's generator (one seed per slot)."""
        if len(seeds) != self.batch:
            raise ValueError(f"expected {self.batch} seeds, "
                             f"got {len(seeds)}")
        self.rngs = [np.random.default_rng(s) for s in seeds]

    def reset(self) -> np.ndarray:
        """Reset every slot; returns a view of the shared frame buffer."""
        self.reset_slots(self._all_slots)
        return self.screen.pixels

    def reset_slots(self, slots: np.ndarray) -> None:
        """Start a new episode in the listed slots only."""
        slots = np.asarray(slots, dtype=np.intp)
        self.lives[slots] = self.start_lives
        self.score[slots] = 0.0
        self.frame[slots] = 0
        self.game_over[slots] = False
        self._reset_slots(slots)
        self._render_slots(slots)

    def _slots(self, slots: typing.Optional[np.ndarray]) -> np.ndarray:
        if slots is None:
            return self._all_slots
        return np.asarray(slots, dtype=np.intp)

    def step(self, actions: typing.Sequence[int],
             slots: typing.Optional[np.ndarray] = None
             ) -> typing.Tuple[np.ndarray, np.ndarray]:
        """Advance the listed slots (default: all) one frame each and
        draw them: :meth:`advance` followed by :meth:`render`."""
        slots = self._slots(slots)
        rewards, dones = self.advance(actions, slots)
        self._render_slots(slots)
        return rewards, dones

    @hot_path
    def advance(self, actions: typing.Sequence[int],
                slots: typing.Optional[np.ndarray] = None
                ) -> typing.Tuple[np.ndarray, np.ndarray]:
        """Advance the listed slots (default: all) one frame each,
        without drawing them.

        Returns ``(rewards, dones)`` aligned with ``slots``.  Finished
        slots must be :meth:`reset_slots` before they are stepped again,
        mirroring the scalar env's step-after-game-over error.
        """
        slots = self._slots(slots)
        if self.game_over[slots].any():
            raise RuntimeError("step() called on a finished slot; "
                               "call reset_slots()")
        actions = np.asarray(actions, dtype=np.int64)
        if actions.shape != (slots.size,):
            raise ValueError(f"expected {slots.size} actions, "
                             f"got shape {actions.shape}")
        if ((actions < 0) | (actions >= len(self.action_meanings))).any():
            raise ValueError(f"invalid action for "
                             f"{type(self).__name__}")
        rewards = self._step_slots(slots, actions)
        self.frame[slots] += 1
        self.score[slots] += rewards
        dones = (self.lives[slots] <= 0) | \
            (self.frame[slots] >= self.max_frames)
        self.game_over[slots] = dones
        return rewards, dones

    def render(self, slots: typing.Optional[np.ndarray] = None) -> None:
        """Draw the current state of the listed slots (default: all)."""
        self._render_slots(self._slots(slots))

    def save_slots(self, slots: np.ndarray) -> None:
        """Keep a copy of the listed slots' state for
        :meth:`render_saved`, as the scalar game's ``save_state`` does.

        The copy covers everything :meth:`_alloc` allocates plus lives,
        score, frame and game-over flag; it replaces the listed slots'
        earlier copy and leaves the other slots' copies alone.
        """
        for name in self._state:
            value, saved = getattr(self, name), self._saved[name]
            if isinstance(saved, list):
                for k in slots:
                    saved[k] = copy.deepcopy(value[k])
            elif slots.size == self.batch:
                np.copyto(saved, value)
            else:
                saved[slots] = value[slots]

    def render_saved(self, slots: np.ndarray) -> None:
        """Draw the listed slots as they were at their last
        :meth:`save_slots`; their live state is left as it is."""
        live = {}
        for name in self._state:
            value, saved = getattr(self, name), self._saved[name]
            if isinstance(saved, list):
                live[name] = [value[k] for k in slots]
                for k in slots:
                    value[k] = saved[k]
            else:
                live[name] = value[slots]
                value[slots] = saved[slots]
        try:
            self._render_slots(slots)
        finally:
            for name in self._state:
                value = getattr(self, name)
                if isinstance(value, list):
                    for k, item in zip(slots, live[name]):
                        value[k] = item
                else:
                    value[slots] = live[name]

    @property
    def frames(self) -> np.ndarray:
        """The shared ``(B, 210, 160, 3)`` uint8 frame buffer (a view)."""
        return self.screen.pixels
