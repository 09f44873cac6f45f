"""Shared machinery for the simulated Atari games.

Each game renders to a 210x160 RGB screen (the real Atari 2600 / ALE frame
size), exposes a *minimal action set* drawn from the canonical 18 ALE
actions, tracks lives and score, and implements its dynamics at single-frame
granularity (frame-skipping is applied by the preprocessing wrappers, as in
the real pipeline).
"""

from __future__ import annotations

import copy
import functools
import typing

import numpy as np

from repro.envs.base import Env
from repro.envs.spaces import Box, Discrete

SCREEN_HEIGHT = 210
SCREEN_WIDTH = 160

# The canonical ALE action meanings, in ALE order.
ALE_ACTIONS = (
    "NOOP", "FIRE", "UP", "RIGHT", "LEFT", "DOWN",
    "UPRIGHT", "UPLEFT", "DOWNRIGHT", "DOWNLEFT",
    "UPFIRE", "RIGHTFIRE", "LEFTFIRE", "DOWNFIRE",
    "UPRIGHTFIRE", "UPLEFTFIRE", "DOWNRIGHTFIRE", "DOWNLEFTFIRE",
)

#: Attributes that are not game state: rendering never reads them.
_NOT_STATE = ("screen", "rng", "action_space", "observation_space")


Color = typing.Tuple[int, int, int]


@functools.lru_cache(maxsize=None)
def color_tile(color: Color, height: int, width: int) -> np.ndarray:
    """A read-only ``(height, width, 3)`` frame filled with ``color``,
    built on first use and shared by every screen of that size.

    Drawing copies a slice of it rather than broadcasting the RGB tuple:
    source and destination rows are then contiguous runs of bytes,
    where a tuple fill writes three bytes at a time (and converts the
    tuple on every call).  The pixels are the same either way.
    """
    tile = np.empty((height, width, 3), dtype=np.uint8)
    tile[:] = color
    tile.flags.writeable = False
    return tile


def clip_rect(top: float, left: float, height: float, width: float,
              frame_height: int, frame_width: int
              ) -> typing.Tuple[int, int, int, int]:
    """Pixel bounds ``(t, l, b, r)`` of a rectangle in a frame.

    Each edge is rounded half to even and clipped to the frame; the
    rectangle is empty unless ``b > t and r > l``.
    """
    t = min(max(int(round(top)), 0), frame_height)
    l = min(max(int(round(left)), 0), frame_width)
    b = min(max(int(round(top + height)), 0), frame_height)
    r = min(max(int(round(left + width)), 0), frame_width)
    return t, l, b, r


#: One RGB pixel as a single 3-byte item, so a masked copy moves whole
#: pixels under a mask of the frame's own shape.
_PIXEL = np.dtype((np.void, 3))


def pixel_view(pixels: np.ndarray) -> np.ndarray:
    """``(..., 3)`` uint8 pixels viewed as ``(...)`` 3-byte items."""
    return pixels.view(_PIXEL)[..., 0]


class RectGrid(typing.NamedTuple):
    """Fixed, non-overlapping rectangles drawn as one masked copy.

    The arrays cover ``box = (t, l, b, r)``, the bounding box of the
    drawn cells: ``index`` holds the cell each pixel belongs to,
    ``valid`` which pixels belong to any cell, and ``colors`` each
    cell's colour.  ``size`` is the number of cells.
    """

    box: typing.Tuple[int, int, int, int]
    index: np.ndarray
    valid: np.ndarray
    colors: np.ndarray
    size: int

    def mask(self, on: np.ndarray) -> np.ndarray:
        """Pixels of the box to draw, given per-cell flags ``(..., size)``."""
        on = np.asarray(on, dtype=bool)
        if on.shape[-1:] != (self.size,):
            raise ValueError(f"expected {self.size} cell flags, "
                             f"got shape {on.shape}")
        return np.take(on, self.index, axis=-1) & self.valid


@functools.lru_cache(maxsize=None)
def rect_grid(rects: typing.Tuple[typing.Tuple[float, float, float, float,
                                               Color], ...],
              height: int = SCREEN_HEIGHT,
              width: int = SCREEN_WIDTH) -> RectGrid:
    """The read-only :class:`RectGrid` of ``(top, left, height, width,
    color)`` cells, built on first use.

    Each cell is rounded and clipped with :func:`clip_rect`, so drawing
    the ``on`` cells equals calling ``fill_rect`` for each of them.
    Cells must not overlap: draw order would then matter.
    """
    bounds = [clip_rect(*rect[:4], height, width) for rect in rects]
    drawn = [(cell, bound) for cell, bound in enumerate(bounds)
             if bound[2] > bound[0] and bound[3] > bound[1]]
    if drawn:
        box = (min(b[0] for _, b in drawn), min(b[1] for _, b in drawn),
               max(b[2] for _, b in drawn), max(b[3] for _, b in drawn))
    else:
        box = (0, 0, 0, 0)
    shape = (box[2] - box[0], box[3] - box[1])
    index = np.zeros(shape, dtype=np.intp)
    valid = np.zeros(shape, dtype=bool)
    colors = np.zeros(shape + (3,), dtype=np.uint8)
    for cell, (t, l, b, r) in drawn:
        area = (slice(t - box[0], b - box[0]), slice(l - box[1], r - box[1]))
        if valid[area].any():
            raise ValueError(f"cell {cell} overlaps an earlier cell")
        index[area] = cell
        valid[area] = True
        colors[area] = rects[cell][4]
    for array in (index, valid, colors):
        array.flags.writeable = False
    return RectGrid(box, index, valid, colors, len(rects))


class Screen:
    """A mutable RGB frame buffer with simple shape-drawing helpers."""

    def __init__(self, height: int = SCREEN_HEIGHT,
                 width: int = SCREEN_WIDTH):
        self.height = height
        self.width = width
        self.pixels = np.zeros((height, width, 3), dtype=np.uint8)

    def clear(self, color: Color = (0, 0, 0)) -> None:
        """Fill the whole frame with one colour."""
        self.pixels[:] = color_tile(color, self.height, self.width)

    def fill_rect(self, top: float, left: float, height: float, width: float,
                  color: Color) -> None:
        """Fill an axis-aligned rectangle, clipped to the frame."""
        t, l, b, r = clip_rect(top, left, height, width,
                               self.height, self.width)
        if b > t and r > l:
            self.pixels[t:b, l:r] = \
                color_tile(color, self.height, self.width)[t:b, l:r]

    def fill_grid(self, grid: RectGrid, on: np.ndarray) -> None:
        """Fill the cells of ``grid`` whose flag in ``on`` is set."""
        t, l, b, r = grid.box
        np.copyto(pixel_view(self.pixels[t:b, l:r]),
                  pixel_view(grid.colors), where=grid.mask(on))

    def copy(self) -> np.ndarray:
        """An independent uint8 copy of the frame."""
        return self.pixels.copy()


class AtariGame(Env):
    """Base class for the six simulated games.

    Subclasses set :attr:`ACTION_MEANINGS` (their minimal action set) and
    implement :meth:`_reset_game`, :meth:`_step_frame` and :meth:`_render`.
    The base class handles scoring, lives, the observation/action spaces and
    the gym-style protocol.  :meth:`step` is :meth:`advance` (emulate one
    frame) followed by :meth:`observe` (render it), so a caller that
    discards frames can skip their rendering; ``_render`` must read only
    game state, never the RNG.
    """

    #: Minimal action set (subset of :data:`ALE_ACTIONS`); set by subclass.
    ACTION_MEANINGS: typing.Tuple[str, ...] = ("NOOP",)
    #: Number of lives at game start.
    START_LIVES = 1
    #: Hard frame limit per episode (guards against degenerate policies).
    MAX_FRAMES = 20_000

    def __init__(self):
        super().__init__()
        for meaning in self.ACTION_MEANINGS:
            if meaning not in ALE_ACTIONS:
                raise ValueError(f"unknown action meaning {meaning!r}")
        self.action_space = Discrete(len(self.ACTION_MEANINGS))
        self.observation_space = Box(0, 255,
                                     (SCREEN_HEIGHT, SCREEN_WIDTH, 3),
                                     dtype=np.uint8)
        self.screen = Screen()
        self.lives = 0
        self.score = 0.0
        self.frame = 0
        self._game_over = True

    # -- subclass hooks ---------------------------------------------------

    def _reset_game(self) -> None:
        """Initialise all game state for a new episode."""
        raise NotImplementedError

    def _step_frame(self, meaning: str) -> float:
        """Advance the game one frame under ``meaning``; return the reward.

        Life loss is signalled by decrementing :attr:`lives`; the episode
        ends when lives reach zero (or the subclass sets
        ``self._game_over``).
        """
        raise NotImplementedError

    def _render(self) -> None:
        """Draw the current state into :attr:`screen`."""
        raise NotImplementedError

    # -- Env protocol ------------------------------------------------------

    def action_meanings(self) -> typing.Tuple[str, ...]:
        """The minimal action set of this game."""
        return self.ACTION_MEANINGS

    def reset(self) -> np.ndarray:
        self.lives = self.START_LIVES
        self.score = 0.0
        self.frame = 0
        self._game_over = False
        self._reset_game()
        return self.observe()

    def step(self, action: int):
        reward, done, info = self.advance(action)
        return self.observe(), reward, done, info

    def advance(self, action: int) -> typing.Tuple[float, bool, dict]:
        """Advance the game one frame without drawing it.

        Returns ``(reward, done, info)``: :meth:`step` without the
        observation, which :meth:`observe` renders on demand.
        """
        if self._game_over:
            raise RuntimeError("step() called on a finished game; "
                               "call reset()")
        if not self.action_space.contains(action):
            raise ValueError(f"invalid action {action!r} for "
                             f"{type(self).__name__}")
        meaning = self.ACTION_MEANINGS[int(action)]
        reward = float(self._step_frame(meaning))
        self.frame += 1
        self.score += reward
        if self.lives <= 0 or self.frame >= self.MAX_FRAMES:
            self._game_over = True
        return reward, self._game_over, {"lives": self.lives,
                                         "score": self.score}

    def observe(self) -> np.ndarray:
        """Render the current state; a copy of the screen."""
        self._render()
        return self.screen.copy()

    def save_state(self) -> dict:
        """A deep copy of everything :meth:`_render` may read.

        That is every attribute but the screen, the RNG, the spaces and
        callables set on the instance (wrappers that time or trace a
        method): a frame is a function of the game state alone, so
        :meth:`observe_saved` can draw it after the game has moved on.
        """
        state = {name: value for name, value in vars(self).items()
                 if name not in _NOT_STATE and not callable(value)}
        return copy.deepcopy(state)

    def observe_saved(self, state: dict) -> np.ndarray:
        """The frame :meth:`observe` would have returned when ``state``
        was saved.  Draws on a screen of its own, with the class's
        ``_render`` rather than any wrapper set on this instance."""
        saved = object.__new__(type(self))
        vars(saved).update(state)
        saved.screen = Screen()
        type(self)._render(saved)
        return saved.screen.pixels

    @property
    def game_over(self) -> bool:
        """True once the episode has ended."""
        return self._game_over

    # -- shared helpers ----------------------------------------------------

    @staticmethod
    def decode_move(meaning: str) -> typing.Tuple[int, int, bool]:
        """Decode an ALE action meaning to (dx, dy, fire).

        ``dx``/``dy`` are in {-1, 0, 1}; positive x is rightward, positive
        y is downward (screen coordinates).
        """
        fire = "FIRE" in meaning
        dx = (1 if "RIGHT" in meaning else 0) - \
            (1 if "LEFT" in meaning else 0)
        dy = (1 if "DOWN" in meaning else 0) - (1 if "UP" in meaning else 0)
        return dx, dy, fire
