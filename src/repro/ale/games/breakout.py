"""Simulated Breakout.

Six rows of bricks (scores 7/7/4/4/1/1 from top to bottom, as on the real
cartridge), a paddle, a ball served by FIRE, and five lives.  The minimal
action set is the real ALE Breakout set: NOOP, FIRE, RIGHT, LEFT.
"""

from __future__ import annotations

import functools
import typing

import numpy as np

from repro.ale.games.base import (
    SCREEN_HEIGHT,
    SCREEN_WIDTH,
    AtariGame,
    RectGrid,
    rect_grid,
)

_BG = (0, 0, 0)
_WALL = (142, 142, 142)
_PADDLE = (200, 72, 72)
_BALL = (200, 72, 72)
_ROW_COLORS = ((200, 72, 72), (198, 108, 58), (180, 122, 48),
               (162, 162, 42), (72, 160, 72), (66, 72, 200))
_ROW_SCORES = (7, 7, 4, 4, 1, 1)

_N_ROWS = 6
_N_COLS = 18
_BRICK_TOP = 57
_BRICK_H = 6
_WALL_W = 8
_BRICK_W = (SCREEN_WIDTH - 2 * _WALL_W) / _N_COLS
_PADDLE_Y = 189.0
_PADDLE_W = 16.0
_PADDLE_H = 4.0
_BALL_SIZE = 3.0
_COURT_TOP = 32

#: Lives indicator cells, one per life, as many as fit on screen.
_LIFE_CELLS = tuple((10, left, 5, 5, _PADDLE)
                    for left in range(10, SCREEN_WIDTH, 8))
_LIFE_INDEX = np.arange(len(_LIFE_CELLS))
#: Brick cells in ``bricks.ravel()`` order.
_BRICK_CELLS = tuple((_BRICK_TOP + row * _BRICK_H, _WALL_W + col * _BRICK_W,
                      _BRICK_H - 1, _BRICK_W - 1, _ROW_COLORS[row])
                     for row in range(_N_ROWS) for col in range(_N_COLS))


@functools.lru_cache(maxsize=None)
def grids() -> typing.Tuple[RectGrid, RectGrid]:
    """The lives-indicator and brick grids, built on first draw."""
    return rect_grid(_LIFE_CELLS), rect_grid(_BRICK_CELLS)


class Breakout(AtariGame):
    """Brick-breaking with five lives and row-dependent scores."""

    ACTION_MEANINGS = ("NOOP", "FIRE", "RIGHT", "LEFT")
    START_LIVES = 5
    MAX_FRAMES = 40_000

    PADDLE_SPEED = 4.0
    BALL_SPEED = 2.2

    def __init__(self):
        super().__init__()
        self.paddle_x = 0.0
        self.ball = np.zeros(2)
        self.ball_vel = np.zeros(2)
        self.bricks = np.ones((_N_ROWS, _N_COLS), dtype=bool)
        self.ball_in_play = False
        self._clears = 0

    def _reset_game(self) -> None:
        self.paddle_x = SCREEN_WIDTH / 2 - _PADDLE_W / 2
        self.bricks = np.ones((_N_ROWS, _N_COLS), dtype=bool)
        self.ball_in_play = False
        self._clears = 0

    def _launch(self) -> None:
        self.ball = np.array([self.paddle_x + _PADDLE_W / 2,
                              _PADDLE_Y - _BALL_SIZE - 1])
        angle = self.rng.uniform(np.pi * 0.25, np.pi * 0.75)
        self.ball_vel = np.array([np.cos(angle), -np.sin(angle)]) \
            * self.BALL_SPEED
        self.ball_in_play = True

    def _brick_hit(self) -> float:
        """Remove the brick under the ball (if any) and return its score."""
        row = int((self.ball[1] - _BRICK_TOP) // _BRICK_H)
        col = int((self.ball[0] - _WALL_W) // _BRICK_W)
        if 0 <= row < _N_ROWS and 0 <= col < _N_COLS \
                and self.bricks[row, col]:
            self.bricks[row, col] = False
            self.ball_vel[1] = -self.ball_vel[1]
            return float(_ROW_SCORES[row])
        return 0.0

    def _step_frame(self, meaning: str) -> float:
        if "RIGHT" in meaning:
            self.paddle_x += self.PADDLE_SPEED
        elif "LEFT" in meaning:
            self.paddle_x -= self.PADDLE_SPEED
        self.paddle_x = float(np.clip(self.paddle_x, _WALL_W,
                                      SCREEN_WIDTH - _WALL_W - _PADDLE_W))

        if not self.ball_in_play:
            if "FIRE" in meaning:
                self._launch()
            return 0.0

        self.ball += self.ball_vel
        reward = 0.0

        # Side walls and ceiling.
        if self.ball[0] <= _WALL_W:
            self.ball[0] = _WALL_W
            self.ball_vel[0] = abs(self.ball_vel[0])
        elif self.ball[0] >= SCREEN_WIDTH - _WALL_W - _BALL_SIZE:
            self.ball[0] = SCREEN_WIDTH - _WALL_W - _BALL_SIZE
            self.ball_vel[0] = -abs(self.ball_vel[0])
        if self.ball[1] <= _COURT_TOP:
            self.ball[1] = _COURT_TOP
            self.ball_vel[1] = abs(self.ball_vel[1])

        # Bricks.
        if _BRICK_TOP <= self.ball[1] < _BRICK_TOP + _N_ROWS * _BRICK_H:
            reward += self._brick_hit()
            if not self.bricks.any():
                # Cleared the wall: new wall, slightly faster ball (the
                # real game serves a second wall).
                self.bricks[:] = True
                self._clears += 1
                self.ball_vel *= 1.1

        # Paddle.
        if self.ball_vel[1] > 0 and \
                _PADDLE_Y - _BALL_SIZE <= self.ball[1] <= \
                _PADDLE_Y + _PADDLE_H and \
                self.paddle_x - _BALL_SIZE <= self.ball[0] <= \
                self.paddle_x + _PADDLE_W:
            offset = (self.ball[0] + _BALL_SIZE / 2 - self.paddle_x
                      - _PADDLE_W / 2) / (_PADDLE_W / 2)
            speed = float(np.linalg.norm(self.ball_vel))
            angle = np.pi / 2 - offset * np.pi / 3
            self.ball_vel = np.array([np.cos(angle), -np.sin(angle)]) * speed
            self.ball[1] = _PADDLE_Y - _BALL_SIZE

        # Missed: lose a life, ball must be re-served.
        if self.ball[1] > SCREEN_HEIGHT:
            self.lives -= 1
            self.ball_in_play = False
        return reward

    def _render(self) -> None:
        screen = self.screen
        screen.clear(_BG)
        screen.fill_rect(_COURT_TOP - 6, 0, 6, SCREEN_WIDTH, _WALL)
        screen.fill_rect(_COURT_TOP, 0, SCREEN_HEIGHT, _WALL_W, _WALL)
        screen.fill_rect(_COURT_TOP, SCREEN_WIDTH - _WALL_W,
                         SCREEN_HEIGHT, _WALL_W, _WALL)
        lives, bricks = grids()
        screen.fill_grid(lives, _LIFE_INDEX < self.lives)
        screen.fill_grid(bricks, self.bricks.ravel())
        screen.fill_rect(_PADDLE_Y, self.paddle_x, _PADDLE_H, _PADDLE_W,
                         _PADDLE)
        if self.ball_in_play:
            screen.fill_rect(self.ball[1], self.ball[0], _BALL_SIZE,
                             _BALL_SIZE, _BALL)
