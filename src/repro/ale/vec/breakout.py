"""Batched Breakout: vectorized ball/brick dynamics, grid-copied bricks.

Brick hits resolve with fancy indexing over the ``(B, 6, 18)`` brick
array; launches (an RNG draw) and paddle bounces (``np.linalg.norm``,
whose reduction order must match the scalar game exactly) run per
affected slot.
"""

from __future__ import annotations

import numpy as np

from repro.ale.games.base import SCREEN_HEIGHT, SCREEN_WIDTH
from repro.ale.games.breakout import (
    _BALL,
    _BALL_SIZE,
    _BG,
    _BRICK_H,
    _BRICK_TOP,
    _BRICK_W,
    _COURT_TOP,
    _LIFE_INDEX,
    _N_COLS,
    _N_ROWS,
    _PADDLE,
    _PADDLE_H,
    _PADDLE_W,
    _PADDLE_Y,
    _ROW_SCORES,
    _WALL,
    _WALL_W,
    Breakout,
    grids,
)
from repro.ale.vec.base import VecAtariGame
from repro.perf.hotpath import hot_path

_ROW_SCORE_VALUES = np.array(_ROW_SCORES, dtype=np.float64)


class VecBreakout(VecAtariGame):
    """Structure-of-arrays Breakout."""

    SCALAR_GAME = Breakout

    def _alloc(self, batch: int) -> None:
        self.paddle_x = np.zeros(batch)
        self.ball = np.zeros((batch, 2))
        self.ball_vel = np.zeros((batch, 2))
        self.bricks = np.ones((batch, _N_ROWS, _N_COLS), dtype=bool)
        self.ball_in_play = np.zeros(batch, dtype=bool)
        self.clears = np.zeros(batch, dtype=np.int64)

    def _reset_slots(self, slots: np.ndarray) -> None:
        self.paddle_x[slots] = SCREEN_WIDTH / 2 - _PADDLE_W / 2
        self.bricks[slots] = True
        self.ball_in_play[slots] = False
        self.clears[slots] = 0

    def _launch_slot(self, k: int) -> None:
        self.ball[k, 0] = self.paddle_x[k] + _PADDLE_W / 2
        self.ball[k, 1] = _PADDLE_Y - _BALL_SIZE - 1
        angle = self.rngs[k].uniform(np.pi * 0.25, np.pi * 0.75)
        self.ball_vel[k, 0] = np.cos(angle) * Breakout.BALL_SPEED
        self.ball_vel[k, 1] = -np.sin(angle) * Breakout.BALL_SPEED
        self.ball_in_play[k] = True

    @hot_path
    def _step_slots(self, slots: np.ndarray,
                    actions: np.ndarray) -> np.ndarray:
        s = slots
        right = self._act_right[actions]
        left = self._act_left[actions] & ~right
        px = self.paddle_x[s]
        px[right] += Breakout.PADDLE_SPEED
        px[left] -= Breakout.PADDLE_SPEED
        px = np.clip(px, _WALL_W, SCREEN_WIDTH - _WALL_W - _PADDLE_W)
        self.paddle_x[s] = px

        rewards = np.zeros(s.size)
        act = self.ball_in_play[s]
        launch = ~act & self._act_fire[actions]
        if launch.any():
            for k in s[launch]:
                self._launch_slot(int(k))
        if not act.any():
            return rewards

        ball = self.ball[s]
        vel = self.ball_vel[s]
        ball[act] += vel[act]
        bx = ball[:, 0]
        by = ball[:, 1]

        # Side walls and ceiling.
        m_l = act & (bx <= _WALL_W)
        ball[m_l, 0] = _WALL_W
        vel[m_l, 0] = np.abs(vel[m_l, 0])
        m_r = act & ~m_l & (bx >= SCREEN_WIDTH - _WALL_W - _BALL_SIZE)
        ball[m_r, 0] = SCREEN_WIDTH - _WALL_W - _BALL_SIZE
        vel[m_r, 0] = -np.abs(vel[m_r, 0])
        m_t = act & (by <= _COURT_TOP)
        ball[m_t, 1] = _COURT_TOP
        vel[m_t, 1] = np.abs(vel[m_t, 1])

        # Bricks.
        in_band = act & (by >= _BRICK_TOP) & \
            (by < _BRICK_TOP + _N_ROWS * _BRICK_H)
        if in_band.any():
            bricks = self.bricks[s]
            row = ((by - _BRICK_TOP) // _BRICK_H).astype(np.int64)
            col = ((bx - _WALL_W) // _BRICK_W).astype(np.int64)
            valid = in_band & (row >= 0) & (row < _N_ROWS) & \
                (col >= 0) & (col < _N_COLS)
            rr = np.clip(row, 0, _N_ROWS - 1)
            cc = np.clip(col, 0, _N_COLS - 1)
            hit = valid & bricks[np.arange(s.size), rr, cc]
            if hit.any():
                idx = np.nonzero(hit)[0]
                bricks[idx, row[idx], col[idx]] = False
                vel[hit, 1] = -vel[hit, 1]
                rewards[hit] += _ROW_SCORE_VALUES[row[hit]]
            cleared = in_band & ~bricks.any(axis=(1, 2))
            if cleared.any():
                # Cleared the wall: new wall, slightly faster ball.
                bricks[cleared] = True
                clears = self.clears[s]
                clears[cleared] += 1
                self.clears[s] = clears
                vel[cleared] *= 1.1
            self.bricks[s] = bricks

        # Paddle bounce (rare; scalar expression order preserved).
        pad = act & (vel[:, 1] > 0) & \
            (_PADDLE_Y - _BALL_SIZE <= by) & (by <= _PADDLE_Y + _PADDLE_H) & \
            (px - _BALL_SIZE <= bx) & (bx <= px + _PADDLE_W)
        if pad.any():
            for k in np.nonzero(pad)[0]:
                offset = (ball[k, 0] + _BALL_SIZE / 2 - px[k]
                          - _PADDLE_W / 2) / (_PADDLE_W / 2)
                speed = float(np.linalg.norm(vel[k]))
                angle = np.pi / 2 - offset * np.pi / 3
                vel[k, 0] = np.cos(angle) * speed
                vel[k, 1] = -np.sin(angle) * speed
                ball[k, 1] = _PADDLE_Y - _BALL_SIZE

        # Missed: lose a life, ball must be re-served.
        miss = act & (by > SCREEN_HEIGHT)
        self.ball[s] = ball
        self.ball_vel[s] = vel
        if miss.any():
            self.lives[s[miss]] -= 1
            self.ball_in_play[s[miss]] = False
        return rewards

    @hot_path
    def _render_slots(self, slots: np.ndarray) -> None:
        scr = self.screen
        scr.clear_slots(slots, _BG)
        scr.fill_rect_slots(slots, _COURT_TOP - 6, 0, 6, SCREEN_WIDTH,
                            _WALL)
        scr.fill_rect_slots(slots, _COURT_TOP, 0, SCREEN_HEIGHT, _WALL_W,
                            _WALL)
        scr.fill_rect_slots(slots, _COURT_TOP, SCREEN_WIDTH - _WALL_W,
                            SCREEN_HEIGHT, _WALL_W, _WALL)
        lives, bricks = grids()
        scr.fill_grid_slots(slots, lives,
                            _LIFE_INDEX < self.lives[slots, None])
        scr.fill_grid_slots(slots, bricks,
                            self.bricks[slots].reshape(slots.size, -1))
        for k in slots:
            k = int(k)
            scr.fill_rect(k, _PADDLE_Y, self.paddle_x[k], _PADDLE_H,
                          _PADDLE_W, _PADDLE)
            if self.ball_in_play[k]:
                scr.fill_rect(k, self.ball[k, 1], self.ball[k, 0],
                              _BALL_SIZE, _BALL_SIZE, _BALL)
