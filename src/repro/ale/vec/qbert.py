"""Batched Q*bert: vectorized timers/hops, per-slot enemy RNG events.

Hop bookkeeping, the pyramid-completion test and the collision check are
integer masks over the batch; hop resolution and enemy hops (the only
RNG consumers) run per affected slot every ``HOP_FRAMES`` /
``ENEMY_HOP_FRAMES`` frames.
"""

from __future__ import annotations

import numpy as np

from repro.ale.games.qbert import (
    _BG,
    _CUBE_H,
    _CUBE_OFF,
    _CUBE_ON,
    _CUBE_W,
    _ENEMY,
    _HOPS,
    _N_ROWS,
    _PLAYER,
    _cube_center,
    Qbert,
)
from repro.ale.vec.base import VecAtariGame
from repro.perf.hotpath import hot_path

# Per-action hop lookup tables.
_MEANINGS = Qbert.ACTION_MEANINGS
_HOP_IS = np.array([m in _HOPS for m in _MEANINGS], dtype=bool)
_HOP_DROW = np.array([_HOPS.get(m, (0, 0))[0] for m in _MEANINGS],
                     dtype=np.int64)
_HOP_DCOL = np.array([_HOPS.get(m, (0, 0))[1] for m in _MEANINGS],
                     dtype=np.int64)
# Pyramid cells: cube (row, col) exists when col <= row.
_PYRAMID = np.arange(_N_ROWS)[None, :] <= np.arange(_N_ROWS)[:, None]


class VecQbert(VecAtariGame):
    """Structure-of-arrays Q*bert."""

    SCALAR_GAME = Qbert

    def _alloc(self, batch: int) -> None:
        self.colored = np.zeros((batch, _N_ROWS, _N_ROWS), dtype=bool)
        self.player_row = np.zeros(batch, dtype=np.int64)
        self.player_col = np.zeros(batch, dtype=np.int64)
        self.enemy_present = np.zeros(batch, dtype=bool)
        self.enemy_row = np.zeros(batch, dtype=np.int64)
        self.enemy_col = np.zeros(batch, dtype=np.int64)
        self.hop_timer = np.zeros(batch, dtype=np.int64)
        self.pending_present = np.zeros(batch, dtype=bool)
        self.pending_row = np.zeros(batch, dtype=np.int64)
        self.pending_col = np.zeros(batch, dtype=np.int64)
        self.enemy_timer = np.zeros(batch, dtype=np.int64)
        self.round_ = np.zeros(batch, dtype=np.int64)
        self.respawn = np.zeros(batch, dtype=np.int64)

    def _start_round_slot(self, k: int) -> None:
        self.colored[k] = False
        self.player_row[k] = 0
        self.player_col[k] = 0
        self.enemy_present[k] = False
        self.hop_timer[k] = 0
        self.pending_present[k] = False
        self.enemy_timer[k] = Qbert.ENEMY_SPAWN_DELAY
        self.respawn[k] = 0
        self.colored[k, 0, 0] = True

    def _reset_slots(self, slots: np.ndarray) -> None:
        self.round_[slots] = 0
        for k in slots:
            self._start_round_slot(int(k))

    @hot_path
    def _step_slots(self, slots: np.ndarray,
                    actions: np.ndarray) -> np.ndarray:
        s = slots
        rewards = np.zeros(s.size)
        resp = self.respawn[s]
        waiting = resp > 0
        resp[waiting] -= 1
        self.respawn[s] = resp
        act = ~waiting
        if not act.any():
            return rewards

        # Player hops.
        ht = self.hop_timer[s]
        timing = act & (ht > 0)
        ht[timing] -= 1
        resolve = timing & (ht == 0) & self.pending_present[s]
        new_hop = act & ~timing & _HOP_IS[actions]
        if new_hop.any():
            tgt = s[new_hop]
            self.pending_row[tgt] = self.player_row[tgt] + \
                _HOP_DROW[actions[new_hop]]
            self.pending_col[tgt] = self.player_col[tgt] + \
                _HOP_DCOL[actions[new_hop]]
            self.pending_present[tgt] = True
            ht[new_hop] = Qbert.HOP_FRAMES
        self.hop_timer[s] = ht
        for kc in np.nonzero(resolve)[0]:
            k = int(s[kc])
            row = int(self.pending_row[k])
            col = int(self.pending_col[k])
            self.pending_present[k] = False
            if 0 <= row < _N_ROWS and 0 <= col <= row:
                self.player_row[k] = row
                self.player_col[k] = col
                if not self.colored[k, row, col]:
                    self.colored[k, row, col] = True
                    rewards[kc] += Qbert.CUBE_SCORE
            else:
                # Hopped off the pyramid.
                self.lives[k] -= 1
                self.respawn[k] = 30
                self.player_row[k] = 0
                self.player_col[k] = 0

        # Enemy ball: spawn countdown and downhill hops.
        had_enemy = self.enemy_present[s]
        et = self.enemy_timer[s]
        no_enemy = act & ~had_enemy
        et[no_enemy] -= 1
        spawn = no_enemy & (et <= 0)
        tick = act & had_enemy
        et[tick] -= 1
        hop_now = tick & (et <= 0)
        self.enemy_timer[s] = et
        if spawn.any():
            tgt = s[spawn]
            self.enemy_row[tgt] = 0
            self.enemy_col[tgt] = 0
            self.enemy_present[tgt] = True
            self.enemy_timer[tgt] = Qbert.ENEMY_HOP_FRAMES
        for kc in np.nonzero(hop_now)[0]:
            k = int(s[kc])
            self.enemy_timer[k] = max(
                Qbert.ENEMY_HOP_FRAMES - int(self.round_[k]), 6)
            row = int(self.enemy_row[k])
            col = int(self.enemy_col[k])
            # The ball bounces downhill, drifting toward the player.
            if row + 1 < _N_ROWS:
                prefer_right = self.player_col[k] > col
                dcol = 1 if prefer_right else 0
                if self.rngs[k].random() < 0.25:
                    dcol = 1 - dcol
                self.enemy_row[k] = row + 1
                self.enemy_col[k] = col + dcol
            else:
                # Fell off the bottom; respawn at the top after a delay.
                self.enemy_present[k] = False
                self.enemy_timer[k] = Qbert.ENEMY_SPAWN_DELAY

        # Collision with the player.
        coll = act & self.enemy_present[s] & \
            (self.enemy_row[s] == self.player_row[s]) & \
            (self.enemy_col[s] == self.player_col[s]) & \
            (self.respawn[s] == 0)
        if coll.any():
            tgt = s[coll]
            self.lives[tgt] -= 1
            self.respawn[tgt] = 30
            self.enemy_present[tgt] = False
            self.enemy_timer[tgt] = Qbert.ENEMY_SPAWN_DELAY
            self.player_row[tgt] = 0
            self.player_col[tgt] = 0

        # Pyramid complete: bonus, next (faster) round.
        done = act & (self.colored[s] | ~_PYRAMID).all(axis=(1, 2))
        for kc in np.nonzero(done)[0]:
            k = int(s[kc])
            rewards[kc] += Qbert.ROUND_BONUS
            self.round_[k] += 1
            self._start_round_slot(k)
        return rewards

    @hot_path
    def _render_slots(self, slots: np.ndarray) -> None:
        scr = self.screen
        scr.clear_slots(slots, _BG)
        for k in slots:
            k = int(k)
            for i in range(self.lives[k]):
                scr.fill_rect(k, 8, 8 + 10 * i, 6, 6, _PLAYER)
        colored = self.colored[slots]
        for row in range(_N_ROWS):
            for col in range(row + 1):
                x, y = _cube_center(row, col)
                on = colored[:, row, col]
                if on.any():
                    scr.fill_rect_slots(slots[on], y, x - _CUBE_W / 2 + 1,
                                        _CUBE_H - 2, _CUBE_W - 2, _CUBE_ON)
                off = ~on
                if off.any():
                    scr.fill_rect_slots(slots[off], y, x - _CUBE_W / 2 + 1,
                                        _CUBE_H - 2, _CUBE_W - 2, _CUBE_OFF)
        for k in slots:
            k = int(k)
            if self.respawn[k] == 0:
                px, py = _cube_center(int(self.player_row[k]),
                                      int(self.player_col[k]))
                lift = 4.0 if self.hop_timer[k] > 0 else 0.0
                scr.fill_rect(k, py - 8 - lift, px - 4, 8, 8, _PLAYER)
            if self.enemy_present[k]:
                ex, ey = _cube_center(int(self.enemy_row[k]),
                                      int(self.enemy_col[k]))
                scr.fill_rect(k, ey - 7, ex - 3, 7, 7, _ENEMY)
