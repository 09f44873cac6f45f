"""Property-based tests over the simulated games: arbitrary action
sequences must never violate the game invariants, drawing from colour
tiles must equal broadcasting the RGB tuple, and drawing a cell grid in
one masked copy must equal filling its cells one by one."""

import importlib

import hypothesis
import hypothesis.strategies as st
import numpy as np
import pytest

from repro.ale import GAME_NAMES, make_game
from repro.ale.games import breakout
from repro.ale.games.base import Screen, rect_grid
from repro.ale.vec.base import BatchScreen

action_sequences = st.lists(st.integers(0, 17), min_size=1, max_size=120)


@pytest.mark.parametrize("name", GAME_NAMES)
class TestGameInvariants:
    @hypothesis.given(seed=st.integers(0, 2 ** 31 - 1),
                      actions=action_sequences)
    @hypothesis.settings(max_examples=10, deadline=None)
    def test_arbitrary_play_preserves_invariants(self, name, seed,
                                                 actions):
        game = make_game(name)
        game.seed(seed)
        game.reset()
        n_actions = game.action_space.n
        prev_lives = game.lives
        for raw in actions:
            if game.game_over:
                game.reset()
                prev_lives = game.lives
            obs, reward, done, info = game.step(raw % n_actions)
            # Invariants.
            assert obs.dtype == np.uint8
            assert obs.shape == (210, 160, 3)
            assert np.isfinite(reward)
            assert 0 <= info["lives"] <= game.START_LIVES
            assert info["lives"] <= prev_lives or done
            prev_lives = info["lives"]
            assert done == game.game_over

    @hypothesis.given(seed=st.integers(0, 2 ** 31 - 1))
    @hypothesis.settings(max_examples=5, deadline=None)
    def test_reset_always_restores_full_lives(self, name, seed):
        game = make_game(name)
        game.seed(seed)
        game.reset()
        rng = np.random.default_rng(seed)
        for _ in range(300):
            if game.game_over:
                break
            game.step(game.action_space.sample(rng))
        game.reset()
        assert game.lives == game.START_LIVES
        assert game.frame == 0
        assert game.score == 0.0

    def test_score_matches_cumulative_rewards(self, name):
        game = make_game(name)
        game.seed(3)
        game.reset()
        rng = np.random.default_rng(3)
        total = 0.0
        for _ in range(500):
            _, reward, done, info = game.step(
                game.action_space.sample(rng))
            total += reward
            assert info["score"] == pytest.approx(total)
            if done:
                break

    def test_noop_never_scores_positive_in_most_games(self, name):
        """Pure NOOP play never earns points (Q*bert colours its start
        cube at reset, Beam Rider escapes may recycle — but no positive
        reward should appear from standing still in any game except by
        the scripted opponent's errors in Pong, which only yields
        negative rewards for the idle side)."""
        game = make_game(name)
        game.seed(5)
        game.reset()
        for _ in range(600):
            _, reward, done, _ = game.step(0)
            assert reward <= 0.0
            if done:
                break


# -- colour tiles -------------------------------------------------------------

def _palette(name):
    """Every RGB constant a game module draws with."""
    colors = set()
    module = importlib.import_module(f"repro.ale.games.{name}")
    for value in vars(module).values():
        if not isinstance(value, tuple):
            continue
        for item in (value, *value):
            if isinstance(item, tuple) and len(item) == 3 and all(
                    isinstance(v, int) and 0 <= v <= 255 for v in item):
                colors.add(item)
    return sorted(colors)


PALETTE = sorted({c for name in GAME_NAMES for c in _palette(name)})


def _coord(lo, hi):
    """Whole, exactly-halfway, other fractional and arbitrary values."""
    return st.one_of(
        st.integers(lo, hi),
        st.builds(lambda v, f: v + f, st.integers(lo, hi),
                  st.sampled_from([0.5, -0.5, 0.25, 0.75])),
        st.floats(lo, hi, allow_nan=False))


#: Rectangles inside, straddling and wholly outside the 210x160 frame,
#: including empty and negative sizes.
rects = st.lists(st.tuples(_coord(-40, 250), _coord(-40, 200),
                           _coord(-10, 120), _coord(-10, 120),
                           st.sampled_from(PALETTE)), max_size=8)


def _tuple_fill(pixels, top, left, height, width, color):
    """The drawing the tiles replace: round, clip, broadcast the tuple."""
    h, w = pixels.shape[-3:-1]
    t = min(max(int(round(top)), 0), h)
    l = min(max(int(round(left)), 0), w)
    b = min(max(int(round(top + height)), 0), h)
    r = min(max(int(round(left + width)), 0), w)
    if b > t and r > l:
        pixels[..., t:b, l:r, :] = color


@st.composite
def lattices(draw):
    """Non-overlapping cells on a lattice: each cell fits in its pitch,
    and rounding is monotonic, so clipped cells may touch but never
    overlap.  Lattices may straddle or leave the frame."""
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 8))
    top, left = draw(_coord(-30, 220)), draw(_coord(-30, 170))
    pitch_y = draw(st.floats(1, 40, allow_nan=False))
    pitch_x = draw(st.floats(1, 40, allow_nan=False))
    height = draw(st.floats(0, 1)) * pitch_y
    width = draw(st.floats(0, 1)) * pitch_x
    colors = draw(st.lists(st.sampled_from(PALETTE), min_size=rows * cols,
                           max_size=rows * cols))
    return tuple((top + r * pitch_y, left + c * pitch_x, height, width,
                  colors[r * cols + c])
                 for r in range(rows) for c in range(cols))


class TestColorTiles:
    def test_palette_covers_every_game(self):
        assert all(len(_palette(name)) >= 3 for name in GAME_NAMES)

    @hypothesis.given(st.sampled_from(PALETTE), rects)
    @hypothesis.settings(max_examples=60, deadline=None)
    def test_screen_matches_tuple_broadcast(self, background, shapes):
        screen = Screen()
        expected = np.full_like(screen.pixels, 7)
        screen.pixels[:] = 7
        screen.clear(background)
        expected[:] = background
        for top, left, height, width, color in shapes:
            screen.fill_rect(top, left, height, width, color)
            _tuple_fill(expected, top, left, height, width, color)
        np.testing.assert_array_equal(screen.pixels, expected)

    @hypothesis.given(st.sampled_from(PALETTE), rects,
                      st.lists(st.booleans(), min_size=3, max_size=3),
                      st.integers(0, 2))
    @hypothesis.settings(max_examples=60, deadline=None)
    def test_batch_screen_matches_tuple_broadcast(self, background, shapes,
                                                  mask, slot):
        screen = BatchScreen(3)
        expected = np.full_like(screen.pixels, 7)
        screen.pixels[:] = 7
        for slots in (np.arange(3), np.flatnonzero(mask)):
            screen.clear_slots(slots, background)
            expected[slots] = background
            for top, left, height, width, color in shapes:
                screen.fill_rect_slots(slots, top, left, height, width,
                                       color)
                view = expected[slots]
                _tuple_fill(view, top, left, height, width, color)
                expected[slots] = view
                screen.fill_rect(slot, top, left, height, width, color)
                _tuple_fill(expected[slot], top, left, height, width, color)
            np.testing.assert_array_equal(screen.pixels, expected)

    def test_tiles_are_read_only_and_built_on_first_use(self):
        """Importing the engines builds no tile (setup cost stays flat)."""
        import os
        import pathlib
        import subprocess
        import sys

        import repro
        probe = ("import repro.ale, repro.envs, repro.ale.games.base as b;"
                 "assert b.color_tile.cache_info().currsize == 0;"
                 "b.Screen().clear((1, 2, 3));"
                 "assert b.color_tile.cache_info().currsize == 1;"
                 "assert not b.color_tile((1, 2, 3), 210, 160)"
                 ".flags.writeable")
        src = str(pathlib.Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        subprocess.run([sys.executable, "-c", probe], check=True, env=env)

    # -- cell grids -----------------------------------------------------------

    @staticmethod
    def _noise(shape, seed):
        return np.random.default_rng(seed).integers(0, 256, size=shape,
                                                    dtype=np.uint8)

    @staticmethod
    def _cell_loop(fill, cells, on):
        """The drawing a grid replaces: one ``fill_rect`` per cell on."""
        for flag, (top, left, height, width, color) in zip(on, cells):
            if flag:
                fill(top, left, height, width, color)

    @hypothesis.given(lattices(), st.integers(0, 2 ** 31 - 1))
    @hypothesis.settings(max_examples=60, deadline=None)
    def test_fill_grid_matches_fill_rect_loop(self, cells, seed):
        rng = np.random.default_rng(seed)
        grid = rect_grid(cells)
        screen, expected = Screen(), Screen()
        screen.pixels[:] = expected.pixels[:] = self._noise(
            screen.pixels.shape, seed)
        on = rng.random(len(cells)) < 0.6
        screen.fill_grid(grid, on)
        self._cell_loop(expected.fill_rect, cells, on)
        np.testing.assert_array_equal(screen.pixels, expected.pixels)

    @hypothesis.given(lattices(), st.lists(st.booleans(), min_size=4,
                                         max_size=4),
                      st.integers(0, 2 ** 31 - 1))
    @hypothesis.settings(max_examples=60, deadline=None)
    def test_fill_grid_slots_matches_fill_rect_loop(self, cells, mask,
                                                    seed):
        rng = np.random.default_rng(seed)
        grid = rect_grid(cells)
        screen, expected = BatchScreen(4), BatchScreen(4)
        screen.pixels[:] = expected.pixels[:] = self._noise(
            screen.pixels.shape, seed)
        for slots in (np.arange(4), np.flatnonzero(mask)):
            on = rng.random((slots.size, len(cells))) < 0.6
            screen.fill_grid_slots(slots, grid, on)
            for row, slot in zip(on, slots):
                self._cell_loop(
                    lambda *rect, k=slot: expected.fill_rect(k, *rect),
                    cells, row)
            np.testing.assert_array_equal(screen.pixels, expected.pixels)

    def test_breakout_grids_match_fill_rect_loop(self):
        """Every lives count, from none to past the cells that fit on
        screen, and random brick walls, on one screen and per slot."""
        lives_grid, brick_grid = breakout.grids()
        rng = np.random.default_rng(0)
        batch = 3
        for lives in range(breakout.Breakout.START_LIVES + 25):
            bricks = rng.random((batch, brick_grid.size)) < 0.7
            screen, expected = BatchScreen(batch), BatchScreen(batch)
            scalar = Screen()
            screen.pixels[:] = expected.pixels[:] = self._noise(
                screen.pixels.shape, lives)
            scalar.pixels[:] = screen.pixels[0]
            slot_lives = np.array([lives, lives // 2, 0])
            for k in range(batch):
                for i in range(slot_lives[k]):
                    expected.fill_rect(k, 10, 10 + 8 * i, 5, 5,
                                       breakout._PADDLE)
                self._cell_loop(
                    lambda *rect, k=k: expected.fill_rect(k, *rect),
                    breakout._BRICK_CELLS, bricks[k])
            slots = np.arange(batch)
            screen.fill_grid_slots(
                slots, lives_grid,
                breakout._LIFE_INDEX < slot_lives[:, None])
            screen.fill_grid_slots(slots, brick_grid, bricks)
            np.testing.assert_array_equal(screen.pixels, expected.pixels)
            scalar.fill_grid(lives_grid, breakout._LIFE_INDEX < lives)
            scalar.fill_grid(brick_grid, bricks[0])
            np.testing.assert_array_equal(scalar.pixels,
                                          expected.pixels[0])

    def test_overlapping_cells_raise(self):
        color = PALETTE[0]
        with pytest.raises(ValueError, match="overlaps"):
            rect_grid(((0, 0, 5, 5, color), (3, 3, 5, 5, color)))
        # Cells that only touch, or that clip away entirely, are fine.
        grid = rect_grid(((0, 0, 5, 5, color), (0, 5, 5, 5, color),
                          (300, 0, 5, 5, color)))
        assert grid.size == 3
        assert grid.valid.sum() == 50

    def test_flag_count_is_checked(self):
        grid = rect_grid(((0, 0, 5, 5, PALETTE[0]),))
        with pytest.raises(ValueError):
            Screen().fill_grid(grid, np.ones(2, dtype=bool))

    def test_grids_are_read_only_and_built_on_first_use(self):
        """Importing the engines builds no grid; the first Breakout
        frame builds its two, read-only."""
        import os
        import pathlib
        import subprocess
        import sys

        import repro
        probe = ("import repro.ale, repro.envs, repro.ale.vec;"
                 "from repro.ale.games.base import rect_grid;"
                 "assert rect_grid.cache_info().currsize == 0;"
                 "repro.ale.make_game('breakout').reset();"
                 "assert rect_grid.cache_info().currsize == 2;"
                 "from repro.ale.games.breakout import grids;"
                 "assert not any(a.flags.writeable for g in grids()"
                 " for a in (g.index, g.valid, g.colors))")
        src = str(pathlib.Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        subprocess.run([sys.executable, "-c", probe], check=True, env=env)
