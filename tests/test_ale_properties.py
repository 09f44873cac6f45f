"""Property-based tests over the simulated games: arbitrary action
sequences must never violate the game invariants, and drawing from
colour tiles must equal broadcasting the RGB tuple."""

import importlib

import hypothesis
import hypothesis.strategies as st
import numpy as np
import pytest

from repro.ale import GAME_NAMES, make_game
from repro.ale.games.base import Screen
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
