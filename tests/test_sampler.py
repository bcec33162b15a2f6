"""Stream determinism, sampling laws, and draw accounting."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.special import ndtri

from mlpicard import (
    DrawLedger,
    single_step_second_moment,
    stream_uniforms,
)
from mlpicard.sampler import block_uniforms

INT64 = st.integers(-2**63, 2**63 - 1)
PATHS = st.lists(INT64, max_size=4).map(tuple)


def test_same_key_replays_identical_sequence():
    a = stream_uniforms(42, (3, 1, -2), 100)
    b = stream_uniforms(42, (3, 1, -2), 100)
    assert np.array_equal(a, b)


def test_sequential_consumption_matches_one_shot():
    # A shorter draw from the same key is a prefix of a longer one, so a
    # caller may split one stream into consecutive pieces by slicing.
    first = stream_uniforms(7, (1, 2), 3)
    assert np.array_equal(first, stream_uniforms(7, (1, 2), 5)[:3])


def test_uniforms_lie_in_open_interval():
    u = stream_uniforms(0, (0,), 10_000)
    assert np.all(u > 0.0)
    assert np.all(u < 1.0)


def test_distinct_paths_give_distinct_streams():
    # Concatenation ambiguity (1,) vs (1, 0) must not collide: the path
    # length is part of the key material.
    a = stream_uniforms(0, (1,), 4)
    b = stream_uniforms(0, (1, 0), 4)
    c = stream_uniforms(1, (1,), 4)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


@settings(max_examples=50, deadline=None)
@given(seed=INT64, theta=PATHS, level=st.integers(1, 2**63 - 1),
       index=st.integers(1, 2**63 - 1))
def test_level_branch_paths_are_distinct(seed, theta, level, index):
    # The recursion consumes paths theta + (l, i) and theta + (-l, i) for
    # the two telescoped sub-estimates; they must be independent streams.
    plus = stream_uniforms(seed, theta + (level, index), 8)
    minus = stream_uniforms(seed, theta + (-level, index), 8)
    assert not np.array_equal(plus, minus)
    block = block_uniforms(seed, theta, [(level, index), (-level, index)], 8)
    assert not np.array_equal(block[0], block[1])


def test_sibling_streams_are_uncorrelated():
    n = 10_000
    a = stream_uniforms(0, (8, 1), n)
    b = stream_uniforms(0, (8, 2), n)
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) < 0.04


def test_time_fraction_median_and_mean_at_half_exponent():
    # At e = 1/2 the CDF is sqrt(b): median 0.25, mean e/(e+1) = 1/3.
    n = 100_000
    draws = stream_uniforms(0, (51,), n) ** 2.0
    assert abs(np.median(draws) - 0.25) < 0.01
    var = 0.5 / 2.5 - (1.0 / 3.0) ** 2
    three_sigma = 3.0 * math.sqrt(var / n)
    assert abs(draws.mean() - 1.0 / 3.0) < three_sigma


def test_gaussian_moments():
    n = 100_000
    z = ndtri(stream_uniforms(0, (52,), n))
    assert abs(z.mean()) < 3.0 / math.sqrt(n)
    assert abs(z.var() - 1.0) < 3.0 * math.sqrt(2.0 / n)


def test_ledger_counts_scalar_draws():
    ledger = DrawLedger()
    block_uniforms(0, (1,), [(0, -1)], 3, ledger)
    assert ledger.scalar_draws == 3
    block_uniforms(0, (2,), [(0, -1)], 5, ledger)
    assert ledger.scalar_draws == 8
    block_uniforms(0, (3,), [(0, -1)], 0, ledger)
    assert ledger.scalar_draws == 8


def test_negative_draw_count_rejected():
    with pytest.raises(ValueError):
        stream_uniforms(0, (1,), -1)


def test_stream_v1_known_answers():
    # Values of the mlpicard.stream.v1 domain: SHAKE-256 output words and
    # the word-to-double map are fully specified, so these hold on every
    # platform.  A change here changes every estimate the package produces.
    def hexes(u):
        return [float(v).hex() for v in np.ravel(u)]

    assert hexes(stream_uniforms(0, (0,), 3)) == [
        "0x1.d081f24ff9168p-5", "0x1.14ecbc74db996p-1",
        "0x1.62f1e62eb49f2p-1"]
    assert hexes(stream_uniforms(42, (3, 1, -2), 2)) == [
        "0x1.ef06915e69ba8p-5", "0x1.33865db314020p-7"]
    assert hexes(stream_uniforms(-5, (), 2)) == [
        "0x1.9985890d6be07p-2", "0x1.37ec58a9d8f50p-6"]
    block = block_uniforms(123, (9, -4), [(0, -1), (2, 3), (-2, 3)], 2)
    assert hexes(block) == [
        "0x1.13ec61a08de06p-1", "0x1.e314adfdf0be4p-4",
        "0x1.13029db1d48aap-1", "0x1.4989c2190fdb6p-1",
        "0x1.4baf4b3ef6553p-2", "0x1.d355ac8771cbfp-2"]


@settings(max_examples=50, deadline=None)
@given(seed=INT64, base=PATHS,
       suffixes=st.lists(st.tuples(INT64, INT64), min_size=1, max_size=5),
       width=st.integers(0, 9))
@example(seed=123, base=(9, -4),
         suffixes=[(0, -1), (0, -2), (1, 3), (-2, 1)], width=5)
def test_block_uniforms_rows_match_per_stream_draws(seed, base, suffixes,
                                                    width):
    block = block_uniforms(seed, base, suffixes, width)
    assert block.shape == (len(suffixes), width)
    for j, suffix in enumerate(suffixes):
        assert np.array_equal(block[j],
                              stream_uniforms(seed, base + suffix, width))


def test_block_uniforms_ledger_counts_all_cells():
    ledger = DrawLedger()
    block_uniforms(0, (1,), [(0, -1), (0, -2), (0, -3)], width=4,
                   ledger=ledger)
    assert ledger.scalar_draws == 12


def test_second_moment_diagnostic_matches_closed_form():
    # Per gradient coordinate E[U^2] = T/(e(1-e)): 4 at (T, e) = (1, 1/2)
    # and 8 at (2, 1/2).  Exact 3-sigma bands from the fourth moment
    # 3 T^2 / (e^3 (2 - 3e)).
    n = 100_000
    for horizon, expected in ((1.0, 4.0), (2.0, 8.0)):
        diag = single_step_second_moment(horizon, 0.5, 1, n_samples=n)
        assert diag.expected_gradient == expected
        fourth = 3.0 * horizon**2 / (0.5**3 * 0.5)
        sigma = math.sqrt(fourth - expected**2) / math.sqrt(n)
        assert abs(diag.gradient_moments[0] - expected) < 3.0 * sigma
        assert diag.expected_value == horizon**2 / (0.5 * 1.5)
        assert not diag.heavy_tail
        assert diag.samples == n


def test_second_moment_value_coordinate():
    diag = single_step_second_moment(1.0, 0.5, 2, n_samples=200_000)
    # E[U_0^2] = T^2/(e(2-e)) = 4/3; the value weight is bounded so a
    # loose band suffices.
    assert abs(diag.value_moment - 4.0 / 3.0) < 0.02
    assert diag.gradient_moments.shape == (2,)


def test_heavy_tail_flag_tracks_exponent_band():
    # The closed-form moment stays finite as e -> 1 but its Monte Carlo
    # estimate becomes unreliable; the diagnostic flags e outside [0.2, 0.8].
    diag = single_step_second_moment(1.0, 0.95, 1, n_samples=100)
    assert diag.heavy_tail
    assert diag.expected_gradient == pytest.approx(1.0 / (0.95 * 0.05))
    assert not single_step_second_moment(
        1.0, 0.5, 1, n_samples=100).heavy_tail
    assert single_step_second_moment(1.0, 0.1, 1, n_samples=100).heavy_tail


def test_second_moment_input_validation():
    with pytest.raises(ValueError):
        single_step_second_moment(0.0, 0.5, 1)
    with pytest.raises(ValueError):
        single_step_second_moment(1.0, 1.0, 1)
    with pytest.raises(ValueError):
        single_step_second_moment(1.0, 0.5, 0)
    with pytest.raises(ValueError):
        single_step_second_moment(1.0, 0.5, 1, n_samples=0)
