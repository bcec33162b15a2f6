"""Stream determinism, sampling laws, and draw accounting."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.special import ndtri

from mlpicard import sampler, stream_uniforms
from mlpicard.sampler import DrawLedger, block_uniforms

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


@pytest.mark.parametrize("path", [(1.5,), (True,), (np.bool_(False),),
                                  (2**63,), (-2**63 - 1,), (1, 2.0)])
def test_non_integer_path_entries_rejected(path):
    # int64 conversion would truncate 1.5 to 1 and True to 1, so two
    # distinct paths would share one stream.
    with pytest.raises(ValueError, match="path"):
        stream_uniforms(3, path, 4)


@pytest.mark.parametrize("seed", [1.5, np.float64(1.0), True, 2**63,
                                  -2**63 - 1])
def test_non_integer_root_seed_rejected(seed):
    # int64 conversion would truncate 1.5 to 1, so two seeds would share
    # every stream.
    with pytest.raises(ValueError, match="root_seed"):
        stream_uniforms(seed, (1,), 4)


@pytest.mark.parametrize("base, suffix, name", [
    ((1.5,), (0, 1), "base_path"),
    ((True,), (0, 1), "base_path"),
    (np.array([1.5]), (0, 1), "base_path"),
    (np.array([[2**63]], dtype=np.uint64), (0, 1), "base_path"),
    ((1,), (0, 1.5), "suffixes"),
])
def test_block_uniforms_rejects_non_integer_paths(base, suffix, name):
    # int64 conversion would truncate (1.5,) to (1,), so the row would
    # silently read the stream of another path.
    with pytest.raises(ValueError, match=name):
        block_uniforms(0, base, [suffix], 3)


def test_block_uniforms_accepts_integer_arrays_of_any_dtype():
    expected = stream_uniforms(0, (1, 0, 1), 3)
    for base in ((1,), np.array([1], dtype=np.uint8),
                 np.array([[1]], dtype=np.int64)):
        assert np.array_equal(block_uniforms(0, base, [(0, 1)], 3)[0],
                              expected)


def test_numpy_integer_path_entries_accepted():
    assert np.array_equal(stream_uniforms(3, (np.int64(1), np.uint8(2)), 4),
                          stream_uniforms(3, (1, 2), 4))


def test_stream_v2_known_answers():
    # Values of the mlpicard.stream.v2 domain: the SHAKE-256 constants, the
    # 64-bit key and word arithmetic and the word-to-double map are fully
    # specified, so these hold on every platform.  A change here changes
    # every estimate the package produces.
    def hexes(u):
        return [float(v).hex() for v in np.ravel(u)]

    assert hexes(stream_uniforms(0, (0,), 3)) == [
        "0x1.d83ccfe155cd0p-6", "0x1.8d5c397286954p-1",
        "0x1.fe6d113d207eap-1"]
    assert hexes(stream_uniforms(42, (3, 1, -2), 2)) == [
        "0x1.9706e2767c629p-2", "0x1.2bf5f6ff130b6p-1"]
    assert hexes(stream_uniforms(-5, (), 2)) == [
        "0x1.523c0c0b9541ap-1", "0x1.1fc960a90f14ep-3"]
    block = block_uniforms(123, (9, -4), [(0, -1), (2, 3), (-2, 3)], 2)
    assert hexes(block) == [
        "0x1.6a03771c7c1f7p-2", "0x1.1160887cf88bep-3",
        "0x1.b5a8de8d06c42p-1", "0x1.89e4b323b4ba4p-4",
        "0x1.9516b88dfb272p-1", "0x1.04927e6982d49p-2"]


def _level_branch_block(width):
    # Paths (c, +-l, i) for c in 0..3, l in 1..5, i in 1..5**5: the streams
    # one level block of an M = 5 tree and its telescoped partner consume,
    # under four base paths.  Rows differ from their neighbours in one or
    # two positions, the weak spot of a linear key combine.  Axes: (c, sign,
    # l, i).
    c, sign, level, i = np.meshgrid(np.arange(4), np.array([1, -1]),
                                    np.arange(1, 6), np.arange(1, 5**5 + 1),
                                    indexing="ij")
    paths = np.stack([c, sign * level, i], axis=-1).reshape(-1, 3)
    keys = sampler._node_keys(2024, paths.astype(np.int64),
                              *sampler._length_constants(3))
    words = sampler._words(keys, width)
    return words.reshape(c.shape + (width,))


def test_generator_first_words_distinct_and_bits_balanced():
    words = _level_branch_block(8)
    first = words[..., 0].ravel()
    assert first.size == 125_000
    assert np.unique(first).size == first.size
    used = (words >> np.uint64(11)).ravel()
    n = used.size
    assert n >= 10**6
    for bit in range(53):
        ones = int(np.count_nonzero(used & np.uint64(1 << bit)))
        assert abs(ones - n / 2) < 5.0 * math.sqrt(n) / 2, bit


def test_generator_neighbouring_paths_uncorrelated():
    u = sampler._to_uniform(_level_branch_block(8))
    for a, b in ((u[:, 0], u[:, 1]),                # (l, i) vs (-l, i)
                 (u[..., :-1, :], u[..., 1:, :])):  # (l, i) vs (l, i+1)
        corr = np.corrcoef(a.ravel(), b.ravel())[0, 1]
        assert abs(corr) < 5.0 / math.sqrt(a.size)


@settings(max_examples=50, deadline=None)
@given(seed=INT64, base=PATHS,
       suffixes=st.lists(st.tuples(INT64, INT64), min_size=1, max_size=5),
       width=st.integers(0, 9),
       rows=st.lists(st.lists(INT64, min_size=4, max_size=4), min_size=5,
                     max_size=5))
@example(seed=123, base=(9, -4),
         suffixes=[(0, -1), (0, -2), (1, 3), (-2, 1)], width=5,
         rows=[[9, -4, 0, 0], [9, -4, 1, 3], [7, 2, 0, 0], [0, 0, 0, 0],
               [1, 1, 1, 1]])
def test_block_uniforms_rows_match_per_stream_draws(seed, base, suffixes,
                                                    width, rows):
    block = block_uniforms(seed, base, suffixes, width)
    assert block.shape == (len(suffixes), width)
    for j, suffix in enumerate(suffixes):
        assert np.array_equal(block[j],
                              stream_uniforms(seed, base + suffix, width))
    # Per-row form: an (R, L) array gives row j its own base path; equal
    # rows reproduce the shared-path form.
    shared = np.array([base] * len(suffixes), dtype=np.int64).reshape(
        len(suffixes), len(base))
    assert np.array_equal(block_uniforms(seed, shared, suffixes, width), block)
    own = np.array(rows, dtype=np.int64)[:len(suffixes), :len(base)]
    block = block_uniforms(seed, own, suffixes, width)
    assert block.shape == (len(suffixes), width)
    for j, suffix in enumerate(suffixes):
        path = tuple(own[j].tolist()) + suffix
        assert np.array_equal(block[j], stream_uniforms(seed, path, width))


@settings(max_examples=40, deadline=None)
@given(seed=INT64, length=st.integers(0, 3), m1=st.integers(2, 3),
       m2=st.integers(2, 3), width=st.integers(0, 5), data=st.data())
def test_block_uniforms_node_paths_match_per_stream_draws(seed, length, m1,
                                                          m2, width, data):
    # K node paths for R = K m rows: row j reads node j // m's path.  K = 1
    # is the shared-path form, K = R the per-row form, and K = m1 a proper
    # divisor of R in between.
    rows = m1 * m2
    paths = np.array(data.draw(st.lists(
        st.lists(INT64, min_size=length, max_size=length),
        min_size=rows, max_size=rows)), dtype=np.int64).reshape(rows, length)
    suffixes = data.draw(st.lists(st.tuples(INT64, INT64), min_size=rows,
                                  max_size=rows))
    for nodes in (1, m1, rows):
        block = block_uniforms(seed, paths[:nodes], suffixes, width)
        assert block.shape == (rows, width)
        m = rows // nodes
        for j, suffix in enumerate(suffixes):
            path = tuple(paths[j // m].tolist()) + suffix
            assert np.array_equal(block[j],
                                  stream_uniforms(seed, path, width))


@pytest.mark.parametrize("width", [0, 1, 11])
@pytest.mark.parametrize("nodes, m", [(1, 1), (1, 6), (2, 3), (6, 1)])
def test_block_uniforms_returns_c_order_rows_of_streams(width, nodes, m):
    # The words are drawn lane-major, (width, R), and cast to doubles in
    # one transposing pass: the result is still a C-order (R, width) float64
    # array whose row j is row j's stream.  K = 1 node (R = 1 included),
    # K = R / m and K = R.
    rows = nodes * m
    paths = np.arange(3 * nodes, dtype=np.int64).reshape(nodes, 3) - 4
    suffixes = [(j % 3 - 1, j + 1) for j in range(rows)]
    block = block_uniforms(11, paths, suffixes, width)
    assert block.shape == (rows, width)
    assert block.dtype == np.float64
    assert block.flags.c_contiguous
    for j, suffix in enumerate(suffixes):
        path = tuple(paths[j // m].tolist()) + suffix
        assert np.array_equal(block[j], stream_uniforms(11, path, width))


@pytest.mark.parametrize("nodes, rows", [(2, 3), (4, 2), (3, 5)])
def test_block_uniforms_rejects_node_count_not_dividing_rows(nodes, rows):
    base = np.zeros((nodes, 1), dtype=np.int64)
    with pytest.raises(ValueError, match="base_path"):
        block_uniforms(0, base, [(0, i + 1) for i in range(rows)], 3)


def test_top_word_maps_below_one():
    # ((2**53 - 1) + 0.5) * 2**-53 rounds to exactly 1.0, where ndtri is
    # inf; the map clamps it to the largest double below 1.  The next word
    # down keeps its unclamped value, as do all the others.
    below_one = 1.0 - 2.0 ** -53
    top = (2**53 - 1) << 11
    words = np.array([top, top | (2**11 - 1), (2**53 - 2) << 11, 0],
                     dtype=np.uint64)
    u = sampler._to_uniform(words)
    assert [float(v).hex() for v in u] == [
        below_one.hex(), below_one.hex(), (1.0 - 2.0 ** -52).hex(),
        (2.0 ** -54).hex()]
    assert np.all(np.isfinite(ndtri(u)))


def test_block_uniforms_ledger_counts_all_cells():
    ledger = DrawLedger()
    block_uniforms(0, (1,), [(0, -1), (0, -2), (0, -3)], width=4,
                   ledger=ledger)
    assert ledger.scalar_draws == 12

