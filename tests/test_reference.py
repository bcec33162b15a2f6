"""The group engine against the node-by-node reference of
``tests/reference.py``, bit for bit, and three structural laws of the
recursion: zero difference, time shift and linearity in g."""

from functools import lru_cache

import numpy as np
from hypothesis import given, settings, strategies as st

from mlpicard import (
    MlpConfig,
    PdeProblem,
    builtin_case,
    cost_rv,
    evaluate,
    to_canonical,
)
from mlpicard import engine
from mlpicard.cases import BUILTIN_CASES
from reference import reference


@lru_cache(maxsize=None)
def _canonical_case(name, d):
    return to_canonical(builtin_case(name, dimension=d).problem)[0]


def _same_bits(row, expected):
    return (float(row[0]).hex() == float(expected[0]).hex()
            and row[1:].tobytes() == expected[1:].tobytes())


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(BUILTIN_CASES), d=st.integers(1, 3),
       n=st.integers(0, 3), base=st.integers(1, 3),
       e=st.floats(0.05, 0.95), seed=st.integers(-2**63, 2**63 - 1),
       k=st.integers(1, 3), length=st.integers(1, 3), data=st.data())
def test_estimates_equal_the_node_by_node_reference(name, d, n, base, e,
                                                    seed, k, length, data):
    t = data.draw(st.lists(st.floats(0.0, 1.0, exclude_max=True),
                           min_size=k, max_size=k))
    x = data.draw(st.lists(st.lists(st.floats(-2.0, 2.0), min_size=d,
                                    max_size=d), min_size=k, max_size=k))
    thetas = data.draw(st.lists(
        st.lists(st.integers(-2**63, 2**63 - 1), min_size=length,
                 max_size=length), min_size=k, max_size=k))
    problem = _canonical_case(name, d)
    config = MlpConfig(depth=n, base=base, root_seed=seed,
                       time_cdf_exponent=e)
    rows, draws = engine._estimates(problem, config, np.array(t),
                                    np.array(x), np.array(thetas))
    assert draws == k * cost_rv(d, n, base)
    for j in range(k):
        assert _same_bits(rows[j], reference(
            problem, config, n, tuple(thetas[j]), t[j], np.array(x[j])))


def test_fanned_out_estimates_equal_the_reference(monkeypatch):
    # Every estimate fans out over two threads, so the root's child groups
    # are drawn in queue order and placed at their node rows.
    monkeypatch.setattr(engine, "_workers", lambda: 2)
    monkeypatch.setattr(engine, "FANOUT_MIN_DRAWS", 1)
    problem = _canonical_case("grad-dependent-sine", 2)
    config = MlpConfig(depth=4, base=3, root_seed=5)
    t = np.array([0.25, 0.5])
    x = np.array([[0.3, -0.2], [-1.0, 0.7]])
    thetas = np.array([[1], [2]])
    rows, _ = engine._estimates(problem, config, t, x, thetas)
    for j in range(2):
        assert _same_bits(rows[j], reference(problem, config, 4, (j + 1,),
                                             t[j], x[j]))


def _field_free_problem(d):
    """A problem whose f reads only (t, x), never the field (y, z)."""
    return PdeProblem(
        dimension=d,
        horizon=1.0,
        terminal_data=lambda x: np.sin(x).sum(axis=1),
        nonlinearity=lambda t, x, y, z: np.cos(t) * np.cos(x).sum(axis=1),
        lipschitz_solution=(0.0,) * (d + 1),
        lipschitz_space=(1.0,) * d,
    )


@settings(max_examples=30, deadline=None)
@given(d=st.integers(1, 3), n=st.integers(1, 3), base=st.integers(1, 3),
       e=st.floats(0.05, 0.95), t=st.floats(0.0, 1.0, exclude_max=True),
       seed=st.integers(-2**63, 2**63 - 1), data=st.data())
def test_zero_difference_law(d, n, base, e, t, seed, data):
    # When f ignores the field, every level l >= 1 adds a difference of two
    # equal f values, zero.  What is left is the terminal block and the
    # level-0 block, both of M**n samples at the paths (0, -i) and (0, i)
    # whatever the depth: so depth n with base M equals depth 1 with base
    # M**n, bit for bit, though the draws differ.
    x = np.array(data.draw(st.lists(st.floats(-2.0, 2.0), min_size=d,
                                    max_size=d)))
    problem = _field_free_problem(d)
    deep = evaluate(problem, MlpConfig(depth=n, base=base, root_seed=seed,
                                       time_cdf_exponent=e), t, x)
    flat = evaluate(problem, MlpConfig(depth=1, base=base**n, root_seed=seed,
                                       time_cdf_exponent=e), t, x)
    assert deep.value.hex() == flat.value.hex()
    assert deep.gradient.tobytes() == flat.gradient.tobytes()


def _autonomous_problem(d, horizon, a, b):
    """f = a y + b tanh(sum z) and g = mean sin: neither reads t."""
    return PdeProblem(
        dimension=d,
        horizon=horizon,
        terminal_data=lambda x: np.sin(x).sum(axis=1) / x.shape[1],
        nonlinearity=lambda t, x, y, z: a * y + b * np.tanh(z.sum(axis=1)),
        lipschitz_solution=(abs(a),) + (abs(b),) * d,
        lipschitz_space=(1.0,) * d,
    )


def _agree(a, b):
    """Every coordinate of b within 1e-12 of the largest of a."""
    return np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(a))


@settings(max_examples=40, deadline=None)
@given(d=st.integers(1, 3), n=st.integers(1, 3), base=st.integers(1, 3),
       e=st.floats(0.05, 0.95), horizon=st.floats(0.25, 4.0),
       start=st.floats(0.0, 0.9), a=st.floats(-1.0, 1.0),
       b=st.floats(-1.0, 1.0), seed=st.integers(-2**63, 2**63 - 1),
       data=st.data())
def test_time_shift_law(d, n, base, e, horizon, start, a, b, seed, data):
    # f and g do not read the clock, so an estimate at (t, x) on horizon T
    # sees t only through T - t: it equals the estimate at (0, x) on horizon
    # T - t on the same streams, up to the rounding of the child clocks
    # (t + (T - t) r against (T - t) r).
    t = start * horizon
    x = np.array(data.draw(st.lists(st.floats(-2.0, 2.0), min_size=d,
                                    max_size=d)))
    config = MlpConfig(depth=n, base=base, root_seed=seed,
                       time_cdf_exponent=e)
    late = evaluate(_autonomous_problem(d, horizon, a, b), config, t, x)
    early = evaluate(_autonomous_problem(d, horizon - t, a, b), config, 0.0,
                     x)
    assert _agree(late.as_vector(), early.as_vector())


def _linear_problem(d, g):
    """f = 0 and terminal data ``g``."""
    return PdeProblem(
        dimension=d,
        horizon=1.0,
        terminal_data=g,
        nonlinearity=lambda t, x, y, z: np.zeros(len(y)),
        lipschitz_solution=(0.0,) * (d + 1),
        lipschitz_space=(1.0,) * d,
    )


@settings(max_examples=40, deadline=None)
@given(d=st.integers(1, 3), n=st.integers(1, 3), base=st.integers(1, 3),
       e=st.floats(0.05, 0.95), t=st.floats(0.0, 0.9),
       seed=st.integers(-2**63, 2**63 - 1), data=st.data())
def test_linearity_in_g(d, n, base, e, t, seed, data):
    # With f = 0 the estimate is linear in g: on the same streams the
    # estimate for g1 + g2 is the sum of those for g1 and g2, up to rounding.
    # The gradient divides g's differences by sqrt(T - t), which scales
    # that rounding up without bound as t nears T = 1; at t <= 0.9 it stays
    # below 1e-15 of the largest coordinate.
    x = np.array(data.draw(st.lists(st.floats(-2.0, 2.0), min_size=d,
                                    max_size=d)))
    config = MlpConfig(depth=n, base=base, root_seed=seed,
                       time_cdf_exponent=e)

    def g1(p):
        return np.sin(p).sum(axis=1) / p.shape[1]

    def g2(p):
        return np.cos(p).sum(axis=1)

    both, one, two = (
        evaluate(_linear_problem(d, g), config, t, x).as_vector()
        for g in (lambda p: g1(p) + g2(p), g1, g2))
    assert _agree(both, one + two)
