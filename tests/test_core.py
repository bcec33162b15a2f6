"""Problem/config validation, convention adapter, and Lipschitz audit."""

import math

import numpy as np
import pytest

from mlpicard import (
    Convention,
    InvalidProblem,
    MlpConfig,
    PdeProblem,
    TimeMap,
    audit_lipschitz,
    evaluate,
    to_canonical,
)
from mlpicard.core import validate_problem


def make_problem(**overrides):
    kwargs = dict(
        dimension=1,
        horizon=1.0,
        terminal_data=lambda x: np.sin(x).sum(axis=1),
        nonlinearity=lambda t, x, y, z: 0.5 * y,
        lipschitz_solution=(0.5, 0.0),
        lipschitz_space=(1.0,),
    )
    kwargs.update(overrides)
    return PdeProblem(**kwargs)


def make_config(**overrides):
    kwargs = dict(depth=1, base=1, time_cdf_exponent=0.5, root_seed=0)
    kwargs.update(overrides)
    return MlpConfig(**kwargs)


def codes(problem, config):
    try:
        validate_problem(problem, config)
    except InvalidProblem as exc:
        return {v.code for v in exc.violations}
    return set()


def test_valid_pair_has_no_violations():
    assert validate_problem(make_problem(), make_config()) is None


def test_zero_dimension_flagged():
    bad = make_problem(dimension=0, lipschitz_solution=(0.5,),
                       lipschitz_space=())
    assert "ZeroDimension" in codes(bad, make_config())


def test_nonpositive_horizon_flagged():
    assert "NonpositiveHorizon" in codes(make_problem(horizon=0.0),
                                         make_config())
    assert "NonpositiveHorizon" in codes(make_problem(horizon=-1.0),
                                         make_config())


def test_exponent_boundaries_flagged():
    # The gradient weight has infinite variance at e = 1 and the law
    # degenerates at e = 0: both endpoints are excluded.
    for e in (0.0, 1.0, 1.5):
        assert "ExponentOutOfRange" in codes(
            make_problem(), make_config(time_cdf_exponent=e))
    assert "ExponentOutOfRange" not in codes(
        make_problem(), make_config(time_cdf_exponent=0.99))


def test_lipschitz_length_mismatches_flagged():
    bad = make_problem(lipschitz_solution=(0.5,))
    assert "BadLength" in codes(bad, make_config())
    bad = make_problem(lipschitz_space=(1.0, 2.0))
    assert "BadLength" in codes(bad, make_config())


def test_negative_lipschitz_flagged():
    bad = make_problem(lipschitz_solution=(-0.1, 0.0))
    assert "NegativeLipschitz" in codes(bad, make_config())


def test_config_violations_flagged():
    assert "NegativeDepth" in codes(make_problem(), make_config(depth=-1))
    assert "NonpositiveBase" in codes(make_problem(), make_config(base=0))


def test_validate_problem_raises_with_violation_list():
    bad = make_problem(horizon=0.0)
    with pytest.raises(InvalidProblem) as excinfo:
        validate_problem(bad, make_config(depth=-2))
    codes_seen = {v.code for v in excinfo.value.violations}
    assert {"NonpositiveHorizon", "NegativeDepth"} <= codes_seen
    assert "NonpositiveHorizon" in str(excinfo.value)


@pytest.mark.parametrize("problem_kw, config_kw, field, code", [
    ({"horizon": math.inf}, {}, "horizon", "NonfiniteHorizon"),
    ({}, {"depth": 1.5}, "depth", "NonIntegerDepth"),
    ({}, {"depth": True}, "depth", "NonIntegerDepth"),
    ({}, {"base": 2.5}, "base", "NonIntegerBase"),
    ({}, {"root_seed": 2**64}, "root_seed", "SeedNotInt64"),
    ({}, {"root_seed": -2**63 - 1}, "root_seed", "SeedNotInt64"),
    ({}, {"root_seed": 1.5}, "root_seed", "SeedNotInt64"),
])
def test_evaluate_names_the_invalid_field(problem_kw, config_kw, field, code):
    # Each of these used to pass validation and fail later: a non-finite
    # g at the horizon's path, a TypeError inside the engine, or an
    # OverflowError (or a silent truncation) when hashing the seed.
    with pytest.raises(InvalidProblem) as excinfo:
        evaluate(make_problem(**problem_kw), make_config(**config_kw), 0.0,
                 np.zeros(1))
    assert [(v.field, v.code) for v in excinfo.value.violations] == [
        (field, code)]


def test_numpy_integers_and_int64_seed_limits_are_valid():
    for seed in (-2**63, 2**63 - 1, np.uint64(7)):
        config = make_config(depth=np.int64(2), base=np.int32(2),
                             root_seed=seed)
        assert validate_problem(make_problem(), config) is None


def test_backward_problem_is_fixed_point_of_canonicalization():
    prob = make_problem()
    canonical, tmap = to_canonical(prob)
    assert canonical is prob
    assert (tmap.slope, tmap.offset) == (1.0, 0.0)
    again, tmap2 = to_canonical(canonical)
    assert again is canonical
    assert (tmap2.slope, tmap2.offset) == (1.0, 0.0)


def test_time_map_round_trip():
    tmap = TimeMap(slope=-2.0, offset=1.0)
    for t in (0.0, 0.125, 0.3, 0.5):
        assert tmap.inverse(tmap(t)) == pytest.approx(t, abs=1e-15)
    assert (tmap.slope, tmap.offset) != (1.0, 0.0)


def test_forward_problem_maps_to_doubled_horizon():
    fwd = PdeProblem(
        dimension=2,
        horizon=1.0,
        terminal_data=lambda x: np.sin(x).mean(axis=1),
        nonlinearity=lambda t, x, y, z: y + z.sum(axis=1),
        lipschitz_solution=(1.0, 1.0, 1.0),
        lipschitz_space=(1.0, 1.0),
        convention=Convention.FORWARD_FULL_LAPLACIAN,
    )
    assert fwd.convention is Convention.FORWARD_FULL_LAPLACIAN
    canonical, tmap = to_canonical(fwd)
    assert canonical.horizon == 2.0
    assert canonical.convention is Convention.BACKWARD_HALF_LAPLACIAN
    # Forward time t maps to canonical 2(T - t): start of the backward
    # interval is the forward horizon, the backward horizon is t = 0.
    assert tmap(1.0) == 0.0
    assert tmap(0.0) == 2.0
    assert tmap(0.25) == 1.5
    # Constants in (y, z) are halved along with f; space constants kept.
    assert canonical.lipschitz_solution == (0.5, 0.5, 0.5)
    assert canonical.lipschitz_space == (1.0, 1.0)
    # g passes through unchanged.
    x = np.array([[0.3, -1.2]])
    assert np.array_equal(canonical.terminal_data(x), fwd.terminal_data(x))


def test_canonical_nonlinearity_is_halved_and_time_mapped():
    def fwd_f(t, x, y, z):
        return (1.0 + t) * y

    fwd = PdeProblem(
        dimension=1, horizon=1.0, terminal_data=lambda x: x.sum(axis=1),
        nonlinearity=fwd_f, lipschitz_solution=(2.0, 0.0),
        lipschitz_space=(1.0,), convention=Convention.FORWARD_FULL_LAPLACIAN)
    canonical, _ = to_canonical(fwd)
    s = np.array([0.5])
    x = np.array([[0.0]])
    y = np.array([2.0])
    z = np.array([[0.0]])
    # canonical f(s, .) = f_forward(T - s/2, .) / 2 with T = 1.
    expected = (1.0 + (1.0 - 0.25)) * 2.0 / 2.0
    assert canonical.nonlinearity(s, x, y, z)[0] == pytest.approx(expected)


def test_audit_accepts_honest_constants():
    prob = make_problem()
    assert audit_lipschitz(prob) == []


def test_audit_flags_understated_constants():
    # f has slope 2 in y but only 0.5 is declared.
    liar = make_problem(
        nonlinearity=lambda t, x, y, z: 2.0 * y,
        lipschitz_solution=(0.5, 0.0),
        lipschitz_space=(1.0,),
    )
    breaches = audit_lipschitz(liar)
    assert breaches
    assert "exceed allowance" in breaches[0]


def test_audit_flags_understated_space_constant():
    liar = make_problem(
        terminal_data=lambda x: 5.0 * x.sum(axis=1),
        lipschitz_space=(1.0,),
    )
    assert audit_lipschitz(liar)


def test_field_estimate_vector_layout():
    from mlpicard import FieldEstimate

    est = FieldEstimate(value=1.5, gradient=np.array([2.0, -3.0]), draws=7)
    assert np.array_equal(est.as_vector(), [1.5, 2.0, -3.0])
    assert est.draws == 7
