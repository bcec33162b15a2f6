"""The builtin manufactured-solution cases: pinned data, argument checks,
regularity data and the PDE residual oracle over a fixed parameter grid."""

import dataclasses
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from mlpicard import audit_lipschitz, builtin_case
from mlpicard.cases import BUILTIN_CASES
from residual import RESIDUAL_GATE, registration_residual

# (horizon, lam, c) of the non-default variant, and the parameters beside
# the dimension and horizon that each case reads.
VARIANT = (0.7, -0.3, 1.3)
READS = {"linear-heat-quadratic": (), "grad-free-exponential": ("lam",),
         "grad-dependent-sine": ("lam", "c"), "forward-heat": ("lam", "c")}


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


def _answer(case) -> dict:
    """Norms and digests of g, f and exact on a fixed grid."""
    prob = case.problem
    d = prob.dimension
    rng = np.random.default_rng(31)
    t = rng.uniform(0.0, prob.horizon, size=16)
    x = rng.uniform(-2.0, 2.0, size=(16, d))
    y = rng.uniform(-1.0, 1.0, size=16)
    z = rng.uniform(-1.0, 1.0, size=(16, d))
    exact = [np.concatenate(([value], grad)) for value, grad in
             (case.exact(float(tk), xk) for tk, xk in zip(t, x))]
    answer = {
        "horizon": prob.horizon,
        "norm_overrides": dataclasses.asdict(case.norm_overrides),
        "u_moment_override": case.u_moment_override,
        "g": _digest(prob.terminal_data(x)),
        "f": _digest(prob.nonlinearity(t, x, y, z)),
        "exact": _digest(*exact),
    }
    # JSON floats round-trip exactly; tuples come back as lists.
    return json.loads(json.dumps(answer))


def _known_cases():
    # A case gets only the variant values it reads; the keys, recorded when
    # every case took all three, still name all three.
    horizon, lam, c = VARIANT
    for name in BUILTIN_CASES:
        taken = {arg: value for arg, value in (("lam", lam), ("c", c))
                 if arg in READS[name]}
        for d in (1, 2, 5):
            yield f"{name} d={d} default", builtin_case(name, dimension=d)
            yield (f"{name} d={d} horizon={horizon} lam={lam} c={c}",
                   builtin_case(name, dimension=d, horizon=horizon, **taken))


def test_builtin_case_known_answers():
    # Values recorded from the hand-written factories that the shared sine
    # builder replaced; the rewrite must not move a bit of any of them.
    known = json.loads(
        (Path(__file__).parent / "cases_known_answers.json").read_text())
    got = {key: _answer(case) for key, case in _known_cases()}
    assert sorted(got) == sorted(known)
    for key in known:
        assert got[key] == known[key], key


def _grid():
    """(label, case) over the parameter grid the residual oracle covers:
    defaults, the pinned variant, horizon 2 with c = 0.05, and lam = 5,
    each case taking only the values it reads, at d = 1, 2, 3, 5, 10; and
    the defaults of the two gradient cases at d = 100."""
    settings = {"defaults": {}, "variant": dict(zip(("horizon", "lam", "c"),
                                                    VARIANT)),
                "horizon=2 c=0.05": dict(horizon=2.0, c=0.05),
                "lam=5": dict(lam=5.0)}
    for name in BUILTIN_CASES:
        for label, kwargs in settings.items():
            taken = {arg: value for arg, value in kwargs.items()
                     if arg == "horizon" or arg in READS[name]}
            for d in (1, 2, 3, 5, 10):
                yield f"{name} d={d} {label}", builtin_case(name, d, **taken)
    for name in ("grad-dependent-sine", "forward-heat"):
        yield f"{name} d=100 defaults", builtin_case(name, 100)


def test_builtin_cases_have_small_pde_residuals():
    worst = {label: registration_residual(case) for label, case in _grid()}
    assert len(worst) == 82
    assert {label: r for label, r in worst.items()
            if not r < RESIDUAL_GATE} == {}


def test_nan_residual_fails_the_gate():
    # max(x, nan) is x, so a running max would score this case's 25-point
    # grid as clean wherever only some points are NaN.
    case = builtin_case("grad-dependent-sine", dimension=2)

    def nan_late(t, x, _exact=case.exact):
        value, grad = _exact(t, x)
        return (value if t <= 0.5 else float("nan")), grad

    corrupted = dataclasses.replace(case, exact=nan_late)
    assert not registration_residual(corrupted) < RESIDUAL_GATE


def _raising(*args):
    raise AssertionError("a case's callback ran while it was built")


def test_a_case_whose_callbacks_raise_is_handed_out(monkeypatch):
    # builtin_case hands out what the factory builds without evaluating it.
    import mlpicard.cases as cases

    factory, horizon = cases._FACTORIES["grad-dependent-sine"]

    def broken(d, T, lam=0.25, c=0.5):
        case = factory(d, T, lam, c)
        problem = dataclasses.replace(case.problem, terminal_data=_raising,
                                      nonlinearity=_raising)
        return dataclasses.replace(case, problem=problem, exact=_raising)

    monkeypatch.setitem(cases._FACTORIES, "grad-dependent-sine",
                        (broken, horizon))
    case = builtin_case("grad-dependent-sine", dimension=3, lam=0.5)
    assert case.exact is _raising
    assert case.problem.terminal_data is case.problem.nonlinearity is _raising


@pytest.mark.parametrize("name", BUILTIN_CASES)
def test_building_a_case_calls_none_of_its_callbacks(name):
    # Profile the real factories at d = 1000 and record every call into
    # one of the callbacks they define: g, f, f4 (forward-heat's f) and
    # exact.
    import mlpicard.cases as cases

    called = []

    def profile(frame, event, arg):
        code = frame.f_code
        if (event == "call" and code.co_filename == cases.__file__
                and code.co_name in {"g", "f", "f4", "exact"}):
            called.append(code.co_name)

    sys.setprofile(profile)
    try:
        case = builtin_case(name, dimension=1000)
    finally:
        sys.setprofile(None)
    assert case.problem.dimension == 1000
    assert called == []


def test_bad_dimension_or_horizon_named():
    # Each used to fail elsewhere, if at all: a ZeroDivisionError, numpy's
    # "negative dimensions", an OverflowError, or a case of dimension 0.
    for name in BUILTIN_CASES:
        for dimension in (0, -1, 1.0, 2.5, True, "2", None):
            with pytest.raises(ValueError, match=r"^dimension must be an "
                                                 r"integer >= 1, got "):
                builtin_case(name, dimension=dimension)
        for horizon in (0.0, -1.0, math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match=r"^horizon must be finite "
                                                 r"and > 0, got "):
                builtin_case(name, dimension=2, horizon=horizon)


def test_numpy_integer_dimension_accepted():
    case = builtin_case("linear-heat-quadratic", dimension=np.int64(3))
    assert case.problem.dimension == 3


def test_bad_lam_or_c_named():
    # lam = 800 raised OverflowError from math.exp; lam = nan or c = inf
    # would give a case whose fields are NaN.
    for name in BUILTIN_CASES:
        for arg in READS[name]:
            for value in (math.inf, -math.inf, math.nan):
                with pytest.raises(ValueError, match=rf"^{arg} must be "
                                                     r"finite, got "):
                    builtin_case(name, **{arg: value})
    for name in ("grad-free-exponential", "grad-dependent-sine",
                 "forward-heat"):
        with pytest.raises(ValueError, match=r"^lam=800 overflows e\^\(lam "
                                             r"T\) on the canonical horizon "
                                             r"T=1\.0$"):
            builtin_case(name, lam=800)
    # forward-heat's canonical horizon is twice its own.
    with pytest.raises(ValueError, match=r"^lam=1\.0 overflows .* T=720\.0$"):
        builtin_case("forward-heat", horizon=360.0, lam=1.0)
    # The quadratic case has no e^(lam T) and takes no lam.
    with pytest.raises(ValueError, match=r"^case linear-heat-quadratic does "
                                         r"not read lam$"):
        builtin_case("linear-heat-quadratic", lam=800)


def test_every_lam_and_c_changes_the_case_or_is_refused():
    # A value a case accepts moves its exact solution or its nonlinearity
    # at a fixed point (c moves only f, since its term vanishes at the
    # solution); any other raises naming the case and the parameter.
    t, x = 0.3, np.array([0.4, -0.7])
    y, z = np.array([0.2]), np.array([[0.5, 0.1]])

    def fields(case):
        value, grad = case.exact(t, x)
        f = case.problem.nonlinearity(np.array([t]), x[None, :], y, z)
        return np.concatenate(([value], grad, f))

    refused = []
    for name in BUILTIN_CASES:
        default = fields(builtin_case(name, dimension=2))
        for arg in ("lam", "c"):
            try:
                case = builtin_case(name, dimension=2, **{arg: 0.9})
            except ValueError as exc:
                assert str(exc) == f"case {name} does not read {arg}"
                refused.append((name, arg))
                continue
            assert not np.array_equal(fields(case), default), (name, arg)
    assert refused == [("linear-heat-quadratic", "lam"),
                       ("linear-heat-quadratic", "c"),
                       ("grad-free-exponential", "c")]


def test_large_lam_and_long_horizon_cases_build():
    # Second-order differences, whose truncation error grows like
    # lam^3 e^(lam T), refused both correct cases: residuals 1.2e-5 and
    # 2.7e-6 against the 1e-6 gate.
    for case in (builtin_case("grad-dependent-sine", lam=5),
                 builtin_case("forward-heat", 1, horizon=16)):
        assert registration_residual(case) < RESIDUAL_GATE, case.name


@pytest.mark.parametrize("name, kwargs", [
    ("grad-dependent-sine", {"lam": 0.25}),
    ("grad-dependent-sine", {"lam": 5}),
    ("forward-heat", {"horizon": 16}),
])
def test_wrong_gradient_still_fails_the_gate(name, kwargs):
    # The sharper differences still see a gradient whose first coordinate
    # has the wrong sign.
    case = builtin_case(name, dimension=2, **kwargs)

    def flipped(t, x, _exact=case.exact):
        value, grad = _exact(t, x)
        return value, grad * np.r_[-1.0, np.ones(len(grad) - 1)]

    corrupted = dataclasses.replace(case, exact=flipped)
    assert not registration_residual(corrupted) < RESIDUAL_GATE


@pytest.mark.parametrize("name", BUILTIN_CASES[1:])  # the sine cases
def test_regularity_data_holds_for_negative_lam_and_c(name):
    # f's constants are |lam + 1/2| and |c|, and the amplitude
    # e^(lam (T - t)) peaks at t = T, not t = 0, when lam < 0.
    for lam in (-1.0, -0.3, 0.25, 2.0):
        for c in (-0.5, 1.3) if "c" in READS[name] else (None,):
            for d in (1, 3):
                case = builtin_case(name, d, horizon=0.7, lam=lam, c=c)
                assert audit_lipschitz(case.problem,
                                       case.norm_overrides) == [], \
                    (lam, c, d)
                canonical_horizon = 1.4 if name == "forward-heat" else 0.7
                assert case.u_moment_override == \
                    math.exp(max(lam, 0.0) * canonical_horizon)
