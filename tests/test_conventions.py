"""Property test: the forward and canonical time conventions agree.

``forward-heat`` is ``grad-dependent-sine`` rewritten in the forward
convention on half the horizon (see :func:`mlpicard.cases.builtin_case`).
Through the time map its exact field must equal the gradient case's bit for
bit, and the estimator run on its canonical form must reproduce the gradient
case's estimate up to rounding in the nonlinearity's time argument.
Acceptance criterion 9 checks one example of the same statement.
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mlpicard import (
    MlpConfig,
    QueryAtTerminalTime,
    builtin_case,
    evaluate,
    to_canonical,
)


@lru_cache(maxsize=None)
def _cases(dimension):
    backward = builtin_case("grad-dependent-sine", dimension=dimension)
    forward = builtin_case("forward-heat", dimension=dimension)
    canonical, tmap = to_canonical(forward.problem)
    return backward, forward, canonical, tmap


@settings(max_examples=60, deadline=None)
@given(d=st.integers(1, 3),
       t_fwd=st.floats(0.0, 0.5, exclude_min=True, exclude_max=True),
       coords=st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3),
       depth=st.integers(1, 2),
       seed=st.integers(-2**63, 2**63 - 1))
def test_forward_and_canonical_conventions_agree(d, t_fwd, coords, depth,
                                                 seed):
    backward, forward, canonical, tmap = _cases(d)
    x = np.array(coords[:d])
    s = tmap(t_fwd)

    value_b, grad_b = backward.exact(s, x)
    value_f, grad_f = forward.exact(t_fwd, x)
    assert value_b == value_f
    assert np.array_equal(grad_b, grad_f)

    config = MlpConfig(depth=depth, base=depth, root_seed=seed)
    if s == backward.problem.horizon:
        # t_fwd <= 2**-55 maps onto the horizon, where both reject.
        for problem in (backward.problem, canonical):
            with pytest.raises(QueryAtTerminalTime):
                evaluate(problem, config, s, x)
        return
    est_b = evaluate(backward.problem, config, s, x)
    est_f = evaluate(canonical, config, s, x)
    assert est_b.draws == est_f.draws
    np.testing.assert_allclose(est_f.as_vector(), est_b.as_vector(),
                               rtol=1e-9, atol=0.0)
