"""The PDE residual oracle of the builtin cases' claimed solutions.

Building a case evaluates none of its callbacks; the suite checks each
claimed exact solution against its PDE here, on a fixed parameter grid.
"""

import numpy as np

from mlpicard.core import Convention

RESIDUAL_GATE = 1e-6


def registration_residual(case) -> float:
    """Max finite-difference PDE residual of the claimed exact solution.

    Backward cases check |d_t u + (1/2) Lap u + f(t, x, u, grad u)|, forward
    cases |d_t w - Lap w - f(t, x, w, grad w)|, on a fixed random grid of
    25 points (t, x).  The time derivative is a fourth-order central
    difference, step 1e-3, of the exact value; the Laplacian is the same
    difference of the exact (analytic) gradient, so the check is sensitive
    to errors in the gradient as well.  On a sine case the truncation
    error grows like lam^5 e^(lam T).  A NaN residual at any point makes
    the result NaN.
    """
    h = 1e-3
    rng = np.random.default_rng(12345)
    prob = case.problem
    d = prob.dimension
    T = prob.horizon
    ts = rng.uniform(2.0 * h, T - 2.0 * h, size=25)
    xs = rng.uniform(-2.0, 2.0, size=(25, d))
    residuals = []
    eye = np.eye(d)
    forward = prob.convention is Convention.FORWARD_FULL_LAPLACIAN

    def derivative(at):  # of at(s) at s = 0, error O(h^4)
        return (8.0 * (at(h) - at(-h)) - at(2 * h) + at(-2 * h)) / (12 * h)

    for t, x in zip(ts, xs):
        value, grad = case.exact(t, x)
        dt = derivative(lambda s: case.exact(t + s, x)[0])
        lap = sum(derivative(lambda s: case.exact(t, x + s * eye[i])[1][i])
                  for i in range(d))
        fv = float(prob.nonlinearity(
            np.array([t]), x[None, :], np.array([value]), grad[None, :])[0])
        residuals.append(dt - lap - fv if forward else dt + 0.5 * lap + fv)
    # Unlike the builtin max, np.max propagates a NaN.
    return float(np.max(np.abs(residuals)))
