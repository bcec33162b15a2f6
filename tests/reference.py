"""A node-by-node multilevel Picard estimate, written from the scheme in
:mod:`mlpicard.engine`'s docstring with plain numpy and no engine helper.

It walks the recursion tree one node at a time and draws every sample from
its own stream with :func:`mlpicard.stream_uniforms`, so it states what the
group engine computes in the plainest terms the bits allow: means are
``sum / m`` and each gradient sum is the broadcast ``(w[:, None] *
z).sum(axis=0)``.  It is slow (one stream call per sample) and meant for
small trees in tests.
"""

import numpy as np
from scipy.special import ndtri

from mlpicard import stream_uniforms


def reference(problem, config, depth, path, t, x):
    """The ``(1 + d,)`` depth-``depth`` estimate of (u, grad u) at time
    ``t`` and point ``x`` of the node at stream path ``path`` (a tuple);
    zero for depth <= 0."""
    d = problem.dimension
    out = np.zeros(1 + d)
    if depth <= 0:
        return out
    base, e, seed = config.base, config.time_cdf_exponent, config.root_seed
    g, f = problem.terminal_data, problem.nonlinearity
    tau = problem.horizon - t
    sqrt_tau = np.sqrt(tau)

    # Terminal block: M**n samples x + sqrt(T - t) Z from streams path +
    # (0, -i), g differenced against g(x), scored by Z / sqrt(T - t).
    m = base ** depth
    z = ndtri(np.array([stream_uniforms(seed, path + (0, -i), d)
                        for i in range(1, m + 1)]))
    gv = g(np.concatenate([x[None, :], sqrt_tau * z + x]))
    dg = gv[1:] - gv[0]
    out[0] = gv[0] + dg.sum() / m
    if sqrt_tau > 0:
        out[1:] = (dg[:, None] * z).sum(axis=0) / m / sqrt_tau

    # Level l: M**(n-l) samples (r, Z) from streams path + (l, i), the time
    # fraction r with CDF b**e, f at the zero field (l = 0) or the
    # difference of f at the depth-l estimate at path + (l, i) and the
    # depth-(l-1) one at path + (-l, i).
    for level in range(depth):
        m = base ** (depth - level)
        u = np.array([stream_uniforms(seed, path + (level, i), 1 + d)
                      for i in range(1, m + 1)])
        r = u[:, 0] ** (1.0 / e)
        z = ndtri(u[:, 1:])
        s = t + tau * r
        root = np.sqrt(tau * r)
        xi = root[:, None] * z + x
        if level == 0:
            fv = f(s, xi, np.zeros(m), np.zeros((m, d)))
        else:
            hi = np.array([reference(problem, config, level,
                                     path + (level, i + 1), s[i], xi[i])
                           for i in range(m)])
            lo = np.array([reference(problem, config, level - 1,
                                     path + (-level, i + 1), s[i], xi[i])
                           for i in range(m)])
            fv = (f(s, xi, hi[:, 0], hi[:, 1:])
                  - f(s, xi, lo[:, 0], lo[:, 1:]))
        w = tau * r ** (1.0 - e) / e * fv
        out[0] += w.sum() / m
        # w / sqrt((T - t) r) -> 0 where r underflowed to 0.
        ratio = np.divide(w, root, out=np.zeros(m), where=root > 0)
        out[1:] += (ratio[:, None] * z).sum(axis=0) / m
    return out
