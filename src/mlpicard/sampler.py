"""Deterministic random streams keyed by multi-index paths.

Every random quantity consumed by the solver is addressed by a *path*: a
tuple of integers that encodes its position in the recursive sampling tree
(see :mod:`mlpicard.engine`).  A stream is a pure function of
``(root_seed, path)`` — no global state, no sequential dependence between
streams — so any stream can be rebuilt from its key alone, in any order,
and reproducibly on any platform.

Streams are realized by counter-based hashing: the key material
``(root_seed, len(path), *path)`` is fed to the SHAKE-256 extendable-output
function; the first ``n`` output words give the stream's first ``n``
uniforms (:func:`stream_uniforms`, or :func:`block_uniforms` for many
sibling streams at once).  Each 64-bit word is mapped to a 53-bit-precision
double in the open interval (0, 1); Gaussian variates are produced from one
uniform each through the inverse normal CDF, so the number of scalar draws
consumed is always exactly the number of variates requested.

The time-fraction law used throughout has CDF P(r <= b) = b**e on (0, 1)
for an exponent e in (0, 1); small e concentrates sampled times near the
start of the interval.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

__all__ = [
    "DrawLedger",
    "stream_uniforms",
    "block_uniforms",
    "SecondMomentDiagnostic",
    "single_step_second_moment",
]

# (word >> 11) has 53 uniform bits; +0.5 then *2**-53 lands strictly inside (0,1).
_U53 = 2.0 ** -53
_DOMAIN = b"mlpicard.stream.v1"


@dataclass
class DrawLedger:
    """Counter of scalar uniform draws; :func:`~mlpicard.engine.evaluate`
    threads one through its whole recursion."""

    scalar_draws: int = 0

    def add(self, n: int) -> None:
        self.scalar_draws += n


def _key_bytes(root_seed: int, path: tuple[int, ...]) -> bytes:
    # Length is part of the key so that e.g. (1,) and (1, 0) cannot collide
    # through concatenation ambiguity.
    return _DOMAIN + struct.pack(
        "<qQ%dq" % len(path), root_seed, len(path), *path
    )


def _raw_words(key_bytes: bytes, n: int) -> np.ndarray:
    """First ``n`` 64-bit output words of the stream."""
    return np.frombuffer(hashlib.shake_256(key_bytes).digest(8 * n), dtype="<u8")


def _to_uniform(words: np.ndarray) -> np.ndarray:
    return ((words >> np.uint64(11)).astype(np.float64) + 0.5) * _U53


def stream_uniforms(
    root_seed: int,
    path: tuple[int, ...],
    n: int,
) -> np.ndarray:
    """First ``n`` uniforms in (0, 1), open at both ends, of the stream at
    ``path``; a pure function of ``(root_seed, path)``.

    The single-stream reference that :func:`block_uniforms` batches.
    """
    if n < 0:
        raise ValueError("draw count must be nonnegative")
    return _to_uniform(_raw_words(_key_bytes(root_seed, tuple(path)), n))


def block_uniforms(
    root_seed: int,
    base_path: tuple[int, ...],
    suffixes: list[tuple[int, int]],
    width: int,
    ledger: DrawLedger | None = None,
) -> np.ndarray:
    """First ``width`` uniforms of each stream ``base_path + suffix``.

    Row ``j`` equals ``stream_uniforms(root_seed, base_path + suffixes[j],
    width)`` — the batched fast path the engine uses for its per-level
    sample blocks.
    """
    m = len(suffixes)
    prefix = _DOMAIN + struct.pack(
        "<qQ%dq" % len(base_path), root_seed, len(base_path) + 2, *base_path
    )
    words = np.empty((m, width), dtype=np.uint64)
    nbytes = 8 * width
    pack = struct.Struct("<qq").pack
    shake = hashlib.shake_256
    for j, (a, b) in enumerate(suffixes):
        words[j] = np.frombuffer(shake(prefix + pack(a, b)).digest(nbytes), dtype="<u8")
    if ledger is not None:
        ledger.add(m * width)
    return _to_uniform(words)


@dataclass(frozen=True)
class SecondMomentDiagnostic:
    """Result of the single-step variance diagnostic."""

    gradient_moments: np.ndarray  # empirical E[U_i^2] per gradient coordinate
    value_moment: float           # empirical E[U_0^2]
    expected_gradient: float      # T/(e(1-e)), per-coordinate closed form
    expected_value: float         # T^2/(e(2-e))
    heavy_tail: bool              # e outside [0.2, 0.8]: estimates unreliable
    samples: int


def single_step_second_moment(
    horizon: float,
    e: float,
    dimension: int,
    n_samples: int = 100_000,
    root_seed: int = 0,
) -> SecondMomentDiagnostic:
    """Empirical second moments of the one-step kernel U = w(r)·(1, Z/√(T r)).

    Here w(r) = T·r^(1-e)/e is the importance weight at t = 0 and r follows
    the CDF b**e.  Per gradient coordinate the closed-form second moment is
    T/(e(1-e)) — finite for every e in (0, 1) but exploding as e → 1, which
    is why exponents are restricted away from 1.  The fourth moment needed
    for a reliable Monte Carlo estimate is finite only for e < 2/3, so the
    result carries a heavy-tail flag outside the comfortable band
    e ∈ [0.2, 0.8].
    """
    if horizon <= 0.0:
        raise ValueError("horizon must be positive")
    if not 0.0 < e < 1.0:
        raise ValueError(f"time CDF exponent must lie in (0, 1), got {e}")
    if dimension < 1:
        raise ValueError("dimension must be at least 1")
    if n_samples < 1:
        raise ValueError("need at least one sample")
    u = stream_uniforms(root_seed, (0,), n_samples * (1 + dimension))
    u = u.reshape(n_samples, 1 + dimension)
    r = u[:, 0] ** (1.0 / e)
    z = ndtri(u[:, 1:])
    w = horizon * r ** (1.0 - e) / e
    value = w
    grad = (w / np.sqrt(horizon * r))[:, None] * z
    return SecondMomentDiagnostic(
        gradient_moments=np.mean(grad**2, axis=0),
        value_moment=float(np.mean(value**2)),
        expected_gradient=horizon / (e * (1.0 - e)),
        expected_value=horizon**2 / (e * (2.0 - e)),
        heavy_tail=not (0.2 <= e <= 0.8),
        samples=n_samples,
    )
