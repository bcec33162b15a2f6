"""Deterministic random streams keyed by multi-index paths.

Every random quantity consumed by the solver is addressed by a *path*: a
tuple of integers that encodes its position in the recursive sampling tree
(see :mod:`mlpicard.engine`).  A stream is a pure function of
``(root_seed, path)`` — no global state, no sequential dependence between
streams — so any stream can be rebuilt from its key alone, in any order,
and reproducibly on any platform: every step below is fixed-width 64-bit
integer arithmetic, which wraps identically everywhere.

Streams are counter-based (domain ``mlpicard.stream.v2``).  A path
``p = (p_0, .., p_{L-1})`` and the seed collapse into one 64-bit key

    key = mix64(sum_j (p_j XOR s_j) * a_j + root_seed * a_seed  mod 2**64),

and word i = 1, 2, .. of the stream is ``mix64(key + i * gamma)`` with
``gamma = 0x9E3779B97F4A7C15``: a SplitMix64 stream seeded at ``key``
(Steele, Lea & Flood, OOPSLA'14), ``mix64`` being its bijective
finalizer.  The salts ``s_j`` and the odd multipliers ``a_j`` and
``a_seed`` come from one SHAKE-256 digest per path *length*, not one per
stream, so a whole block of streams costs a fixed number of numpy passes
(:func:`block_uniforms`; :func:`stream_uniforms` is its one-row case).
The key sum is a mod-2**64 sum, so it may be regrouped without changing
a bit: a block of K nodes with m streams each, at paths ``node_k + (a,
b)``, sums each node's terms once and adds the two suffix terms per
stream, and never forms its ``(K m, L + 2)`` array of full paths.  Each
pass over a block runs along an axis R = K m elements long: the two
suffix terms are summed by column, the node sums are repeated m times,
and the words are drawn lane-major, as a ``(width, R)`` array holding
word i of every stream in row i.  Because every ``a_j`` is odd, two paths
of one length that differ in a single position have different keys.  The
generator is statistical, not cryptographic: it is built to pass the
sampler's distribution tests, not to resist an adversary.

Each 64-bit word is mapped to a 53-bit-precision double in the open
interval (0, 1), the top word being clamped to 1 - 2**-53 so that its
normal quantile stays finite.  A block's lane-major words become its
C-order ``(R, width)`` doubles in one transposing cast of ``word >> 11``
viewed as int64: below 2**53 that is the same integer, and it casts
exactly.  Gaussian variates are produced from one uniform each through
the inverse normal CDF, so the number of scalar draws consumed is always
exactly the number of variates requested.

The time-fraction law used throughout has CDF P(r <= b) = b**e on (0, 1)
for an exponent e in (0, 1); small e concentrates sampled times near the
start of the interval.  :func:`mlpicard.harness.check_sampler_laws` tests
this law and the second moment of the one-step kernel on these streams.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .core import is_int64

__all__ = ["DrawLedger", "stream_uniforms", "block_uniforms"]

# 0-d arrays, not numpy scalars: numpy dispatches them faster, which counts
# on small blocks (mix64 on 2 to 42 words takes 20-35% less time).
# (word >> 11) has 53 uniform bits; +0.5 then *2**-53 lands in (0, 1), except
# that the top value 2**53 - 1 + 0.5 rounds to 2**53 and so to 1.0, where
# ndtri is inf: it is clamped to _BELOW_ONE = 1 - 2**-53, the largest double
# below 1, which no other word reaches.
_HALF, _U53 = np.array(0.5), np.array(2.0 ** -53)
_BELOW_ONE = np.array(1.0 - 2.0 ** -53)
_DOMAIN = b"mlpicard.stream.v2"
_MASK = (1 << 64) - 1
_GAMMA, _MIX1, _MIX2, _S11, _S27, _S30, _S31 = (
    np.array(c, dtype=np.uint64) for c in (
        0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB,
        11, 27, 30, 31))


@dataclass
class DrawLedger:
    """Counter of scalar uniform draws; :func:`~mlpicard.engine.evaluate`
    threads one through its whole recursion."""

    scalar_draws: int = 0

    def add(self, n: int) -> None:
        self.scalar_draws += n


@lru_cache(maxsize=32)
def _length_constants(length: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Salts ``s_j``, odd multipliers ``a_j`` (read-only arrays) and the odd
    seed multiplier ``a_seed`` for paths of ``length`` entries."""
    words = np.frombuffer(
        hashlib.shake_256(_DOMAIN + struct.pack("<Q", length)).digest(
            8 * (2 * length + 1)), dtype="<u8").astype(np.uint64)
    words[length:] |= np.uint64(1)
    words.flags.writeable = False
    return words[:length], words[length:-1], int(words[-1])


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64's finalizer, a bijection of uint64, applied in place."""
    z ^= z >> _S30
    z *= _MIX1
    z ^= z >> _S27
    z *= _MIX2
    z ^= z >> _S31
    return z


def _node_keys(root_seed: int, paths: np.ndarray, salts: np.ndarray,
               mults: np.ndarray, seed_mult: int) -> np.ndarray:
    """Unmixed key sums of the rows of the ``(K, L)`` int64 ``paths`` over
    their L entries: ``root_seed * seed_mult`` plus ``(p_j XOR s_j) * a_j``
    mod 2**64, with s_j and a_j the first L ``salts`` and ``mults``.  A
    ``root_seed`` that is not an integer within int64 raises ``ValueError``:
    conversion would truncate 1.5 to 1, so two seeds would share streams."""
    # A plain int, which the engine passes, costs a type and range test.
    if not (type(root_seed) is int and -(1 << 63) <= root_seed < (1 << 63)
            or is_int64(root_seed)):
        raise ValueError(f"root_seed={root_seed!r} is not an int64 integer")
    length = paths.shape[1]
    # Python-int arithmetic: a numpy-scalar overflow would warn.  reduce
    # takes the Python int as uint64.
    seed_term = (int(root_seed) * seed_mult) & _MASK
    # Not in place: numpy runs in-place ufuncs on one-element arrays, such
    # as the node of a root (K = L = 1), about twice as slowly.
    terms = (paths.view(np.uint64) ^ salts[:length]) * mults[:length]
    return np.add.reduce(terms, axis=1, initial=seed_term)


@lru_cache(maxsize=32)
def _steps(width: int) -> np.ndarray:
    """``i * gamma`` mod 2**64 for i = 1..``width``, read-only."""
    steps = np.arange(1, width + 1, dtype=np.uint64)
    steps *= _GAMMA
    steps.flags.writeable = False
    return steps


def _words(keys: np.ndarray, width: int) -> np.ndarray:
    """First ``width`` 64-bit words of the stream of each unmixed key sum in
    ``keys``, which this call overwrites: row j is
    ``mix64(mix64(keys[j]) + i * gamma)``, i = 1..``width``.  The words are
    drawn lane-major, as a ``(width, R)`` array whose passes run R elements
    long, and returned as its transpose, an ``(R, width)`` view.  A
    ``width`` that is not an integer >= 0 raises ``ValueError``."""
    if not (type(width) is int or is_int64(width)) or width < 0:
        raise ValueError(f"draw count must be an integer >= 0, got {width!r}")
    return _mix64(_steps(width)[:, None] + _mix64(keys)).T


def _to_uniform(words: np.ndarray) -> np.ndarray:
    """``min(((word >> 11) + 0.5) * 2**-53, 1 - 2**-53)`` as a C-order
    array, whatever the layout of ``words``, which this call overwrites.
    ``word >> 11`` is below 2**53, so it reads as the same int64 and casts
    to the same double as the uint64 would; the int64 view costs no pass,
    and numpy casts int64 to double faster than uint64."""
    words >>= _S11
    u = words.view(np.int64).astype(np.float64, order="C")
    u += _HALF
    u *= _U53
    np.minimum(u, _BELOW_ONE, out=u)
    return u


def _int64_array(value, name: str) -> np.ndarray:
    """``value`` as an int64 array: an int64 array as it is, anything else
    only if every entry is an integer within int64 (a ``bool`` is not one),
    else ``ValueError`` naming the argument ``name``.  Conversion alone
    would truncate 1.5 to 1, so that two paths would share one stream."""
    if isinstance(value, np.ndarray) and value.dtype == np.int64:
        return value
    entries = np.asarray(value, dtype=object)
    for entry in entries.flat:
        if not is_int64(entry):
            raise ValueError(
                f"{name}={value!r}: entry {entry!r} is not an int64 integer")
    return entries.astype(np.int64)


def path_array(path: tuple[int, ...], name: str) -> np.ndarray:
    """``path`` as a ``(1, L)`` int64 array of one stream path; an entry
    that is not an integer within int64 raises ``ValueError`` naming the
    argument ``name``."""
    return _int64_array(tuple(path), name).reshape(1, -1)


def stream_uniforms(
    root_seed: int,
    path: tuple[int, ...],
    n: int,
) -> np.ndarray:
    """First ``n`` uniforms in (0, 1), open at both ends, of the stream at
    ``path``; a pure function of ``(root_seed, path)``.

    The one-row case of :func:`block_uniforms`: word i is
    ``mix64(key + i * gamma)`` for the path's key (see the module
    docstring).  A ``root_seed`` that is not an integer within int64, or an
    ``n`` that is not an integer >= 0, raises ``ValueError``.
    """
    paths = path_array(path, "path")
    keys = _node_keys(root_seed, paths, *_length_constants(paths.shape[1]))
    return _to_uniform(_words(keys, n))[0]


def block_uniforms(
    root_seed: int,
    base_path: tuple[int, ...] | np.ndarray,
    suffixes: Sequence[tuple[int, int]] | np.ndarray,
    width: int,
    ledger: DrawLedger | None = None,
) -> np.ndarray:
    """First ``width`` uniforms of each stream ``base + suffix``.

    ``suffixes`` holds R pairs ``(a, b)``, one per row.  ``base_path`` is
    one path or a ``(K, L)`` array of K node paths, K dividing R: with
    m = R / K, row ``j`` equals ``stream_uniforms(root_seed, base[j // m]
    + suffixes[j], width)``.  One path is the case K = 1; K = R gives each
    row its own base path.  Any other K raises ``ValueError`` naming
    ``base_path``.

    No ``(R, L + 2)`` path array is built.  The key sum of a path splits
    into a node term, over its first L entries, and a suffix term, over
    its last two (see the module docstring): each node term is summed once,
    for its m rows, and row j's key is ``mix64(node[j // m] + tail[j])``,
    the same mod-2**64 sum regrouped.  The keys take a fixed number of
    numpy passes R elements long, whatever K, R and L are.  The words are
    drawn lane-major, a ``(width, R)`` array, in a fixed number of passes
    over it whatever ``width`` is, and one transposing cast turns them into
    the C-order ``(R, width)`` float64 result.

    A ``root_seed`` or an entry of ``base_path`` or ``suffixes`` that is
    not an integer within int64, or a ``width`` below 0, raises
    ``ValueError`` and draws nothing, as in :func:`stream_uniforms`; int64
    arrays, which the engine passes, are taken as they are.

    The engine makes one call per block of a whole node group (see
    :mod:`mlpicard.engine`), with the group's node paths: row ``k*m + i -
    1`` is sample i of node k, at path ``paths[k] + (a, +-i)``.  For a chunk
    of K depth-n roots such a call has at most K M**n (1 + 1/M)**((n-1)//2)
    rows, and the chunk costs at most ``CHUNK_MAX_DRAWS`` draws unless K =
    1, so its ``(R, width)`` result stays O(K M**n (1 + 1/M)**((n-1)//2)
    (1+d)) in size.
    """
    tail = _int64_array(suffixes, "suffixes").reshape(-1, 2)
    base = _int64_array(base_path, "base_path")
    if base.ndim == 1:
        base = base.reshape(1, -1)
    rows, nodes = len(tail), len(base)
    m = rows // nodes if nodes else 0
    if nodes * m != rows:
        raise ValueError(
            f"base_path has {nodes} paths, which does not divide the "
            f"{rows} suffixes")
    length = base.shape[1]
    salts, mults, seed_mult = _length_constants(length + 2)
    # The suffix terms by column and the node sums repeated m times: passes
    # R elements long.  0-d constants, and no in-place ops, which numpy runs
    # slowly on the one-element arrays of one-row blocks.
    tail = tail.view(np.uint64)
    keys = ((tail[:, 0] ^ salts[length, ...]) * mults[length, ...]
            + (tail[:, 1] ^ salts[length + 1, ...]) * mults[length + 1, ...]
            + _node_keys(root_seed, base, salts, mults, seed_mult).repeat(m))
    u = _to_uniform(_words(keys, width))
    if ledger is not None:
        ledger.add(rows * width)
    return u
