"""Deterministic, splittable random number generation and base samplers.

Everything stochastic in the package draws through an :class:`RngState`,
a value keyed by ``(seed, stream)``.  Equal keys reproduce identical
sequences regardless of platform, process or thread schedule; child
streams derived with :meth:`RngState.split` are statistically independent
of the parent and of each other.  The backing bit generator is Philox,
a counter-based generator whose 128-bit key is exactly ``(seed, stream)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domains import check

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(x: int) -> int:
    # splitmix64 finalizer: a 64-bit bijection with full avalanche
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


class RngState:
    """Counter-based random stream keyed by ``(seed, stream)``.

    A fresh state always starts at the beginning of its sequence, so two
    states built from equal keys yield byte-identical draws.  States are
    cheap to create; never share one instance between threads -- derive a
    child per unit of work with :meth:`split` instead.
    """

    __slots__ = ("seed", "stream", "_generator")

    def __init__(self, seed: int, stream: int = 0):
        seed = int(seed)
        stream = int(stream)
        if not 0 <= seed <= _MASK64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
        if not 0 <= stream <= _MASK64:
            raise ValueError(f"stream must be a 64-bit unsigned integer, got {stream}")
        self.seed = seed
        self.stream = stream
        self._generator = None

    @property
    def generator(self) -> np.random.Generator:
        if self._generator is None:
            key = self.seed | (self.stream << 64)
            self._generator = np.random.Generator(np.random.Philox(key=key))
        return self._generator

    def split(self, index: int) -> "RngState":
        """Child stream number ``index``, independent of the parent stream."""
        if index < 0:
            raise ValueError("split index must be nonnegative")
        child = _mix64((self.stream + (index + 1) * _GOLDEN) & _MASK64)
        return RngState(self.seed, child)

    def __repr__(self) -> str:
        return f"RngState(seed={self.seed}, stream={self.stream})"


@dataclass(frozen=True)
class StableParams:
    """Index and skewness of a strictly stable law, unit scale, no shift.

    ``index == 1`` is restricted to ``skew == 0`` (the symmetric Cauchy
    case): asymmetric strictly 1-stable laws need a logarithmic drift
    correction that is out of scope here.
    """

    index: float
    skew: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.index <= 2.0:
            raise ValueError(f"stable index must be in (0, 2], got {self.index}")
        if not -1.0 <= self.skew <= 1.0:
            raise ValueError(f"stable skew must be in [-1, 1], got {self.skew}")
        if self.index == 1.0 and self.skew != 0.0:
            raise ValueError("index 1 requires skew 0 (symmetric Cauchy only)")


def next_uniform(rng: RngState, size=None):
    """Uniform draw strictly inside the open interval (0, 1).

    Built from 53 random bits offset by half, so 0.0 and 1.0 are
    unreachable by construction.
    """
    bits = rng.generator.integers(0, 1 << 53, size=size, dtype=np.uint64)
    u = np.add(bits, 0.5)
    u *= 2.0**-53
    return u


def _inplace(ufunc, x):
    """``ufunc(x)``, written into ``x`` when it is an array."""
    return ufunc(x, out=x if isinstance(x, np.ndarray) else None)


def sample_normal(rng: RngState, size=None, out=None):
    """Standard normal draw(s), mean 0 and variance 1, written into ``out`` when given."""
    return rng.generator.standard_normal(size, out=out)


def sample_stable(rng: RngState, params: StableParams, size=None):
    """Strictly stable draw(s) by the Chambers-Mallows-Stuck construction.

    Unit scale, zero shift: ``index=2, skew=0`` gives Normal(0, 2) and
    ``index=1, skew=0`` gives the standard Cauchy.  For index < 1 and
    skew = 1 the draws are almost surely positive (one-sided law).
    """
    if not isinstance(params, StableParams):
        params = StableParams(*params)
    a = params.index
    b = params.skew
    # in place where the draws are arrays, with the formula's operations in
    # its order (a product may swap its factors), so the bits are the same
    u = next_uniform(rng, size)
    u -= 0.5
    u *= np.pi
    w = _inplace(np.log, next_uniform(rng, size))
    w = _inplace(np.negative, w)
    if a == 1.0:
        out = _inplace(np.tan, u)
    elif a == 2.0:
        # skew is immaterial at index 2; the symmetric branch is exact
        out = _inplace(np.sin, u)
        out *= 2.0
        out *= _inplace(np.sqrt, w)
    else:
        bta = b * np.tan(np.pi * a / 2.0)
        shift = np.arctan(bta) / a
        scale = (1.0 + bta * bta) ** (1.0 / (2.0 * a))
        # scale * sin(a*(u+shift)) / cos(u)**(1/a) * (cos(u - a*(u+shift)) / w)**((1-a)/a)
        out = u + shift
        out *= a
        tail = u - out
        out = _inplace(np.sin, out)
        out *= scale
        u = _inplace(np.cos, u)
        u **= 1.0 / a
        out /= u
        tail = _inplace(np.cos, tail)
        tail /= w
        tail **= (1.0 - a) / a
        out *= tail
    return float(out) if size is None else out


def sample_gamma(rng: RngState, shape: float, rate: float, size=None):
    """Gamma draw(s) with the given shape and rate (mean ``shape/rate``)."""
    check("positive", shape, "shape")
    check("positive", rate, "rate")  # an infinite rate would draw zeros
    out = rng.generator.gamma(shape, 1.0 / rate, size)
    return float(out) if size is None else out
