"""Covariance kernels of Gaussian processes with a power scaling law.

A centered Gaussian process satisfies the time-divisibility property at
exponent ``alpha`` exactly when its covariance obeys
``c(a*s, a*t) = a**alpha * c(s, t)`` for every ``a > 0``.  Two kernel
families with that property live here: the fractional Brownian motion
kernel (exponent ``2H``) and kernels built from a finite symmetric
spectral measure (any exponent ``alpha > 0``).  The log-time change of
variables ``y -> exp(y)`` with normalization ``exp(-alpha*y/2)`` turns
either into a stationary kernel; ``lamperti_cov`` evaluates it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domains import Checked, check, checked_atoms, config_field
from .report import TestReport

# the config rows of a spectral measure's ``symmetric`` pairs
SPECTRAL_ATOMS = (("locations", "nonnegatives", None), ("weights", "positives", None))


@dataclass(frozen=True)
class SpectralMeasure:
    """Finite symmetric atomic measure on the real line.

    ``atoms`` is a tuple of ``(location, weight)`` pairs with positive
    weights; every atom off the origin must come with its mirror image at
    the same weight, so the cosine transform is real.
    """

    atoms: tuple

    def __post_init__(self):
        atoms = checked_atoms(self.atoms, (("locations", "floats", None), SPECTRAL_ATOMS[1]))
        object.__setattr__(self, "atoms", atoms)
        bag = {}
        for a, w in atoms:
            bag[a] = bag.get(a, 0.0) + w
        for a, w in bag.items():
            mirror = bag.get(-a, 0.0)
            if abs(w - mirror) > 1e-12 * max(1.0, abs(w)):
                raise ValueError(
                    f"measure not symmetric: mass {w} at {a} vs {mirror} at {-a}"
                )

    @classmethod
    def symmetric(cls, pairs) -> "SpectralMeasure":
        """Build from ``(location >= 0, total weight)`` pairs, in the domains of ``SPECTRAL_ATOMS``.

        The weight of an off-origin location is split evenly between the
        location and its mirror image.
        """
        atoms = []
        for a, w in checked_atoms(pairs, SPECTRAL_ATOMS):
            if a == 0.0:
                atoms.append((0.0, w))
            else:
                atoms.append((a, w / 2.0))
                atoms.append((-a, w / 2.0))
        return cls(tuple(atoms))

    @property
    def total_mass(self) -> float:
        return float(sum(w for _, w in self.atoms))

    @property
    def locations(self) -> np.ndarray:
        return np.array([a for a, _ in self.atoms])

    @property
    def weights(self) -> np.ndarray:
        return np.array([w for _, w in self.atoms])


def fbm_cov(hurst: float, s, t):
    """Fractional Brownian motion covariance.

    ``(|t|^(2H) + |s|^(2H) - |t-s|^(2H)) / 2``; at ``H = 1/2`` this is
    exactly ``min(s, t)`` for nonnegative arguments.
    """
    check("unit", hurst, "hurst")
    s = np.asarray(s, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    h2 = 2.0 * hurst
    out = 0.5 * (np.abs(t) ** h2 + np.abs(s) ** h2 - np.abs(t - s) ** h2)
    return float(out) if out.ndim == 0 else out


def spectral_cov(alpha: float, mu: SpectralMeasure, s, t):
    """Covariance ``(s*t)^(alpha/2) * sum_j w_j cos(a_j * (ln s - ln t))``.

    Only the cosine part appears because the measure is symmetric.
    Negative times are a domain error; a zero time yields 0 by continuity
    of the ``(s*t)^(alpha/2)`` prefactor (convention).
    """
    check("positive", alpha, "alpha")
    s = np.asarray(s, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    if not (np.all(s >= 0) and np.all(t >= 0)):
        raise ValueError("spectral kernel times must be nonnegative")
    locs = mu.locations
    wts = mu.weights
    # log-difference keeps the matrix exactly symmetric in floating point
    dlog = np.where(
        (s > 0) & (t > 0),
        np.abs(np.log(np.where(s > 0, s, 1.0)) - np.log(np.where(t > 0, t, 1.0))),
        0.0,
    )
    cosine = np.tensordot(np.cos(np.multiply.outer(dlog, locs)), wts, axes=([-1], [0]))
    out = np.where((s > 0) & (t > 0), (s * t) ** (alpha / 2.0) * cosine, 0.0)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class FBmKernel(Checked):
    """Fractional Brownian motion kernel; scales with exponent ``2 * hurst``."""

    label_name = "fbm"

    hurst: float = config_field("unit")

    @property
    def idt_exponent(self) -> float:
        return 2.0 * self.hurst

    def cov(self, s, t):
        return fbm_cov(self.hurst, s, t)


@dataclass(frozen=True)
class SpectralKernel(Checked):
    """Kernel from a finite symmetric spectral measure; scales with ``alpha``."""

    label_name = "spectral"

    alpha: float = config_field("positive")
    measure: SpectralMeasure

    @property
    def idt_exponent(self) -> float:
        return self.alpha

    def cov(self, s, t):
        return spectral_cov(self.alpha, self.measure, s, t)


def cov_matrix(kernel, grid) -> np.ndarray:
    """Covariance matrix of the kernel on the grid times; exactly symmetric."""
    times = np.asarray(getattr(grid, "times", grid), dtype=np.float64)
    if times.ndim != 1 or times.size == 0:
        raise ValueError("grid must be a nonempty 1-d collection of times")
    if not np.all(np.diff(times) > 0):
        raise ValueError("grid times must be strictly increasing")
    return kernel.cov(times[:, None], times[None, :])


def check_scaling(kernel, alpha: float, a: float, grid, tol: float) -> TestReport:
    """Verify ``c(a*s, a*t) = a**alpha * c(s, t)`` over all grid pairs.

    The statistic is the maximum of ``|c(as, at) - a^alpha c(s, t)|``
    normalized by ``max(1, |c(s, t)|)``; kernels vanish near the origin,
    so a pure relative error would blow up there.
    """
    check("positive", tol, "tol")  # an infinite tolerance would pass any kernel
    check("positive", a, "a")
    times = np.asarray(getattr(grid, "times", grid), dtype=np.float64)
    base = kernel.cov(times[:, None], times[None, :])
    scaled = kernel.cov(a * times[:, None], a * times[None, :])
    err = np.abs(scaled - a**alpha * base) / np.maximum(1.0, np.abs(base))
    statistic = float(err.max())
    return TestReport.from_distance(
        name=f"scaling[{type(kernel).__name__}]",
        statistic=statistic,
        threshold=tol,
        n_samples=times.size,
        seed=0,
        details={"alpha": alpha, "a": a, "times": [float(x) for x in times]},
    )


def psd_check(matrix, tol: float = 1e-8) -> float:
    """Smallest eigenvalue of a symmetric matrix.

    ``tol`` bounds the accepted asymmetry; the caller asserts the returned
    eigenvalue is above its own negative tolerance.
    """
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("psd_check needs a square matrix")
    scale = max(1.0, float(np.abs(m).max()))
    if float(np.abs(m - m.T).max()) > tol * scale:
        raise ValueError("matrix is not symmetric")
    return float(np.linalg.eigvalsh(m).min())


def lamperti_cov(kernel, alpha: float, y, z):
    """Stationary covariance after the log-time change of variables.

    ``exp(-alpha*(y+z)/2) * c(exp(y), exp(z))``: whenever the kernel
    scales with exponent ``alpha``, the result depends on ``y - z`` only.
    """
    y = np.asarray(y, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    out = np.exp(-alpha * (y + z) / 2.0) * kernel.cov(np.exp(y), np.exp(z))
    return float(out) if np.ndim(out) == 0 else out
