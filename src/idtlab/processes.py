"""Sample-path ensembles for every process family in the toolkit.

Each spec kind and each Levy family is one frozen dataclass that carries
its own behaviour: the ``label_name`` that ``spec_label`` opens with,
whether its paths are ``nondecreasing``, its ``idt_exponent`` (specs) and
its sampler (a family's ``increments``).  ``SPEC_KINDS`` and
``FAMILY_KINDS`` map each config kind to its constructor and typed
fields.  So adding a kind takes one class and one table row, as adding a
test kind takes one ``TestKind`` entry in ``statlab``.  Path ensembles
are immutable: an N-by-m value matrix over a shared time grid plus the
metadata needed to reproduce it bit for bit.  Generation takes
nonnegative times only, by one check (``_checked_request``).

Memory: lines and Gaussian kernels ``sample`` the whole ensemble.  The
other specs run one ``blocks`` loop, in row blocks of ``_BLOCK_BYTES``
(256 KiB) exactly when the spec is ``per_element``: it takes one variate
per element in C order from each stream it continues, so blocks give the
whole-array bytes.  Brownian and gamma families are; stable motion (all
``u``, then all ``w``) and compound Poisson (all counts, then normals)
are not.  Additive specs and weighted subordinators follow their family,
a subordinated spec its family and clock together, and a mixture, which
draws its base on a split of its stream, is never drawn in blocks.
``generate`` fills the rows of one ``8*N*m``-byte output with the loop;
``sample_blocks`` fills one block buffer that each block reuses, so an
export streamed block by block holds a few blocks, never the ensemble.
A subordinated loop reuses its other blocks too: one continuing loop of
its clock, of any kind, fills a ring of one clock block (two with a
helper thread) in the loop's blocks, and ``drift*dt`` and the Brownian
scale, or the gamma shape, go into one scratch pair, which only such a
per-element family is given.  So a streamed subordinated export on an
additive clock holds five blocks (1.25 MiB) at two threads.

Threads: ``generate`` and every ``sample`` draw on the calling thread.
Only ``sample_blocks(..., threads=n)`` with ``n > 1``, an export's path,
lets a subordinated ensemble of more than one block draw the clock of
the next block on one helper thread while the caller turns the current
clock into increments, draws the family increments and sums them.  The
clock and the family keep their own streams, each consumed in block
order by one thread, so the values are the same at every thread count;
the helper fills the second clock block of the ring while the caller
reads the first; every nested generator call stays on its caller's thread.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from dataclasses import dataclass, fields, is_dataclass
from typing import Union

import numpy as np

from .domains import Checked, TimeGrid, checked_atoms, config_field, config_rows
from .kernels import SPECTRAL_ATOMS, FBmKernel, SpectralKernel, SpectralMeasure, cov_matrix
from .randkit import RngState, StableParams, sample_normal, sample_stable


class ContractViolation(RuntimeError):
    """A runtime contract failed (non-monotone chronometer, grid mismatch)."""


class FactorizationError(RuntimeError):
    """Covariance factorization failed even after the maximum jitter."""


class PathEnsemble:
    """N sample paths on a shared grid, immutable after construction."""

    __slots__ = ("grid", "values", "spec", "seed", "stream", "meta")

    def __init__(self, grid: TimeGrid, values, spec, seed: int, stream: int = 0, meta=None):
        v = np.ascontiguousarray(values, dtype=np.float64)
        if v.ndim != 2:
            raise ValueError("values must be a 2-d matrix (paths x times)")
        if v.shape[0] < 1:
            raise ValueError("ensemble needs at least one path")
        if v.shape[1] != len(grid):
            raise ValueError(
                f"value columns ({v.shape[1]}) must match grid size ({len(grid)})"
            )
        v.setflags(write=False)
        self.grid = grid
        self.values = v
        self.spec = spec
        self.seed = int(seed)
        self.stream = int(stream)
        self.meta = dict(meta or {})

    @property
    def n_paths(self) -> int:
        return self.values.shape[0]

    @property
    def n_times(self) -> int:
        return self.values.shape[1]

    def with_values(self, values) -> "PathEnsemble":
        """This ensemble's grid, spec, seed, stream and a copy of its meta, holding ``values``."""
        return PathEnsemble(self.grid, values, self.spec, self.seed, self.stream, self.meta)


# ---------------------------------------------------------------------------
# Levy families: building blocks with independent stationary increments.
# ``increments(dt, rng, out, scratch)`` fills ``out`` (see ``levy_increments``);
# it checks nothing, so ``dt`` must be nonnegative.  ``scratch``, two arrays of
# ``dt``'s shape or ``None``, takes ``drift*dt`` and the scale, or the gamma shape.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Brownian(Checked):
    """Brownian motion with volatility and drift.

    ``volatility = 0`` degenerates to the deterministic line ``drift * t``,
    which serves as the identity chronometer.
    """

    label_name = "brownian"
    per_element = True
    volatility: float = config_field("nonnegative", 1.0)
    drift: float = config_field("float", 0.0)

    @property
    def nondecreasing(self) -> bool:
        return self.volatility == 0.0 and self.drift >= 0.0

    def increments(self, dt, rng, out, scratch=(None, None)):
        drift = np.multiply(self.drift, dt, out=scratch[0])
        if self.volatility > 0:
            scale = np.sqrt(dt, out=scratch[1])
            if self.volatility != 1.0:  # x * 1.0 is x, bit for bit
                scale *= self.volatility
            sample_normal(rng, out=out)
            # drift is added even at 0, since 0.0 + -0.0 is +0.0
            if dt.shape == out.shape:  # a full (N, m) block: numpy's single pass
                out *= scale
                out += drift
            else:  # a grid row, broadcast along the short axis
                _by_columns(np.multiply, out, scale, out=out)
                _by_columns(np.add, out, drift, out=out)
        else:
            out[...] = drift
        return out


@dataclass(frozen=True)
class StableMotion(Checked):
    """Strictly stable motion; increment over dt is ``dt**(1/index)`` stable."""

    label_name = "stable_motion"
    per_element = False
    index: float = config_field("positive")
    skew: float = config_field("float", 0.0)

    def __post_init__(self):
        super().__post_init__()
        StableParams(self.index, self.skew)  # index in (0, 2], skew in [-1, 1], skew 0 at index 1

    @property
    def nondecreasing(self) -> bool:
        return self.index < 1.0 and self.skew == 1.0

    def increments(self, dt, rng, out, scratch=(None, None)):
        draws = sample_stable(rng, StableParams(self.index, self.skew), out.shape)
        return np.multiply(dt ** (1.0 / self.index), draws, out=out)


@dataclass(frozen=True)
class GammaSubordinator(Checked):
    """Gamma process: increment over dt is Gamma(shape*dt, rate), nondecreasing."""

    label_name = "gamma"
    per_element = True
    nondecreasing = True
    shape: float = config_field("positive", 1.0)
    rate: float = config_field("positive", 1.0)

    def increments(self, dt, rng, out, scratch=(None, None)):
        # a zero shape gives exactly 0 and draws nothing
        rng.generator.standard_gamma(np.multiply(self.shape, dt, out=scratch[0]), out=out)
        if self.rate != 1.0:  # x * 1.0 is x, bit for bit
            out *= 1.0 / self.rate
        return out


@dataclass(frozen=True)
class CompoundPoisson(Checked):
    """Compound Poisson with normal jumps."""

    label_name = "compound_poisson"
    per_element = False
    intensity: float = config_field("nonnegative")
    jump_mean: float = config_field("float", 0.0)
    jump_sd: float = config_field("nonnegative", 1.0)

    @property
    def nondecreasing(self) -> bool:
        return self.jump_sd == 0.0 and self.jump_mean >= 0.0

    def increments(self, dt, rng, out, scratch=(None, None)):
        counts = rng.generator.poisson(self.intensity * dt, size=out.shape)
        np.multiply(self.jump_mean, counts, out=out)
        if self.jump_sd > 0:
            jitter = np.zeros(out.shape)
            jumped = counts > 0
            jitter[jumped] = np.sqrt(counts[jumped]) * sample_normal(rng, int(jumped.sum()))
            out += self.jump_sd * jitter
        return out


LevyFamily = Union[Brownian, StableMotion, GammaSubordinator, CompoundPoisson]


def levy_increments(family: LevyFamily, dt, rng: RngState, size=None, out=None):
    """Independent increments of the family over the given time lengths.

    ``dt`` broadcasts to ``size`` (or to ``out``, which receives the
    increments and may be ``dt`` itself); an entry of 0 yields an
    increment of exactly 0.
    """
    dt = np.asarray(dt, dtype=np.float64)
    if not np.all(dt >= 0):
        raise ValueError("increment durations must be nonnegative")
    if out is None:
        out = np.empty(dt.shape if size is None else size)
    return family.increments(dt, rng, out)


# ---------------------------------------------------------------------------
# Row blocks
# ---------------------------------------------------------------------------

_BLOCK_BYTES = 1 << 18  # bytes of values in one row block


def _row_blocks(n_paths: int, n_times: int, blocked: bool, out=None):
    """``(first, rows)`` for consecutive row blocks, or one block of all rows.

    ``rows`` views ``out``, the whole output array, or else the next of the
    block buffers in the list ``out`` (by default one new buffer), which
    the blocks take in turn and whose rows set the block size: so a
    subordinated loop's clock ring gives the clock the loop's blocks.
    """
    step = max(1, _BLOCK_BYTES // (8 * n_times)) if blocked else n_paths
    if out is None:
        out = [np.empty((min(step, n_paths), n_times))]
    if isinstance(out, list):
        step = len(out[0])
    for block, first in enumerate(range(0, n_paths, step)):
        rows = min(step, n_paths - first)
        yield first, out[block % len(out)][:rows] if isinstance(out, list) else out[first : first + rows]


# ---------------------------------------------------------------------------
# Row-wise arithmetic on (N, m) value matrices.  Along a row of m = 3
# times numpy's inner loop runs over 3 elements, so a tall, narrow matrix
# goes one column of N elements at a time instead.  Each helper performs
# the same float operations in the same order as the numpy form beside
# it, so the results are bit-identical.
# ---------------------------------------------------------------------------

# Column by column, a cumsum, difference or broadcast product over
# (20000, 3) is 3-12 times faster; from 6 columns on the strided columns
# make it slower, and over (2048, 64) 2-4 times slower (2-core AVX-512 VM,
# numpy 2.4.6).  Four float64 values span half a 64-byte cache line.
_NARROW_COLUMNS = 4


def _column_wise(shape) -> bool:
    """Whether an ``(N, m)`` operation goes column by column: more rows than
    columns, and at most ``_NARROW_COLUMNS`` columns."""
    return len(shape) == 2 and shape[1] <= _NARROW_COLUMNS and shape[0] > shape[1]


def _by_columns(op, a, b, out=None) -> np.ndarray:
    """``op(a, b, out=out)`` for operands that broadcast to an ``(N, m)`` array;
    ``out`` may be ``a`` itself but must not otherwise overlap ``a`` or ``b``."""
    shape = np.broadcast_shapes(np.shape(a), np.shape(b))
    if not _column_wise(shape):
        return op(a, b, out=out)
    if out is None:
        out = np.empty(shape, dtype=np.result_type(a, b))
    a, b = np.broadcast_to(a, shape), np.broadcast_to(b, shape)
    for j in range(shape[1]):
        op(a[:, j], b[:, j], out=out[:, j])
    return out


def _cumsum_rows(a: np.ndarray) -> np.ndarray:
    """``np.cumsum(a, axis=1, out=a)``."""
    if not _column_wise(a.shape):
        return np.cumsum(a, axis=1, out=a)
    for j in range(1, a.shape[1]):
        np.add(a[:, j - 1], a[:, j], out=a[:, j])
    return a


def _chronometer_increments(chrono_values: np.ndarray, out=None, first: int = 0) -> np.ndarray:
    """Per-path elapsed chronometer time, validating monotonicity; row ``i`` is path ``first + i``."""
    out = np.empty_like(chrono_values) if out is None else out
    out[:, 0] = chrono_values[:, 0]
    _by_columns(np.subtract, chrono_values[:, 1:], chrono_values[:, :-1], out=out[:, 1:])
    # the least value, NaN skipped as in the checks below, with no temporary array
    if not np.fmin.reduce(out, axis=None) < 0:
        return out
    if np.any(out[:, 0] < 0):
        path = first + int(np.argmax(out[:, 0] < 0))
        raise ContractViolation(f"chronometer path {path} is negative at the first time")
    path = first + int(np.argmax(np.any(out[:, 1:] < 0, axis=1)))
    raise ContractViolation(f"chronometer path {path} is decreasing")


def _prefetched(items):
    """The items of the iterator ``items``, in order, which one helper
    thread advances up to two items ahead.

    The next is asked for once the caller has taken the current one, the
    one after once the caller is done with the current one (so two reused
    buffers suffice), and the helper need not wait for the caller between
    items.  One thread at a time advances ``items``, in order, so the
    items are those of ``items`` itself.
    """
    with ThreadPoolExecutor(max_workers=1) as helper:
        pending = deque(helper.submit(next, items, None) for _ in range(2))
        while (item := pending.popleft().result()) is not None:
            yield item
            pending.append(helper.submit(next, items, None))


def _blend_blocks(atoms, grid: TimeGrid, n_paths: int, sample, exponent: float = 1.0, blocked: bool = False, out=None):
    """``sum_i w_i * X((u_i * t)**exponent)`` over the atoms ``(u_i, w_i)``.

    ``sample(merged, rows)`` draws the next ``rows`` paths of the one
    underlying ``X`` at the sorted distinct points; every atom then
    gathers its columns from it.
    """
    points = np.multiply.outer(np.array([u for u, _ in atoms]), grid.times) ** exponent
    merged = np.unique(points)
    pos = np.searchsorted(merged, points)
    weights = np.array([w for _, w in atoms])
    for _, rows in _row_blocks(n_paths, len(grid), blocked, out):
        drawn = sample(merged, rows.shape[0])
        if not _column_wise(rows.shape):
            np.einsum("i,nij->nj", weights, drawn[:, pos], out=rows)
        else:
            # einsum's sum one column at a time: from +0.0, atom by atom
            rows[...] = 0.0
            for j in range(rows.shape[1]):
                for w, p in zip(weights, pos[:, j]):
                    rows[:, j] += w * drawn[:, p]
        del drawn  # a subordinated loop reads a one-block clock while this loop waits here
        yield rows


class _WholeDraw:
    """A spec whose ``sample(grid, n_paths, rng)`` draws the whole ensemble at once; it streams as one block."""

    def sample_blocks(self, grid, n_paths, rng, threads=1):
        whole = self.sample(grid, n_paths, rng)
        return whole.meta, iter([whole.values])


class _RowBlocked:
    """A spec whose ``blocks(grid, n_paths, rng, threads, out)`` loop yields
    its rows block by block, in ``out`` or in one buffer that every block
    reuses.  ``per_element``: the loop draws one variate per element in C
    order from each stream it continues, so it draws in blocks; by default
    it is the family's."""

    @property
    def per_element(self) -> bool:
        return self.family.per_element

    def sample(self, grid, n_paths, rng):
        values = np.empty((n_paths, len(grid)))
        for _ in self.blocks(grid, n_paths, rng, out=values):
            pass
        return PathEnsemble(grid, values, self, rng.seed, rng.stream)

    def sample_blocks(self, grid, n_paths, rng, threads=1):
        return {}, self.blocks(grid, n_paths, rng, threads)


# ---------------------------------------------------------------------------
# Process specs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StableLine(_WholeDraw, Checked):
    """Random line ``X_t = t * S`` with S strictly stable of the given index."""

    label_name = "stable_line"
    nondecreasing = False
    alpha: float = config_field("positive")

    def __post_init__(self):
        super().__post_init__()
        StableParams(self.alpha, 0.0)  # alpha in (0, 2]

    @property
    def idt_exponent(self) -> float:
        return self.alpha

    def sample(self, grid, n_paths, rng):
        draws = sample_stable(rng, StableParams(self.alpha, 0.0), n_paths)
        return PathEnsemble(grid, _by_columns(np.multiply, draws[:, None], grid.times), self, rng.seed, rng.stream)


@dataclass(frozen=True)
class PowerLine(_WholeDraw, Checked):
    """Power curve ``X_t = t**alpha * S`` with S standard Cauchy."""

    label_name = "power_line"
    nondecreasing = False
    alpha: float = config_field("positive")

    @property
    def idt_exponent(self) -> float:
        return self.alpha

    def sample(self, grid, n_paths, rng):
        draws = sample_stable(rng, StableParams(1.0, 0.0), n_paths)
        values = _by_columns(np.multiply, draws[:, None], grid.times**self.alpha)
        return PathEnsemble(grid, values, self, rng.seed, rng.stream)


@dataclass(frozen=True)
class GaussianKernel(_WholeDraw):
    """Centered Gaussian process with the given scaling covariance kernel."""

    label_name = "gaussian"
    nondecreasing = False
    kernel: Union[FBmKernel, SpectralKernel]

    @property
    def idt_exponent(self) -> float:
        return self.kernel.idt_exponent

    def sample(self, grid, n_paths, rng):
        return gaussian_paths(self.kernel, grid, n_paths, rng)


@dataclass(frozen=True)
class AdditiveTimeChange(_RowBlocked, Checked):
    """Levy process run through the deterministic clock ``t -> t**alpha``."""

    label_name = "additive"
    family: LevyFamily = config_field("family")
    alpha: float = config_field("positive")

    @property
    def idt_exponent(self) -> float:
        return self.alpha

    @property
    def nondecreasing(self) -> bool:
        return self.family.nondecreasing

    def blocks(self, grid, n_paths, rng, threads=1, out=None):
        dts = np.diff(grid.times**self.alpha, prepend=0.0)
        for _, rows in _row_blocks(n_paths, len(grid), self.per_element, out):
            levy_increments(self.family, dts, rng, out=rows)
            _cumsum_rows(rows)
            yield rows


@dataclass(frozen=True)
class Subordinated(_RowBlocked):
    """Levy process evaluated along an independent nondecreasing chronometer."""

    label_name = "subordinated"
    family: LevyFamily = config_field("family")
    chrono: "ProcessSpec" = config_field("spec")

    def __post_init__(self):
        if not self.chrono.nondecreasing:
            raise ValueError("chronometer spec must be provably nondecreasing by construction")

    @property
    def idt_exponent(self) -> float:
        return self.chrono.idt_exponent

    @property
    def nondecreasing(self) -> bool:
        return self.family.nondecreasing and self.chrono.nondecreasing

    @property
    def per_element(self) -> bool:
        return self.family.per_element and self.chrono.per_element

    def blocks(self, grid, n_paths, rng, threads=1, out=None):
        """Both streams are split once and continue from block to block: one
        clock loop, of any clock, fills a ring of one reused block, or two
        when a helper fills the next while the caller reads this one."""
        family_rng = rng.split(1)
        row_blocks = list(_row_blocks(n_paths, len(grid), self.per_element, out))
        shape = row_blocks[0][1].shape
        helper = threads > 1 and len(row_blocks) > 1
        clocks = self.chrono.blocks(grid, n_paths, rng.split(0), out=[np.empty(shape) for _ in range(1 + helper)])
        # drift*dt and the Brownian scale, or the gamma shape: only a per-element family reads the pair
        scratch = np.empty((2,) + shape) if self.family.per_element else None
        with closing(_prefetched(clocks) if helper else clocks) as clocks:
            for first, rows in row_blocks:
                # checks the clock, so the increments need no second check
                _chronometer_increments(next(clocks), rows, first)
                if first + len(rows) == n_paths:  # the clock loop ends, and frees its ring, before the family draw
                    clocks.close()
                pair = (None, None) if scratch is None else scratch[:, : len(rows)]
                self.family.increments(rows, family_rng, rows, pair)
                _cumsum_rows(rows)
                yield rows


@dataclass(frozen=True)
class Mixture(_RowBlocked):
    """Weighted combination ``sum_i w_i X(u_i * t)`` of one underlying path."""

    label_name = "mixture"
    per_element = False
    base: "ProcessSpec" = config_field("spec")
    atoms: tuple

    def __post_init__(self):
        object.__setattr__(self, "atoms", checked_atoms(self.atoms, _MIXTURE_ATOMS))

    @property
    def idt_exponent(self) -> float:
        return self.base.idt_exponent

    @property
    def nondecreasing(self) -> bool:
        return self.base.nondecreasing and all(w >= 0 for _, w in self.atoms)

    def blocks(self, grid, n_paths, rng, threads=1, out=None):  # drawn as one block
        def base(merged, rows):
            return generate(self.base, TimeGrid(merged), rows, rng.split(0)).values

        return _blend_blocks(self.atoms, grid, n_paths, base, out=out)


@dataclass(frozen=True)
class WeightedSubordinator(_RowBlocked, Checked):
    """Weighted sum ``sum_j w_j X((u_j * t)**alpha)`` of one subordinator path."""

    label_name = "weighted_subordinator"
    nondecreasing = True
    family: LevyFamily = config_field("family")
    atoms: tuple
    alpha: float = config_field("positive")

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "atoms", checked_atoms(self.atoms, _WEIGHTED_ATOMS))
        if not self.family.nondecreasing:
            raise ValueError("family must be a nondecreasing (subordinator) family")

    @property
    def idt_exponent(self) -> float:
        return self.alpha

    def blocks(self, grid, n_paths, rng, threads=1, out=None):
        def subordinator(epochs, rows):
            path = levy_increments(self.family, np.diff(epochs, prepend=0.0), rng, size=(rows, epochs.size))
            return _cumsum_rows(path)

        return _blend_blocks(self.atoms, grid, n_paths, subordinator, self.alpha, self.per_element, out)


ProcessSpec = Union[
    StableLine, PowerLine, GaussianKernel, AdditiveTimeChange, Subordinated, Mixture, WeightedSubordinator
]


def spec_label(spec) -> str:
    """Canonical readable label; stable across runs, used in keys and metadata.

    ``label_name(name=value,...)`` over a spec's, family's or kernel's
    fields in order: a leading nested spec, family or kernel goes in bare,
    atoms as ``[(u,w),...]``, and a spectral measure's atoms in place.
    """
    return f"{spec.label_name}({','.join(_label_parts(spec))})"


def _label_parts(obj):
    for i, field in enumerate(fields(obj)):
        value = getattr(obj, field.name)
        if hasattr(value, "label_name"):
            yield spec_label(value) if i == 0 else f"{field.name}={spec_label(value)}"
        elif is_dataclass(value):  # a spectral measure
            yield from _label_parts(value)
        elif isinstance(value, tuple):
            yield f"{field.name}=[{','.join(f'({u!r},{w!r})' for u, w in value)}]"
        else:
            yield f"{field.name}={value!r}"


# ---------------------------------------------------------------------------
# Config kinds: each maps to ``(constructor, fields)``.  Fields are
# ``(name, type, default)`` as in ``statlab.TestKind.fields``: the type is a
# domain word (``float``, ``positive``, ``nonnegative``, ``unit``), its plural
# for a list, or ``"family"`` or ``"spec"``; a default of ``None`` marks a
# required field.  A class whose fields are its kind's owns the rows through
# ``config_field``; a kind of atoms states its list rows once, for both paths.
# ---------------------------------------------------------------------------

_MIXTURE_ATOMS = (("dilations", "positives", None), ("weights", "floats", None))
_WEIGHTED_ATOMS = (("dilations", "positives", None), ("weights", "nonnegatives", None))


def _atoms(points, weights) -> tuple:
    """``(point, weight)`` atoms from the config's dilations or locations and weights."""
    if len(points) != len(weights):
        raise ValueError(f"got {len(points)} dilations or locations but {len(weights)} weights")
    return tuple(zip(points, weights))


FAMILY_KINDS = {
    "brownian": (Brownian, config_rows(Brownian)),
    "stable_motion": (StableMotion, config_rows(StableMotion)),
    "gamma": (GammaSubordinator, config_rows(GammaSubordinator)),
    "compound_poisson": (CompoundPoisson, config_rows(CompoundPoisson)),
}
SPEC_KINDS = {
    "stable_line": (StableLine, config_rows(StableLine)),
    "power_line": (PowerLine, config_rows(PowerLine)),
    "fbm": (lambda hurst: GaussianKernel(FBmKernel(hurst)), config_rows(FBmKernel)),
    "spectral": (
        lambda locations, weights, alpha: GaussianKernel(
            SpectralKernel(alpha, SpectralMeasure.symmetric(_atoms(locations, weights)))
        ),
        SPECTRAL_ATOMS + config_rows(SpectralKernel),
    ),
    "additive": (AdditiveTimeChange, config_rows(AdditiveTimeChange)),
    "subordinated": (Subordinated, config_rows(Subordinated)),
    "mixture": (
        lambda dilations, weights, base: Mixture(base, _atoms(dilations, weights)),
        _MIXTURE_ATOMS + config_rows(Mixture),
    ),
    "weighted_subordinator": (
        lambda dilations, weights, family, alpha: WeightedSubordinator(family, _atoms(dilations, weights), alpha),
        _WEIGHTED_ATOMS + config_rows(WeightedSubordinator),
    ),
}


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


def gaussian_paths(kernel, grid: TimeGrid, n_paths: int, rng: RngState) -> PathEnsemble:
    """Exact joint Gaussian sampling via Cholesky with escalating jitter.

    The factorization is attempted plain first, then with diagonal jitter
    ``1e-12 * trace/n`` escalated tenfold up to three times; the jitter
    actually used is recorded in the ensemble metadata.  A time equal to 0
    gives a column of exact zeros, for every kernel: each covariance is 0
    there, and the identity itself forces X(0) = 0.
    The product of the normals and the factor is written straight into
    the output, so a draw holds the normals and the output only.
    """
    grid, n_paths = _checked_request(grid, n_paths)
    tpos = grid.times[grid.times > 0]
    if tpos.size == 0:
        values = np.zeros((n_paths, len(grid)))
        return PathEnsemble(grid, values, GaussianKernel(kernel), rng.seed, rng.stream)
    m = cov_matrix(kernel, tpos)
    base_jitter = 1e-12 * float(np.trace(m)) / m.shape[0]
    jitter_used = 0.0
    chol = None
    for attempt in range(4):
        jitter = 0.0 if attempt == 0 else base_jitter * 10.0 ** (attempt - 1)
        try:
            chol = np.linalg.cholesky(m + jitter * np.eye(m.shape[0]))
            jitter_used = jitter
            break
        except np.linalg.LinAlgError:
            continue
    if chol is None:
        raise FactorizationError(
            f"covariance factorization failed after max jitter {base_jitter * 100:g}"
        )
    z = sample_normal(rng, (n_paths, m.shape[0]))
    # times increase, so a time 0 can only be the first column
    values = np.zeros((n_paths, len(grid)))
    np.matmul(z, chol.T, out=values[:, len(grid) - tpos.size :])
    return PathEnsemble(
        grid,
        values,
        GaussianKernel(kernel),
        rng.seed,
        rng.stream,
        meta={"jitter": jitter_used},
    )


def _checked_request(grid, n_paths):
    """``(grid, n_paths)`` as a TimeGrid of nonnegative times and a positive int, for every generator entry."""
    grid = grid if isinstance(grid, TimeGrid) else TimeGrid(grid)
    if grid.times[0] < 0:
        raise ValueError("process generation needs nonnegative times")
    n_paths = int(n_paths)
    if n_paths < 1:
        raise ValueError("n_paths must be at least 1")
    return grid, n_paths


def generate(spec, grid: TimeGrid, n_paths: int, rng: RngState) -> PathEnsemble:
    """The spec's ensemble, drawn on the calling thread; paths are mutually independent."""
    grid, n_paths = _checked_request(grid, n_paths)
    return spec.sample(grid, n_paths, rng)


def sample_blocks(spec, grid: TimeGrid, n_paths: int, rng: RngState, threads: int = 1):
    """``(meta, blocks)``: the rows of ``generate(spec, grid, n_paths, rng)``
    as consecutive row blocks in one buffer that each block overwrites, and
    the ensemble's metadata.  Lines and Gaussian kernels yield one block.
    ``threads > 1`` draws a subordinated clock of several blocks on a helper thread, with the same values.
    """
    grid, n_paths = _checked_request(grid, n_paths)
    return spec.sample_blocks(grid, n_paths, rng, threads)
