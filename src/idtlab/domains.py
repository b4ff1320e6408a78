"""Domains of input values, one rule per word, for the config parser and
the constructors alike, and the time grid.

A numeric field's config type is a domain word, ``float`` (finite),
``positive`` or ``nonnegative`` (both finite), ``unit`` (inside (0, 1))
or ``quantile`` (in (0, 1]), or its plural for a list (``floats``, ...).
No word admits NaN or an infinity, so no non-finite parameter reaches a sampler.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, field, fields

import numpy as np

DOMAINS = {
    "float": (math.isfinite, "a finite number"),
    "positive": (lambda x: 0 < x < math.inf, "a finite number > 0"),
    "nonnegative": (lambda x: 0 <= x < math.inf, "a finite number >= 0"),
    "unit": (lambda x: 0 < x < 1, "a number inside (0, 1)"),
    "quantile": (lambda x: 0 < x <= 1, "a number in (0, 1]"),
}


class DomainError(ValueError):
    """A value outside the domain of its field ``field``; ``reason`` says how, without the field's name."""

    def __init__(self, field: str, reason: str):
        super().__init__(f"field {field!r}: {reason}")
        self.field, self.reason = field, reason


def check(word: str, value, name: str) -> None:
    """Raise a ``DomainError`` naming the field ``name`` unless ``value`` lies in the domain ``word``."""
    holds, expected = DOMAINS[word]
    if not holds(value):
        raise DomainError(name, f"expected {expected}, got {value}")


def config_field(type_: str, default=MISSING):
    """A dataclass field that is the config row ``(its name, type_, default)``."""
    return field(default=default, metadata={"type": type_})


def config_rows(cls) -> tuple:
    """The rows of ``cls``'s ``config_field`` fields, in order; a default of ``None`` marks a required field."""
    return tuple(
        (f.name, f.metadata["type"], None if f.default is MISSING else f.default) for f in fields(cls) if f.metadata
    )


def checked_atoms(atoms, rows) -> tuple:
    """``atoms`` as a nonempty tuple of float pairs, whose first and second items lie in the domains
    of the list rows ``rows``, such as ``(("dilations", "positives", None), ("weights", "floats", None))``."""
    atoms = tuple((float(u), float(w)) for u, w in atoms)
    if not atoms:
        raise ValueError("needs at least one atom")
    for atom in atoms:
        for value, (name, plural, _) in zip(atom, rows):
            check(plural.removesuffix("s"), value, name)
    return atoms


class Checked:
    """A dataclass whose ``config_field`` fields of a domain word are checked at construction."""

    def __post_init__(self):
        for f in fields(self):
            if f.metadata.get("type") in DOMAINS:
                check(f.metadata["type"], getattr(self, f.name), f.name)


class TimeGrid:
    """Strictly increasing, finite sampling times shared by an ensemble, as a read-only copy.

    A grid holds times of any sign, as a Lamperti ensemble's log times do;
    generation takes nonnegative times only (``processes._checked_request``).
    """

    __slots__ = ("times",)

    def __init__(self, times):
        t = np.array(times, dtype=np.float64)
        if t.ndim != 1 or t.size == 0:
            raise ValueError("grid must be a nonempty 1-d collection of times")
        if not np.all(np.isfinite(t)):
            raise ValueError("grid times must be finite")
        if np.any(np.diff(t) <= 0):
            raise ValueError("grid times must be strictly increasing")
        t.setflags(write=False)
        self.times = t

    def __len__(self) -> int:
        return self.times.size

    def __getitem__(self, i) -> float:
        return float(self.times[i])

    def __eq__(self, other):
        return isinstance(other, TimeGrid) and np.array_equal(self.times, other.times)

    def scale(self, a: float) -> "TimeGrid":
        check("positive", a, "a")
        return TimeGrid(self.times * a)

    def __repr__(self) -> str:
        return f"TimeGrid({self.times.tolist()})"
