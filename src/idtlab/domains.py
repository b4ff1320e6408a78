"""Domains of numeric fields, one rule per word, for the config parser and
the constructors alike.

A numeric field's config type is a domain word, ``float`` (finite),
``positive`` or ``nonnegative`` (both finite) or ``unit`` (inside (0, 1)),
or its plural for a list (``floats``, ``positives``, ...).  No word admits
NaN or an infinity, so no non-finite parameter reaches a sampler.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, field, fields

DOMAINS = {
    "float": (math.isfinite, "a finite number"),
    "positive": (lambda x: 0 < x < math.inf, "a finite number > 0"),
    "nonnegative": (lambda x: 0 <= x < math.inf, "a finite number >= 0"),
    "unit": (lambda x: 0 < x < 1, "a number inside (0, 1)"),
}


def check(word: str, value, name: str) -> None:
    """Raise ``ValueError`` naming the field ``name`` unless ``value`` lies in the domain ``word``."""
    holds, expected = DOMAINS[word]
    if not holds(value):
        raise ValueError(f"field {name!r}: expected {expected}, got {value}")


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
