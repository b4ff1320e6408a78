"""Versioned table of calibrated acceptance thresholds.

Thresholds for the ECF distance tests come only from replaying a test
under a true-null configuration (``statlab.calibrate``).  A table is one
calibration: its ``meta`` records the quantile of every entry, and each
entry is keyed by the full test configuration at that quantile, so a
lookup can never silently mismatch the test it gates.  Keys are opaque
strings here; ``statlab.TestKind.key`` alone builds them.
"""

from __future__ import annotations

import importlib.resources
import json
import math

from .domains import DOMAINS
from .io import atomic_write_bytes

TABLE_VERSION = 1


def _finite_number(value) -> bool:
    """Whether a parsed JSON value is a finite number; a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond float range
        return False


def _shown(value) -> str:
    """``value`` as JSON text, cut to 40 characters, for an error message."""
    text = json.dumps(value)
    return text if len(text) <= 40 else text[:37] + "..."


class ThresholdTable:
    """Mapping from test keys (``TestKind.key``) to calibrated thresholds."""

    def __init__(self, entries: dict, meta: dict | None = None):
        self.entries = dict(entries)
        self.meta = dict(meta or {})

    def lookup(self, key: str) -> float:
        return float(self.entries[key])

    def set(self, key: str, threshold: float) -> None:
        self.entries[key] = float(threshold)

    def to_json(self) -> str:
        doc = {
            "version": TABLE_VERSION,
            "meta": self.meta,
            "entries": self.entries,
        }
        return json.dumps(doc, sort_keys=True, indent=1, separators=(",", ": "))

    def save(self, path) -> None:
        atomic_write_bytes(path, [(self.to_json() + "\n").encode("utf-8")])

    @classmethod
    def _read(cls, text: str) -> "ThresholdTable":
        """The table in ``text``: a JSON object with ``version`` 1, ``entries``
        an object of finite numbers and ``meta`` an object whose ``quantile``
        is a finite number in (0, 1]; anything else raises a ``ValueError`` naming the field."""
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ValueError(f"expected a JSON object, got {_shown(doc)}")
        version = doc.get("version")
        if type(version) is not int or version != TABLE_VERSION:
            raise ValueError(f"field 'version': unsupported threshold table version {_shown(version)}")
        if "entries" not in doc:
            raise ValueError("field 'entries': missing")
        entries, meta = doc["entries"], doc.get("meta", {})
        if not isinstance(entries, dict):
            raise ValueError(f"field 'entries': expected an object of thresholds, got {_shown(entries)}")
        for key, value in entries.items():
            if not _finite_number(value):
                raise ValueError(f"field 'entries', key {key!r}: expected a finite number, got {_shown(value)}")
        if not isinstance(meta, dict):
            raise ValueError(f"field 'meta': expected an object, got {_shown(meta)}")
        quantile = meta.get("quantile")
        if not (_finite_number(quantile) and DOMAINS["quantile"][0](quantile)):
            raise ValueError(f"field 'meta', key 'quantile': expected {DOMAINS['quantile'][1]}, got {_shown(quantile)}")
        return cls(entries, meta)

    @classmethod
    def load(cls, path) -> "ThresholdTable":
        with open(path, "rb") as fh:
            return cls._read(fh.read().decode("utf-8"))

    @classmethod
    def default(cls) -> "ThresholdTable":
        """The calibration table shipped with the package."""
        return cls._read(importlib.resources.files("idtlab").joinpath("data/thresholds.json").read_text(encoding="utf-8"))
