"""Versioned table of calibrated acceptance thresholds.

Thresholds for the ECF distance tests come only from replaying a test
under a true-null configuration (``statlab.calibrate``).  A table is one
calibration: its ``meta`` records the quantile of every entry, and each
entry is keyed by the full test configuration at that quantile, so a
lookup can never silently mismatch the test it gates.
"""

from __future__ import annotations

import importlib.resources
import json
import math

import numpy as np

from .io import atomic_write_bytes
from .processes import TimeGrid, spec_label

TABLE_VERSION = 1
# names the frequency grid of statlab's distance tests in every key
DEFAULT_THETA_ID = "m12:0.25-2"


def _canon(value) -> str:
    if isinstance(value, TimeGrid):
        value = value.times
    if isinstance(value, (list, tuple, np.ndarray)):
        return "[" + ",".join(repr(float(v)) for v in value) + "]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, str):
        return value
    raise TypeError(f"cannot canonicalize {value!r} for a threshold key")


def entry_key(kind: str, spec, n_paths: int, quantile: float, **params) -> str:
    """Canonical lookup key for one calibrated threshold on the default grid."""
    parts = [
        f"test={kind}",
        f"spec={spec if isinstance(spec, str) else spec_label(spec)}",
        f"n_paths={int(n_paths)}",
        f"theta={DEFAULT_THETA_ID}",
        f"q={repr(float(quantile))}",
    ]
    for name in sorted(params):
        parts.append(f"{name}={_canon(params[name])}")
    return "|".join(parts)


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
    """Mapping from canonical test keys to calibrated thresholds."""

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
        if not (_finite_number(quantile) and 0 < quantile <= 1):
            raise ValueError(f"field 'meta', key 'quantile': expected a number in (0, 1], got {_shown(quantile)}")
        return cls(entries, meta)

    @classmethod
    def load(cls, path) -> "ThresholdTable":
        with open(path, "rb") as fh:
            return cls._read(fh.read().decode("utf-8"))

    @classmethod
    def default(cls) -> "ThresholdTable":
        """The calibration table shipped with the package."""
        return cls._read(importlib.resources.files("idtlab").joinpath("data/thresholds.json").read_text(encoding="utf-8"))
