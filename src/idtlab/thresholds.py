"""Versioned table of calibrated acceptance thresholds.

Thresholds for the ECF distance tests come exclusively from replaying a
test under a true-null configuration (``statlab.calibrate``); the
resulting quantiles are stored in a JSON table shipped with the package
and keyed by the full test configuration, so a lookup can never silently
mismatch the test it gates.
"""

from __future__ import annotations

import importlib.resources
import json

import numpy as np

from .io import atomic_write_bytes
from .processes import TimeGrid, spec_label
from .statlab import DEFAULT_THETA_ID

TABLE_VERSION = 1


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


class ThresholdTable:
    """Mapping from canonical test keys to calibrated thresholds."""

    def __init__(self, entries: dict, meta: dict | None = None):
        self.entries = dict(entries)
        self.meta = dict(meta or {})

    def lookup(self, key: str) -> float:
        if key not in self.entries:
            raise KeyError(
                f"no calibrated threshold for key:\n  {key}\n"
                f"available: {len(self.entries)} entries; run the calibrate "
                "command to add this configuration"
            )
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
        doc = json.loads(text)
        if doc.get("version") != TABLE_VERSION:
            raise ValueError(f"unsupported threshold table version {doc.get('version')}")
        return cls(doc["entries"], doc.get("meta", {}))

    @classmethod
    def load(cls, path) -> "ThresholdTable":
        with open(path, "rb") as fh:
            return cls._read(fh.read().decode("utf-8"))

    @classmethod
    def default(cls) -> "ThresholdTable":
        """The calibration table shipped with the package."""
        return cls._read(importlib.resources.files("idtlab").joinpath("data/thresholds.json").read_text(encoding="utf-8"))
