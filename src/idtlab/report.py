"""Outcome record for a single statistical or numerical verification."""

from __future__ import annotations

import json
from dataclasses import dataclass, field


@dataclass(frozen=True)
class TestReport:
    """Result of one check: a statistic compared against a threshold.

    The verdict ``passed`` is not stored: it is computed from the statistic,
    the threshold and the convention recorded in ``details["convention"]``:

    * ``"distance"`` -- passes iff ``statistic <= threshold``;
    * ``"p-value"``  -- passes iff ``statistic >= threshold`` (the
      statistic is a p-value, the threshold a significance level).

    A NaN statistic fails under both.
    """

    __test__ = False  # not a pytest class, despite the name

    name: str
    statistic: float
    threshold: float
    n_samples: int
    seed: int
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        convention = self.details.get("convention", "distance")
        if convention not in ("distance", "p-value"):
            raise ValueError(f"unknown report convention {convention!r}")

    @property
    def passed(self) -> bool:
        if self.details.get("convention", "distance") == "distance":
            return bool(self.statistic <= self.threshold)
        return bool(self.statistic >= self.threshold)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "statistic": self.statistic,
            "threshold": self.threshold,
            "pass": self.passed,
            "n_samples": self.n_samples,
            "seed": self.seed,
            "details": self.details,
        }

    def to_json(self) -> str:
        """JSON with stable key order, reproducible byte for byte."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ": "), indent=1)

    @classmethod
    def from_dict(cls, d: dict) -> "TestReport":
        """The report a file's fields describe; its ``pass`` must agree with the computed verdict."""
        report = cls(d["name"], d["statistic"], d["threshold"], d["n_samples"], d["seed"], dict(d.get("details", {})))
        if bool(d["pass"]) != report.passed:
            raise ValueError(
                f"inconsistent report: statistic={report.statistic}, threshold={report.threshold}, "
                f"passed={d['pass']} under convention {report.details.get('convention', 'distance')!r}"
            )
        return report

    def to_tap(self, number: int = 1) -> str:
        """One-line TAP record, e.g. ``ok 3 - idt[fbm] stat=... thr=...``."""
        status = "ok" if self.passed else "not ok"
        return (
            f"{status} {number} - {self.name} "
            f"statistic={self.statistic:.6g} threshold={self.threshold:.6g} "
            f"n={self.n_samples}"
        )

    @staticmethod
    def from_distance(name, statistic, threshold, n_samples, seed, details=None) -> "TestReport":
        details = {**(details or {}), "convention": "distance"}
        return TestReport(name, float(statistic), float(threshold), int(n_samples), int(seed), details)

    @staticmethod
    def from_pvalue(name, p_value, level, n_samples, seed, details=None) -> "TestReport":
        details = {**(details or {}), "convention": "p-value"}
        return TestReport(name, float(p_value), float(level), int(n_samples), int(seed), details)
