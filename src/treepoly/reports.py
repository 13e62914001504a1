"""Verification report containers shared by the check suites."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

# The most violations one report keeps as examples; every one is counted.
VIOLATION_EXAMPLES = 50


@dataclass(frozen=True)
class Violation:
    """One falsified case: the offending weight map (if any) and a reason."""

    weights: Optional[tuple[int, ...]]
    reason: str

    def to_json_dict(self) -> dict:
        return {
            "alpha": list(self.weights) if self.weights is not None else None,
            "reason": self.reason,
        }


@dataclass
class CheckReport:
    """Aggregated outcome of one verification check.

    A falsified case never aborts a run; it lands in violations so a single
    report shows the whole failure surface.
    """

    lemma: str
    m: Optional[int] = None
    n: Optional[int] = None
    cases: int = 0
    violations: list[Violation] = field(default_factory=list)
    violation_count: int = 0
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.violations

    def record(self, weights, reason: str) -> None:
        """Count every violation; keep the first VIOLATION_EXAMPLES as examples."""
        self.violation_count += 1
        if len(self.violations) < VIOLATION_EXAMPLES:
            self.violations.append(
                Violation(tuple(weights) if weights is not None else None, reason)
            )

    def to_json_dict(self) -> dict:
        # elapsed is intentionally left out: reports must be byte-stable.
        return {
            "lemma": self.lemma,
            "m": self.m,
            "n": self.n,
            "cases": self.cases,
            "violation_count": self.violation_count,
            "violations": [v.to_json_dict() for v in self.violations],
        }


def all_ok(reports: Sequence[CheckReport]) -> bool:
    return all(r.ok for r in reports)
