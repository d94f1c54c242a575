"""Structured outcomes of identity checks, with deterministic JSON rendering."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

GRAMMAR_VERSION = "1"


@dataclass
class VerificationReport:
    """Outcome of a single identity/property check.

    ``residual`` is the canonical text form of the leftover element or
    polynomial when the check fails, so failures are reproducible from the
    report alone; the check passed exactly when it is None.
    """

    name: str
    residual: Optional[str] = None
    details: Dict[str, Any] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.residual is None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "passed": self.passed,
            "residual": self.residual,
            "details": self.details,
        }


@dataclass
class ReportDocument:
    """A suite-level report: ordered checks plus the parameters that produced them."""

    suite: str
    checks: List[VerificationReport] = field(default_factory=list)
    params: Dict[str, Any] = field(default_factory=dict)
    seed: Optional[int] = None

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "suite": self.suite,
            "grammar_version": GRAMMAR_VERSION,
            "seed": self.seed,
            "params": self.params,
            "passed": self.passed,
            "checks": [c.to_dict() for c in sorted(self.checks, key=lambda c: c.name)],
        }

    def to_json(self) -> str:
        # Stable key order and separators: identical seed+options give
        # byte-identical output.
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def summary(self) -> str:
        lines = [f"suite {self.suite}: {'PASS' if self.passed else 'FAIL'}"]
        for c in sorted(self.checks, key=lambda c: c.name):
            status = "ok" if c.passed else "FAIL"
            lines.append(f"  [{status}] {c.name}")
            if not c.passed:
                lines.append(f"         residual: {c.residual}")
        return "\n".join(lines)
