"""Structured pass/fail results for checked inequalities."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

__all__ = ["Verdict"]


@dataclass(frozen=True)
class Verdict:
    """Outcome of one checked claim.

    ``witness`` locates the violation on failure (1-based entry coordinates,
    an index n, the offending value); on success it may carry informational
    fields.  ``margin`` is the slack of the inequality where one is
    meaningful (negative on failure).  ``inputs`` echoes the numeric inputs
    the check saw, so a report is self-describing.
    """

    passed: bool
    claim: str
    witness: dict[str, Any] | None = None
    margin: float | None = None
    inputs: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.passed and self.witness is None:
            raise ValueError("a failing Verdict must carry a witness")

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "claim": self.claim,
            "passed": self.passed,
            "witness": self.witness,
            "margin": self.margin,
            "inputs": self.inputs,
        }
