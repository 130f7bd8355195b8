"""Structured pass/fail reports returned by the validators."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""

    def to_dict(self):
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


@dataclass
class ValidationReport:
    subject: str
    checks: list[CheckResult] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    def add(self, name, passed, detail=""):
        self.checks.append(CheckResult(name, bool(passed), detail))
        return self

    def check(self, name, failures, label):
        """Add a check that passes when ``failures`` is empty.

        A failing check's detail is the label followed by the failures.
        """
        return self.add(name, not failures, f"{label} {failures}" if failures else "")

    def warn(self, message):
        self.warnings.append(message)
        return self

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.passed]

    def to_dict(self):
        return {
            "subject": self.subject,
            "passed": self.passed,
            "checks": [c.to_dict() for c in self.checks],
            "warnings": list(self.warnings),
        }

    def __str__(self):
        lines = [f"{'PASS' if self.passed else 'FAIL'}  {self.subject}"]
        for c in self.checks:
            mark = "ok" if c.passed else "FAIL"
            detail = f"  ({c.detail})" if c.detail else ""
            lines.append(f"  [{mark}] {c.name}{detail}")
        for w in self.warnings:
            lines.append(f"  [warn] {w}")
        return "\n".join(lines)
