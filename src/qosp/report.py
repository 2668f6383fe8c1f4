"""Uniform pass/fail reporting for the verification suites."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Check:
    name: str
    passed: bool
    detail: str = ""
    data: dict = field(default_factory=dict)

    def line(self):
        return "%-58s %s" % (self.name, "PASS" if self.passed else "FAIL")


@dataclass
class Report:
    name: str
    checks: list = field(default_factory=list)

    def add(self, check):
        self.checks.append(check)
        return check

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def summary(self):
        lines = ["[%s] %s" % ("PASS" if self.passed else "FAIL", self.name)]
        lines += ["  " + c.line() + ("    (%s)" % c.detail if c.detail else "") for c in self.checks]
        return "\n".join(lines)

    def to_json(self):
        return {
            "suite": self.name,
            "checks": [
                {"name": c.name, "pass": c.passed, "residual_summary": c.detail, "data": c.data}
                for c in self.checks
            ],
        }
