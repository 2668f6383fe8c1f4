"""Uniform pass/fail reporting for the verification suites.

Plain classes rather than dataclasses: importing dataclasses loads
inspect, ast and dis, which every CLI start would pay for.
"""


class Check:
    def __init__(self, name, passed, detail="", data=None):
        self.name, self.passed, self.detail = name, passed, detail
        self.data = {} if data is None else data

    def line(self):
        return "%-58s %s" % (self.name, "PASS" if self.passed else "FAIL")


class Report:
    def __init__(self, name, checks=None):
        self.name = name
        self.checks = [] if checks is None else checks

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
