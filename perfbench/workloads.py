"""The benchmark's fixed workloads and the exactness gate on their output.

Every workload is one `qosp` CLI invocation whose inputs are fixed by the
paper (spins, series order, module pairs).  `gate` decides, from the exit
code and standard output of one invocation, how many checks were attempted
and how many failed; an invocation with any failure is never timed as a
success.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = {
    "verify-all": ["verify", "--suite", "all", "--json"],
    "solve-phi": ["solve-phi", "--order", "4", "--pairs", "3/2:1,3/2:3/2"],
    "frt-spins": ["verify", "--suite", "frt", "--spins", "1/2,1,3/2,2", "--json"],
}


def load_expected():
    """Exact solve-phi values recorded from the seed commit."""
    with open(HERE / "expected_solve_phi.json") as fh:
        return json.load(fh)


def _cross_pair_has(check, key, value):
    # The coefficients live in the check's text today and may move into its
    # structured data later; accept "(1, 1)": "-1/12" in either place.
    text = re.sub(r"[\s\"'\\]", "", json.dumps(check))
    i, j = key.split(",")
    return re.search(r"\(%s,%s\)[:=]%s(?![0-9])" % (i, j, re.escape(value)), text) is not None


def output_checks(workload, payload):
    """The check records (`name`, `pass`, ...) in one invocation's JSON output."""
    if workload == "solve-phi":
        return payload["report"]["checks"]
    return [c for suite in payload for c in suite["checks"]]


def gate(workload, returncode, stdout, expected=None):
    """Return (attempted, failed, problems) for one invocation's output.

    A nonzero exit, unparsable output, a check with `pass: false` and, for
    solve-phi, any coefficient that differs from the recorded rationals each
    count as one failed attempt.
    """
    attempted = failed = 0
    problems = []

    def count(ok, what):
        nonlocal attempted, failed
        attempted += 1
        if not ok:
            failed += 1
            problems.append(what)

    count(returncode == 0, "exit code %s" % returncode)
    try:
        payload = json.loads(stdout)
    except ValueError:
        count(False, "output is not JSON")
        return attempted, failed, problems

    try:
        checks = output_checks(workload, payload)
        bilinear = payload["bilinear"] if workload == "solve-phi" else None
    except (KeyError, TypeError):
        count(False, "output lacks the expected JSON fields")
        return attempted, failed, problems
    if workload == "solve-phi":
        expected = expected or load_expected()
        count(bilinear == expected["bilinear"], "bilinear differs from the recorded rationals")
        cross = [c for c in checks if c.get("name", "").startswith("cross-pair")]
        for key, value in sorted(expected["cross_pair"].items()):
            count(
                any(_cross_pair_has(c, key, value) for c in cross),
                "cross-pair data lacks (%s) = %s" % (key, value),
            )
    count(bool(checks), "no checks in output")
    for c in checks:
        count(c.get("pass") is True, "check failed: %s" % c.get("name"))
    return attempted, failed, problems
