"""Which src/qosp functions the recorded CLI commands never call.

One subprocess sets a profile hook before importing qosp.cli, runs every
command of test_cli_outputs.COMMANDS in turn and prints each src/qosp
function that ran.  Every function defined in src/qosp (found by
compiling its source) that did not run must be listed in NEVER_CALLED
with the reason it stays; a new entry there, or a listed function that
starts to run, fails the test.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from test_cli_outputs import COMMANDS

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qosp"

NEVER_CALLED = {
    "gmatrix.GradedMatrix.__setattr__": "immutability guard: runs only on a forbidden assignment",
    "gmatrix.GradedMatrix.__delattr__": "immutability guard: runs only on a forbidden deletion",
    "gmatrix.GradedMatrix.__repr__": "for debugging",
    "reps.Representation.__repr__": "for debugging",
    "scalar.Scalar.__eq__": "used only by tests: matrices compare their integer terms",
    "scalar.Scalar.__hash__": "used only by tests",
}

_TRACE = """
import contextlib, io, json, sys
ran = set()
def hook(frame, event, arg):
    if event == "call":
        ran.add(frame.f_code)
sys.setprofile(hook)
import qosp.cli
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        qosp.cli.main(argv)
sys.setprofile(None)
print(json.dumps(sorted((c.co_filename, c.co_firstlineno, c.co_name) for c in ran)))
"""


def _functions(code, module, prefix=()):
    """(filename, first line, name) -> qualified name of every function in a code tree."""
    out = {}
    for const in code.co_consts:
        if hasattr(const, "co_code") and not const.co_name.startswith("<"):
            path = prefix + (const.co_name,)
            out[const.co_filename, const.co_firstlineno, const.co_name] = ".".join((module,) + path)
            out.update(_functions(const, module, path))
    return out


def test_recorded_commands_reach_every_function_but_the_listed():
    defined = {}
    for path in sorted(PACKAGE.glob("*.py")):
        code = compile(path.read_text(), str(path), "exec")
        defined.update(_functions(code, path.stem))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _TRACE, json.dumps(list(COMMANDS.values()))],
        capture_output=True,
        env=env,
        check=True,
        text=True,
    )
    ran = {tuple(key) for key in json.loads(proc.stdout)}
    never = sorted(name for key, name in defined.items() if key not in ran)
    assert never == sorted(NEVER_CALLED), set(never) ^ set(NEVER_CALLED)
