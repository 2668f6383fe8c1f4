"""Recorded CLI outputs, compared byte for byte.

tests/cli_outputs holds the stdout, stderr and exit code of each command
below.  A change that is meant to keep the outputs byte-identical must
pass here unchanged; a change that alters an output on purpose records
the new files and says so in CHANGES.md.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
RECORDED = HERE / "cli_outputs"
SRC = HERE.parent / "src"

COMMANDS = {
    "verify_all": ["verify", "--suite", "all"],
    "verify_all_json": ["verify", "--suite", "all", "--json"],
    "verify_frt_spins_json": ["verify", "--suite", "frt", "--spins", "1/2,1,3/2,2", "--json"],
    "verify_frt_unserved_spin_usage_error": ["verify", "--suite", "frt", "--spins", "1/2,5/2"],
    "verify_intertwine": ["verify", "--suite", "intertwine"],
    "solve_phi_defaults": ["solve-phi"],
    "solve_phi_order1": ["solve-phi", "--order", "1"],
    "solve_phi_order4": ["solve-phi", "--order", "4", "--pairs", "3/2:1,3/2:3/2"],
    "solve_phi_spin2_order4": ["solve-phi", "--order", "4", "--pairs", "2:3/2,2:2"],
    "emit_rep2": ["emit", "--rep", "2"],
    "emit_rep1_xi_half": ["emit", "--rep", "1", "--set", "xi=1/2"],
    "emit_transformed_latex": ["emit", "--matrix", "transformed", "--format", "latex"],
    "emit_fs_latex": ["emit", "--matrix", "fs", "--format", "latex"],
    "emit_fj": ["emit", "--matrix", "fj"],
    "emit_sjr_csv_xi_third": ["emit", "--matrix", "sjr", "--format", "csv", "--set", "xi=1/3"],
    "emit_kr_exponent_usage_error": ["emit", "--matrix", "kr", "--set", "s=1e5000"],
    "emit_transformed_csv_s_neg2_theta": [
        "emit", "--matrix", "transformed", "--format", "csv", "--set", "s=-2", "--set", "theta=3/5"
    ],
    "solve_phi_order3_three_pairs": ["solve-phi", "--order", "3", "--pairs", "1/2:1/2,1:1,3/2:3/2"],
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_cli_output_matches_recording(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "qosp.cli", *COMMANDS[name]], capture_output=True, env=env
    )
    assert proc.stdout == (RECORDED / (name + ".stdout")).read_bytes()
    assert proc.stderr == (RECORDED / (name + ".stderr")).read_bytes()
    assert proc.returncode == int((RECORDED / (name + ".exit_code")).read_text())


def test_every_recording_belongs_to_a_command():
    """Each command has its three files, and no file is left without a command."""
    suffixes = (".stdout", ".stderr", ".exit_code")
    expected = {name + suffix for name in COMMANDS for suffix in suffixes}
    assert {p.name for p in RECORDED.iterdir()} == expected
