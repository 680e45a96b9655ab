"""Every command's report and exit code, pinned byte for byte.

``tests/golden/cli-commands.json`` lists argv (with stdin where a command
reads it), the exit code and the exact stdout; text-mode reports carry
``time-ms: <masked>``.  Usage errors (exit 2) pin the ``Error:`` line
and an empty stdout.  ``tests/golden/cli-help.json`` pins the
``--help`` text of the group and of every command, rendered 80 columns wide
under the console script's name.
"""

import json
import re
from pathlib import Path

import pytest
from cli_runner import invoke

from tarski_lab.cli import ROOT

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cli-commands.json").read_text())
HELP = json.loads((GOLDEN / "cli-help.json").read_text(encoding="utf-8"))
TIMING = re.compile(r"^time-ms: \d+\.\d$", re.M)


@pytest.mark.parametrize("case", CASES, ids=[" ".join(c["argv"]) for c in CASES])
def test_command_matches_golden(case):
    result = invoke(case["argv"], input=case.get("stdin"))
    assert result.exit_code == case["exit_code"]
    if case["exit_code"] == 2:
        assert result.stdout == ""
        assert case["error"] in result.output.splitlines()
    else:
        assert TIMING.sub("time-ms: <masked>", result.output) == case["stdout"]


@pytest.mark.parametrize("case", HELP, ids=[" ".join(c["argv"]) for c in HELP])
def test_help_matches_golden(case):
    result = invoke(case["argv"])
    assert result.exit_code == 0
    assert result.output == case["stdout"]


def test_help_golden_covers_every_command():
    words = ROOT.commands["words"].commands
    assert [case["argv"][:-1] for case in HELP] == [
        [],
        *([name] for name in ROOT.commands),
        *(["words", "--alphabet", "ab", name] for name in words),
    ]
