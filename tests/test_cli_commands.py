"""Every command's report and exit code, pinned byte for byte.

``tests/golden/cli-commands.json`` lists argv (with stdin where a command
reads it), the exit code and the exact stdout; text-mode reports carry
``time-ms: <masked>``.  Usage errors (exit 2) pin the ``Error:`` line,
since stdout is then empty.
"""

import json
import re
from pathlib import Path

import pytest
from click.testing import CliRunner

from tarski_lab.cli import main

CASES = json.loads((Path(__file__).parent / "golden" / "cli-commands.json").read_text())
TIMING = re.compile(r"^time-ms: \d+\.\d$", re.M)


@pytest.mark.parametrize("case", CASES, ids=[" ".join(c["argv"]) for c in CASES])
def test_command_matches_golden(case):
    result = CliRunner().invoke(main, case["argv"], input=case.get("stdin"))
    assert result.exit_code == case["exit_code"]
    if case["exit_code"] == 2:
        assert case["error"] in result.output.splitlines()
    else:
        assert TIMING.sub("time-ms: <masked>", result.output) == case["stdout"]
