"""Run the CLI in process with its standard streams captured.

``invoke(argv, input=None)`` calls ``tarski_lab.cli.run`` under the console
script's name, with stdin reading ``input`` (empty by default), and returns
the exit code with what the run wrote: ``stdout``, ``stderr`` and ``output``
(stdout, then stderr).  An exception that escapes ``run`` propagates, so a
traceback fails the test that caused it.
"""

import io
import sys

from tarski_lab.cli import run


class Result:
    __slots__ = ("exit_code", "stdout", "stderr")

    def __init__(self, exit_code: int, stdout: str, stderr: str) -> None:
        self.exit_code = exit_code
        self.stdout = stdout
        self.stderr = stderr

    @property
    def output(self) -> str:
        return self.stdout + self.stderr


def invoke(argv, input: str | None = None) -> Result:
    saved = sys.stdin, sys.stdout, sys.stderr
    out, err = io.StringIO(), io.StringIO()
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(input or ""), out, err
    try:
        code = run(list(argv), prog_name="tarski-lab")
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved
    return Result(code, out.getvalue(), err.getvalue())
