"""Golden CLI outputs: every command on small fixed configs, byte for byte.

``golden/cases.json`` maps each case to its command and exit code; the
config (or, for ``validate-structure``, the structure document) is
``golden/<case>.json`` and the expected stdout ``golden/<case>.out``.  The
cases run ``cli.main`` in-process from inside ``golden/``, so the paths a
report prints are the bare file names.

To re-capture after an intended output change, run this file as a script
(``PYTHONPATH=src python tests/test_golden.py``) and review the diff.
"""

import contextlib
import io
import json
import os
from pathlib import Path

import pytest

from translucent.cli import main

GOLDEN = Path(__file__).with_name("golden")
MANIFEST = GOLDEN / "cases.json"
CASES = json.loads(MANIFEST.read_text())


def argv(case: str) -> list:
    command = CASES[case]["command"]
    if command == "validate-structure":
        return [command, f"{case}.json"]
    return [command, "--config", f"{case}.json"]


def run_case(case: str) -> tuple:
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(GOLDEN)
    try:
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(argv(case))
    finally:
        os.chdir(cwd)
    return code, out.getvalue()


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_stdout(case):
    code, out = run_case(case)
    expected = (GOLDEN / f"{case}.out").read_text(encoding="utf-8")
    assert out == expected
    assert code == CASES[case]["exit"]


def capture() -> None:
    for case in sorted(CASES):
        code, out = run_case(case)
        (GOLDEN / f"{case}.out").write_text(out, encoding="utf-8")
        CASES[case]["exit"] = code
    MANIFEST.write_text(json.dumps(CASES, indent=1) + "\n")


if __name__ == "__main__":
    capture()
