"""The README's library quick start prints what its comments say, and
its sum as `oddeuler eval-sum` prints it."""

import re
from pathlib import Path

from oddeuler import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def _quick_start() -> str:
    section = README.read_text().split("## Library quick start", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_quick_start_prints_its_commented_outputs(capsys):
    code = _quick_start()
    exec(compile(code, str(README), "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    comments = re.findall(r"# (.+)", code)
    assert printed == comments
    assert comments[1:] == ["pass", "35/4*z2*z3 - 31/2*z5", "7/4*z3"]
    assert cli.main(["eval-sum", "h2/k^3"]) == 0
    fields = dict(line.split(" = ") for line in capsys.readouterr().out.splitlines())
    assert printed[0] == f"{fields['value']} {fields['err_estimate']}"
