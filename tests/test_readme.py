"""The README's library quick start and command-line block, run as written."""

import re
import shlex
from pathlib import Path

from symrank import GabCode, RngStream, matrix_of, random_symmetric_matrix
from symrank.cli import main as cli_main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start():
    # the one python block, run in two pieces so that the classical report
    # is read before the high-rate decode rebinds ``rep``
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                        re.M | re.S)
    assert len(blocks) == 1
    lines = blocks[0].splitlines(keepends=True)
    cut = next(i for i, line in enumerate(lines)
               if line.startswith("# symmetric errors"))
    ns = {}
    exec("".join(lines[:cut]), ns)
    assert ns["rep"].status == "ok" and ns["rep"].codeword == ns["cw"]
    exec("".join(lines[cut:]), ns)
    field, setup = ns["field"], ns["setup"]
    # nothing draws from the stream before the full-rank symmetric error
    error = random_symmetric_matrix(field.base, 8, 8, RngStream(7))
    assert error.rank() == 8
    assert ns["c_hat"] == matrix_of(GabCode(field, 2, 1).encode([9, 17]), setup)
    assert ns["e_hat"] == error
    rep = ns["rep"]
    assert rep.status == "ok"
    assert rep.codeword == ns["high"].code.encode([1, 2, 3, 4, 5])


def test_readme_command_line(tmp_path, monkeypatch):
    # each line of the sh block under "## Command line", in process; the
    # files they write land in tmp_path
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^## Command line\n\n```sh\n(.*?)^```", text, re.M | re.S).group(1)
    commands = [shlex.split(line, comments=True) for line in block.splitlines()]
    assert len(commands) == 5 and all(argv[0] == "symrank" for argv in commands)
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert cli_main(argv[1:]) == 0, argv
    assert {f.name for f in tmp_path.iterdir()} == {"setup.json", "sweep.csv", "curves.csv"}
