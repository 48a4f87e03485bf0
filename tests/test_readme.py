"""The Python and shell examples of README.md run as written."""

import re
import shlex
from pathlib import Path

from silscope.cli import main

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def python_blocks(text):
    return re.findall(r"^```python\n(.*?)^```$", text, re.M | re.S)


def shell_examples(text):
    """(command, expected stdout lines) for each ``$ silscope`` line of the
    ``sh`` blocks; the expected lines run to the next blank or ``$`` line."""
    examples = []
    for block in re.findall(r"^```sh\n(.*?)^```$", text, re.M | re.S):
        for chunk in re.split(r"^(?=\$ )", block, flags=re.M):
            lines = chunk.split("\n")
            if lines[0].startswith("$ silscope "):
                shown = []
                for line in lines[1:]:
                    if not line or line.startswith("$"):
                        break
                    shown.append(line)
                examples.append((lines[0][2:], shown))
    return examples


def test_readme_python_blocks_run_in_order(capsys):
    blocks = python_blocks(README.read_text(encoding="utf-8"))
    assert len(blocks) >= 2
    namespace = {}
    for k, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {k + 1}", "exec"), namespace)
    assert capsys.readouterr().out


def test_readme_shell_examples_print_what_they_show(capsys, monkeypatch):
    """Each ``$ silscope ...`` line, run from the repository root, exits 0
    and prints the lines shown under it; ``...`` stands for any text."""
    examples = shell_examples(README.read_text(encoding="utf-8"))
    assert [command.split()[1] for command, _ in examples] == [
        "sils", "gens", "presentation", "reduce", "act", "verify"]
    monkeypatch.chdir(ROOT)
    for command, shown in examples:
        assert main(shlex.split(command)[1:]) == 0, command
        pattern = "".join(".*" if piece == "..." else re.escape(piece)
                          for piece in re.split(r"(\.\.\.)", "\n".join(shown)))
        out = capsys.readouterr().out
        assert re.fullmatch(pattern + "\n", out), (command, out)
