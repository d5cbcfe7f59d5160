import re
import shlex
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(),
                    re.MULTILINE | re.DOTALL)


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_block_runs(index):
    exec(compile(BLOCKS[index], f"README.md block {index + 1}", "exec"), {})


def cli_examples():
    """(command line, expected stdout lines) for each `curveinv ...` line of
    the README's sh blocks that a `# -> ...` expectation follows; further
    expected lines continue as `#    ...`."""
    examples = []
    for block in re.findall(r"^```sh\n(.*?)^```$", README.read_text(),
                            re.MULTILINE | re.DOTALL):
        lines = block.splitlines()
        for i, line in enumerate(lines):
            if not line.startswith("curveinv "):
                continue
            expected = []
            for follow in lines[i + 1:]:
                prefix = "#    " if expected else "# -> "
                if not follow.startswith(prefix):
                    break
                expected.append(follow[len(prefix):])
            if expected:
                examples.append((line, expected))
    return examples


def test_readme_has_cli_examples():
    commands = [line.split()[1:3] for line, _ in cli_examples()]
    assert commands == [["eval", "--formula"], ["generate", "cabc"],
                        ["generate", "torus"], ["fuzz", "--seeds"]]


@pytest.mark.parametrize("line,expected", cli_examples())
def test_readme_cli_example_prints_what_it_says(capsys, line, expected):
    from curveinv.cli import main

    assert main(shlex.split(line)[1:]) == 0
    assert capsys.readouterr().out.splitlines() == expected
