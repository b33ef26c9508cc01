"""The README's code stays runnable as written."""

import math
import shlex
from pathlib import Path

import numpy as np
import pytest

from aggnoise.cli import EXIT_OK, main

README = Path(__file__).resolve().parents[1] / "README.md"


def fenced_python(section: str) -> str:
    """The first fenced python block under the README heading ``section``."""
    text = README.read_text().split(f"## {section}\n", 1)[1]
    return text.split("```python\n", 1)[1].split("```", 1)[0]


def test_library_use_example_runs():
    namespace = {}
    exec(compile(fenced_python("Library use"), str(README), "exec"), namespace)
    floored, update = namespace["floored"], namespace["update"]
    assert update.shape == (floored.dim,)
    assert np.isfinite(update).all()
    assert floored.spectrum().min() >= 0.01
    assert math.isfinite(namespace["total"].total_eps)


def cli_lines(command: str) -> list[str]:
    """Every ``aggnoise <command>`` line of the fenced sh blocks under the CLI heading."""
    text = README.read_text().split("## CLI\n", 1)[1].split("\n## ", 1)[0]
    blocks = [block.split("```", 1)[0] for block in text.split("```sh\n")[1:]]
    return [line for block in blocks for line in block.splitlines()
            if line.split()[:2] == ["aggnoise", command]]


def cli_account_lines() -> list[str]:
    return cli_lines("account")


def test_cli_section_documents_account():
    assert len(cli_account_lines()) >= 2


@pytest.mark.parametrize("line", cli_account_lines())
def test_account_example_runs(line, capsys):
    assert main(shlex.split(line)[1:]) == EXIT_OK
    assert capsys.readouterr().out


@pytest.mark.parametrize("line", cli_lines("verify"), ids=lambda line: line.split("#", 1)[0].strip())
def test_verify_example_runs(line, tmp_path, monkeypatch, capsys):
    # the default --out is relative, so the report lands in the temporary directory
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("AGGNOISE_OUT", raising=False)
    monkeypatch.delenv("AGGNOISE_SEED", raising=False)
    assert main(shlex.split(line, comments=True)[1:]) == EXIT_OK
    assert "all verification checks passed" in capsys.readouterr().out
    assert (tmp_path / "aggnoise-out" / "verify_report.json").exists()
