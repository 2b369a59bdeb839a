"""The README's library example and command lines run as written."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

from arboreal.cli import main

ROOT = Path(__file__).resolve().parents[1]


def _block(heading: str, lang: str) -> str:
    section = (ROOT / "README.md").read_text().split(f"## {heading}", 1)[1]
    block = re.search(rf"```{lang}\n(.*?)```", section, re.S)
    assert block, f"no {lang} block under the {heading} heading"
    return block.group(1)


def test_readme_library_example_runs():
    proc = subprocess.run([sys.executable, "-c", _block("Library example", "python")],
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_readme_command_lines_exit_0(tmp_path, monkeypatch, capsys):
    # in order: `verify` reads the certificate that `certify` writes
    monkeypatch.chdir(tmp_path)
    lines = _block("Command line", "sh").splitlines()
    assert lines
    for line in lines:
        program, *argv = shlex.split(line)
        assert program == "arboreal", line
        assert main(argv) == 0, (line, capsys.readouterr())
