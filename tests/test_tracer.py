"""The benchmark tracer still finds every function and method it wraps.

`perfbench/tracer.py` looks names in `src/` up by name; one that is renamed or
removed breaks the traced benchmark runs, so this fails first."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_installs_over_the_cli_modules():
    probe = (
        "import importlib.util, sys\n"
        "import arboreal.cli\n"
        "spec = importlib.util.spec_from_file_location('tracer', sys.argv[1])\n"
        "tracer = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(tracer)\n"
        "tracer.Tracer().install()\n"
        "print(tracer.installed_wrappers())\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe, str(ROOT / "perfbench" / "tracer.py")],
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) > 0
