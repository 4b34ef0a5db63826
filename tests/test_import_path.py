"""scipy stays off the package's import path.

The package imports numpy only; scipy is loaded by the ``oracle`` ODE
functions when they run, and by the tests.  Each check runs in a fresh
interpreter, because this test process has imported scipy already.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# refuses every import of scipy or a scipy submodule
BLOCK_SCIPY = """
import sys
class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")
sys.meta_path.insert(0, NoScipy())
"""


def run_python(code: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=300)


def test_import_loads_no_scipy():
    proc = run_python(
        "import sys, nonmarkov, nonmarkov.cli\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m == 'scipy' or m.startswith('scipy.')))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_runs_with_scipy_blocked(tmp_path):
    table = tmp_path / "peaked.txt"
    runs = [
        ["--mode", "quantify", "--sd", f"tabulated:{table}",
         "--quantifier", "both", "--hbar", "1",
         "--out", str(tmp_path / "q.csv")],
        ["--mode", "sweep", "--sd", "peaked", "--param", "beta",
         "--range", "0.5:2:3", "--out", str(tmp_path / "s.csv")],
        ["--mode", "means", "--sd", "peaked", "--range", "0:5:6",
         "--out", str(tmp_path / "m.csv")],
    ]
    code = BLOCK_SCIPY + """
import json
import numpy as np
from nonmarkov import cli
w = np.linspace(0.0, 40.0, 201)
np.savetxt(sys.argv[1], np.column_stack(
    [w, 0.5 * w / ((w * w - 4.0) ** 2 + 0.25 * w * w)]))
codes = [cli.main(argv) for argv in json.loads(sys.argv[2])]
print(codes)
"""
    proc = run_python(code, str(table), json.dumps(runs))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[0, 0, 0]", proc.stderr
