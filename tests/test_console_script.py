"""tests/console_e2e.sh, CI's console-script check, against this source tree.

An ``imbcal`` shim on PATH runs ``python -m imbcal.cli`` with ``src`` on
PYTHONPATH, so the script runs as CI runs it, without an install; a
``python`` shim runs the script's ``python -c`` lines with the same
interpreter as the test.
"""

import os
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_console_script_end_to_end(tmp_path):
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    shim = bin_dir / "imbcal"
    shim.write_text(
        f"#!/bin/sh\nPYTHONPATH={shlex.quote(str(ROOT / 'src'))} "
        f'exec {shlex.quote(sys.executable)} -m imbcal.cli "$@"\n'
    )
    shim.chmod(0o755)
    # the script's own `python -c` lines use the interpreter running this test
    python = bin_dir / "python"
    python.write_text(f'#!/bin/sh\nexec {shlex.quote(sys.executable)} "$@"\n')
    python.chmod(0o755)
    work = tmp_path / "work"
    work.mkdir()
    env = dict(os.environ, PATH=f"{bin_dir}{os.pathsep}{os.environ['PATH']}")
    result = subprocess.run(
        ["bash", str(ROOT / "tests" / "console_e2e.sh")],
        cwd=work, env=env, capture_output=True, text=True, timeout=600,
    )
    assert result.returncode == 0, result.stdout[-3000:] + result.stderr[-3000:]
