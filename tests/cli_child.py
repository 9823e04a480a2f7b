"""Run the foodcal CLI in a child process.

The child gets this checkout's ``src`` at the front of ``PYTHONPATH``, so it
imports the same package as the tests, which find it through pytest's
``pythonpath`` setting, whether or not foodcal is installed.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def run_foodcal(*args, timeout):
    """``python -m foodcal.cli *args``, its output captured as text."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "foodcal.cli", *args], capture_output=True, text=True, env=env, timeout=timeout
    )
