"""The engine, runner, sweep and API import without scipy's heavy modules.

Every pool worker and every benchmark process pays for what these
imports pull in.  ``scipy.signal``, ``scipy.stats`` and
``scipy.optimize`` are only needed by the exact-occupation reference,
the comparison tests and the power-law fit, which import them on use.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_core_imports_leave_heavy_scipy_modules_unloaded():
    code = (
        "import sys\n"
        "import repro.engine.vectorized, repro.runner, repro.sweep, repro.api\n"
        "heavy = ('scipy.signal', 'scipy.stats', 'scipy.optimize')\n"
        "print(','.join(m for m in heavy if m in sys.modules))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert result.stdout.strip() == ""
