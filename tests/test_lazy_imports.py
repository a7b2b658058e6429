"""The set-up import chain must not load scipy: ``scipy.special`` alone
costs about a third of it, and only the Ewald kernel needs it."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_setup_imports_leave_scipy_unloaded():
    code = (
        "import importlib, sys\n"
        f"sys.path[:0] = [{str(ROOT / 'src')!r}, "
        f"{str(ROOT / 'perfbench')!r}]\n"
        "import repro.cli\n"
        "from workloads import IMPORTS\n"
        "for name in IMPORTS:\n"
        "    importlib.import_module(name)\n"
        "import repro.runcache\n"
        "repro.runcache.code_version_salt()\n"
        "print('scipy' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        check=True, timeout=120,
    )
    assert out.stdout.strip() == "False"
