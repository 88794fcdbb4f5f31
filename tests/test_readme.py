import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# pyproject.toml's filterwarnings, which pytest applies to tier-1 but not to a
# subprocess. They are set in code because ``python -W`` matches a module
# name literally, and "modir" must match its submodules too. A warning turned
# into an error inside a finalizer (an unclosed file's ResourceWarning) is
# only printed, so the hook makes it fail the run, as pytest's
# PytestUnraisableExceptionWarning filter does.
TIER1_WARNING_FILTERS = """\
import os, sys, warnings
warnings.filterwarnings("error", category=RuntimeWarning)
warnings.filterwarnings("error", category=DeprecationWarning, module="modir")
warnings.filterwarnings("error", category=FutureWarning, module="modir")
warnings.filterwarnings("error", category=ResourceWarning)
sys.unraisablehook = lambda unraisable: (sys.__unraisablehook__(unraisable), os._exit(1))
"""


def run_python(code: str) -> subprocess.CompletedProcess:
    """``code`` in a fresh interpreter that imports ``modir`` from src/,
    under tier-1's warning filters."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-c", TIER1_WARNING_FILTERS + code], env=env, capture_output=True, text=True, timeout=120
    )


def test_the_library_quick_start_runs():
    """README's python blocks run as written, in order, in one interpreter, so
    they name only exports that exist and call them with the signatures they
    have; a later block may use what an earlier one defined."""
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.S | re.M)
    assert len(blocks) >= 2
    done = run_python("\n".join(blocks))
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize(
    "code",
    [
        "import numpy as np; np.float32(1e39)",
        "import warnings; warnings.warn_explicit('old', DeprecationWarning, 'x.py', 1, module='modir.index')",
        "import warnings; warnings.warn_explicit('new', FutureWarning, 'x.py', 1, module='modir')",
        "open(__import__('os').devnull)",
    ],
    ids=["runtime", "deprecation-in-a-modir-submodule", "future-in-modir", "unclosed-file"],
)
def test_the_filters_fail_a_run_that_warns(code):
    # each filter bites in the subprocess, the finalizer's ResourceWarning included
    assert run_python(code).returncode != 0
