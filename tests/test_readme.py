import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_the_library_quick_start_runs():
    """README's python blocks run as written, in order, in one interpreter, so
    they name only exports that exist and call them with the signatures they
    have; a later block may use what an earlier one defined."""
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.S | re.M)
    assert len(blocks) >= 2
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", "\n".join(blocks)], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
