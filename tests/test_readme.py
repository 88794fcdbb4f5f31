import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_the_library_quick_start_runs():
    """README's first python block runs as written, so it names only exports
    that exist."""
    block = re.search(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.S | re.M).group(1)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", block], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
