import os
import re
import subprocess
import sys
from pathlib import Path

import deligne_kit

README = Path(__file__).resolve().parents[1] / "README.md"


def _example():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.S | re.M)
    assert len(blocks) == 1
    return blocks[0]


def test_readme_library_example_runs():
    exec(compile(_example(), str(README), "exec"), {})


def test_readme_library_example_runs_in_a_fresh_process():
    """The package resolves its names on first use, so the example must
    also run where nothing imported them before."""
    src = os.path.dirname(os.path.dirname(deligne_kit.__file__))
    subprocess.run([sys.executable, "-c", _example()], check=True,
                   env={**os.environ, "PYTHONPATH": src})
