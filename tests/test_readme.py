"""The README's documented library route runs as written."""

import re
import shutil
from pathlib import Path

from test_cli import fresh_python

README = Path(__file__).resolve().parents[1] / "README.md"


def library_use_block():
    match = re.search(r"^## Library use\n+```python\n(.*?)^```", README.read_text(),
                      re.MULTILINE | re.DOTALL)
    assert match, "README.md has no python block under '## Library use'"
    return match.group(1)


def test_library_use_block_runs_on_the_demo_without_scipy(demo_dataset, tmp_path):
    root, _ = demo_dataset
    shutil.copytree(root, tmp_path / "demo")
    code = (
        "import sys\nsys.modules['scipy'] = None\n"
        + library_use_block()
        + "print([m.k for m in kmaps], -1.0 <= ari <= 1.0)\n"
    )
    proc = fresh_python(code, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[8, 10, 12] True"
