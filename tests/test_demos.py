"""Every demo script runs to completion and leaves no temporary files."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) == 7


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs_and_cleans_up(demo, tmp_path):
    env = dict(os.environ, TMPDIR=str(tmp_path))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(demo)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    assert sorted(p.name for p in tmp_path.iterdir()) == []


def test_readme_quickstart_runs(tmp_path):
    # The README's "Library quickstart" block, cut out the way CI cuts out
    # its shell session: from the heading to the end of the next fence.
    script = subprocess.run(
        ["awk", '/^## Library quickstart/ {found = 1} found && /^```python/ {inside = 1; next} '
                'inside && /^```/ {exit} inside', str(ROOT / "README.md")],
        capture_output=True, text=True, check=True,
    ).stdout
    assert "enumerate_front" in script
    (tmp_path / "quickstart.py").write_text(script)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "quickstart.py"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    assert "true front size:" in done.stdout
