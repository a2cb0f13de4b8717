"""Quick mode end to end, and the refusal to run without dpnewton sources."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def test_quick_mode_checks_every_workload():
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick"],
        capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == {"quick": True, "ok": True}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "_work"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lq_adaptive", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
