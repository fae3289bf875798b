"""The CI workflow file is valid YAML with the job layout CI relies on, and
its console-script smoke step passes when run locally.

CI does not install PyYAML, so these run only where it is installed.
"""

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"


def workflow_steps():
    yaml = pytest.importorskip("yaml")
    return yaml.safe_load(WORKFLOW.read_text(encoding="utf-8"))["jobs"]["tests"]["steps"]


def test_workflow_steps_are_a_list_of_named_steps():
    steps = workflow_steps()
    assert isinstance(steps, list) and steps
    for step in steps:
        assert isinstance(step, dict), step
        if "uses" not in step:  # an action step may go unnamed; a shell step may not
            assert isinstance(step.get("name"), str) and step["name"], step
            assert isinstance(step.get("run"), str) and step["run"].strip(), step


def test_console_script_smoke_step(tmp_path):
    """The step's shell body, with the installed ``natcmd`` (and ``python``)
    replaced by this interpreter running the source tree, under ``bash -e``
    as CI runs it."""
    bash = shutil.which("bash") or pytest.skip("bash is not installed")
    [step] = [s for s in workflow_steps() if s.get("name") == "Console script smoke test"]
    body = step["run"].replace("python -m pip install .\n", "")
    body = re.sub(r"^natcmd\b", '"$PYTHON" -m natcmd.cli', body, flags=re.M)
    body = re.sub(r"^python\b", '"$PYTHON"', body, flags=re.M)
    assert "pip install" not in body and re.search(r"^natcmd\b", body, flags=re.M) is None
    env = {**os.environ, "PYTHON": sys.executable, "PYTHONPATH": str(ROOT / "src"),
           "RUNNER_TEMP": str(tmp_path)}
    proc = subprocess.run([bash, "-e", "-c", body], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
