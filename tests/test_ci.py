"""The CI workflow file is valid YAML with the job layout CI relies on.

CI does not install PyYAML, so this runs only where it is installed.
"""

from pathlib import Path

import pytest

WORKFLOW = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "tests.yml"


def test_workflow_steps_are_a_list_of_named_steps():
    yaml = pytest.importorskip("yaml")
    doc = yaml.safe_load(WORKFLOW.read_text(encoding="utf-8"))
    steps = doc["jobs"]["tests"]["steps"]
    assert isinstance(steps, list) and steps
    for step in steps:
        assert isinstance(step, dict), step
        if "uses" not in step:  # an action step may go unnamed; a shell step may not
            assert isinstance(step.get("name"), str) and step["name"], step
            assert isinstance(step.get("run"), str) and step["run"].strip(), step
