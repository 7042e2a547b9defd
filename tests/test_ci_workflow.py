"""CI self-test: a gate whose output is piped into ``tee`` must be able
to fail.

GitHub runs a step with no explicit shell as ``bash -e`` — no
``pipefail`` — so ``gate | tee log`` exits with tee's status and the
gate is decorative.  An explicit ``shell: bash`` (on the step, the job's
or the workflow's ``defaults.run``) runs ``bash -eo pipefail``.
"""

from pathlib import Path

import yaml

WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "ci.yml"


def unguarded_tee_steps(workflow: dict) -> list[str]:
    """``job/step`` names of ``run:`` blocks that pipe into ``tee``
    and would execute without ``pipefail``."""

    def default_shell(scope: dict):
        return ((scope.get("defaults") or {}).get("run") or {}).get("shell")

    bad = []
    for job_name, job in workflow["jobs"].items():
        for index, step in enumerate(job.get("steps", [])):
            script = step.get("run", "")
            if "| tee" not in script:
                continue
            shell = (step.get("shell") or default_shell(job)
                     or default_shell(workflow))
            if shell != "bash" and "pipefail" not in script:
                bad.append(f"{job_name}/{step.get('name', index)}")
    return bad


def test_detects_a_tee_step_outside_pipefail():
    masked = yaml.safe_load("""
        jobs:
          gate:
            steps:
              - name: masked
                run: exit 1 | tee out.txt
              - name: explicit shell
                shell: bash
                run: exit 1 | tee out.txt
              - name: sets it itself
                run: |
                  set -o pipefail
                  exit 1 | tee out.txt
              - name: no pipe
                run: exit 1
          job-default:
            defaults: {run: {shell: bash}}
            steps:
              - run: exit 1 | tee out.txt
          sh-default:
            defaults: {run: {shell: sh}}
            steps:
              - run: exit 1 | tee out.txt
    """)
    assert unguarded_tee_steps(masked) == ["gate/masked", "sh-default/0"]
    masked["defaults"] = {"run": {"shell": "bash"}}
    assert unguarded_tee_steps(masked) == ["sh-default/0"]


def test_committed_workflow_gates_can_fail():
    workflow = yaml.safe_load(WORKFLOW.read_text())
    tee_steps = [step for job in workflow["jobs"].values()
                 for step in job["steps"] if "| tee" in step.get("run", "")]
    assert len(tee_steps) >= 7  # the gates this test exists to protect
    assert unguarded_tee_steps(workflow) == []
