"""The tier-1 workflow's "Installed package" step, run from a temporary directory.

The step checks the package that pip installed, from outside the checkout. Here a
copy of src/gkmloc outside the checkout, on PYTHONPATH, stands in for the
installed package, and a shell script on PATH for its ``gkmloc`` console script.
"""

import os
import shutil
import stat
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"
STEP = "- name: Installed package"


def step_command():
    """The one-line ``run:`` of the workflow's "Installed package" step."""
    lines = WORKFLOW.read_text().splitlines()
    start = next(n for n, line in enumerate(lines) if line.strip().startswith(STEP))
    for line in lines[start + 1:]:
        if line.strip().startswith("- "):
            break
        if line.strip().startswith("run:"):
            return line.split("run:", 1)[1].strip()
    raise AssertionError("the Installed package step has no one-line run")


def executable(path, body):
    path.write_text(f"#!/bin/sh\n{body}\n")
    path.chmod(path.stat().st_mode | stat.S_IXUSR)


def run_step(tmp_path, pythonpath, gkmloc_body=f'exec "{sys.executable}" -m gkmloc "$@"'):
    """Run the step in tmp_path/work with a stand-in gkmloc and this interpreter as python3."""
    bin_dir, work = tmp_path / "bin", tmp_path / "work"
    bin_dir.mkdir()
    work.mkdir()
    executable(bin_dir / "python3", f'exec "{sys.executable}" "$@"')
    executable(bin_dir / "gkmloc", gkmloc_body)
    env = {**os.environ, "PATH": f"{bin_dir}{os.pathsep}{os.environ['PATH']}",
           "PYTHONPATH": str(pythonpath), "CHECKOUT": str(ROOT)}
    return subprocess.run(["bash", "-e", "-c", step_command()], cwd=work, env=env,
                          capture_output=True, text=True)


def installed_copy(tmp_path):
    """A copy of the package outside the checkout, as pip would install it."""
    site = tmp_path / "site"
    shutil.copytree(ROOT / "src" / "gkmloc", site / "gkmloc",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return site


def test_passes_on_a_package_outside_the_checkout(tmp_path):
    proc = run_step(tmp_path, installed_copy(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert "gkmloc reproduce-all matches its golden entry" in proc.stdout


def test_fails_on_the_checkouts_own_package(tmp_path):
    proc = run_step(tmp_path, ROOT / "src")
    assert proc.returncode != 0
    assert "gkmloc was imported from the checkout" in proc.stderr


def test_fails_on_output_that_differs_from_the_golden_entry(tmp_path):
    # the real reproduce-all with one space added before its newline
    body = f'"{sys.executable}" -m gkmloc "$@" | sed "s/}}$/}} /"'
    proc = run_step(tmp_path, installed_copy(tmp_path), body)
    assert proc.returncode != 0
    assert "gkmloc reproduce-all differs from its golden entry" in proc.stderr


def job_settings(job):
    """The top-level ``key: value`` lines of one job of the workflow, as a dict of strings."""
    lines = WORKFLOW.read_text().splitlines()
    start = lines.index(f"  {job}:")
    settings = {}
    for line in lines[start + 1:]:
        if line.strip() and not line.startswith("    "):
            break                               # the next job, or the end of ``jobs``
        if line.startswith("    ") and not line.startswith("     ") and ":" in line:
            key, value = line.strip().split(":", 1)
            settings[key] = value.strip()
    return settings


def test_the_tests_job_has_a_timeout():
    # without one, a hung test would run to GitHub's 360-minute default; tier-1 takes
    # under a minute and each benchmark smoke 2 s
    minutes = job_settings("tests").get("timeout-minutes")
    assert minutes is not None and minutes.isdigit() and 5 <= int(minutes) <= 60
