"""Every demo script runs to completion against the source tree, prints its exact
values in p/q form, and prints the bytes that ``demo_golden.json`` records.

``demo_golden.json`` maps each demo's file name to its stdout. When an output
change is intended, regenerate the file from the repository root and review
the diff:

    PYTHONPATH=src python -c "
    import json, subprocess, sys
    from pathlib import Path
    out = {p.name: subprocess.run([sys.executable, str(p)], capture_output=True, text=True,
                                  check=True).stdout
           for p in sorted(Path('demos').glob('*.py'))}
    Path('tests/demo_golden.json').write_text(json.dumps(out, indent=1) + '\\n')"
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = json.loads((Path(__file__).resolve().parent / "demo_golden.json").read_text())


def test_golden_file_covers_every_demo():
    assert sorted(GOLDEN) == [demo.name for demo in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(demo)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    # exact values are shown as p/q, never as Python reprs
    assert "Fraction(" not in proc.stdout
    assert proc.stdout == GOLDEN[demo.name]
