"""Check the installed gkmloc package from outside the checkout.

Run it from a directory outside the checkout, with no PYTHONPATH that reaches
into it, and pass the checkout's path:

    python3 CHECKOUT/.github/scripts/check_installed_package.py CHECKOUT

It runs the ``gkmloc`` command found on PATH once per entry of COMMANDS, each
in its own process: ``gkmloc reproduce-all`` and the first entry of
tests/cli_golden.json for each of the other commands. Those commands import
the modules they run inside their handlers, so here each handler's import runs
first in a bare interpreter. It checks each exit status and stdout against the
golden entry. It then runs each argv of USAGE_CALLS, a usage error and a help
request, through ``gkmloc`` and checks its exit status, stdout and stderr
against the installed package's ``build_parser().parse_args(argv)`` run in this
process, so that each Python checks the CLI's parse against its own argparse.
Last, it checks that ``import gkmloc`` loads the package from outside the
checkout. It exits nonzero with a message on the first failure.
"""

import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys

COMMANDS = ("reproduce-all", "chern", "ring", "jupp", "toric-glue", "kahler-cone")
USAGE_CALLS = (("toric-glue", "--x"), ("chern", "--help"))


def parse_outcome(argv):
    """(exit status, stdout, stderr) of build_parser().parse_args(argv) in this process."""
    from gkmloc.cli import build_parser

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            build_parser().parse_args(argv)
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()
    sys.exit(f"build_parser() accepted {list(argv)}, which should end in a usage exit")


def main(checkout):
    checkout = pathlib.Path(checkout).resolve()
    golden = json.loads((checkout / "tests" / "cli_golden.json").read_text())
    if golden[0]["argv"] != ["reproduce-all"]:
        sys.exit(f"the first golden entry is {golden[0]['argv']}, not reproduce-all")
    for command in COMMANDS:
        entry = next(e for e in golden if e["argv"][0] == command)
        proc = subprocess.run(["gkmloc", *entry["argv"]], capture_output=True, text=True)
        if (proc.returncode, proc.stdout) != (entry["exit"], entry["stdout"]):
            sys.exit(f"gkmloc {' '.join(entry['argv'])} differs from its golden entry")
    # help and usage text wrap at the terminal width, which a captured gkmloc reads
    # as 80 columns and this process, run from a terminal, as the terminal's
    os.environ["COLUMNS"] = "80"
    for argv in USAGE_CALLS:
        proc = subprocess.run(["gkmloc", *argv], capture_output=True, text=True)
        if (proc.returncode, proc.stdout, proc.stderr) != parse_outcome(argv):
            sys.exit(f"gkmloc {' '.join(argv)} differs from build_parser().parse_args")
    import gkmloc
    where = pathlib.Path(gkmloc.__file__).resolve()
    if checkout in where.parents:
        sys.exit(f"gkmloc was imported from the checkout: {where}")
    print(f"gkmloc {', '.join(COMMANDS)} match their golden entries;"
          f" {'; '.join(' '.join(argv) for argv in USAGE_CALLS)} match build_parser();"
          f" gkmloc {gkmloc.__version__} from {where}")


if __name__ == "__main__":
    main(*sys.argv[1:])
