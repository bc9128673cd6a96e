"""Check the installed gkmloc package from outside the checkout.

Run it from a directory outside the checkout, with no PYTHONPATH that reaches
into it, and pass the checkout's path:

    python3 CHECKOUT/.github/scripts/check_installed_package.py CHECKOUT

It runs the ``gkmloc`` command found on PATH once per entry of COMMANDS, each
in its own process: ``gkmloc reproduce-all`` and the first entry of
tests/cli_golden.json for each of the other commands. Those commands import
the modules they run inside their handlers, so here each handler's import runs
first in a bare interpreter. It checks each exit status and stdout against the
golden entry, and checks that ``import gkmloc`` loads the package from outside
the checkout. It exits nonzero with a message on the first failure.
"""

import json
import pathlib
import subprocess
import sys

COMMANDS = ("reproduce-all", "chern", "ring", "jupp", "toric-glue", "kahler-cone")


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
    import gkmloc
    where = pathlib.Path(gkmloc.__file__).resolve()
    if checkout in where.parents:
        sys.exit(f"gkmloc was imported from the checkout: {where}")
    print(f"gkmloc {', '.join(COMMANDS)} match their golden entries;"
          f" gkmloc {gkmloc.__version__} from {where}")


if __name__ == "__main__":
    main(*sys.argv[1:])
