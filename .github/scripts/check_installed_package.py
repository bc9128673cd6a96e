"""Check the installed gkmloc package from outside the checkout.

Run it from a directory outside the checkout, with no PYTHONPATH that reaches
into it, and pass the checkout's path:

    python3 CHECKOUT/.github/scripts/check_installed_package.py CHECKOUT

It runs the ``gkmloc`` command found on PATH as ``gkmloc reproduce-all``, checks
its exit status and stdout against the ``reproduce-all`` entry of
tests/cli_golden.json, and checks that ``import gkmloc`` loads the package from
outside the checkout. It exits nonzero with a message on the first failure.
"""

import json
import pathlib
import subprocess
import sys


def main(checkout):
    checkout = pathlib.Path(checkout).resolve()
    first = json.loads((checkout / "tests" / "cli_golden.json").read_text())[0]
    if first["argv"] != ["reproduce-all"]:
        sys.exit(f"the first golden entry is {first['argv']}, not reproduce-all")
    proc = subprocess.run(["gkmloc", "reproduce-all"], capture_output=True, text=True)
    if (proc.returncode, proc.stdout) != (first["exit"], first["stdout"]):
        sys.exit("gkmloc reproduce-all differs from its golden entry")
    import gkmloc
    where = pathlib.Path(gkmloc.__file__).resolve()
    if checkout in where.parents:
        sys.exit(f"gkmloc was imported from the checkout: {where}")
    print(f"gkmloc reproduce-all matches its golden entry;"
          f" gkmloc {gkmloc.__version__} from {where}")


if __name__ == "__main__":
    main(*sys.argv[1:])
