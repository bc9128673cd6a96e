"""Shared test settings.

Every hypothesis property in the suite runs derandomized (the same examples
on every run) and without a per-example deadline, since exact arithmetic on
large generated inputs can be slow on a loaded machine. Each property still
sets its own ``max_examples``.
"""

from hypothesis import settings

settings.register_profile("gkmloc", deadline=None, derandomize=True)
settings.load_profile("gkmloc")
