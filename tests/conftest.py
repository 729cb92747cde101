"""Make the checkout's ``src`` importable in child processes too.

``pythonpath`` in pyproject.toml covers the test process itself; tests that
run ``python -m oscillab.cli`` in a subprocess need it on PYTHONPATH.
"""

import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
