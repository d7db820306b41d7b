"""Make the checkout's ``src`` importable for the tests that start
``python -m divprod`` in a subprocess, as ``pythonpath`` in pyproject.toml
does for the test process itself."""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
