"""Make ``divprod`` importable for the tests that start ``python -m divprod``
in a subprocess, as ``pythonpath`` in pyproject.toml does for the test
process itself.  The first ``PYTHONPATH`` entry that holds a ``divprod``
package wins, made absolute, so that a run pointed at another source tree
(``tests/mutants.py`` points at a mutated copy) starts the CLI from that
tree too; without one, the checkout's ``src`` goes first."""

import os
from pathlib import Path

ENTRIES = os.environ.get("PYTHONPATH", "").split(os.pathsep)
SRC = next((e for e in ENTRIES if e and Path(e, "divprod", "__init__.py").is_file()),
           Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(SRC).resolve()), *ENTRIES]))
