"""One-line mutants of ``src/``, each of which a named pytest selection must
kill.  Run from the repository root, with pytest installed:

    python tests/mutants.py            # every row
    python tests/mutants.py 0 2        # rows 0 and 2

For each row the script copies ``src/`` to a temporary directory, replaces
the row's old text, which must occur exactly once in its file, by the new
text, and runs the row's selection with ``PYTHONPATH`` (and pytest's
``pythonpath``) at the copy.  It exits 1 if a selection passes, so that the
mutant survives, or if a row's old text is missing or repeated, so that a
stale row is caught.  A selection should run in-process: the tests'
conftest puts the checkout's ``src`` first for ``python -m divprod``
subprocesses.  Stdlib only; pytest does not collect this file.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (file under src/, exact old text, new text, pytest selection)
ROWS = [
    # The tail-step condition of the early passes dropped: square_quotient's
    # passes at 2 mod 4 then run before its step-4 tail, which meets a dense
    # list.  No coefficient changes.
    (
        "divprod/products.py",
        "if i == 1 and k > 0 and n % step == 0:",
        "if i == 1 and k > 0:",
        ["tests/test_products.py::test_passes_off_a_tail_lattice_and_later_groups_keep_their_order"],
    ),
    # Early passes for every group of a key: a group built on a copy then
    # runs its positive passes before its tails.  No coefficient changes.
    (
        "divprod/products.py",
        "if i == 1 and k > 0 and n % step == 0:",
        "if k > 0 and n % step == 0:",
        ["tests/test_products.py::test_passes_off_a_tail_lattice_and_later_groups_keep_their_order"],
    ),
    # The short list grown by n, not n * k: an early pass of two units loses
    # the top of its polynomial.
    (
        "divprod/products.py",
        "base += [0] * min(n * k, inner + 1 - len(base))",
        "base += [0] * min(n, inner + 1 - len(base))",
        ["tests/test_products.py::test_an_early_pass_of_two_units_grows_the_list_by_both"],
    ),
    # A tail taken at an exact tie of its share.  No coefficient changes.
    (
        "divprod/products.py",
        "if den * count > num * ((inner - s) // m + 1):",
        "if den * count >= num * ((inner - s) // m + 1):",
        ["tests/test_products.py::test_a_tail_at_an_exact_half_is_not_taken",
         "tests/test_products.py::test_a_step_1_tail_at_exactly_seven_tenths_is_not_taken"],
    ),
]


def run_row(index: int, row) -> bool:
    """True when the row's mutant is killed: its selection fails."""
    path, old, new, selection = row
    with tempfile.TemporaryDirectory(prefix="divprod-mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        target = src / path
        text = target.read_text()
        if text.count(old) != 1:
            print(f"row {index}: {path} holds the old text {text.count(old)} times, not once")
            return False
        target.write_text(text.replace(old, new))
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             "-o", f"pythonpath={src}", *selection],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
    took = time.perf_counter() - start
    # pytest exits 1 when a test failed; any other code (no tests collected,
    # a usage error) is no kill.
    killed = done.returncode == 1
    print(f"row {index}: {'killed' if killed else 'SURVIVED'} in {took:.1f} s: "
          f"{path}: {old!r} -> {new!r}")
    if not killed:
        print(done.stdout[-2000:])
    return killed


def main(argv: list[str]) -> int:
    picked = [int(a) for a in argv] or range(len(ROWS))
    results = [run_row(i, ROWS[i]) for i in picked]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
