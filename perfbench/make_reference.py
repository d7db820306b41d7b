"""Write reference.json: the digest of every seed-independent operation's
output.  The benchmark compares each first output against it.

    python3 perfbench/make_reference.py

Run it only at a commit whose outputs are known to be right, and only when
the workloads' orders or operations change.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import checks
import run


def main() -> int:
    src = run.ROOT / "src"
    sys.path.insert(0, str(src))
    digests = {}
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        workdir = Path(tmp)
        for name in ("catalog", "expand_both"):
            mods, wl = run.setup(src, name, 0, workdir / name)
            for op in sorted(wl.ops, key=lambda op: op.key):
                if op.seeded:
                    continue
                argv = run.cli_argv(op, workdir / name, workdir / "out.json")
                code = mods["divprod.cli"].main(argv)
                if code != checks.expected_exit(op):
                    print(f"error: {op.key} exited {code}", file=sys.stderr)
                    return 1
                digests[op.key] = checks.digest(op, (workdir / "out.json").read_bytes())
    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=run.ROOT,
                            capture_output=True, text=True).stdout.strip()
    doc = {"produced_at": commit, "digests": digests}
    checks.REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {checks.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
