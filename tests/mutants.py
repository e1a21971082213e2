"""Check that the tests kill each mutation listed in tests/data/mutations.json.

    python3 tests/mutants.py

Each entry names a file, a text that occurs in it exactly once, its
replacement, and the pytest node ids that must all fail after it.  Each
mutation is applied to a fresh temporary copy of src/, tests/ and
pyproject.toml, tested as tier-1 tests (PYTHONPATH=src).  Exit status 1
means a mutation survived (one of its tests passed) or no longer applies
(its text is not found exactly once, a node id is not collected, or its
tests ran past TIMEOUT).  pytest does not collect this file.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MUTATIONS = ROOT / "tests" / "data" / "mutations.json"
IGNORE = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
# a mutation that makes a loop endless fails no test: it is reported, not killed
TIMEOUT = 600


def _run(m):
    # "killed", or what went wrong
    text = (ROOT / m["file"]).read_text(encoding="utf-8")
    if text.count(m["old"]) != 1:
        return f"does not apply: the old text occurs {text.count(m['old'])} times in {m['file']}"
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, copy / name, ignore=IGNORE)
        shutil.copy(ROOT / "pyproject.toml", copy)
        (copy / m["file"]).write_text(text.replace(m["old"], m["new"]), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
        cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-rf", *m["tests"]]
        try:
            run = subprocess.run(cmd, cwd=copy, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            return f"does not apply: its tests ran past {TIMEOUT} s"
    # pytest exits 0 when every test passed, 1 when some failed, and 2 to 5
    # on a collection error, an unknown node id or no test at all
    if run.returncode > 1:
        return f"does not apply: pytest exit {run.returncode}: {run.stdout.strip().splitlines()[-1]}"
    failed = {line.split()[1] for line in run.stdout.splitlines() if line.startswith("FAILED ")}
    survivors = [t for t in m["tests"] if t not in failed]
    return f"survived: {' '.join(survivors)} passed" if survivors else "killed"


def main() -> int:
    mutations = json.loads(MUTATIONS.read_text(encoding="utf-8"))
    killed = 0
    for m in mutations:
        result = _run(m)
        killed += result == "killed"
        print(f"{m['name']}: {result}", flush=True)
    print(f"{killed} of {len(mutations)} mutations killed")
    return 0 if killed == len(mutations) else 1


if __name__ == "__main__":
    sys.exit(main())
