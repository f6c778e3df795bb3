"""Run the kept mutant catalogue: each mutant must still be caught by its tests.

A mutant (one entry of `mutants.json` beside this file) replaces one exact
text in one file under `src/` with another.  The runner copies `src/`,
`tests/`, `perfbench/` and `pyproject.toml` to a temporary directory, checks
that the named tests pass there unmutated, then applies each mutant in turn
and runs only the tests it names.  A mutant is killed when they fail; it
survives when they pass.  A mutant whose old text is not found exactly once
is an error: a change that moves the text must move the mutant with it, or
retire it.

    python tools/mutants.py

Exit status: 0 if every mutant was killed, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CATALOGUE = Path(__file__).with_name("mutants.json")
COPIED = ("src", "tests", "perfbench", "pyproject.toml")


def _pytest(tree: Path, tests: list[str]) -> int:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env.setdefault(var, "1")
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(command, cwd=tree, env=env, capture_output=True).returncode


def _copy(tree: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis")
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, tree / name, ignore=ignore)
        else:
            shutil.copy2(source, tree / name)


def run(mutants: list[dict]) -> int:
    failures = 0
    with tempfile.TemporaryDirectory(prefix="gplab-mutants-") as tmp:
        tree = Path(tmp)
        _copy(tree)
        named = sorted({test for mutant in mutants for test in mutant["tests"]})
        if _pytest(tree, named) != 0:
            print("error: the named tests fail on the unmutated tree")
            return 1
        for mutant in mutants:
            path = tree / mutant["file"]
            original = path.read_text()
            found = original.count(mutant["old"])
            if found != 1:
                print(f"error     {mutant['id']}: old text found {found} times in {mutant['file']}")
                failures += 1
                continue
            path.write_text(original.replace(mutant["old"], mutant["new"]))
            start = time.perf_counter()
            try:
                code = _pytest(tree, mutant["tests"])
            finally:
                path.write_text(original)
            seconds = time.perf_counter() - start
            # pytest exits 1 when a test failed; any other code is not a kill
            status = {0: "SURVIVED", 1: "killed"}.get(code, f"error {code}")
            failures += status != "killed"
            print(f"{status:9} {mutant['id']} ({seconds:.1f} s): {mutant['what']}")
    print(f"{len(mutants) - failures} of {len(mutants)} mutants killed")
    return 1 if failures else 0


def main() -> int:
    return run(json.loads(CATALOGUE.read_text()))


if __name__ == "__main__":
    sys.exit(main())
