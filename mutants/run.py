"""Run the seeded mutants (table.py) and fail if any survives.

    python mutants/run.py [INDEX ...]

Run from anywhere; the repository is this script's parent directory. For each
mutant (all, or those at the given indices), it copies src/, tests/ and
pyproject.toml to a temporary tree, checks that the old text occurs exactly
once in the named file, applies the change and runs the named tests there
with `pytest -x`. A mutant is killed when that run fails; the script exits 1
if any mutant survives or its old text is not found once, else 0.

Hypothesis does not shrink a failing example in the temporary tree (a
conftest.py there loads a profile without the shrink phase): a kill needs a
failure, not its smallest example.
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
sys.path.insert(0, str(Path(__file__).resolve().parent))

from table import MUTANTS  # noqa: E402

NO_SHRINK = """\
from hypothesis import Phase, settings

settings.register_profile("mutants", phases=[Phase.explicit, Phase.reuse, Phase.generate])
settings.load_profile("mutants")
"""


def run_one(index: int, path: str, old: str, new: str, tests: list[str]) -> str:
    """'killed', 'survived' or a reason the mutant could not be applied."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp)
        shutil.copytree(ROOT / "src", tree / "src",
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        shutil.copytree(ROOT / "tests", tree / "tests",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", tree)
        (tree / "conftest.py").write_text(NO_SHRINK)
        target = tree / path
        text = target.read_text()
        if text.count(old) != 1:
            return f"old text occurs {text.count(old)} times in {path}"
        target.write_text(text.replace(old, new))
        env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
        where = subprocess.run([sys.executable, "-c", "import curiogrid; print(curiogrid.__file__)"],
                               cwd=tree, env=env, capture_output=True, text=True)
        if not Path(where.stdout.strip()).is_relative_to(tree / "src"):
            return f"curiogrid imported from {where.stdout.strip()!r}, not the mutant tree"
        result = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                                 *tests], cwd=tree, env=env, capture_output=True, text=True)
        if result.returncode == 1:  # tests ran and one failed
            return "killed"
        if result.returncode == 0:
            return "survived"
        return f"pytest exited {result.returncode}:\n{result.stdout[-2000:]}{result.stderr[-2000:]}"


def main(argv: list[str]) -> int:
    chosen = [int(a) for a in argv] or range(len(MUTANTS))
    bad = 0
    for i in chosen:
        path, old, new, tests = MUTANTS[i]
        start = time.perf_counter()
        outcome = run_one(i, path, old, new, tests)
        first = old.strip().splitlines()[0] if old.strip() else repr(old)
        print(f"mutant {i} ({path}: {first[:60]}): {outcome} "
              f"[{time.perf_counter() - start:.1f} s]", flush=True)
        bad += outcome != "killed"
    print(f"{len(chosen) - bad} of {len(chosen)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
