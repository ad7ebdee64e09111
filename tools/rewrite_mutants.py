"""Mutation check of the rewriter's rule tests.

Applies each single-rule mutant of src/fcn/rewrite.py to a temporary copy
of the repository and runs tests/test_rewrite.py there.  Every mutant must
make that test file fail; the unmutated copy must pass.  Exits 1 if a
mutant survives or no longer applies.

    python3 tools/rewrite_mutants.py
"""

import os
import pathlib
import shutil
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
REWRITE = pathlib.Path("src", "fcn", "rewrite.py")

# name -> (text in rewrite.py, its replacement); each text occurs once
MUTANTS = {
    "offer-beta-0 takes the other arm": (
        '(b.a, "offer-beta-0")',
        '(b.b, "offer-beta-0")',
    ),
    "offer-beta-1 takes the other arm": (
        '(b.b, "offer-beta-1")',
        '(b.a, "offer-beta-1")',
    ),
    "choose-beta-1 takes the other arm": (
        '(a.b, "choose-beta-1")',
        '(a.a, "choose-beta-1")',
    ),
    "branch-beta-0 takes the other arm": (
        '(b.a, "branch-beta-0")',
        '(b.b, "branch-beta-0")',
    ),
    "loop-x-step recurses on a.f": (
        "HComp(a.g, VComp(a.alpha, a))",
        "HComp(a.g, VComp(a.alpha, a.f))",
    ),
    "loop-x-stop unrolls": (
        '(a.f, "loop-x-stop")',
        '(HComp(a.g, VComp(a.alpha, a)), "loop-x-stop")',
    ),
    "loop-p-step recurses on b.f": (
        "HComp(VComp(b.alpha, b), b.g)",
        "HComp(VComp(b.alpha, b.f), b.g)",
    ),
}


def run_tests(copy):
    """Run tests/test_rewrite.py in the copy: (passed, the first failing
    test or the summary line)."""
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "tests/test_rewrite.py"],
        cwd=copy,
        env=dict(os.environ, PYTHONPATH=str(copy / "src")),
        capture_output=True,
        text=True,
    )
    lines = out.stdout.strip().splitlines() or [out.stderr.strip()]
    failed = [line.split(" - ")[0] for line in lines if line.startswith("FAILED")]
    return out.returncode == 0, (failed or lines)[-1]


def main():
    source = (ROOT / REWRITE).read_text()
    survivors = 0
    with tempfile.TemporaryDirectory() as tmp:
        copy = pathlib.Path(tmp)
        for part in ("src", "tests", "demos"):
            shutil.copytree(ROOT / part, copy / part,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", copy)
        passed, summary = run_tests(copy)
        print(f"{'unmutated':<36} {'pass' if passed else 'FAIL'}  {summary}")
        if not passed:
            return 1
        for name, (old, new) in MUTANTS.items():
            if source.count(old) != 1:
                print(f"{name:<36} NOT APPLIED  {old!r} occurs {source.count(old)}x")
                survivors += 1
                continue
            (copy / REWRITE).write_text(source.replace(old, new))
            passed, summary = run_tests(copy)
            print(f"{name:<36} {'SURVIVED' if passed else 'killed'}  {summary}")
            survivors += passed
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
