"""Mutation check of the law suite against the interpreter.

Applies each interpreter mutant of src/fcn/semantics.py to a temporary copy
of the repository and runs the law suite (`fcn laws`, which calls
`run_laws`) on demos/bakery.fcn there.  Every mutant must give at least one
`fail` or `error` row; the unmutated copy must pass every law.  Exits 1 if
a mutant survives, ends without a report, or no longer applies.

    python3 tools/interp_mutants.py
"""

import os
import pathlib
import shutil
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
SEMANTICS = pathlib.Path("src", "fcn", "semantics.py")

# name -> (text in semantics.py, its replacement); each text occurs once
MUTANTS = {
    "Plus takes the wrong arm": (
        "branch = c.a if isinstance(tagged, PInl) else c.b",
        "branch = c.b if isinstance(tagged, PInl) else c.a",
    ),
    "CopairC takes its left arm on InrV": (
        "return self.apply(c.b, pv, a.value, k)",
        "return self.apply(c.a, pv, a.value, k)",
    ),
    "HComp splits by c.a's bottom": (
        "len(obj_factors(infer_boundary(c.a, self.sig).top))",
        "len(obj_factors(infer_boundary(c.a, self.sig).bottom))",
    ),
    "Pi0 maps over c.right": (
        "_map_unit(expect(pv, PPair).left, c.left, k)",
        "_map_unit(expect(pv, PPair).left, c.right, k)",
    ),
    "Inj1 maps over c.left": (
        "PInr(_map_unit(pv, c.right, k))",
        "PInr(_map_unit(pv, c.left, k))",
    ),
    "IterX's stop reads the first input": (
        "PPair.lazy(lambda: self.apply(c.f, state, inp, k), layer)",
        "PPair.lazy(lambda: self.apply(c.f, state, a, k), layer)",
    ),
}


def run_laws(copy):
    """Run the law suite on the bakery demo in the copy: (the laws whose row
    is `fail` or `error`, or None when it printed no rows; a summary)."""
    out = subprocess.run(
        [sys.executable, "-m", "fcn.cli", "laws", "demos/bakery.fcn"],
        cwd=copy,
        env=dict(os.environ, PYTHONPATH=str(copy / "src")),
        capture_output=True,
        text=True,
    )
    rows = [line.split() for line in out.stdout.splitlines()]
    bad = [row[0] for row in rows if len(row) > 1 and row[1] in ("fail", "error")]
    errors = sum(row[1] == "error" for row in rows if len(row) > 1)
    if not rows:
        return None, "no report: " + (out.stderr.strip().splitlines() or ["?"])[-1]
    return bad, f"{len(bad)} of {len(rows)} laws fail or error ({errors} error)"


def main():
    source = (ROOT / SEMANTICS).read_text()
    survivors = 0
    with tempfile.TemporaryDirectory() as tmp:
        copy = pathlib.Path(tmp)
        for part in ("src", "demos"):
            shutil.copytree(ROOT / part, copy / part,
                            ignore=shutil.ignore_patterns("__pycache__"))
        bad, summary = run_laws(copy)
        passed = bad == []
        print(f"{'unmutated':<36} {'pass' if passed else 'FAIL'}  {summary}")
        if not passed:
            return 1
        for name, (old, new) in MUTANTS.items():
            if source.count(old) != 1:
                print(f"{name:<36} NOT APPLIED  {old!r} occurs {source.count(old)}x")
                survivors += 1
                continue
            (copy / SEMANTICS).write_text(source.replace(old, new))
            bad, summary = run_laws(copy)
            killed = bool(bad)
            print(f"{name:<36} {'killed' if killed else 'SURVIVED'}  {summary}"
                  + (f": {', '.join(bad)}" if killed else ""))
            survivors += not killed
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
