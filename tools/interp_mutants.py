"""Mutation check of the law suite against the interpreter.

Applies each interpreter mutant, of a compiled cell rule in
src/fcn/semantics.py or of the step nodes in src/fcn/protocol.py, to a
temporary copy of the repository and runs the law suite (`fcn laws`, which
calls `run_laws`) on demos/bakery.fcn there.  Every mutant must give at
least one `fail` or `error` row; the unmutated copy must pass every law.
Exits 1 if a mutant survives, ends without a report, or no longer applies.

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
PROTOCOL = pathlib.Path("src", "fcn", "protocol.py")

# name -> (file, text in it, its replacement); each text occurs once
MUTANTS = {
    "Plus takes the wrong arm": (
        SEMANTICS,
        "branch = run_a if type(tagged) is PInl else run_b",
        "branch = run_b if type(tagged) is PInl else run_a",
    ),
    "CopairC takes its left arm on InrV": (
        SEMANTICS,
        "return run_b(pv, a.value, k)",
        "return run_a(pv, a.value, k)",
    ),
    "HComp splits by c.a's bottom": (
        SEMANTICS,
        "len(obj_factors(infer_boundary(c.a, interp.sig).top))",
        "len(obj_factors(infer_boundary(c.a, interp.sig).bottom))",
    ),
    "Pi0 maps over c.right": (
        SEMANTICS,
        'Pi0: _compile_silent("left",',
        'Pi0: _compile_silent("right",',
    ),
    "Inj1 maps over c.left": (
        SEMANTICS,
        'Inj1: _compile_silent("right",',
        'Inj1: _compile_silent("left",',
    ),
    "IterX's stop reads the first input": (
        SEMANTICS,
        "lambda: run_f(state, inp, k),",
        "lambda: run_f(state, a, k),",
    ),
    "a loop's step skips the loop": (
        PROTOCOL,
        "_chain(proto_factors(head.body), self)",
        "_chain(proto_factors(head.body), self.rest)",
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
        for name, (path, old, new) in MUTANTS.items():
            source = (ROOT / path).read_text()
            if source.count(old) != 1:
                print(f"{name:<36} NOT APPLIED  {old!r} occurs {source.count(old)}x")
                survivors += 1
                continue
            (copy / path).write_text(source.replace(old, new))
            bad, summary = run_laws(copy)
            (copy / path).write_text(source)
            killed = bool(bad)
            print(f"{name:<36} {'killed' if killed else 'SURVIVED'}  {summary}"
                  + (f": {', '.join(bad)}" if killed else ""))
            survivors += not killed
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
