"""Mutation check of the rewriter's tests and of the law suite.

Applies each mutant, one text replaced in one file of src/fcn, to a
temporary copy of the repository and runs the mutant's check there:

- "rewrite", "parser", "test_laws", "test_semantics" and "test_derived":
  tests/test_rewrite.py, tests/test_parser.py, tests/test_laws.py,
  tests/test_semantics.py or tests/test_derived.py, which must fail;
- "laws": the law suite (`fcn laws`, which calls `run_laws`) on
  demos/bakery.fcn, which must give at least one `fail` or `error` row.

The unmutated copy must pass every check.  Exits 1 if a mutant survives,
its law run ends without a report, or it no longer applies.

    python3 tools/mutants.py
"""

import os
import pathlib
import shutil
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = pathlib.Path("src", "fcn")
REWRITE, SEMANTICS = SRC / "rewrite.py", SRC / "semantics.py"
PROTOCOL, PARSER = SRC / "protocol.py", SRC / "parser.py"
LAWS = SRC / "laws.py"

# name -> (file, text in it, its replacement, check); each text occurs once
MUTANTS = {
    # single rewrite rules
    "offer-beta-0 takes the other arm": (
        REWRITE, '(b.a, "offer-beta-0")', '(b.b, "offer-beta-0")', "rewrite",
    ),
    "offer-beta-1 takes the other arm": (
        REWRITE, '(b.b, "offer-beta-1")', '(b.a, "offer-beta-1")', "rewrite",
    ),
    "choose-beta-1 takes the other arm": (
        REWRITE, '(a.b, "choose-beta-1")', '(a.a, "choose-beta-1")', "rewrite",
    ),
    "branch-beta-0 takes the other arm": (
        REWRITE, '(b.a, "branch-beta-0")', '(b.b, "branch-beta-0")', "rewrite",
    ),
    "loop-x-step recurses on a.f": (
        REWRITE,
        "HComp(a.g, VComp(a.alpha, a))",
        "HComp(a.g, VComp(a.alpha, a.f))",
        "rewrite",
    ),
    "loop-x-stop unrolls": (
        REWRITE,
        '(a.f, "loop-x-stop")',
        '(HComp(a.g, VComp(a.alpha, a)), "loop-x-stop")',
        "rewrite",
    ),
    "loop-p-step recurses on b.f": (
        REWRITE,
        "HComp(VComp(b.alpha, b), b.g)",
        "HComp(VComp(b.alpha, b.f), b.g)",
        "rewrite",
    ),
    # rule branches
    "a stop arm ignores a stacked id row": (
        REWRITE,
        "if isinstance(cell, VComp) and isinstance(cell.b, IdH):",
        "if False:",
        "rewrite",
    ),
    "snap-send-around skips a bare getL": (
        REWRITE,
        "if isinstance(b, GetL):\n        get = b\n    elif isinstance(b, VComp):",
        "if isinstance(b, VComp):",
        "rewrite",
    ),
    "snap-send-around drops its guard": (
        REWRITE, 'if not _closed(rest, "left"):', "if False:", "rewrite",
    ),
    "snap-send-around skips a getL head": (
        REWRITE,
        "if isinstance(head, GetL):\n            get = head\n        elif (",
        "if (",
        "rewrite",
    ),
    "unit-beside skips a right unit": (
        REWRITE,
        '    if _is_unit_cell(b):\n        return (a, "unit-beside")\n',
        "",
        "rewrite",
    ),
    # compiled interpreter rules and step nodes
    "Plus takes the wrong arm": (
        SEMANTICS,
        "branch = run_a if type(tagged) is PInl else run_b",
        "branch = run_b if type(tagged) is PInl else run_a",
        "laws",
    ),
    "CopairC takes its left arm on InrV": (
        SEMANTICS, "return run_b(pv, a.value, k)", "return run_a(pv, a.value, k)", "laws",
    ),
    "HComp splits by c.a's bottom": (
        SEMANTICS,
        "len(obj_factors(infer_boundary(c.a, interp.sig).top))",
        "len(obj_factors(infer_boundary(c.a, interp.sig).bottom))",
        "laws",
    ),
    "Pi0 maps over c.right": (
        SEMANTICS, 'Pi0: _compile_silent("left",', 'Pi0: _compile_silent("right",', "laws",
    ),
    "Inj1 maps over c.left": (
        SEMANTICS,
        'Inj1: _compile_silent("right",',
        'Inj1: _compile_silent("left",',
        "laws",
    ),
    "a silent cell skips its map for every k": (
        SEMANTICS, "if k is _payload:", "if True:", "laws",
    ),
    "a silent cell hands through untagged": (
        SEMANTICS, "return tag(read(pv))", "return read(pv)", "laws",
    ),
    "IterX's stop reads the first input": (
        SEMANTICS, "lambda: run_f(state, inp, k),", "lambda: run_f(state, a, k),", "laws",
    ),
    # the comparator
    "pval_equal says equal": (
        SEMANTICS, "return seen_p == seen_q", "return True", "test_semantics",
    ),
    "the observation writes 0 for a payload": (
        SEMANTICS, "out.append(pv)", "out.append(0)", "test_semantics",
    ),
    "a loop's step skips the loop": (
        PROTOCOL,
        "_chain(proto_factors(head.body), self)",
        "_chain(proto_factors(head.body), self.rest)",
        "laws",
    ),
    # the parser's share key
    "the share key drops non-cell arguments": (
        PARSER,
        "key = (word, *(id(x) if isinstance(x, Cell) else x for x in args))",
        "key = (word, *(id(x) for x in args if isinstance(x, Cell)))",
        "parser",
    ),
    "the share key takes a cell's class": (
        PARSER,
        "key = (word, *(id(x) if isinstance(x, Cell) else x for x in args))",
        "key = (word, *(type(x) if isinstance(x, Cell) else x for x in args))",
        "parser",
    ),
    # the worker pool of run_laws
    "the rows come back in completion order": (
        LAWS,
        "rows += pool.map(_law_at, range(len(picked)))",
        "rows += (f.result() for f in"
        ' __import__("concurrent.futures").futures.as_completed('
        "[pool.submit(_law_at, i) for i in range(len(picked))]))",
        "test_laws",
    ),
    "a law's build runs under the next name": (
        LAWS,
        "return _law_result(ctx, *picked[i])",
        "return _law_result(ctx, picked[(i + 1) % len(picked)][0], picked[i][1])",
        "test_laws",
    ),
    # definitions
    "deltaX ends with pi0": (
        PARSER,
        "iterX(id U; id (U^x); pi1{I, U * U^x})",
        "iterX(id U; id (U^x); pi0{I, U * U^x})",
        "laws",
    ),
    "etaP swaps its injections": (
        PARSER,
        "(id U / in0{I, U * U^+}) | in1{I, U * U^+}",
        "(id U / in1{I, U * U^+}) | in0{I, U * U^+}",
        "laws",
    ),
    "tensor crosses g's bottom": (
        PARSER, "(f | cross{fR, gT})", "(f | cross{fR, gB})", "test_derived",
    ),
    # the law suite's inputs
    "enumerated inputs share one label": (
        LAWS, 'lambda: f"u{next(count)}"', 'lambda: "u0"', "test_laws",
    ),
    # a law's own derived cell
    "sum-to-offer swaps its injections": (
        LAWS,
        "copair(putR a | in0{send a, send b}, putR b | in1{send a, send b})",
        "copair(putR a | in1{send a, send b}, putR b | in0{send a, send b})",
        "laws",
    ),
}


def run(copy, *args):
    return subprocess.run(
        [sys.executable, *args],
        cwd=copy,
        env=dict(os.environ, PYTHONPATH=str(copy / "src")),
        capture_output=True,
        text=True,
    )


def pytest_check(test_file):
    """A check that runs test_file in the copy: (whether the mutant is
    killed, the first failing test or the summary line)."""
    def check(copy):
        out = run(copy, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", test_file)
        lines = out.stdout.strip().splitlines() or [out.stderr.strip()]
        failed = [line.split(" - ")[0] for line in lines if line.startswith("FAILED")]
        return out.returncode != 0, (failed or lines)[-1]
    return check


def laws_check(copy):
    """Run the law suite on the bakery demo in the copy: (whether the
    mutant is killed, or None when it printed no rows; a summary)."""
    out = run(copy, "-m", "fcn.cli", "laws", "demos/bakery.fcn")
    rows = [line.split() for line in out.stdout.splitlines()]
    if not rows:
        return None, "no report: " + (out.stderr.strip().splitlines() or ["?"])[-1]
    bad = [row[0] for row in rows if len(row) > 1 and row[1] in ("fail", "error")]
    errors = sum(row[1] == "error" for row in rows if len(row) > 1)
    summary = f"{len(bad)} of {len(rows)} laws fail or error ({errors} error)"
    return bool(bad), summary + (f": {', '.join(bad)}" if bad else "")


CHECKS = {
    "rewrite": pytest_check("tests/test_rewrite.py"),
    "parser": pytest_check("tests/test_parser.py"),
    "test_laws": pytest_check("tests/test_laws.py"),
    "test_semantics": pytest_check("tests/test_semantics.py"),
    "test_derived": pytest_check("tests/test_derived.py"),
    "laws": laws_check,
}


def main():
    survivors = 0
    with tempfile.TemporaryDirectory() as tmp:
        copy = pathlib.Path(tmp)
        for part in ("src", "tests", "demos"):
            shutil.copytree(ROOT / part, copy / part,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", copy)
        for check, fn in CHECKS.items():
            killed, summary = fn(copy)
            status = "pass" if killed is False else "FAIL"
            print(f"{'unmutated (' + check + ')':<40} {status}  {summary}")
            if killed is not False:
                return 1
        for name, (path, old, new, check) in MUTANTS.items():
            source = (ROOT / path).read_text()
            if source.count(old) != 1:
                print(f"{name:<40} NOT APPLIED  {old!r} occurs {source.count(old)}x")
                survivors += 1
                continue
            (copy / path).write_text(source.replace(old, new))
            killed, summary = CHECKS[check](copy)
            (copy / path).write_text(source)
            print(f"{name:<40} {'killed' if killed else 'SURVIVED'} by {check}  {summary}")
            survivors += not killed
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
