import multiprocessing
import os
import pathlib
import re

import pytest
from click.testing import CliRunner

from fcn import laws
from fcn.cells import IdV
from fcn.cli import main
from fcn.parser import parse_document, show_cell

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"
DEMO = str(DEMOS / "bakery.fcn")


def run(*args, **kw):
    return CliRunner().invoke(main, list(args), **kw)


def test_check_ok():
    r = run("check", DEMO)
    assert r.exit_code == 0
    lines = r.output.strip().splitlines()
    assert all(line.startswith("OK ") for line in lines)
    assert any(line.startswith("OK bakery :") for line in lines)


@pytest.mark.parametrize("name", ["bakery", "choice", "sales"])
def test_check_prints_boundaries_that_parse_back(name):
    # each printed boundary, as the header of a cell declaration over the
    # cell's printed term, parses back to the same boundary and term
    path = DEMOS / f"{name}.fcn"
    source = path.read_text()
    doc = parse_document(source)
    r = run("check", str(path))
    assert r.exit_code == 0
    lines = r.output.strip().splitlines()
    assert len(lines) == len(doc.cells)
    for line in lines:
        cell, boundary = re.fullmatch(r"OK (\w+) : (.*)", line).groups()
        decl = doc.cells[cell]
        text = f"cell again : {boundary} = {show_cell(decl.term)};"
        again = parse_document(source + text).cells["again"]
        assert again.declared == decl.declared
        assert again.term == decl.term


def test_check_reports_first_error(tmp_path):
    bad = tmp_path / "bad.fcn"
    bad.write_text(
        "object a;\ncarrier a = { a0 };\n"
        "cell k : [ I | a -> a | I ] = putR a | putR a;\n"
    )
    r = run("check", str(bad))
    assert r.exit_code != 0
    assert "mismatch" in r.output


def test_check_empty_file(tmp_path):
    empty = tmp_path / "empty.fcn"
    empty.write_text("")
    r = run("check", str(empty))
    assert r.exit_code == 0
    assert r.output.strip() == ""


def test_normalize_fuses_bakery():
    r = run("normalize", DEMO, "--cell", "bakery", "--trace-rules")
    assert r.exit_code == 0
    assert "[((knead * id(oven)) ; bake)]" in r.output
    assert "snap-send-around" in r.output


def test_normalize_already_normal():
    r = run("normalize", DEMO, "--cell", "memory")
    assert r.exit_code == 0
    assert "0 steps" in r.output


def test_normalize_budget_zero():
    r = run("normalize", DEMO, "--cell", "bakery", "--budget", "0")
    assert r.exit_code == 0
    assert "budget exhausted" in r.output


def test_normalize_unknown_cell():
    r = run("normalize", DEMO, "--cell", "nope")
    assert r.exit_code != 0
    assert "nope" in r.output


def test_eval_closed_cell():
    r = run("eval", DEMO, "--cell", "bakery", "--input", "(rye, hot)")
    assert r.exit_code == 0
    assert r.output.strip() == "result (ryeloaf, hot)"


def test_eval_with_script(tmp_path):
    script = tmp_path / "moves"
    script.write_text("continue\nrecv wheatdough\nstop\n")
    r = run(
        "eval", DEMO, "--cell", "memory", "--input", "ryedough",
        "--script", str(script),
    )
    assert r.exit_code == 0
    assert r.output.strip().splitlines() == [
        "sent ryedough",
        "result wheatdough",
    ]


def test_eval_rejects_ill_typed_input(tmp_path):
    script = tmp_path / "moves"
    script.write_text("stop\n")
    r = run(
        "eval", DEMO, "--cell", "memory", "--input", "(bogus, 7)",
        "--script", str(script),
    )
    assert r.exit_code == 1
    assert r.output.startswith("Error: ")
    assert "result" not in r.output


def test_eval_script_errors():
    r = run("eval", DEMO, "--cell", "memory", "--input", "ryedough")
    assert r.exit_code != 0


LAWS_SAMPLES_ZERO = """\
absorb-above                       pass     4 instances
absorb-left                        pass     6 instances
absorb-right                       pass     3 instances
assoc-above                        pass     3 instances
assoc-beside                       pass     3 instances
branch-beta                        pass     2 instances
choose-beta                        pass     4 instances
comonad-x                          skipped  0 instances  (needs sampled inputs)
comonoid-x                         skipped  0 instances  (needs sampled inputs)
comonoid-x-natural                 skipped  0 instances  (needs sampled inputs)
copair-coincide                    pass     2 instances
copairing-surjective               pass     2 instances
crossing-strength                  pass     5 instances  (2 skipped)
crossing-sum                       pass     3 instances
crossing-swap                      pass     21 instances
crossing-tensor                    pass     5 instances  (2 skipped)
crossing-unit                      pass     5 instances  (1 skipped)
interchange                        pass     25 instances
loop-p-beta                        pass     2 instances  (4 skipped)
loop-x-beta                        pass     2 instances  (6 skipped)
loop-x-mediate                     skipped  0 instances  (needs sampled inputs)
monad-p                            skipped  0 instances  (needs sampled inputs)
monoid-p                           skipped  0 instances  (needs sampled inputs)
monoid-p-natural                   skipped  0 instances  (needs sampled inputs)
moral-equiv-recv                   pass     2 instances
moral-equiv-send                   pass     2 instances
offer-beta                         pass     4 instances
pairing-surjective                 pass     2 instances
promote-compose                    pass     2 instances
promote-id                         pass     2 instances
promote-tensor                     pass     2 instances
rewrite-sound                      pass     31 instances
unit-above                         pass     22 instances
unit-beside                        pass     22 instances
yank-recv-h                        pass     2 instances
yank-recv-v                        pass     2 instances
yank-send-h                        pass     2 instances
yank-send-v                        pass     2 instances
"""


def test_laws_without_objects_is_an_error(tmp_path):
    doc = tmp_path / "comment.fcn"
    doc.write_text("# nothing declared\n")
    r = run("laws", str(doc))
    assert r.exit_code == 1
    assert r.output == "Error: the law suite needs at least one object\n"
    assert isinstance(r.exception, SystemExit)


def test_laws_error_row_exits_1(monkeypatch):
    def not_subscriptable(pv, a):
        raise TypeError("'PMap' object is not subscriptable")

    name, _ = laws.LAWS[0]
    build = lambda ctx, law: [(IdV(ctx.a), not_subscriptable)]
    monkeypatch.setattr(laws, "LAWS", [(name, build)] + laws.LAWS[1:])
    r = run("laws", DEMO, "--depth", "1", "--samples", "1")
    assert r.exit_code == 1
    rows = r.output.splitlines()
    assert len(rows) == len(laws.LAWS)
    assert [row.split()[1] for row in rows].count("error") == 1


def test_laws_dying_worker_exits_1(monkeypatch, deadline):
    def dies(ctx, law):
        os._exit(3)

    name, _ = sorted(laws.LAWS)[0]
    monkeypatch.setattr(laws, "LAWS", [(name, dies)] + sorted(laws.LAWS)[1:])
    r = run("laws", DEMO, "--depth", "1", "--samples", "1")
    assert r.exit_code == 1
    assert isinstance(r.exception, SystemExit)
    assert "Traceback" not in r.output
    rows = r.output.splitlines()
    assert len(rows) == len(laws.LAWS)
    assert rows[0].split()[:3] == [name, "error", "0"]
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("option", ["--samples", "--depth"])
def test_laws_refuses_a_negative_count(option):
    # a negative count drew no inputs, and every check of no inputs passed
    r = run("laws", DEMO, option, "-1")
    assert r.exit_code == 2
    assert f"Error: Invalid value for '{option}': -1 is not in the range x>=0." in r.output
    assert "pass" not in r.output


def test_laws_skipped_when_samples_zero():
    r = run("laws", DEMO, "--samples", "0")
    assert r.exit_code == 0
    assert "skipped" in r.output
    assert "fail" not in r.output
    # enumerable-only laws still run
    assert any(
        "pass" in line for line in r.output.splitlines()
    )
    # every verdict, instance count and skip count of the whole report
    assert r.output == LAWS_SAMPLES_ZERO
