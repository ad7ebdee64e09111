import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


@pytest.mark.parametrize("name", mutants.MUTANTS)
def test_every_mutant_applies(name):
    # tools/mutants.py replaces the text once in its file and runs a named
    # check; a text edited away or a check renamed shows here, not only in
    # the slow tool run
    path, old, _, check = mutants.MUTANTS[name]
    assert (ROOT / path).read_text().count(old) == 1
    assert check in mutants.CHECKS


_spec = importlib.util.spec_from_file_location("lawtimes", ROOT / "tools" / "lawtimes.py")
lawtimes = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(lawtimes)


def test_lawtimes_times_one_law(capsys):
    argv = [str(ROOT / "demos" / "bakery.fcn"), "--law", "promote-id", "--repeat", "2"]
    assert lawtimes.main(argv) == 0
    head, row, total = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert head == ["law", "status", "instances", "best_s", "pval_equal"]
    # promote-id checks [id o] = 1 o for two objects, each on its inputs
    assert row[:3] == ["promote-id", "pass", "2"] and float(row[3]) >= 0
    assert int(row[4]) > 0
    assert total == ["total", row[3], row[4]]
