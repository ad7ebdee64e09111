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
