import pathlib

import pytest

import goldens as g
from fcn import laws
from fcn import semantics
from fcn import signature as sg
from fcn.cells import Cell, GetR, HComp, IdH, IdV, Promote, PutR, VComp, boundary
from fcn.derived import simple_iter_x, vchain
from fcn.errors import BoundaryMismatch, IllTypedValue, NotEnumerable
from fcn.laws import EqConfig, LawResult, cells_equal, run_laws
from fcn.parser import parse_document, parse_term, show_cell
from fcn.protocol import DONE, ChooseP, RecvP, SendP, StarXP, seq_proto

A = g.DOUGH
DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"


def test_equal_cells(bakery):
    sig, val = bakery
    assert cells_equal(HComp(PutR(A), g.GetL(A)), IdV(A), sig, val)


def test_unequal_cells(bakery):
    sig, val = bakery
    assert not cells_equal(Promote(g.SWAP_DOUGH), IdV(A), sig, val)


def test_boundary_mismatch_raises(bakery):
    sig, val = bakery
    with pytest.raises(BoundaryMismatch):
        cells_equal(IdV(A), IdV(g.BREAD), sig, val)


def test_loop_cells_compared_by_sampling(bakery):
    sig, val = bakery
    swap2 = VComp(
        PutR(A), VComp(GetR(A), Promote(sg.Compose(g.SWAP_DOUGH, g.SWAP_DOUGH)))
    )
    from fcn.cells import IdH, IterX
    from fcn.protocol import DONE

    like_memory = IterX(swap2, IdV(A), IdH(DONE))
    assert cells_equal(g.memory, like_memory, sig, val, depth=3, samples=16)
    swapped = IterX(
        VComp(PutR(A), VComp(GetR(A), Promote(g.SWAP_DOUGH))), IdV(A), IdH(DONE)
    )
    assert not cells_equal(g.memory, swapped, sig, val, depth=3, samples=16)


def test_no_inputs_to_try_raises(bakery):
    sig, val = bakery
    idle = simple_iter_x(IdH(SendP(A)), sig)
    swap = simple_iter_x(vchain(g.GetL(A), Promote(g.SWAP_DOUGH), PutR(A)), sig)
    assert not cells_equal(idle, swap, sig, val, samples=16)
    # the left protocol is a loop: no input can be enumerated
    with pytest.raises(NotEnumerable):
        cells_equal(idle, swap, sig, val, samples=0)


def test_failing_law_names_its_instance(bakery, monkeypatch):
    sig, val = bakery
    name, _ = laws.LAWS[0]

    def build(ctx, law):
        return [
            (HComp(PutR(A), g.GetL(A)), IdV(A)),
            (Promote(g.SWAP_DOUGH), IdV(A)),
        ]

    monkeypatch.setattr(laws, "LAWS", [(name, build)] + laws.LAWS[1:])
    [row] = run_laws(sig, val, names=[name])
    assert (row.status, row.instances, row.detail) == ("fail", 1, "instance 1")
    assert str(row).endswith("fail     1 instance  (instance 1)")


def test_raising_check_fails_its_law_only(bakery, monkeypatch):
    sig, val = bakery
    (first, _), (second, _) = laws.LAWS[:2]

    def ill_typed(pv, a):
        raise IllTypedValue("no such environment")

    def build(ctx, law):
        return [(HComp(PutR(A), g.GetL(A)), IdV(A)), (IdV(A), ill_typed)]

    monkeypatch.setattr(laws, "LAWS", [(first, build)] + laws.LAWS[1:])
    rows = run_laws(sig, val, names=[first, second])
    assert [r.law for r in rows] == [first, second]
    assert (rows[0].status, rows[0].detail) == ("fail", "instance 1")
    assert rows[1].status == "pass" and rows[1].instances > 0


BIG = sg.GenObj("big")
BIG_LEFTS = {
    "!a . ?b": seq_proto(SendP(A), RecvP(BIG)),
    "(!a & !a^x) . ?b": seq_proto(ChooseP(SendP(A), StarXP(SendP(A))), RecvP(BIG)),
}


@pytest.mark.parametrize("left", BIG_LEFTS.values(), ids=BIG_LEFTS)
def test_inputs_enumerate_no_further_than_the_cap(left, monkeypatch):
    # 2^18 receive tables over an 18-value b: too many, so inputs are sampled
    _, val = g.bakery_signature()
    val.carriers["big"] = tuple(f"b{i}" for i in range(18))
    tables, table = [0], semantics.PTable

    def counted(entries):
        tables[0] += 1
        return table(entries)

    monkeypatch.setattr(semantics, "PTable", counted)
    inputs = laws._inputs(boundary(left, sg.UNIT, sg.UNIT, DONE), val, 4, 64, 0)
    assert len(inputs) == 64
    assert tables[0] <= laws._ENUM_CAP + 1


def test_sampling_deterministic(bakery):
    sig, val = bakery
    # same seed, same verdict path; different seed still same verdict
    for seed in (1, 1, 2):
        assert cells_equal(g.memory, g.memory, sig, val, depth=3, samples=8, seed=seed)


def test_law_result_formatting():
    row = LawResult("some-law", "pass", 7, None)
    text = str(row)
    assert "some-law" in text and "pass" in text and "7" in text


def test_eqconfig_defaults():
    cfg = EqConfig()
    assert cfg.depth == 4 and cfg.samples == 64 and cfg.seed == 0xFCC


@pytest.mark.parametrize("demo", sorted(p.name for p in DEMOS.glob("*.fcn")))
def test_every_law_side_round_trips(demo):
    doc = parse_document((DEMOS / demo).read_text())
    ctx = laws._Ctx(doc.sig, doc.val, EqConfig())
    sides = [
        side
        for name, build in laws.LAWS
        for check in build(ctx, name)
        for side in check[:2]
        if isinstance(side, Cell)
    ]
    assert sides
    for side in sides:
        assert parse_term(show_cell(side), "cell", doc) == side
