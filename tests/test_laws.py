import itertools
import multiprocessing
import os
import pathlib
import random
import re
import time

import pytest

import goldens as g
from fcn import laws
from fcn import semantics
from fcn import signature as sg
from fcn.cells import (
    Cell, GetR, HComp, IdH, IdV, Promote, PutR, VComp, boundary, infer_boundary,
)
from fcn.derived import define, vchain
from fcn.errors import BoundaryMismatch, FcnError, IllTypedValue, NotEnumerable
from fcn.gen import rand_pval, rand_value
from fcn.laws import EqConfig, LawResult, cells_equal, run_laws
from fcn.parser import parse_document, parse_term, show_cell
from fcn.protocol import (
    DONE, ChooseP, OfferP, RecvP, SendP, StarXP, proto_factors, proto_steps, seq_proto,
)

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
    idle = define("iterXs(c)", sig, c=IdH(SendP(A)))
    swap = define("iterXs(c)", sig, c=vchain(g.GetL(A), Promote(g.SWAP_DOUGH), PutR(A)))
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


def test_a_law_that_cannot_be_built_fails_alone(bakery, monkeypatch):
    # an ill-typed instance raises while the checks are built: its law
    # gets a fail row and the others run
    sig, val = bakery
    (first, _), (second, _) = laws.LAWS[:2]

    def build(ctx, law):
        return laws._eqs((["c = c"], [{"c": "putR a | getL b"}]))(ctx, law)

    monkeypatch.setattr(laws, "LAWS", [(first, build)] + laws.LAWS[1:])
    rows = run_laws(sig, val, names=[first, second])
    assert (rows[0].status, rows[0].instances) == ("fail", 0)
    assert rows[0].detail.startswith("build: BoundaryMismatch: ")
    assert rows[1].status == "pass" and rows[1].instances > 0


def test_raising_engine_fault_is_an_error_row(bakery, monkeypatch):
    # a check that raises anything but an FcnError is a fault of the engine:
    # its law gets an error row naming the instance, and every other law runs
    sig, val = bakery
    name, _ = laws.LAWS[0]

    def not_subscriptable(pv, a):
        raise TypeError("'PMap' object is not subscriptable")

    def build(ctx, law):
        return [(HComp(PutR(A), g.GetL(A)), IdV(A)), (IdV(A), not_subscriptable)]

    monkeypatch.setattr(laws, "LAWS", [(name, build)] + laws.LAWS[1:])
    rows = run_laws(sig, val, EqConfig(depth=1, samples=1))
    assert [r.law for r in rows] == sorted(n for n, _ in laws.LAWS)
    [error] = [r for r in rows if r.law == name]
    assert str(error) == (
        f"{name:<34} error    1 instance"
        "  (instance 1: TypeError: 'PMap' object is not subscriptable)"
    )
    assert all(r.status == "pass" for r in rows if r is not error)


BIG = sg.GenObj("big")
# left protocols over an 18-value b, with the number of inputs each gets,
# or None where the inputs are sampled
BIG_LEFTS = {
    # 2 shapes, one per sent a, each with a table of 18 labelled leaves
    "!a . ?b": (seq_proto(SendP(A), RecvP(BIG)), 2),
    # 18^4 shapes, more than the cap: sampled
    "!b . !b . !b . !b": (seq_proto(*[SendP(BIG)] * 4), None),
    # a loop inside a branch: sampled
    "(!a & !a^x) . ?b": (
        seq_proto(ChooseP(SendP(A), StarXP(SendP(A))), RecvP(BIG)), None
    ),
}


@pytest.mark.parametrize("left, count", BIG_LEFTS.values(), ids=BIG_LEFTS)
def test_inputs_enumerate_no_further_than_the_cap(left, count, monkeypatch):
    _, val = g.bakery_signature()
    val.carriers["big"] = tuple(f"b{i}" for i in range(18))
    built = [0]
    for name in ("PSend", "PTable"):

        def counted(*parts, make=getattr(semantics, name)):
            built[0] += 1
            return make(*parts)

        monkeypatch.setattr(semantics, name, counted)
    inputs = laws._inputs(boundary(left, sg.UNIT, sg.UNIT, DONE), val, 4, 64, 0)
    # the shapes are counted before any is built, and enumerated only up
    # to the cap; enumerating all 18^4 shapes would build 111,150 sends
    assert built[0] <= len(proto_factors(left)) * (laws._ENUM_CAP + 1)
    monkeypatch.undo()
    if count is not None:
        assert len(inputs) == count
        return
    # sampled: the distinct shapes among 64 draws, with sampled leaves
    assert 0 < len(inputs) <= 64
    for pv, _ in inputs:
        labels = re.findall(r"\b[su]\d+\b", semantics.pval_show(pv, proto_steps(left)))
        assert labels and all(label.startswith("s") for label in labels)


def test_inputs_count_the_shapes_before_building_any(monkeypatch):
    # recv big * send big over 300 values has 300^300 shapes: _inputs
    # counts them and samples at once, with no environment built before
    _, val = g.bakery_signature()
    val.carriers["big"] = tuple(f"b{i}" for i in range(300))
    built, at_draws = [0], []
    for name in ("PSend", "PTable"):

        def counted(*parts, make=getattr(semantics, name)):
            built[0] += 1
            return make(*parts)

        monkeypatch.setattr(semantics, name, counted)
    draw = laws.rand_pval

    def drawn(*args):
        at_draws.append(built[0])
        return draw(*args)

    monkeypatch.setattr(laws, "rand_pval", drawn)
    left = seq_proto(RecvP(BIG), SendP(BIG))
    inputs = laws._inputs(boundary(left, sg.UNIT, sg.UNIT, DONE), val, 4, 64, 0)
    assert at_draws == [0] * 64
    assert 0 < len(inputs) <= 64


def test_a_large_receive_table_is_enumerated_in_one_product():
    # a table takes its entries from one product over a pool per key; a
    # walk that recursed once per key would raise RecursionError here
    _, val = g.bakery_signature()
    val.carriers["big"] = tuple(f"b{i}" for i in range(2000))
    left = seq_proto(SendP(A), RecvP(BIG))
    inputs = laws._inputs(boundary(left, sg.UNIT, sg.UNIT, DONE), val, 4, 64, 0)
    assert len(inputs) == 2
    for pv, _ in inputs:
        leaves = list(pv.rest.table.values())
        assert len(set(leaves)) == len(leaves) == 2000


def test_enumerated_inputs_label_each_shape_once(bakery):
    _, val = bakery
    left = seq_proto(ChooseP(SendP(A), RecvP(A)), OfferP(RecvP(g.OVEN), SendP(A)))
    inputs = laws._inputs(boundary(left, A, A, DONE), val, 4, 64, 0)
    steps = proto_steps(left)
    shapes = list(semantics.pval_enumerate(steps, lambda: None, val))
    assert len(inputs) == 2 * len(shapes) == 2 * (2 * 3) * (3 * 3)
    shown = [(semantics.pval_show(pv, steps), a) for pv, a in inputs]
    for text, _ in shown:
        # the numbering runs across the inputs, but no label repeats in one
        labels = re.findall(r"\bu\d+\b", text)
        assert len(set(labels)) == len(labels) > 1
    unlabelled = {(re.sub(r"\bu\d+\b", "x", text), a) for text, a in shown}
    assert len(unlabelled) == len(inputs)


def _observed_shape(pv, steps, depth):
    """The observation of pv at `depth` with its payloads renamed 0, 1, ...
    in order of first appearance.  rand_pval settles every ^x handle into a
    cycle, its own next layer, after `depth` rounds, so observing one round
    deeper sees every distinct layer: equal for two draws exactly when they
    are equal up to renaming their payloads."""
    seen, names, key = [], {}, None
    semantics._observe(seen, pv, steps, max(depth, 0) + 1)
    for i, t in enumerate(seen):
        if type(t) is semantics._Mark:
            key = t.key
        elif key is not None:
            key = None  # a sent value or a table key, not a payload
        else:
            seen[i] = names.setdefault(t, len(names))
    return tuple(seen)


@pytest.mark.parametrize("demo", sorted(p.name for p in DEMOS.glob("*.fcn")))
def test_sampled_shape_key_is_exact(demo):
    # the law suite checks a sampled input only if no input of the same
    # shape key was checked before; the key must split the draws of every
    # sampled check exactly as their observations one round deeper do
    doc = parse_document((DEMOS / demo).read_text())
    ctx = laws._Ctx(doc.sig, doc.val, EqConfig())
    bounds = {
        infer_boundary(check[0], doc.sig)
        for name, build in laws.LAWS
        for check in build(ctx, name)
    }
    shared = 0
    sampled = [b for b in bounds if laws._inputs(b, doc.val, 4, 0, 0) is None]
    for bound in sorted(sampled, key=str):
        left = proto_steps(bound.left)
        for depth in (4, 0, -1):
            # the draws _inputs makes, before it drops repeated keys
            rng, count = random.Random(laws.DEFAULT_SEED), itertools.count()
            mk = lambda: f"s{next(count)}"
            draws = [
                (rand_pval(rng, left, mk, doc.val, depth), rand_value(rng, bound.top, doc.val))
                for _ in range(64)
            ]
            keys = [(semantics.pval_shape(pv, left), a) for pv, a in draws]
            seen = [(_observed_shape(pv, left, depth), a) for pv, a in draws]
            assert [keys.index(k) for k in keys] == [seen.index(o) for o in seen]
            shared += len(keys) - len(set(keys))
            # _inputs keeps the first draw of each key, in draw order
            inputs = laws._inputs(bound, doc.val, depth, 64, laws.DEFAULT_SEED)
            kept = [semantics.pval_show(pv, left, depth) for pv, _ in inputs]
            firsts = [draws[keys.index(k)][0] for k in dict.fromkeys(keys)]
            assert kept == [semantics.pval_show(pv, left, depth) for pv in firsts]
    assert shared > 0


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


RELAYS = """
mor swapdough : dough -> dough;
map swapdough = { ryedough -> wheatdough; wheatdough -> ryedough; };
cell relay : [ (send dough)^+ | I -> I | (send dough)^+ ] = id ((send dough)^+);
cell swaprelay : [ (send dough)^+ | I -> I | (send dough)^+ ] =
  iterPs(getL dough / [swapdough] / putR dough);
"""


def test_negative_counts_are_refused():
    # a negative count drew no inputs, and a check of no inputs passed
    doc = parse_document((DEMOS / "bakery.fcn").read_text() + RELAYS)
    relay, swaprelay = doc.cells["relay"].term, doc.cells["swaprelay"].term
    assert not cells_equal(relay, swaprelay, doc.sig, doc.val, samples=64)
    with pytest.raises(FcnError, match="^samples must be at least 0, got -1$"):
        cells_equal(relay, swaprelay, doc.sig, doc.val, samples=-1)
    with pytest.raises(FcnError, match="^depth must be at least 0, got -2$"):
        cells_equal(relay, swaprelay, doc.sig, doc.val, depth=-2)
    EqConfig(depth=0, samples=0)  # zero is allowed


def test_rows_are_the_in_process_results():
    # each law run in a worker gives the row it gives in this process, so no
    # law's state leaks into the next law its worker runs
    doc = parse_document((DEMOS / "bakery.fcn").read_text())
    cfg = EqConfig(depth=2, samples=4)
    ctx = laws._Ctx(doc.sig, doc.val, cfg)
    alone = [laws._law_result(ctx, name, build) for name, build in sorted(laws.LAWS)]
    assert run_laws(doc.sig, doc.val, cfg) == alone
    assert multiprocessing.active_children() == []


def test_rows_come_back_in_name_order(bakery, tmp_path, monkeypatch, deadline):
    # the first law finishes after the other two, which a second worker runs
    sig, val = bakery
    (first, _), (second, build2), (third, build3) = sorted(laws.LAWS)[:3]
    done = tmp_path / "done"

    def finished(build):
        def run(ctx, law):
            checks = build(ctx, law)
            with open(done, "a") as fh:
                fh.write(law + "\n")
            return checks

        return run

    def slow(ctx, law):
        time.sleep(0.5)
        return [(HComp(PutR(A), g.GetL(A)), IdV(A))]

    picked = [(first, finished(slow)), (second, finished(build2)), (third, finished(build3))]
    monkeypatch.setattr(laws, "LAWS", picked)
    rows = run_laws(sig, val)
    assert [(r.law, r.status) for r in rows] == [(n, "pass") for n, _ in picked]
    if len(os.sched_getaffinity(0)) > 1:
        assert done.read_text().split() == [second, third, first]


def test_a_dying_worker_gives_error_rows(bakery, monkeypatch, deadline):
    # the worker running the first law exits: that law and every law after
    # it in name order get error rows, and no worker is left running
    sig, val = bakery
    names = [name for name, _ in sorted(laws.LAWS)[:4]]

    def dies(ctx, law):
        os._exit(3)

    monkeypatch.setattr(laws, "LAWS", [(names[0], dies)] + sorted(laws.LAWS)[1:])
    rows = run_laws(sig, val, names=names)
    assert [r.law for r in rows] == names
    assert (rows[0].status, rows[0].instances) == ("error", 0)
    assert rows[0].detail.startswith("BrokenProcessPool: ")
    assert [r.status for r in rows[1:]] == ["error"] * 3
    assert multiprocessing.active_children() == []


def test_a_worker_dying_before_every_law_is_sent(bakery, monkeypatch, deadline):
    # the pool breaks while run_laws is still handing out laws: the laws it
    # could not send get error rows too, rather than the call raising
    from concurrent.futures import ProcessPoolExecutor, wait

    sig, val = bakery
    names = [name for name, _ in sorted(laws.LAWS)[:4]]
    submit = ProcessPoolExecutor.submit

    def submit_then_wait(pool, fn, *args):
        future = submit(pool, fn, *args)
        wait([future])
        return future

    def dies(ctx, law):
        os._exit(3)

    monkeypatch.setattr(laws, "LAWS", [(names[0], dies)] + sorted(laws.LAWS)[1:])
    monkeypatch.setattr(ProcessPoolExecutor, "submit", submit_then_wait)
    rows = run_laws(sig, val, names=names)
    assert [(r.law, r.status, r.instances) for r in rows] == [(n, "error", 0) for n in names]
    assert all(r.detail.startswith("BrokenProcessPool: ") for r in rows)
    assert multiprocessing.active_children() == []
