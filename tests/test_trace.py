import pathlib
import random

import pytest

import goldens as g
from fcn import semantics
from fcn import signature as sg
from fcn.cells import GetL, GetR, HComp, IdH, Promote, PutR, Times, VComp
from fcn.errors import IllTypedValue, ScriptOverrun, ScriptUnderrun, WrongMove
from fcn.parser import parse_document
from fcn.protocol import RecvP, SendP, StarXP, proto_steps, seq_proto
from fcn.semantics import Interp
from fcn.trace import ContinueMove, PickMove, RecvMove, StopMove, run_trace

A = g.DOUGH
RYE = sg.AtomV("ryedough")
WHEAT = sg.AtomV("wheatdough")


def test_send_trace(interp):
    assert run_trace(interp, PutR(A), RYE, []) == ["sent ryedough", "result ()"]


def test_recv_trace(interp):
    events = run_trace(interp, GetR(A), sg.UNITV, [RecvMove(WHEAT)])
    assert events == ["result wheatdough"]


def test_memory_golden(interp):
    events = run_trace(
        interp,
        g.memory,
        RYE,
        [
            ContinueMove(),
            RecvMove(WHEAT),
            ContinueMove(),
            RecvMove(RYE),
            StopMove(),
        ],
    )
    assert events == ["sent ryedough", "sent wheatdough", "result ryedough"]


def test_memory_stop_immediately(interp):
    assert run_trace(interp, g.memory, RYE, [StopMove()]) == ["result ryedough"]


def test_pick_trace(interp):
    plain = VComp(PutR(A), GetR(A))
    swapped = VComp(PutR(A), VComp(GetR(A), Promote(g.SWAP_DOUGH)))
    t = Times(plain, swapped)
    events = run_trace(interp, t, RYE, [PickMove(0), RecvMove(WHEAT)])
    assert events == ["sent ryedough", "result wheatdough"]
    events = run_trace(interp, t, RYE, [PickMove(1), RecvMove(WHEAT)])
    assert events == ["sent ryedough", "result ryedough"]


def test_open_left_is_rejected(interp):
    with pytest.raises(IllTypedValue):
        run_trace(interp, GetL(A), sg.UNITV, [])


def test_script_underrun(interp):
    with pytest.raises(ScriptUnderrun):
        run_trace(interp, GetR(A), sg.UNITV, [])


def test_script_overrun(interp):
    with pytest.raises(ScriptOverrun):
        run_trace(interp, PutR(A), RYE, [RecvMove(RYE)])


def test_wrong_move(interp):
    with pytest.raises(WrongMove):
        run_trace(interp, GetR(A), sg.UNITV, [PickMove(0)])
    with pytest.raises(WrongMove):
        run_trace(interp, g.memory, RYE, [RecvMove(RYE)])


def test_wrong_recv_value(interp):
    with pytest.raises(WrongMove):
        run_trace(interp, GetR(A), sg.UNITV, [RecvMove(sg.AtomV("hot"))])


def test_mealy_word_trace():
    table = {
        ("i0", "s0"): ("s1", "o1"),
        ("i1", "s0"): ("s0", "o0"),
        ("i0", "s1"): ("s0", "o0"),
        ("i1", "s1"): ("s1", "o1"),
    }
    sig, val, (a, s, b) = g.mealy_signature(2, 2, 2, table)
    interp = Interp(sig, val)
    cell = g.mealy_driver(["i0", "i1", "i0"], sig, a, s, b)
    events = run_trace(interp, cell, sg.AtomV("s0"), [])
    assert events == [
        "more",
        "sent o1",
        "more",
        "sent o1",
        "more",
        "sent o0",
        "halted",
        "result s0",
    ]


def test_offer_events(interp):
    # a committed injection shows up as an offered event on the right
    from fcn.protocol import SendP

    c = HComp(
        VComp(g.Promote(sg.ConstMor(g.BREAD, sg.AtomV("ryeloaf"))), PutR(g.BREAD)),
        g.Inj0(SendP(g.BREAD), SendP(A)),
    )
    events = run_trace(interp, c, sg.UNITV, [])
    assert events == ["offered 0", "sent ryeloaf", "result ()"]


def test_top_input_checked_against_boundary(interp):
    with pytest.raises(IllTypedValue):
        run_trace(interp, g.memory, sg.AtomV("ryeloaf"), [StopMove()])
    with pytest.raises(IllTypedValue):
        run_trace(interp, PutR(A), sg.TupleV((RYE, RYE)), [])


# Long runs must fit under the default recursion limit, which is never
# raised: the interpreter's stack grows by a few frames per letter of a
# word sender, while the trace walk is a loop and keeps its depth.


def test_long_mealy_word_trace():
    rng = random.Random("long-mealy")
    table = {
        (f"i{i}", f"s{q}"): (f"s{rng.randrange(3)}", f"o{rng.randrange(2)}")
        for i in range(2)
        for q in range(3)
    }
    sig, val, (a, s, b) = g.mealy_signature(3, 2, 2, table)
    word = [f"i{rng.randrange(2)}" for _ in range(160)]
    cell = g.mealy_driver(word, sig, a, s, b)
    events = run_trace(Interp(sig, val), cell, sg.AtomV("s0"), [])
    state, expect = "s0", []
    for letter in word:
        state, out = table[(letter, state)]
        expect += ["more", f"sent {out}"]
    assert events == expect + ["halted", f"result {state}"]


@pytest.mark.parametrize("rounds", [200, 2000])
def test_long_memory_script(rounds):
    demo = pathlib.Path(__file__).resolve().parent.parent / "demos" / "bakery.fcn"
    doc = parse_document(demo.read_text())
    rng = random.Random("long-memory")
    doughs = [RYE, WHEAT]
    stored = [rng.choice(doughs) for _ in range(rounds)]
    moves = []
    for v in stored:
        moves += [ContinueMove(), RecvMove(v)]
    moves.append(StopMove())
    events = run_trace(
        Interp(doc.sig, doc.val), doc.cells["memory"].term, RYE, moves
    )
    sent = [RYE] + stored[:-1]
    assert events == [f"sent {v}" for v in sent] + [f"result {stored[-1]}"]


class _Forwarding:
    """Stands in for an Interp, forwarding only apply and attribute reads."""

    def __init__(self, interp):
        self._interp = interp

    def apply(self, c, pv, a):
        return self._interp.apply(c, pv, a)

    def __getattr__(self, name):
        return getattr(self._interp, name)


def test_trace_through_a_forwarding_interp(interp):
    moves = [ContinueMove(), RecvMove(WHEAT), StopMove()]
    events = run_trace(_Forwarding(interp), g.memory, RYE, moves)
    assert events == run_trace(interp, g.memory, RYE, moves)
    assert events[-1] == "result wheatdough"


# ---------------------------------------------------------------------------
# A trace costs the path it walks: a read forces only what it reaches, so
# the environment layers built grow with the length of the run, not with
# the number of paths through the output.

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"
_LAYERS = (
    semantics.PSend,
    semantics.PTable,
    semantics.PInl,
    semantics.PInr,
    semantics.PPair,
    semantics.PMap,
)


def _layers_built(monkeypatch, run):
    """run() and the number of environment layers, pending maps included,
    that were built while it ran."""
    built = []

    def counting(init):
        def counted(self, *args):
            built.append(type(self))
            init(self, *args)

        return counted

    for cls in _LAYERS:
        monkeypatch.setattr(cls, "__init__", counting(cls.__init__))
    lazy = semantics.PPair.lazy.__func__

    def counted_lazy(cls, *thunks):
        built.append(cls)
        return lazy(cls, *thunks)

    monkeypatch.setattr(semantics.PPair, "lazy", classmethod(counted_lazy))
    out = run()
    monkeypatch.undo()
    return out, len(built)


def _sales_queue(k):
    """The seller of demos/sales.fcn, stocked with one loaf, against a
    queue of k customers who each pay c1: the document's cell `run`."""
    got = "(coin (+) bread)"
    lines = [(DEMOS / "sales.fcn").read_text()]
    prev = "nobody"
    for i in range(1, k + 1):
        lines.append(
            f"cell q{i} : [ I | I -> {' * '.join([got] * i)} | (customerP)^+ ] =\n"
            f"  (customer / (1 {got} | {prev})) | in1{{I, customerP * (customerP)^+}};"
        )
        prev = f"q{i}"
    lines.append(
        f"cell run : [ I | I -> {' * '.join([got] * k)} * shelf * till | I ] =\n"
        f"  {prev} | ([const(shelf * till, ([ryeloaf], []))] / sales);"
    )
    return parse_document("\n".join(lines))


def test_sales_trace_layers_grow_linearly(monkeypatch):
    counts = []
    for k in (4, 8):
        doc = _sales_queue(k)
        run = lambda: run_trace(
            Interp(doc.sig, doc.val), doc.cells["run"].term, sg.UNITV, []
        )
        events, n = _layers_built(monkeypatch, run)
        # the first customer buys the loaf, the others are refunded
        paid = ", ".join(["inr ryeloaf"] + ["inl c1"] * (k - 1))
        assert events == [f"result ({paid}, [], [c1])"]
        counts.append(n)
    assert counts[1] <= 2.5 * counts[0], counts


def test_mealy_trace_layers_grow_linearly(monkeypatch):
    table = {
        ("i0", "s0"): ("s1", "o1"),
        ("i1", "s0"): ("s0", "o0"),
        ("i0", "s1"): ("s0", "o0"),
        ("i1", "s1"): ("s1", "o1"),
    }
    sig, val, (a, s, b) = g.mealy_signature(2, 2, 2, table)
    counts = []
    for n in (40, 160):
        word = ["i0", "i1"] * (n // 2)
        cell = g.mealy_driver(word, sig, a, s, b)
        run = lambda: run_trace(Interp(sig, val), cell, sg.AtomV("s0"), [])
        events, built = _layers_built(monkeypatch, run)
        assert len(events) == 2 * n + 2 and events[-1] == "result s0"
        counts.append(built)
    assert counts[1] <= 5 * counts[0], counts


def test_a_cut_off_handle_builds_no_layer(monkeypatch):
    # the observation cuts a ^x handle off at depth 0 before it resolves a
    # pending map over it, so no layer of the map is built
    steps = proto_steps(StarXP(SendP(A)))
    handle = semantics.PPair("x", None)
    handle.right = semantics.PSend(RYE, handle)
    mapped = semantics.pval_map(handle, steps, str.upper)
    shown, built = _layers_built(monkeypatch, lambda: semantics.pval_show(mapped, steps, 0))
    assert (shown, built) == ("#handle", 0)
    shown, built = _layers_built(monkeypatch, lambda: semantics.pval_show(mapped, steps, 1))
    assert shown == "<X, (ryedough, #handle)>" and built > 0


def test_silent_maps_over_equal_lists_compose(monkeypatch):
    # each IdH has its own protocol object, and so its own step chain; the
    # maps still compose, since their factor lists are equal: 7 layers,
    # where maps that did not compose would build a layer per map per level
    sig, val = g.bakery_signature()
    protos = [seq_proto(SendP(A), RecvP(A)) for _ in range(4)]
    assert protos[0] == protos[3] and protos[0] is not protos[3]
    cell = HComp(IdH(protos[0]), HComp(IdH(protos[1]), HComp(IdH(protos[2]), IdH(protos[3]))))
    pv = semantics.PSend(RYE, semantics.PTable({RYE: "x", WHEAT: "y"}))
    interp = Interp(sig, val)
    run = lambda: semantics.pval_show(interp.apply(cell, pv, sg.UNITV), proto_steps(protos[3]))
    shown, built = _layers_built(monkeypatch, run)
    assert shown == "(ryedough, {ryedough -> (x, ()), wheatdough -> (y, ())})"
    assert built == 7
