import dataclasses
import gc
import itertools
import pathlib
import random
import re
import weakref

import pytest

import goldens as g
from fcn import cells
from fcn import derived as dv
from fcn import semantics
from fcn import signature as sg
from fcn.cells import (
    Cell,
    CopairC,
    GetL,
    GetR,
    HComp,
    IdH,
    IdV,
    Inj0,
    Inj1,
    Pi0,
    Pi1,
    Promote,
    PutL,
    PutR,
    Times,
    VComp,
    boundary,
    infer_boundary,
)
from fcn.errors import IllTypedValue, InfiniteRecvCarrier, NotEnumerable
from fcn.gen import gen_cell, rand_pval, rand_value
from fcn.parser import parse_document
from fcn.protocol import (
    DONE,
    OfferP,
    RecvP,
    SendP,
    StarPP,
    StarXP,
    proto_steps,
    seq_proto,
)
from fcn.semantics import (
    Interp,
    PInl,
    PInr,
    PPair,
    PSend,
    PTable,
    pval_enumerate,
    pval_equal,
    pval_map,
    pval_show,
)

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"

A = g.DOUGH
RYE = sg.AtomV("ryedough")
WHEAT = sg.AtomV("wheatdough")


def test_putr_sends_input(interp):
    pv = interp.apply(PutR(A), None, RYE)
    assert isinstance(pv, PSend)
    assert pv.value == RYE
    assert pv.rest == (None, sg.UNITV)


def test_getr_tabulates(interp):
    pv = interp.apply(GetR(A), None, sg.UNITV)
    assert isinstance(pv, PTable)
    assert set(pv.table) == {RYE, WHEAT}
    assert pv.table[RYE] == (None, RYE)


def test_getr_infinite_carrier(interp):
    with pytest.raises(InfiniteRecvCarrier):
        interp.apply(GetR(sg.Stack(A)), None, sg.UNITV)


def test_snap_send(interp):
    pv = interp.apply(HComp(PutR(A), GetL(A)), None, RYE)
    assert pv == (None, RYE)


def test_promote_evaluates(interp):
    pv = interp.apply(Promote(g.KNEAD), None, sg.AtomV("rye"))
    assert pv == (None, RYE)


def test_bakery_composite(interp):
    top = sg.TupleV((sg.AtomV("rye"), sg.AtomV("hot")))
    pv = interp.apply(g.bakery, None, top)
    assert pv == (None, sg.TupleV((sg.AtomV("ryeloaf"), sg.AtomV("hot"))))


def test_vcomp_threads_protocols(interp):
    c = VComp(PutR(A), GetR(A))
    pv = interp.apply(c, None, RYE)
    assert isinstance(pv, PSend) and pv.value == RYE
    table = pv.rest
    assert isinstance(table, PTable)
    assert table.table[WHEAT] == (None, WHEAT)


def test_pval_enumerate_counts(bakery):
    _, val = bakery
    leaf = itertools.count().__next__
    assert len(list(pval_enumerate(proto_steps(SendP(A)), leaf, val))) == 2
    protos = proto_steps(seq_proto(SendP(A), RecvP(A), SendP(A)))
    pvals = list(pval_enumerate(protos, leaf, val))
    # 2 sent values, times one sent value per entry of the receive table
    assert len(pvals) == 2 * (2 * 2)
    assert len({(pv.value, *(e.value for e in pv.rest.table.values())) for pv in pvals}) == 8
    for pv in pvals:
        # every leaf of an environment is a leaf() of its own
        leaves = [e.rest for e in pv.rest.table.values()]
        assert len(set(leaves)) == len(leaves) == 2


def test_pval_enumerate_done(bakery):
    _, val = bakery
    leaf = iter([RYE, WHEAT]).__next__
    assert list(pval_enumerate(proto_steps(DONE), leaf, val)) == [RYE]


def test_pval_enumerate_refuses_a_loop_first(bakery, monkeypatch):
    # the factors after a loop are never enumerated: with a large carrier
    # that would cost 2^|carrier| receive tables before the refusal
    _, val = bakery

    def enumerated(obj, val):
        raise AssertionError(f"{obj} enumerated after a loop")

    monkeypatch.setattr(semantics, "enumerate_values", enumerated)
    protos = proto_steps(seq_proto(StarPP(SendP(A)), RecvP(A)))
    with pytest.raises(NotEnumerable):
        list(pval_enumerate(protos, lambda: RYE, val))


def test_pval_equal_depth_cutoff(interp):
    # two memories seeded with the same value differ only from the second
    # round on, so they agree at depth 1 and split at depth 2
    store = g.memory
    swap = VComp(PutR(A), VComp(GetR(A), Promote(g.SWAP_DOUGH)))
    other = g.IterX(swap, IdV(A), g.IdH(g.DONE))
    protos = proto_steps(StarXP(seq_proto(SendP(A), RecvP(A))))
    p = interp.apply(store, None, RYE)
    q = interp.apply(other, None, RYE)
    assert pval_equal(p, q, protos, depth=1)
    assert not pval_equal(p, q, protos, depth=2)


def test_pval_show_shapes(interp):
    pv = interp.apply(PutR(A), None, RYE)
    shown = pval_show(pv, proto_steps(SendP(A)))
    assert "ryedough" in shown


def test_lazy_pair_runs_its_thunk_once():
    # each side runs its own thunk, on its own first read and only once
    calls = []

    def side(name, value):
        def thunk():
            calls.append(name)
            return value()

        return thunk

    # a handle that is its own next layer
    pv = PPair.lazy(side("stop", lambda: "stop"), side("step", lambda: PSend(RYE, pv)))
    protos = proto_steps(StarXP(SendP(A)))
    assert calls == []
    assert pv.right.rest is pv and pv.right.rest is pv and calls == ["step"]
    assert pv.left == "stop" and pv.left == "stop"
    assert pval_equal(pv, pv, protos, depth=3)
    mapped = pval_map(pv, protos, lambda x: x + "!")
    shown = pval_show(mapped, protos, 2)
    assert shown == "<stop!, (ryedough, <stop!, (ryedough, #handle)>)>"
    assert calls == ["step", "stop"]


# Environments over nested shapes, drawn by rand_pval at depths 0-3: each
# row is the pval_show string at that depth and the pval_equal verdicts
# against a second draw at depths 0-3 (T equal, F not).  Each shape has a
# name, which seeds its draws and names its test.
OVEN = g.OVEN
FLOUR = sg.GenObj("flour")
NESTED_SHAPES = [
    ("(?oven . !flour + done^p)", OfferP(seq_proto(RecvP(OVEN), SendP(FLOUR)), StarPP(DONE)), [
        ("L {hot -> (wheat, x0)}", "FFFF"),
        ("L {hot -> (wheat, x0)}", "FFFF"),
        ("L {hot -> (rye, x0)}", "FFFF"),
        ("L {hot -> (wheat, x1)}", "FFFF"),
    ]),
    # an offer's right branch has no tail, unlike a loop's step
    ("(?oven + !flour . done^p)", OfferP(RecvP(OVEN), seq_proto(SendP(FLOUR), StarPP(DONE))), [
        ("L {hot -> x0}", "FFFF"),
        ("L {hot -> x1}", "FFFF"),
        ("R (rye, step step stop x0)", "FFFF"),
        ("L {hot -> x0}", "FFFF"),
    ]),
    ("(!dough . !bread)^x", StarXP(seq_proto(SendP(A), SendP(g.BREAD))), [
        ("#handle", "TFFF"),
        ("<x0, (wheatdough, (wheatloaf, #handle))>", "TFFF"),
        (
            "<x0, (ryedough, (ryeloaf, "
            "<x0, (wheatdough, (wheatloaf, #handle))>))>",
            "TFFF",
        ),
        (
            "<x0, (wheatdough, (wheatloaf, "
            "<x0, (wheatdough, (ryeloaf, "
            "<x1, (wheatdough, (ryeloaf, #handle))>))>))>",
            "TTFF",
        ),
    ]),
    ("(!dough . ?oven)^p", StarPP(seq_proto(SendP(A), RecvP(OVEN))), [
        ("stop x1", "FFFF"),
        ("stop x0", "FFFF"),
        ("stop x0", "FFFF"),
        (
            "step (wheatdough, {hot -> step (wheatdough, "
            "{hot -> step (wheatdough, {hot -> stop x1})})})",
            "FFFF",
        ),
    ]),
    ("done^x", StarXP(DONE), [
        ("#handle", "TTTT"),
        ("<x0, #handle>", "TFFF"),
        ("<x0, <x1, #handle>>", "TFFF"),
        ("<x0, <x1, <x0, #handle>>>", "TFFF"),
    ]),
    ("done^p", StarPP(DONE), [
        ("stop x0", "FFFF"),
        ("stop x0", "TTTT"),
        ("stop x1", "TTTT"),
        ("stop x0", "TTTT"),
    ]),
    ("(!dough . !oven^x)^x", StarXP(seq_proto(SendP(A), StarXP(SendP(OVEN)))), [
        ("#handle", "TFFF"),
        ("<x0, (wheatdough, <#handle, (hot, #handle)>)>", "TTFF"),
        (
            "<x1, (ryedough, <<x0, (ryedough, <#handle, (hot, #handle)>)>, "
            "(hot, <<x0, (ryedough, <#handle, (hot, #handle)>)>, (hot, #handle)>)>)>",
            "TFFF",
        ),
        (
            "<x0, (ryedough, <<x1, (ryedough, <<x0, (ryedough, <#handle, "
            "(hot, #handle)>)>, (hot, <<x0, (ryedough, <#handle, (hot, #handle)>)>, "
            "(hot, #handle)>)>)>, (hot, <<x1, (ryedough, <<x0, (ryedough, <#handle, "
            "(hot, #handle)>)>, (hot, <<x0, (ryedough, <#handle, (hot, #handle)>)>, "
            "(hot, #handle)>)>)>, (hot, <<x1, (ryedough, <<x0, (ryedough, <#handle, "
            "(hot, #handle)>)>, (hot, <<x0, (ryedough, <#handle, (hot, #handle)>)>, "
            "(hot, #handle)>)>)>, (hot, #handle)>)>)>)>",
            "TFFF",
        ),
    ]),
    ("(!dough . ?oven^p)^p", StarPP(seq_proto(SendP(A), StarPP(RecvP(OVEN)))), [
        ("stop x0", "FFFF"),
        ("stop x1", "FFFF"),
        ("stop x0", "TTTT"),
        (
            "step (ryedough, step {hot -> step {hot -> stop step (wheatdough, "
            "step {hot -> step {hot -> stop stop x1}})}})",
            "FFFF",
        ),
    ]),
    ("(?oven . !dough^p)^x", StarXP(seq_proto(RecvP(OVEN), StarPP(SendP(A)))), [
        ("#handle", "TFFF"),
        ("<x0, {hot -> stop #handle}>", "TFFF"),
        (
            "<x0, {hot -> step (wheatdough, "
            "stop <x0, {hot -> step (wheatdough, stop #handle)}>)}>",
            "TFFF",
        ),
        (
            "<x0, {hot -> stop <x0, {hot -> step (ryedough, "
            "stop <x0, {hot -> step (wheatdough, stop #handle)}>)}>}>",
            "TFFF",
        ),
    ]),
]


@pytest.mark.parametrize("name, proto, rows", NESTED_SHAPES, ids=[n for n, _, _ in NESTED_SHAPES])
def test_walkers_on_nested_shapes(interp, name, proto, rows):
    protos = proto_steps(proto)
    for depth, (want_shown, want_eq) in enumerate(rows):
        rng = random.Random(f"{name}/{depth}")
        mk = lambda: rng.choice(("x0", "x1"))
        pv = rand_pval(rng, protos, mk, interp.val, depth)
        pw = rand_pval(rng, protos, mk, interp.val, depth)
        shown = pval_show(pv, protos, depth)
        assert shown == want_shown
        mapped = pval_map(pv, protos, str.upper)
        assert pval_show(mapped, protos, depth) == shown.replace("x", "X")
        eq = "".join("TF"[not pval_equal(pv, pw, protos, d)] for d in range(4))
        assert eq == want_eq


# ((send dough)^x)^x, the right boundary of dX{send dough} that comonad-x compares,
# the same with a send before the inner loop, and the nested shapes above:
# two environments print alike exactly when they are equal at that depth.
AGREEMENT_SHAPES = [
    ("!dough^x^x", StarXP(StarXP(SendP(A)))),
    ("(!oven . !dough^x)^x", StarXP(seq_proto(SendP(OVEN), StarXP(SendP(A))))),
] + [(name, proto) for name, proto, _ in NESTED_SHAPES]


@pytest.mark.parametrize("name, proto", AGREEMENT_SHAPES, ids=[n for n, _ in AGREEMENT_SHAPES])
def test_equal_exactly_when_shown_alike(interp, name, proto):
    protos = proto_steps(proto)
    rng = random.Random(f"agree/{name}")
    mk = lambda: rng.choice(("x0", "x1"))
    for _ in range(60):
        draw = lambda: rand_pval(rng, protos, mk, interp.val, rng.randrange(4))
        pv, pw = draw(), draw()
        for d in range(4):
            alike = pval_show(pv, protos, d) == pval_show(pw, protos, d)
            assert pval_equal(pv, pw, protos, d) == alike, (d, pval_show(pv, protos, d))


def test_sampled_input_does_not_depend_on_reading_order(interp):
    # an input is drawn in full when it is sampled, so reading its handles
    # beneath before the ones above changes nothing
    protos = proto_steps(StarXP(seq_proto(SendP(A), StarXP(SendP(OVEN)))))
    for seed in range(10):
        shown = []
        for deep_first in (False, True):
            rng = random.Random(seed)
            mk = lambda: rng.choice(("x0", "x1"))
            pv = rand_pval(rng, protos, mk, interp.val, 3)
            if deep_first:
                inner = pv.right.rest
                for _ in range(4):
                    inner = inner.right.rest
            shown.append(pval_show(pv, protos, 3))
        assert shown[0] == shown[1], seed


# ---------------------------------------------------------------------------
# Leaf continuations: apply(c, pv, a, k) is apply(c, pv, a) mapped by k.


def _tag(leaf):
    return ("k", leaf)


FUSED_KS = pytest.mark.parametrize("k", [_tag, semantics._payload], ids=["tag", "payload"])


def _assert_fused(interp, c, rng, k, tries=3):
    """Compare the application fused with k and the one mapped by k on
    random inputs."""
    b = infer_boundary(c, interp.sig)
    left, right = proto_steps(b.left), proto_steps(b.right)
    counter = itertools.count()
    for _ in range(tries):
        pv = rand_pval(rng, left, lambda: f"p{next(counter)}", interp.val, 3)
        a = rand_value(rng, b.top, interp.val)
        mapped = pval_map(interp.apply(c, pv, a), right, k)
        fused = interp.apply(c, pv, a, k)
        assert pval_equal(fused, mapped, right, 3), f"{c} on {a}"


@FUSED_KS
def test_fused_apply_matches_mapped_on_demo_cells(k):
    rng = random.Random("fused-demos")
    for path in sorted(DEMOS.glob("*.fcn")):
        doc = parse_document(path.read_text())
        interp = Interp(doc.sig, doc.val)
        for name in doc.cells:
            _assert_fused(interp, doc.cells[name].term, rng, k)


def _loop_cells():
    u = SendP(A)
    return [
        *(dv.define(f"{w}{{U}}", U=u)
          for w in ("deltaX", "dX", "epsX", "nablaP", "muP", "etaP")),
        dv.crossing(StarXP(seq_proto(u, RecvP(A))), g.OVEN),
        dv.crossing(StarPP(u), g.OVEN),
    ]


@FUSED_KS
def test_fused_apply_matches_mapped_on_loop_cells(interp, k):
    rng = random.Random("fused-loops")
    for c in _loop_cells():
        _assert_fused(interp, c, rng, k)


@FUSED_KS
def test_fused_apply_matches_mapped_on_gen_cells(interp, k):
    rng = random.Random("fused-gen")
    for _ in range(200):
        _assert_fused(interp, gen_cell(rng, interp.sig), rng, k)


def test_silent_cells_hand_their_environment_through_under_payload(interp, monkeypatch):
    # under _payload a silent cell's leaf map is the identity, so the
    # environment it reads comes back itself, tagged for an injection, and
    # no pending map is built; any other continuation still maps
    built = []
    init = semantics.PMap.__init__

    def counting(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(semantics.PMap, "__init__", counting)
    u, w = SendP(A), RecvP(A)
    sent, table = PSend(RYE, "x0"), PTable({RYE: "x1", WHEAT: "x2"})
    pair = PPair(sent, table)
    run = lambda cell, pv, k=semantics._payload: interp.apply(cell, pv, sg.UNITV, k)
    assert run(IdH(u), sent) is sent
    assert run(Pi0(u, w), pair) is sent
    assert run(Pi1(u, w), pair) is table
    for cell, pv, tag in ((Inj0(u, w), sent, PInl), (Inj1(u, w), table, PInr)):
        out = run(cell, pv)
        assert type(out) is tag and out.value is pv
    assert built == []
    with pytest.raises(IllTypedValue):
        run(Pi0(u, w), sent)
    run(IdH(u), sent, _tag)
    assert len(built) == 1


# ---------------------------------------------------------------------------
# Naturality: a cell only moves, copies and drops payloads, so renaming the
# payloads of its input renames those of its output.  The law suite relies on
# this to check one input per environment shape, with its leaves labelled
# apart.


def _collapse(label):
    """u0, u1, u2, ... onto the two tokens x0, x1."""
    return f"x{int(label[1:]) % 2}"


def _assert_natural(interp, c, rng, tries=3):
    b = infer_boundary(c, interp.sig)
    left, right = proto_steps(b.left), proto_steps(b.right)
    counter = itertools.count()
    for _ in range(tries):
        pv = rand_pval(rng, left, lambda: f"u{next(counter)}", interp.val, 3)
        a = rand_value(rng, b.top, interp.val)
        renamed_first = interp.apply(c, pval_map(pv, left, _collapse), a)
        renamed_after = pval_map(
            interp.apply(c, pv, a), right, lambda leaf: (_collapse(leaf[0]), leaf[1])
        )
        assert pval_equal(renamed_first, renamed_after, right, 3), f"{c} on {a}"


def test_demo_cells_are_natural():
    rng = random.Random("natural-demos")
    for path in sorted(DEMOS.glob("*.fcn")):
        doc = parse_document(path.read_text())
        interp = Interp(doc.sig, doc.val)
        for name in doc.cells:
            _assert_natural(interp, doc.cells[name].term, rng)


def test_loop_and_gen_cells_are_natural(interp):
    rng = random.Random("natural-gen")
    for c in _loop_cells():
        _assert_natural(interp, c, rng)
    for _ in range(200):
        _assert_natural(interp, gen_cell(rng, interp.sig), rng)


# ---------------------------------------------------------------------------
# Where IllTypedValue is raised: when the interpreter or a walker reads a
# layer of the wrong shape.  A cell reads its input environment as it is
# applied, but the arms of Times and the leaves of a pending map run only
# when a read reaches them.


@pytest.mark.parametrize(
    "cell, pv, a",
    [
        (GetL(A), PTable({RYE: "x", WHEAT: "y"}), sg.UNITV),  # table, not a send
        (PutL(A), PTable({RYE: "x"}), WHEAT),  # key missing from the table
        (CopairC(IdV(A), IdV(A)), None, RYE),  # untagged input
    ],
)
def test_ill_typed_value_raised_at_apply(interp, cell, pv, a):
    with pytest.raises(IllTypedValue):
        interp.apply(cell, pv, a)


def test_each_interp_runs_its_own_valuation(bakery):
    # a cell compiled by one Interp is compiled again by another: no
    # closure carries one valuation's morphisms into the other's runs
    sig, val = bakery
    same = {RYE: RYE, WHEAT: WHEAT}
    other = dataclasses.replace(val, mor_maps={**val.mor_maps, "swapdough": same})
    cell = VComp(Promote(g.SWAP_DOUGH), PutR(A))
    swapping, keeping = Interp(sig, val), Interp(sig, other)
    for _ in range(2):
        assert swapping.apply(cell, None, RYE) == PSend(WHEAT, (None, sg.UNITV))
        assert keeping.apply(cell, None, RYE) == PSend(RYE, (None, sg.UNITV))


def test_a_shared_subterm_compiles_once(bakery, monkeypatch):
    compiled = []
    promote = semantics._COMPILE[Promote]

    def counting(interp, c):
        compiled.append(c)
        return promote(interp, c)

    monkeypatch.setitem(semantics._COMPILE, Promote, counting)
    swap = Promote(g.SWAP_DOUGH)
    cell = VComp(VComp(swap, swap), Times(swap, swap))
    interp = Interp(*bakery)
    for a, b in ((RYE, WHEAT), (WHEAT, RYE)):
        pv = interp.apply(cell, None, a)
        assert (pv.left, pv.right) == ((None, b), (None, b))
    # once per application: the compile table lives for one apply only
    assert compiled == [swap, swap] and all(c is swap for c in compiled)


def test_a_dropped_cell_is_freed(bakery):
    # an Interp keeps nothing of the cells it ran
    interp = Interp(*bakery)
    cell = VComp(Promote(g.SWAP_DOUGH), PutR(A))
    assert interp.apply(cell, None, RYE) == PSend(WHEAT, (None, sg.UNITV))
    ref = weakref.ref(cell)
    del cell
    gc.collect()
    assert ref() is None


def test_times_runs_each_branch_when_read(interp):
    # the second branch wants a tagged input; Times runs it only once
    # somebody reads that branch
    pv = interp.apply(Times(IdV(A), CopairC(IdV(A), IdV(A))), None, RYE)
    assert pv.left == (None, RYE)
    with pytest.raises(IllTypedValue):
        pv.right


@pytest.mark.parametrize(
    "walk",
    [
        lambda pv, protos: pval_equal(pv, pv, protos, 2),
        lambda pv, protos: pval_show(pv, protos),
        lambda pv, protos: pval_show(pval_map(pv, protos, str), protos),
    ],
    ids=["pval_equal", "pval_show", "pval_map"],
)
def test_walkers_reject_wrong_shapes(walk):
    # a table where a send belongs, and a send where a table belongs
    cases = [
        (PTable({RYE: 1}), SendP(A)),
        (PSend(RYE, 1), RecvP(A)),
        (PSend(RYE, PTable({RYE: 1})), seq_proto(SendP(A), SendP(A))),
    ]
    for pv, proto in cases:
        with pytest.raises(IllTypedValue):
            walk(pv, proto_steps(proto))


# ---------------------------------------------------------------------------
# Pending maps: pval_map returns at once, and each layer of the mapped
# environment is built on its first read and kept.


def test_pending_map_runs_once_per_leaf():
    calls = []

    def fn(x):
        calls.append(x)
        return x.upper()

    pv = PSend(RYE, PTable({RYE: "x0", WHEAT: "x1"}))
    protos = proto_steps(seq_proto(SendP(A), RecvP(A)))
    mapped = pval_map(pv, protos, fn)
    assert calls == []
    shown = pval_show(mapped, protos)
    assert shown == "(ryedough, {ryedough -> X0, wheatdough -> X1})"
    assert pval_show(mapped, protos) == shown
    assert pval_equal(mapped, mapped, protos, 2)
    assert sorted(calls) == ["x0", "x1"]


@pytest.mark.parametrize("name, proto, rows", NESTED_SHAPES, ids=[n for n, _, _ in NESTED_SHAPES])
def test_stacked_maps_show_as_one_composed_map(interp, name, proto, rows):
    protos = proto_steps(proto)
    f, g2 = str.upper, lambda x: x + "!"
    for depth in range(len(rows)):
        for read_first in (False, True):
            rng = random.Random(f"{name}/{depth}")
            mk = lambda: rng.choice(("x0", "x1"))
            pv = rand_pval(rng, protos, mk, interp.val, depth)
            inner = pval_map(pv, protos, f)
            if read_first:
                # a map over a map that has been read does not compose
                pval_show(inner, protos, depth)
            stacked = pval_map(inner, protos, g2)
            composed = pval_map(pv, protos, lambda x: g2(f(x)))
            shown = pval_show(stacked, protos, depth)
            assert shown == pval_show(composed, protos, depth)
            plain = pval_show(pv, protos, depth)
            assert shown == re.sub(r"x(\d)", r"X\1!", plain)


def test_prefix_map_keeps_its_leaves():
    # over the prefix !dough of !dough . !dough the leaves are environments
    # over the second !dough, so the second map must not compose with the
    # first: it is handed those environments, not their payloads
    one, two = proto_steps(SendP(A)), proto_steps(seq_proto(SendP(A), SendP(A)))
    pv = PSend(RYE, PSend(WHEAT, "x"))
    mapped = pval_map(pv, two, str.upper)
    prefix = pval_map(mapped, one, lambda inner: pval_show(inner, one))
    assert pval_show(prefix, one) == "(ryedough, (wheatdough, X))"


@pytest.mark.parametrize("layers", [1000, 5000])
def test_deep_environments_are_observed(layers):
    # a (!dough)^p environment of `layers` steps, shown and compared past
    # the recursion limit; q differs from p only in its innermost send
    protos = proto_steps(StarPP(SendP(A)))
    p = q = PInl("end")
    for i in range(layers):
        p = PInr(PSend(RYE, p))
        q = PInr(PSend(WHEAT if i == 0 else RYE, q))
    shown = pval_show(p, protos)
    assert shown == "step (ryedough, " * layers + "stop end" + ")" * layers
    assert pval_equal(p, p, protos, 2)
    assert not pval_equal(p, q, protos, 2)


def test_stacked_maps_read_under_the_recursion_limit():
    protos = proto_steps(seq_proto(SendP(A), RecvP(A)))
    pv = PSend(RYE, PTable({RYE: 0, WHEAT: 1}))
    for _ in range(5000):
        pv = pval_map(pv, protos, lambda x: x + 1)
    assert pval_show(pv, protos) == "(ryedough, {ryedough -> 5000, wheatdough -> 5001})"


def _cell_nodes(c):
    kids = [getattr(c, f.name) for f in dataclasses.fields(c)]
    return 1 + sum(_cell_nodes(k) for k in kids if isinstance(k, Cell))


def test_inference_work_is_bounded_by_term_size(monkeypatch):
    # apply asks for a subterm's boundary at every horizontal composite of
    # the sender; each node's boundary is still built only once
    sig = sg.Signature()
    sig.declare_object("dough")
    val = sg.Valuation(carriers={"dough": ("ryedough",)})
    cell = dv.word_sender([RYE] * 160, A)
    built = []

    def counting(*sides):
        built.append(sides)
        return boundary(*sides)

    monkeypatch.setattr(cells, "boundary", counting)
    pv = Interp(sig, val).apply(cell, None, sg.UNITV)
    assert isinstance(pv, PInr)
    assert 0 < len(built) <= _cell_nodes(cell)
