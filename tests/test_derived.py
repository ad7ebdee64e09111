import re

import goldens as g
from fcn import cells, parser
from fcn import signature as sg
from fcn.cells import Boundary, infer_boundary
from fcn.derived import crossing, define, memory_cell, word_sender
from fcn.laws import cells_equal
from fcn.protocol import (
    ChooseP,
    DONE,
    OfferP,
    RecvP,
    SendP,
    StarPP,
    StarXP,
    seq_proto,
)

A = g.DOUGH
B = g.BREAD
TELL = seq_proto(SendP(A), RecvP(B))


def test_crossing_boundary(bakery):
    sig, _ = bakery
    b = infer_boundary(crossing(TELL, g.OVEN), sig)
    assert b == Boundary(TELL, g.OVEN, g.OVEN, TELL)


def test_crossing_done_and_unit(bakery):
    sig, _ = bakery
    assert crossing(DONE, A) == g.IdV(A)
    assert crossing(TELL, sg.UNIT) == g.IdH(TELL)


def test_crossing_loop_boundary(bakery):
    sig, _ = bakery
    star = StarXP(SendP(A))
    b = infer_boundary(crossing(star, B), sig)
    assert b.top == b.bottom == B
    from fcn.protocol import proto_equal

    assert proto_equal(b.left, star) and proto_equal(b.right, star)


def test_tensor_cells_is_denotational_product(bakery, interp):
    sig, val = bakery
    both = define("tensor(f, g)", sig, f=g.kneader, g=g.kneader)
    pv = interp.apply(both, None, sg.TupleV((sg.AtomV("rye"), sg.AtomV("wheat"))))
    # two sends in sequence
    assert pv.value == sg.AtomV("ryedough")
    assert pv.rest.value == sg.AtomV("wheatdough")


def test_comonoid_boundaries(bakery):
    sig, _ = bakery
    u = SendP(A)
    star = StarXP(u)
    assert infer_boundary(define("deltaX{U}", U=u), sig).right == seq_proto(star, star)
    assert infer_boundary(define("epsX{U}", U=u), sig) == Boundary(
        star, sg.UNIT, sg.UNIT, u
    )
    assert infer_boundary(define("dX{U}", U=u), sig).right == StarXP(star)


def test_monoid_boundaries(bakery):
    sig, _ = bakery
    u = SendP(A)
    plus = StarPP(u)
    assert infer_boundary(define("nablaP{U}", U=u), sig).left == seq_proto(plus, plus)
    assert infer_boundary(define("etaP{U}", U=u), sig) == Boundary(
        u, sg.UNIT, sg.UNIT, plus
    )
    assert infer_boundary(define("muP{U}", U=u), sig).left == StarPP(plus)


def test_simple_iter_boundaries(bakery):
    sig, _ = bakery
    body = crossing(SendP(A), B)
    bx = infer_boundary(define("iterXs(c)", sig, c=body), sig)
    from fcn.protocol import proto_equal

    assert proto_equal(bx.left, StarXP(SendP(A)))
    assert bx.right == StarXP(SendP(A))
    bp = infer_boundary(define("iterPs(c)", sig, c=body), sig)
    assert proto_equal(bp.left, StarPP(SendP(A)))
    assert bp.right == StarPP(SendP(A))


# Each word of `parser.DEFINITIONS`, applied to metavariables, and its
# boundary: U is any protocol, c a cell whose top and bottom agree, and f
# and g any cells.
DEFINITION_BOUNDARIES = {
    "deltaX": ("deltaX{U}", "[U^x | I -> I | U^x * U^x]"),
    "epsX": ("epsX{U}", "[U^x | I -> I | U]"),
    "dX": ("dX{U}", "[U^x | I -> I | (U^x)^x]"),
    "nablaP": ("nablaP{U}", "[U^+ * U^+ | I -> I | U^+]"),
    "etaP": ("etaP{U}", "[U | I -> I | U^+]"),
    "muP": ("muP{U}", "[(U^+)^+ | I -> I | U^+]"),
    "iterXs": ("iterXs(c)", "[cL^x | cT -> cT | cR^x]"),
    "iterPs": ("iterPs(c)", "[cL^+ | cT -> cT | cR^+]"),
    "tensor": ("tensor(f, g)", "[fL * gL | fT * gT -> fB * gB | fR * gR]"),
}


def test_every_definition_has_its_boundary(bakery):
    sig, val = bakery
    assert set(DEFINITION_BOUNDARIES) == set(parser.DEFINITIONS)
    kinds = ("proto", "obj", "obj", "proto")
    for u in ("send dough", "send dough * recv bread", "recv bread x I"):
        doc = parser.bind(sig, val, {
            "U": u, "c": "cross{send dough, bread}",
            "f": g.kneader, "g": "cross{recv bread, flour} / [knead]",
        })
        for word, (term, header) in DEFINITION_BOUNDARIES.items():
            parts = re.fullmatch(r"\[(.*) \| (.*) -> (.*) \| (.*)\]", header).groups()
            want = Boundary(*map(parser.parse_term, parts, kinds, [doc] * 4))
            assert infer_boundary(parser.parse_term(term, "cell", doc), sig) == want, word


def test_loop_crossing_is_typed_once(bakery, monkeypatch):
    # a loop crossing is built without typing its body, so each boundary
    # is built once, under the signature that types the crossing
    sig, _ = bakery
    built = []
    real = cells.boundary

    def counted(*parts):
        built.append(parts)
        return real(*parts)

    monkeypatch.setattr(cells, "boundary", counted)
    for loop in (StarXP, StarPP):
        built.clear()
        c = crossing(loop(SendP(A)), g.OVEN)
        assert len(built) == 0
        infer_boundary(c, sig)
        assert len(built) == 14


def test_moral_equivalence_round_trips(bakery):
    sig, val = bakery
    fwd = define("plus(getL a / [inj0(a, b)], getL b / [inj1(a, b)])", a=A, b=B)
    back = define(
        "copair(putR a | in0{send a, send b}, putR b | in1{send a, send b})", a=A, b=B
    )
    assert infer_boundary(fwd, sig).left == OfferP(SendP(A), SendP(B))
    assert cells_equal(
        g.HComp(back, fwd), g.IdV(sg.Sum(A, B)), sig, val
    )
    rf = define(
        "times(getR a / [inj0(a, b)] / putL (a (+) b),"
        " getR b / [inj1(a, b)] / putL (a (+) b))",
        a=A, b=B,
    )
    rb = define(
        "getR (a (+) b)"
        " / copair(pi0{recv a, recv b} | putL a, pi1{recv a, recv b} | putL b)",
        a=A, b=B,
    )
    assert infer_boundary(rf, sig).right == ChooseP(RecvP(A), RecvP(B))
    assert cells_equal(
        g.HComp(rb, rf),
        g.IdH(ChooseP(RecvP(A), RecvP(B))),
        sig,
        val,
    )


def test_memory_cell_shape(bakery):
    sig, _ = bakery
    assert infer_boundary(memory_cell(A), sig) == Boundary(
        DONE, A, A, StarXP(seq_proto(SendP(A), RecvP(A)))
    )


def test_a_long_word_sender_shares_one_protocol_pair():
    # built in a loop, under the default recursion limit; every stop and
    # step of the sender holds the same two protocol objects
    word = [sg.AtomV("ryedough"), sg.AtomV("wheatdough")] * 1000
    c = word_sender(word, A)
    injections, letters = [], 0
    while isinstance(c, g.HComp):
        injections.append(c.b)
        c = c.a.b
        letters += 1
    injections.append(c)
    assert letters == 2000
    assert [type(i) for i in injections] == [g.Inj1] * 2000 + [g.Inj0]
    assert len({id(i.left) for i in injections}) == 1
    assert len({id(i.right) for i in injections}) == 1
