import goldens as g
from fcn import cells
from fcn import signature as sg
from fcn.cells import Boundary, infer_boundary
from fcn.derived import (
    crossing,
    dup_x,
    duplicate_x,
    extract_x,
    flatten_p,
    insert_p,
    memory_cell,
    merge_p,
    offer_to_sum,
    pair_to_recv,
    recv_to_pair,
    simple_iter_p,
    simple_iter_x,
    sum_to_offer,
    tensor_cells,
    word_sender,
)
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
    both = tensor_cells(g.kneader, g.kneader, sig)
    b = infer_boundary(both, sig)
    flour = sg.GenObj("flour")
    assert b.top == sg.tensor_obj(flour, flour)
    assert b.bottom == sg.UNIT
    pv = interp.apply(both, None, sg.TupleV((sg.AtomV("rye"), sg.AtomV("wheat"))))
    # two sends in sequence
    assert pv.value == sg.AtomV("ryedough")
    assert pv.rest.value == sg.AtomV("wheatdough")


def test_comonoid_boundaries(bakery):
    sig, _ = bakery
    u = SendP(A)
    star = StarXP(u)
    assert infer_boundary(dup_x(u), sig).right == seq_proto(star, star)
    assert infer_boundary(extract_x(u), sig) == Boundary(
        star, sg.UNIT, sg.UNIT, u
    )
    assert infer_boundary(duplicate_x(u), sig).right == StarXP(star)


def test_monoid_boundaries(bakery):
    sig, _ = bakery
    u = SendP(A)
    plus = StarPP(u)
    assert infer_boundary(merge_p(u), sig).left == seq_proto(plus, plus)
    assert infer_boundary(insert_p(u), sig) == Boundary(
        u, sg.UNIT, sg.UNIT, plus
    )
    assert infer_boundary(flatten_p(u), sig).left == StarPP(plus)


def test_simple_iter_boundaries(bakery):
    sig, _ = bakery
    body = crossing(SendP(A), B)
    bx = infer_boundary(simple_iter_x(body, sig), sig)
    from fcn.protocol import proto_equal

    assert proto_equal(bx.left, StarXP(SendP(A)))
    assert bx.right == StarXP(SendP(A))
    bp = infer_boundary(simple_iter_p(body, sig), sig)
    assert proto_equal(bp.left, StarPP(SendP(A)))
    assert bp.right == StarPP(SendP(A))


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
    fwd, back = offer_to_sum(A, B), sum_to_offer(A, B)
    assert infer_boundary(fwd, sig).left == OfferP(SendP(A), SendP(B))
    assert cells_equal(
        g.HComp(back, fwd), g.IdV(sg.Sum(A, B)), sig, val
    )
    rf, rb = recv_to_pair(A, B), pair_to_recv(A, B)
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
