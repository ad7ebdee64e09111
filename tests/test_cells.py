import pytest

import goldens as g
from fcn import signature as sg
from fcn.cells import (
    Boundary,
    GetL,
    GetR,
    HComp,
    IdH,
    IdV,
    Inj0,
    Pi0,
    Pi1,
    Promote,
    PutL,
    PutR,
    Times,
    VComp,
    boundaries_equal,
    infer_boundary,
)
from fcn.errors import BoundaryMismatch
from fcn.protocol import ChooseP, DONE, OfferP, RecvP, SendP, StarPP, seq_proto

A = g.DOUGH
B = g.BREAD


def bound(c, bakery):
    sig, _ = bakery
    return infer_boundary(c, sig)


def test_corner_cells(bakery):
    assert bound(GetL(A), bakery) == Boundary(SendP(A), sg.UNIT, A, DONE)
    assert bound(PutR(A), bakery) == Boundary(DONE, A, sg.UNIT, SendP(A))
    assert bound(GetR(A), bakery) == Boundary(DONE, sg.UNIT, A, RecvP(A))
    assert bound(PutL(A), bakery) == Boundary(RecvP(A), A, sg.UNIT, DONE)


def test_identity_cells(bakery):
    assert bound(IdV(A), bakery) == Boundary(DONE, A, A, DONE)
    u = seq_proto(SendP(A), RecvP(B))
    assert bound(IdH(u), bakery) == Boundary(u, sg.UNIT, sg.UNIT, u)


def test_hcomp_concatenates_tops(bakery):
    c = HComp(PutR(A), GetL(A))
    assert bound(c, bakery) == Boundary(DONE, A, A, DONE)


def test_vcomp_concatenates_sides(bakery):
    c = VComp(PutR(A), GetR(B))
    assert bound(c, bakery) == Boundary(
        DONE, A, B, seq_proto(SendP(A), RecvP(B))
    )


def test_hcomp_seam_mismatch(bakery):
    sig, _ = bakery
    with pytest.raises(BoundaryMismatch):
        infer_boundary(HComp(PutR(A), GetL(B)), sig)


def test_vcomp_seam_mismatch(bakery):
    sig, _ = bakery
    with pytest.raises(BoundaryMismatch):
        infer_boundary(VComp(IdV(A), IdV(B)), sig)


def test_projection_cells(bakery):
    u, w = SendP(A), RecvP(B)
    assert bound(Pi0(u, w), bakery) == Boundary(
        ChooseP(u, w), sg.UNIT, sg.UNIT, u
    )
    assert bound(Pi1(u, w), bakery) == Boundary(
        ChooseP(u, w), sg.UNIT, sg.UNIT, w
    )
    assert bound(Inj0(u, w), bakery) == Boundary(
        u, sg.UNIT, sg.UNIT, OfferP(u, w)
    )


def test_times_needs_matching_frames(bakery):
    sig, _ = bakery
    with pytest.raises(BoundaryMismatch):
        infer_boundary(Times(IdV(A), IdV(B)), sig)


def test_promote_is_silent(bakery):
    b = bound(Promote(g.BAKE), bakery)
    assert b.left == DONE and b.right == DONE
    assert b.top == sg.tensor_obj(A, g.OVEN)
    assert b.bottom == sg.tensor_obj(B, g.OVEN)


def test_boundaries_equal_up_to_unrolling(bakery):
    star = StarPP(SendP(A))
    b1 = Boundary(star, sg.UNIT, sg.UNIT, DONE)
    b2 = Boundary(
        OfferP(DONE, seq_proto(SendP(A), star)), sg.UNIT, sg.UNIT, DONE
    )
    assert boundaries_equal(b1, b2)


def test_memory_boundary(bakery):
    from fcn.protocol import StarXP

    assert bound(g.memory, bakery) == Boundary(
        DONE, A, A, StarXP(seq_proto(SendP(A), RecvP(A)))
    )


def test_iter_boundaries(bakery):
    b = bound(g.sales, bakery)
    assert b.left == StarPP(g._CUST_PROTO)
    assert b.top == b.bottom == sg.tensor_obj(g.S_BREAD, g.S_COIN)
    assert b.right == DONE


def test_boundary_is_stored_per_signature():
    sig1, sig2 = sg.Signature(), sg.Signature()
    sig1.declare_morphism("f", A, B)
    sig2.declare_morphism("f", B, A)
    f = Promote(sg.GenMor("f"))
    c = HComp(f, IdV(A))
    b1 = infer_boundary(c, sig1)
    assert infer_boundary(c, sig1) is b1
    assert infer_boundary(f, sig1).top == A
    # a second signature gives the same-named morphism another type
    b2 = infer_boundary(c, sig2)
    assert (b2.top, b2.bottom) == (sg.tensor_obj(B, A), sg.tensor_obj(A, A))
    assert infer_boundary(f, sig2).top == B
    assert infer_boundary(c, sig1) == b1
    # a failed inference stores nothing: it fails again under that signature
    d = VComp(f, PutR(B))
    infer_boundary(d, sig1)
    for _ in range(2):
        with pytest.raises(BoundaryMismatch):
            infer_boundary(d, sig2)
    assert infer_boundary(d, sig1).top == A
