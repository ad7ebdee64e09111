"""Synthesized cells built from the primitive generators.

Everything here is a definable term, not a new primitive: protocol
crossings, the tensor of arbitrary cells, the one-argument loop
combinators, duplication and merging of loops, the loop comonad and monad
structure, the equivalence between offering a send and sending a sum,
word senders, state machines, and a memory cell.
"""

from __future__ import annotations

from .errors import IllTypedSubterm
from .protocol import (
    DONE,
    ChooseP,
    DoneP,
    OfferP,
    Protocol,
    RecvP,
    SendP,
    SeqP,
    StarPP,
    StarXP,
    normalize_proto,
    seq_proto,
)
from . import signature as sg
from .cells import (
    Cell,
    CopairC,
    GetL,
    GetR,
    HComp,
    IdH,
    IdV,
    Inj0,
    Inj1,
    IterP,
    IterX,
    Pi0,
    Pi1,
    Plus,
    Promote,
    PutL,
    PutR,
    Times,
    VComp,
    infer_boundary,
)


def vchain(*cells):
    out = cells[0]
    for c in cells[1:]:
        out = VComp(out, c)
    return out


# ---------------------------------------------------------------------------
# Crossings


def crossing(u: Protocol, a: sg.ObjExpr) -> Cell:
    """The cell [u | a -> a | u] that slides protocol u past data line a.

    It forwards every interaction of u from left to right unchanged while
    the value on the a line passes through untouched.
    """
    u = normalize_proto(u)
    a = sg.normalize_obj(a)
    if a == sg.UNIT:
        return IdH(u)
    if isinstance(u, DoneP):
        return IdV(a)
    if isinstance(u, SeqP):
        return vchain(*(crossing(p, a) for p in u.parts))
    if isinstance(u, SendP):
        b = u.obj
        return vchain(
            HComp(GetL(b), IdV(a)),
            Promote(sg.Braid(b, a)),
            HComp(IdV(a), PutR(b)),
        )
    if isinstance(u, RecvP):
        b = u.obj
        return vchain(
            HComp(IdV(a), GetR(b)),
            Promote(sg.Braid(a, b)),
            HComp(PutL(b), IdV(a)),
        )
    if isinstance(u, OfferP):
        return Plus(
            HComp(crossing(u.left, a), Inj0(u.left, u.right)),
            HComp(crossing(u.right, a), Inj1(u.left, u.right)),
        )
    if isinstance(u, ChooseP):
        return Times(
            HComp(Pi0(u.left, u.right), crossing(u.left, a)),
            HComp(Pi1(u.left, u.right), crossing(u.right, a)),
        )
    if isinstance(u, StarXP):
        return _iter_x(crossing(u.body, a), u.body, a)
    if isinstance(u, StarPP):
        return _iter_p(crossing(u.body, a), u.body, a)
    raise IllTypedSubterm(f"cannot build a crossing for {u}")


def tensor_cells(a: Cell, b: Cell, sig: sg.Signature) -> Cell:
    """Side-by-side tensor of arbitrary cells, routing a's right protocol
    past b's top line and b's left protocol past a's bottom line."""
    ba = infer_boundary(a, sig)
    bb = infer_boundary(b, sig)
    return VComp(
        HComp(a, crossing(ba.right, bb.top)),
        HComp(crossing(bb.left, ba.bottom), b),
    )


# ---------------------------------------------------------------------------
# One-argument loop combinators


def _x_unroll(u: Protocol):
    """u normalized, and the stop and step sides of u^x's unrolling."""
    u = normalize_proto(u)
    return u, DONE, seq_proto(u, StarXP(u))


def _p_unroll(u: Protocol):
    """u normalized, and the stop and step sides of u^+'s unrolling."""
    u = normalize_proto(u)
    return u, DONE, seq_proto(u, StarPP(u))


def simple_iter_x(a: Cell, sig: sg.Signature) -> Cell:
    """Lift [u | A -> A | w] to [u^x | A -> A | w^x]: replay a once per
    round demanded by the right participant."""
    ba = infer_boundary(a, sig)
    return _iter_x(a, ba.left, ba.top)


def simple_iter_p(a: Cell, sig: sg.Signature) -> Cell:
    """Lift [u | A -> A | w] to [u^+ | A -> A | w^+]: replay a once per
    layer supplied by the left participant."""
    ba = infer_boundary(a, sig)
    return _iter_p(a, ba.right, ba.top)


def _iter_x(a: Cell, u: Protocol, top: sg.ObjExpr) -> Cell:
    """simple_iter_x of a, given a's left protocol u and top object."""
    _, stop, step = _x_unroll(u)
    return IterX(a, HComp(Pi0(stop, step), IdV(top)), Pi1(stop, step))


def _iter_p(a: Cell, u: Protocol, top: sg.ObjExpr) -> Cell:
    """simple_iter_p of a, given a's right protocol u and top object."""
    _, stop, step = _p_unroll(u)
    return IterP(a, HComp(IdV(top), Inj0(stop, step)), Inj1(stop, step))


# ---------------------------------------------------------------------------
# Loop (co)monoid and (co)monad structure


def dup_x(u: Protocol) -> Cell:
    """[u^x | I -> I | u^x * u^x]: serve one loop to two consumers in turn."""
    u, stop, step = _x_unroll(u)
    return IterX(IdH(u), IdH(StarXP(u)), Pi1(stop, step))


def counit_x(u: Protocol) -> Cell:
    """[u^x | I -> I | I]: stop the loop immediately."""
    _, stop, step = _x_unroll(u)
    return Pi0(stop, step)


def merge_p(u: Protocol) -> Cell:
    """[u^+ * u^+ | I -> I | u^+]: run two finite loops back to back."""
    u, stop, step = _p_unroll(u)
    return IterP(IdH(u), IdH(StarPP(u)), Inj1(stop, step))


def unit_p(u: Protocol) -> Cell:
    """[I | I -> I | u^+]: the empty loop."""
    _, stop, step = _p_unroll(u)
    return Inj0(stop, step)


def extract_x(u: Protocol) -> Cell:
    """[u^x | I -> I | u]: demand exactly one round."""
    u, stop, step = _x_unroll(u)
    return HComp(Pi1(stop, step), VComp(IdH(u), Pi0(stop, step)))


def duplicate_x(u: Protocol) -> Cell:
    """[u^x | I -> I | (u^x)^x]: serve a loop of whole loops."""
    u = normalize_proto(u)
    return IterX(IdH(StarXP(u)), counit_x(u), dup_x(u))


def insert_p(u: Protocol) -> Cell:
    """[u | I -> I | u^+]: the one-round loop."""
    u, stop, step = _p_unroll(u)
    return HComp(VComp(IdH(u), Inj0(stop, step)), Inj1(stop, step))


def flatten_p(u: Protocol) -> Cell:
    """[(u^+)^+ | I -> I | u^+]: concatenate a finite loop of finite loops."""
    u = normalize_proto(u)
    return IterP(IdH(StarPP(u)), unit_p(u), merge_p(u))


# ---------------------------------------------------------------------------
# Offers of sends versus sends of sums


def offer_to_sum(a: sg.ObjExpr, b: sg.ObjExpr) -> Cell:
    """[send a + send b | I -> a (+) b | I]: tag whichever value was offered."""
    return Plus(
        VComp(GetL(a), Promote(sg.Inj0(a, b))),
        VComp(GetL(b), Promote(sg.Inj1(a, b))),
    )


def sum_to_offer(a: sg.ObjExpr, b: sg.ObjExpr) -> Cell:
    """[I | a (+) b -> I | send a + send b]: send the value under its tag."""
    sa, sb = SendP(sg.normalize_obj(a)), SendP(sg.normalize_obj(b))
    return CopairC(
        HComp(PutR(a), Inj0(sa, sb)),
        HComp(PutR(b), Inj1(sa, sb)),
    )


def offer_send_forward(a: sg.ObjExpr, b: sg.ObjExpr) -> Cell:
    """[send a + send b | I -> I | send (a (+) b)]"""
    sum_obj = sg.Sum(sg.normalize_obj(a), sg.normalize_obj(b))
    return VComp(offer_to_sum(a, b), PutR(sum_obj))


def offer_send_backward(a: sg.ObjExpr, b: sg.ObjExpr) -> Cell:
    """[send (a (+) b) | I -> I | send a + send b]"""
    sum_obj = sg.Sum(sg.normalize_obj(a), sg.normalize_obj(b))
    return VComp(GetL(sum_obj), sum_to_offer(a, b))


def recv_to_pair(a: sg.ObjExpr, b: sg.ObjExpr) -> Cell:
    """[recv (a (+) b) | I -> I | recv a x recv b]: split a tagged receiver into a
    pair of plain receivers."""
    an, bn = sg.normalize_obj(a), sg.normalize_obj(b)
    sum_obj = sg.Sum(an, bn)
    take = lambda obj, inj: vchain(GetR(obj), Promote(inj), PutL(sum_obj))
    return Times(take(an, sg.Inj0(an, bn)), take(bn, sg.Inj1(an, bn)))


def pair_to_recv(a: sg.ObjExpr, b: sg.ObjExpr) -> Cell:
    """[recv a x recv b | I -> I | recv (a (+) b)]: merge a pair of receivers into a
    single tagged receiver."""
    an, bn = sg.normalize_obj(a), sg.normalize_obj(b)
    ra, rb = RecvP(an), RecvP(bn)
    return VComp(
        GetR(sg.Sum(an, bn)),
        CopairC(
            HComp(Pi0(ra, rb), PutL(an)),
            HComp(Pi1(ra, rb), PutL(bn)),
        ),
    )


# ---------------------------------------------------------------------------
# Stock machines


def word_sender(word, a: sg.ObjExpr) -> Cell:
    """[I | I -> I | (send a)^+]: send the listed values then stop."""
    an = sg.normalize_obj(a)
    _, stop, step = _p_unroll(SendP(an))
    if not word:
        return Inj0(stop, step)
    head, rest = word[0], word[1:]
    return HComp(
        vchain(
            Promote(sg.ConstMor(an, head)),
            PutR(an),
            word_sender(rest, an),
        ),
        Inj1(stop, step),
    )


def mealy_cell(m: sg.MorExpr, a: sg.ObjExpr, s: sg.ObjExpr, b: sg.ObjExpr) -> Cell:
    """[send a | s -> s | send b]: one transition of a state machine m : a*s -> s*b."""
    return vchain(
        HComp(GetL(a), IdV(s)),
        Promote(m),
        HComp(IdV(s), PutR(b)),
    )


def mealy_loop(
    m: sg.MorExpr,
    a: sg.ObjExpr,
    s: sg.ObjExpr,
    b: sg.ObjExpr,
    sig: sg.Signature,
) -> Cell:
    """[(send a)^+ | s -> s | (send b)^+]: run the machine over a finite input word."""
    return simple_iter_p(mealy_cell(m, a, s, b), sig)


def memory_cell(a: sg.ObjExpr) -> Cell:
    """[I | a -> a | (send a * recv a)^x]: a one-place store. Each round sends
    the current contents to the right and receives the replacement."""
    return IterX(
        VComp(PutR(a), GetR(a)),
        IdV(a),
        IdH(DONE),
    )
