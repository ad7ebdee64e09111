"""Directed rewriting of cell terms.

The rules orient the cell equations left to right: the four snap rules
that cancel a transmission against its matching corner, functoriality of
promoted morphisms, the beta rules for choice and loop combinators, unit
removal, and reassociation of composites into left-nested form.  The
strategy is leftmost-innermost with a step budget; every rule preserves
both the boundary and the denotation.

Adjacent-pair rules also match across an association boundary: in
((x | y) | z) the pair (y, z) is checked, so left-nesting never hides a
redex of the flat composition chain.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .protocol import RecvP, SendP, proto_factors
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
)


@dataclass
class RewriteReport:
    result: Cell
    steps: int
    budget_exhausted: bool
    trace: list = field(default_factory=list)  # (rule name, position path)


def _is_unit_cell(c):
    if isinstance(c, IdH):
        return not proto_factors(c.proto)
    if isinstance(c, IdV):
        return not sg.obj_factors(c.obj)
    return False


def _match_stop_arm(cell, which):
    """Recognize `which{done, _}`, possibly stacked with a pass-through row.

    A loop projection or injection always branches between done and one
    more round, so the first protocol argument must be done."""
    if isinstance(cell, which):
        return not proto_factors(cell.left)
    if (
        isinstance(cell, VComp)
        and isinstance(cell.a, which)
        and isinstance(cell.b, IdH)
    ):
        return not proto_factors(cell.a.left)
    return False


def _right_closed(c):
    """Syntactic check that a cell's right protocol is done."""
    if isinstance(c, (Promote, IdV, GetL, PutL)):
        return True
    if isinstance(c, (HComp, VComp, CopairC)):
        return _right_closed(c.a) and _right_closed(c.b)
    return False


def _left_closed(c):
    """Syntactic check that a cell's left protocol is done."""
    if isinstance(c, (Promote, IdV, PutR, GetR)):
        return True
    if isinstance(c, (HComp, VComp, CopairC)):
        return _left_closed(c.a) and _left_closed(c.b)
    return False


def _snap_send_around(a, b):
    """Cancel a send against its receive across a vertical seam.

    The sender column ends in putR and the receiver column starts with
    getL; if neither column talks to anyone else, the transmission is a
    straight wire and the columns stack.
    """
    x = put = None
    if isinstance(a, PutR):
        put = a
    elif isinstance(a, VComp) and isinstance(a.b, PutR) and _right_closed(a.a):
        x, put = a.a, a.b
    if put is None:
        return None
    get = rest = spectator = None
    if isinstance(b, GetL):
        get = b
    elif isinstance(b, VComp):
        head, rest = b.a, b.b
        if not _left_closed(rest):
            return None
        if isinstance(head, GetL):
            get = head
        elif (
            isinstance(head, HComp)
            and isinstance(head.a, GetL)
            and _left_closed(head.b)
        ):
            get, spectator = head.a, head.b
    if get is None or put.obj != get.obj:
        return None
    column = IdV(put.obj) if x is None else x
    if spectator is not None:
        column = HComp(column, spectator)
    return (column if rest is None else VComp(column, rest), "snap-send-around")


def _pair_h(a, b):
    """A rule for the adjacent pair a | b, or None."""
    if isinstance(a, PutR) and isinstance(b, GetL) and a.obj == b.obj:
        return (IdV(a.obj), "snap-send-beside")
    if isinstance(a, GetR) and isinstance(b, PutL) and a.obj == b.obj:
        return (IdV(a.obj), "snap-recv-beside")
    if isinstance(a, Promote) and isinstance(b, Promote):
        return (Promote(sg.TensorM(a.mor, b.mor)), "promote-tensor")
    if isinstance(a, Times) and isinstance(b, Pi0):
        return (a.a, "choose-beta-0")
    if isinstance(a, Times) and isinstance(b, Pi1):
        return (a.b, "choose-beta-1")
    if isinstance(a, Inj0) and isinstance(b, Plus):
        return (b.a, "offer-beta-0")
    if isinstance(a, Inj1) and isinstance(b, Plus):
        return (b.b, "offer-beta-1")
    if isinstance(a, IterX):
        if _match_stop_arm(b, Pi0):
            return (a.f, "loop-x-stop")
        if _match_stop_arm(b, Pi1):
            return (HComp(a.g, VComp(a.alpha, a)), "loop-x-step")
    if isinstance(b, IterP):
        if _match_stop_arm(a, Inj0):
            return (b.f, "loop-p-stop")
        if _match_stop_arm(a, Inj1):
            return (HComp(VComp(b.alpha, b), b.g), "loop-p-step")
    around = _snap_send_around(a, b)
    if around:
        return around
    if isinstance(a, Promote) and isinstance(b, IdV) and b.obj != sg.UNIT:
        return (Promote(sg.TensorM(a.mor, sg.Id(b.obj))), "promote-widen")
    if isinstance(a, IdV) and isinstance(b, Promote) and a.obj != sg.UNIT:
        return (Promote(sg.TensorM(sg.Id(a.obj), b.mor)), "promote-widen")
    if isinstance(a, IdH):
        return (b, "ident-beside")
    if isinstance(b, IdH):
        return (a, "ident-beside")
    if _is_unit_cell(a):
        return (b, "unit-beside")
    if _is_unit_cell(b):
        return (a, "unit-beside")
    return None


def _pair_v(a, b):
    """A rule for the adjacent pair a / b, or None."""
    if isinstance(a, GetL) and isinstance(b, PutR) and a.obj == b.obj:
        return (IdH(SendP(a.obj)), "snap-send-above")
    if isinstance(a, GetR) and isinstance(b, PutL) and a.obj == b.obj:
        return (IdH(RecvP(a.obj)), "snap-recv-above")
    if isinstance(a, Promote) and isinstance(b, Promote):
        return (Promote(sg.Compose(a.mor, b.mor)), "promote-compose")
    if isinstance(a, Promote) and isinstance(b, CopairC):
        if isinstance(a.mor, sg.Inj0):
            return (b.a, "branch-beta-0")
        if isinstance(a.mor, sg.Inj1):
            return (b.b, "branch-beta-1")
    if isinstance(a, IdV):
        return (b, "ident-above")
    if isinstance(b, IdV):
        return (a, "ident-above")
    if _is_unit_cell(a):
        return (b, "unit-above")
    if _is_unit_cell(b):
        return (a, "unit-above")
    return None


def _rewrite_here(c):
    if isinstance(c, HComp):
        hit = _pair_h(c.a, c.b)
        if hit:
            return hit
        if isinstance(c.a, HComp):
            inner = _pair_h(c.a.b, c.b)
            if inner:
                return (HComp(c.a.a, inner[0]), inner[1])
        if isinstance(c.b, HComp):
            return (HComp(HComp(c.a, c.b.a), c.b.b), "assoc-beside")
        return None
    if isinstance(c, VComp):
        hit = _pair_v(c.a, c.b)
        if hit:
            return hit
        if isinstance(c.a, VComp):
            inner = _pair_v(c.a.b, c.b)
            if inner:
                return (VComp(c.a.a, inner[0]), inner[1])
        if isinstance(c.b, VComp):
            return (VComp(VComp(c.a, c.b.a), c.b.b), "assoc-above")
        return None
    if isinstance(c, Promote) and isinstance(c.mor, sg.Id):
        return (IdV(c.mor.obj), "promote-id")
    return None


_CHILDREN = {
    HComp: ("a", "b"),
    VComp: ("a", "b"),
    Times: ("a", "b"),
    Plus: ("a", "b"),
    CopairC: ("a", "b"),
    IterX: ("alpha", "f", "g"),
    IterP: ("alpha", "f", "g"),
}


def rewrite_step(c: Cell):
    """One leftmost-innermost step. Returns (new, rule, path) or None."""
    names = _CHILDREN.get(type(c))
    if names:
        for name in names:
            hit = rewrite_step(getattr(c, name))
            if hit:
                parts = [
                    hit[0] if n == name else getattr(c, n) for n in names
                ]
                return (type(c)(*parts), hit[1], (name,) + hit[2])
    here = _rewrite_here(c)
    if here:
        return (here[0], here[1], ())
    return None


def rewrite(c: Cell, budget: int = 10000) -> RewriteReport:
    """Rewrite c to normal form, or until the step budget runs out."""
    trace = []
    steps = 0
    while steps < budget:
        hit = rewrite_step(c)
        if hit is None:
            return RewriteReport(c, steps, False, trace)
        c = hit[0]
        trace.append((hit[1], ".".join(hit[2]) or "root"))
        steps += 1
    return RewriteReport(c, steps, rewrite_step(c) is not None, trace)
