"""Directed rewriting of cell terms.

The rules orient the cell equations left to right: the four snap rules
that cancel a transmission against its matching corner, functoriality of
promoted morphisms, the beta rules for choice and loop combinators, unit
removal, and reassociation of composites into left-nested form.  Every rule
preserves both the boundary and the denotation.

The strategy is leftmost-innermost with a step budget, in one bottom-up
pass: the children left to right, then the node, and each step's result
again at the same position, which finds redexes in the order a search from
the root does.  When the budget is spent, the next redex found marks the
report exhausted and the walk stops.  The nodes found normal sit in a dict
from id to node that lives for one call, so no subterm a step carries over
is searched twice.  Nothing is stored on the terms: a second `rewrite` of a
normal form searches it once more, in linear time, and so sees it is normal.

Adjacent-pair rules also match across an association boundary: in
((x | y) | z) the pair (y, z) is checked, so left-nesting never hides a
redex of the flat composition chain.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from .errors import FcnError
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
    return isinstance(c, IdV) and not sg.obj_factors(c.obj)


def _match_stop_arm(cell, which):
    """Recognize `which{done, _}`, possibly stacked with a pass-through row.

    A loop projection or injection always branches between done and one
    more round, so the first protocol argument must be done."""
    if isinstance(cell, VComp) and isinstance(cell.b, IdH):
        cell = cell.a
    return isinstance(cell, which) and not proto_factors(cell.left)


# The cells whose protocol on one side is done, whatever their arguments.
_DONE = {"right": (Promote, IdV, GetL, PutL), "left": (Promote, IdV, PutR, GetR)}


def _closed(c, side):
    """Syntactic check that a cell's protocol on `side` is done."""
    if isinstance(c, _DONE[side]):
        return True
    if isinstance(c, (HComp, VComp, CopairC)):
        return _closed(c.a, side) and _closed(c.b, side)
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
    elif isinstance(a, VComp) and isinstance(a.b, PutR) and _closed(a.a, "right"):
        x, put = a.a, a.b
    if put is None:
        return None
    get = rest = spectator = None
    if isinstance(b, GetL):
        get = b
    elif isinstance(b, VComp):
        head, rest = b.a, b.b
        if not _closed(rest, "left"):
            return None
        if isinstance(head, GetL):
            get = head
        elif (
            isinstance(head, HComp)
            and isinstance(head.a, GetL)
            and _closed(head.b, "left")
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


# a composite's class -> its adjacent-pair rules and its reassociation
_COMPOSITES = {HComp: (_pair_h, "assoc-beside"), VComp: (_pair_v, "assoc-above")}


def _rewrite_here(c):
    cls = type(c)
    if cls in _COMPOSITES:
        pair, assoc = _COMPOSITES[cls]
        hit = pair(c.a, c.b)
        if hit:
            return hit
        if isinstance(c.a, cls):
            inner = pair(c.a.b, c.b)
            if inner:
                return (cls(c.a.a, inner[0]), inner[1])
        if isinstance(c.b, cls):
            return (cls(cls(c.a, c.b.a), c.b.b), assoc)
        return None
    if isinstance(c, Promote) and isinstance(c.mor, sg.Id):
        return (IdV(c.mor.obj), "promote-id")
    return None


# each cell former -> the names of its fields that hold cells, in order
_CHILDREN = {
    cls: tuple(f.name for f in fields(cls) if f.type == "Cell")
    for cls in Cell.__subclasses__()
}


def rewrite(c: Cell, budget: int = 10000) -> RewriteReport:
    """Rewrite c to normal form, or until the step budget runs out."""
    if budget < 0:
        raise FcnError(f"budget must be at least 0, got {budget}")
    report = RewriteReport(c, 0, False)
    normal = {}  # id(node) -> node found normal; holding it keeps the id unused
    path = []  # the field names from the root down to the node in hand

    def norm(c):
        while id(c) not in normal and not report.budget_exhausted:
            names = _CHILDREN.get(type(c), ())
            parts = []
            changed = False
            for name in names:  # a comprehension would add a frame per level
                child = getattr(c, name)
                path.append(name)
                parts.append(norm(child))
                path.pop()
                changed |= parts[-1] is not child
            if changed:
                c = type(c)(*parts)
            if report.budget_exhausted:
                break
            hit = _rewrite_here(c)
            if hit is None:
                normal[id(c)] = c
            elif report.steps >= budget:
                report.budget_exhausted = True
            else:
                c = hit[0]
                report.trace.append((hit[1], ".".join(path) or "root"))
                report.steps += 1
        return c

    report.result = norm(c)
    return report
