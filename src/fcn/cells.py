"""Cell terms and boundary typing.

A cell is a square-shaped interaction term with four boundaries: a left
protocol, a top object (inputs), a bottom object (outputs), and a right
protocol.  Reading top to bottom, the cell consumes its top inputs, performs
the interactions described by its side protocols, and yields its bottom
outputs.

`infer_boundary` assigns each well-formed term its boundary or raises
`BoundaryMismatch` / `IllTypedSubterm`.  `boundary` is the one place a
boundary is normalized; every other boundary part is normal already.  A
normal protocol has every loop unrolling folded back into its loop, so
boundary parts are compared with `==`, and a loop protocol still composes
directly with its one-step unrolling.

Each cell node stores its boundary on itself, with the signature it was
inferred under, outside the dataclass fields (as `proto_factors` stores a
factor list), so equality, hashing and printing ignore it.  A stored
boundary is reused only under the same `Signature` object.  That is sound
because a signature never changes a morphism's type: `declare_morphism`
refuses a second declaration of a name with another type, and adding
objects or new morphisms changes no boundary that was already inferred.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BoundaryMismatch, IllTypedSubterm
from .protocol import (
    DONE,
    ChooseP,
    OfferP,
    Protocol,
    RecvP,
    SendP,
    StarPP,
    StarXP,
    normalize_proto,
    proto_equal,
    seq_proto,
)
from .signature import (
    UNIT,
    MorExpr,
    ObjExpr,
    Signature,
    Sum,
    infer_mor_type,
    normalize_obj,
    tensor_obj,
)


@dataclass(frozen=True)
class Boundary:
    left: Protocol
    top: ObjExpr
    bottom: ObjExpr
    right: Protocol

    def __str__(self):
        return f"[{self.left} | {self.top} -> {self.bottom} | {self.right}]"


def boundary(left, top, bottom, right):
    return Boundary(
        normalize_proto(left),
        normalize_obj(top),
        normalize_obj(bottom),
        normalize_proto(right),
    )


def boundaries_equal(b1: Boundary, b2: Boundary) -> bool:
    return (
        b1.top == b2.top
        and b1.bottom == b2.bottom
        and proto_equal(b1.left, b2.left)
        and proto_equal(b1.right, b2.right)
    )


# ---------------------------------------------------------------------------
# Cell terms


@dataclass(frozen=True)
class Cell:
    pass


@dataclass(frozen=True)
class Promote(Cell):
    """A plain morphism as a silent cell: done on both sides."""

    mor: MorExpr


@dataclass(frozen=True)
class GetL(Cell):
    """Receive an A from the left participant: left send A, output A."""

    obj: ObjExpr


@dataclass(frozen=True)
class PutR(Cell):
    """Send an input A to the right participant: right send A."""

    obj: ObjExpr


@dataclass(frozen=True)
class GetR(Cell):
    """Receive an A from the right participant: right recv A, output A."""

    obj: ObjExpr


@dataclass(frozen=True)
class PutL(Cell):
    """Send an input A to the left participant: left recv A."""

    obj: ObjExpr


@dataclass(frozen=True)
class IdV(Cell):
    """Pass-through column: input A goes straight to output A, no talk."""

    obj: ObjExpr


@dataclass(frozen=True)
class IdH(Cell):
    """Pass-through row: protocol U flows left to right, no data."""

    proto: Protocol


@dataclass(frozen=True)
class HComp(Cell):
    """Side-by-side composite: right boundary of a meets left of b."""

    a: Cell
    b: Cell


@dataclass(frozen=True)
class VComp(Cell):
    """Stacked composite: bottom of a meets top of b."""

    a: Cell
    b: Cell


@dataclass(frozen=True)
class Pi0(Cell):
    """Pick the left branch of a choice offered on the left boundary."""

    left: Protocol
    right: Protocol


@dataclass(frozen=True)
class Pi1(Cell):
    left: Protocol
    right: Protocol


@dataclass(frozen=True)
class Times(Cell):
    """Offer the right participant a choice between two cells."""

    a: Cell
    b: Cell


@dataclass(frozen=True)
class Inj0(Cell):
    """Commit to the left branch of a choice owned by the left boundary."""

    left: Protocol
    right: Protocol


@dataclass(frozen=True)
class Inj1(Cell):
    left: Protocol
    right: Protocol


@dataclass(frozen=True)
class Plus(Cell):
    """Let the left participant choose between two cells."""

    a: Cell
    b: Cell


@dataclass(frozen=True)
class CopairC(Cell):
    """Branch on a sum-typed input, one cell per summand."""

    a: Cell
    b: Cell


@dataclass(frozen=True)
class IterX(Cell):
    """Repeat alpha as long as the right boundary's loop demands rounds.

    alpha : [V | A -> A | U] is the loop body; f handles the stop branch and
    g peels one layer off the left state.  The result runs on right loop U^x.
    """

    alpha: Cell
    f: Cell
    g: Cell


@dataclass(frozen=True)
class IterP(Cell):
    """Consume a left loop U^+ layer by layer, folding with alpha.

    Dual of IterX: the left participant drives, so the loop is finite and
    the fold always terminates.
    """

    alpha: Cell
    f: Cell
    g: Cell


# ---------------------------------------------------------------------------
# Boundary inference


def _require(site, expected, found):
    if expected != found:
        raise BoundaryMismatch(site, expected, found)


def infer_boundary(c: Cell, sig: Signature) -> Boundary:
    """The boundary of c under sig, or BoundaryMismatch / IllTypedSubterm.

    The result is stored on c together with sig, outside the dataclass
    fields, and reused only for the same sig object; a failed inference
    stores nothing.  Every subterm stores its own boundary the same way,
    so each node is typed once per signature, and since a document holds
    one node per distinct subterm, each distinct subterm of a document is
    typed once.  The rules are inline, so a composite costs one stack
    frame per level."""
    stored = getattr(c, "_boundary", None)
    if stored is not None and stored[0] is sig:
        return stored[1]
    if isinstance(c, (HComp, VComp, Times, Plus, CopairC)):
        ba = infer_boundary(c.a, sig)
        bb = infer_boundary(c.b, sig)
    elif isinstance(c, (IterX, IterP)):
        # IterX: alpha [V | A -> A | U], f [W | A -> B | K], g [W | I -> I | V.W]
        # IterP: alpha [U | A -> A | V], f [K | A -> B | W], g [V.W | I -> I | W]
        ba = infer_boundary(c.alpha, sig)
        bf = infer_boundary(c.f, sig)
        bg = infer_boundary(c.g, sig)
        g_site = "peel cell" if isinstance(c, IterX) else "collapse cell"
        _require("loop body top/bottom", ba.top, ba.bottom)
        _require("stop cell top", bf.top, ba.top)
        _require(f"{g_site} top", bg.top, UNIT)
        _require(f"{g_site} bottom", bg.bottom, UNIT)
    if isinstance(c, Promote):
        dom, cod = infer_mor_type(c.mor, sig)
        b = boundary(DONE, dom, cod, DONE)
    elif isinstance(c, GetL):
        b = boundary(SendP(c.obj), UNIT, c.obj, DONE)
    elif isinstance(c, PutR):
        b = boundary(DONE, c.obj, UNIT, SendP(c.obj))
    elif isinstance(c, GetR):
        b = boundary(DONE, UNIT, c.obj, RecvP(c.obj))
    elif isinstance(c, PutL):
        b = boundary(RecvP(c.obj), c.obj, UNIT, DONE)
    elif isinstance(c, IdV):
        b = boundary(DONE, c.obj, c.obj, DONE)
    elif isinstance(c, IdH):
        b = boundary(c.proto, UNIT, UNIT, c.proto)
    elif isinstance(c, HComp):
        _require("horizontal seam", ba.right, bb.left)
        b = boundary(
            ba.left,
            tensor_obj(ba.top, bb.top),
            tensor_obj(ba.bottom, bb.bottom),
            bb.right,
        )
    elif isinstance(c, VComp):
        _require("vertical seam", ba.bottom, bb.top)
        b = boundary(
            seq_proto(ba.left, bb.left),
            ba.top,
            bb.bottom,
            seq_proto(ba.right, bb.right),
        )
    elif isinstance(c, Pi0):
        b = boundary(ChooseP(c.left, c.right), UNIT, UNIT, c.left)
    elif isinstance(c, Pi1):
        b = boundary(ChooseP(c.left, c.right), UNIT, UNIT, c.right)
    elif isinstance(c, Times):
        _require("times left sides", ba.left, bb.left)
        _require("times tops", ba.top, bb.top)
        _require("times bottoms", ba.bottom, bb.bottom)
        b = boundary(ba.left, ba.top, ba.bottom, ChooseP(ba.right, bb.right))
    elif isinstance(c, Inj0):
        b = boundary(c.left, UNIT, UNIT, OfferP(c.left, c.right))
    elif isinstance(c, Inj1):
        b = boundary(c.right, UNIT, UNIT, OfferP(c.left, c.right))
    elif isinstance(c, Plus):
        _require("plus right sides", ba.right, bb.right)
        _require("plus tops", ba.top, bb.top)
        _require("plus bottoms", ba.bottom, bb.bottom)
        b = boundary(OfferP(ba.left, bb.left), ba.top, ba.bottom, ba.right)
    elif isinstance(c, CopairC):
        _require("copair left sides", ba.left, bb.left)
        _require("copair right sides", ba.right, bb.right)
        _require("copair bottoms", ba.bottom, bb.bottom)
        b = boundary(ba.left, Sum(ba.top, bb.top), ba.bottom, ba.right)
    elif isinstance(c, IterX):
        _require("peel cell left", bf.left, bg.left)
        _require("peel cell right", seq_proto(ba.left, bg.left), bg.right)
        right = seq_proto(StarXP(ba.right), bf.right)
        b = boundary(bf.left, ba.top, bf.bottom, right)
    elif isinstance(c, IterP):
        _require("collapse cell right", bf.right, bg.right)
        _require("collapse cell left", seq_proto(ba.right, bg.right), bg.left)
        left = seq_proto(StarPP(ba.left), bf.left)
        b = boundary(left, ba.top, bf.bottom, bf.right)
    else:
        raise IllTypedSubterm(f"unknown cell form {c!r}")
    object.__setattr__(c, "_boundary", (sig, b))
    return b
