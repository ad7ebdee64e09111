"""Derived cells: terms built from the primitive generators.

A derived cell that is one fixed term of its arguments is surface syntax,
not Python: a word of `parser.DEFINITIONS` (the loop structures, the
one-argument loop combinators, the tensor) or any other text, read in a
document, a law or a call to `define`.  Python builds only what text cannot
say, because it recurses or takes a value: protocol crossings, word senders
and state machines.
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
from . import parser
from . import signature as sg
from .cells import (
    Cell,
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


def define(text: str, sig: sg.Signature = None, **args) -> Cell:
    """The cell that text reads with its metavariables bound to args (see
    `parser.bind`); sig types the cell arguments."""
    doc = parser.bind(sig or sg.Signature(), sg.Valuation(), args)
    return parser.parse_term(text, "cell", doc)


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
    # a loop replays the body's crossing once per round, as iterXs and
    # iterPs do, without typing the body
    if isinstance(u, StarXP):
        step = seq_proto(u.body, u)
        return IterX(crossing(u.body, a), HComp(Pi0(DONE, step), IdV(a)), Pi1(DONE, step))
    if isinstance(u, StarPP):
        step = seq_proto(u.body, u)
        return IterP(crossing(u.body, a), HComp(IdV(a), Inj0(DONE, step)), Inj1(DONE, step))
    raise IllTypedSubterm(f"cannot build a crossing for {u}")


# ---------------------------------------------------------------------------
# Stock machines


def word_sender(word, a: sg.ObjExpr) -> Cell:
    """[I | I -> I | (send a)^+]: send the listed values then stop.  Built
    from the last letter out, every stop and step shares one protocol."""
    an = sg.normalize_obj(a)
    step = seq_proto(SendP(an), StarPP(SendP(an)))
    out = Inj0(DONE, step)
    for value in reversed(word):
        letter = vchain(Promote(sg.ConstMor(an, value)), PutR(an), out)
        out = HComp(letter, Inj1(DONE, step))
    return out


def mealy_cell(m: sg.MorExpr, a: sg.ObjExpr, s: sg.ObjExpr, b: sg.ObjExpr) -> Cell:
    """[send a | s -> s | send b]: one transition of a state machine m : a*s -> s*b."""
    return vchain(HComp(GetL(a), IdV(s)), Promote(m), HComp(IdV(s), PutR(b)))


def mealy_loop(m: sg.MorExpr, a: sg.ObjExpr, s: sg.ObjExpr, b: sg.ObjExpr, sig) -> Cell:
    """[(send a)^+ | s -> s | (send b)^+]: run the machine over a finite input word."""
    return define("iterPs(c)", sig, c=mealy_cell(m, a, s, b))


def memory_cell(a: sg.ObjExpr) -> Cell:
    """[I | a -> a | (send a * recv a)^x]: a one-place store. Each round sends
    the current contents to the right and receives the replacement."""
    return define("iterX(putR a / getR a; 1 a; id I)", a=a)
