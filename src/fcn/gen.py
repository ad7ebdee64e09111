"""Deterministic random generation of values, environments, and cells.

Everything takes an explicit random.Random so runs are reproducible from a
seed.  Generated cells are well typed by construction: they grow from a
primitive cell by composition steps that only attach boundary-compatible
neighbours.
"""

from __future__ import annotations

import random

from .protocol import (
    CHOOSE,
    DONE,
    END,
    LOOP_X,
    OFFER,
    RECV,
    SEND,
    ChooseP,
    OfferP,
    Protocol,
    RecvP,
    SendP,
    SeqP,
    normalize_proto,
    proto_factors,
    proto_steps,
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
from .semantics import PInl, PInr, PPair, PSend, PTable
from .signature import (
    GenObj,
    InlV,
    InrV,
    ListV,
    Signature,
    UNIT,
    UNITV,
    Valuation,
    enumerate_values,
    tensor_value,
)


# ---------------------------------------------------------------------------
# Values and environments


def rand_value(rng: random.Random, obj, val: Valuation):
    obj = sg.normalize_obj(obj)
    if isinstance(obj, sg.Unit):
        return UNITV
    if isinstance(obj, sg.GenObj):
        # one value for the drawn atom, not one per atom of the carrier
        return sg.AtomV(rng.choice(val.carrier_atoms(obj.name)))
    if isinstance(obj, sg.Tensor):
        return tensor_value(*(rand_value(rng, f, val) for f in obj.factors))
    if isinstance(obj, sg.Sum):
        if rng.random() < 0.5:
            return InlV(rand_value(rng, obj.left, val))
        return InrV(rand_value(rng, obj.right, val))
    if isinstance(obj, sg.Stack):
        n = rng.randrange(0, 3)
        return ListV(tuple(rand_value(rng, obj.elem, val) for _ in range(n)))
    raise TypeError(f"cannot generate a value of {obj}")


def rand_pval(rng: random.Random, steps, mkpayload, val: Valuation, depth=3):
    """A random environment over a step chain, drawn in full when called,
    so it depends only on the state of rng.

    Finite loops have at most `depth` layers; right-driven loops become
    eventually-constant handles: after `depth` rounds a handle is its own
    next layer, a cycle.  Fresh leaf payloads come from mkpayload().
    """
    if steps is END:
        return mkpayload()
    head, kind, rest = steps.head, steps.kind, steps.rest
    draw = lambda node: rand_pval(rng, node, mkpayload, val, depth)
    if kind == SEND:
        return PSend(rand_value(rng, head.obj, val), draw(rest))
    if kind == RECV:
        return PTable({k: draw(rest) for k in enumerate_values(head.obj, val)})
    if kind == CHOOSE:
        return PPair(*map(draw, steps.sides))
    if kind == OFFER:
        tag = PInl if rng.random() < 0.5 else PInr
        return tag(draw(steps.sides[tag is PInr]))
    if rest is not END:
        # a loop counts its rounds alone, and draws what follows at its leaves
        return rand_pval(rng, proto_steps(head), lambda: draw(rest), val, depth)
    body, loop = steps.parts
    if kind == LOOP_X:
        # a handle settles after depth rounds into its own next layer
        handle = nxt = PPair(None, None)
        if depth > 0:
            nxt = rand_pval(rng, loop, mkpayload, val, depth - 1)
        handle.left = mkpayload()
        handle.right = rand_pval(rng, body, lambda: nxt, val, depth)
        return handle
    if not (depth > 0 and rng.random() >= 0.4):
        return PInl(mkpayload())
    # the tower beneath a layer has one layer fewer
    tail = lambda: rand_pval(rng, loop, mkpayload, val, depth - 1)
    return PInr(rand_pval(rng, body, tail, val, depth))


# ---------------------------------------------------------------------------
# Protocols and cells


def rand_proto(rng: random.Random, sig: Signature, depth=2) -> Protocol:
    """A random loop-free protocol."""
    objs = sorted(sig.objects)
    choices = ["send", "recv", "done"]
    if depth > 0:
        choices += ["seq", "choose", "offer"]
    kind = rng.choice(choices)
    if kind == "done":
        return DONE
    if kind == "send":
        return SendP(GenObj(rng.choice(objs)))
    if kind == "recv":
        return RecvP(GenObj(rng.choice(objs)))
    sub = lambda: rand_proto(rng, sig, depth - 1)
    if kind == "seq":
        return normalize_proto(SeqP((sub(), sub())))
    if kind == "choose":
        return ChooseP(sub(), sub())
    return OfferP(sub(), sub())


def rand_mor(rng: random.Random, sig: Signature, dom) -> sg.MorExpr:
    """A random morphism out of dom: the identity, a braiding of its
    factors, or a declared generator (possibly tensored with identity)."""
    dom = sg.normalize_obj(dom)
    options = [sg.Id(dom)]
    factors = sg.obj_factors(dom)
    if len(factors) >= 2:
        for i in range(1, len(factors)):
            left = sg.normalize_obj(sg.Tensor(tuple(factors[:i])))
            right = sg.normalize_obj(sg.Tensor(tuple(factors[i:])))
            options.append(sg.Braid(left, right))
    for name, (d, _) in sorted(sig.morphisms.items()):
        if d == dom:
            options.append(sg.GenMor(name))
        dfs = sg.obj_factors(d)
        n = len(dfs)
        if 0 < n < len(factors) and factors[:n] == dfs:
            pad = sg.normalize_obj(sg.Tensor(tuple(factors[n:])))
            options.append(sg.TensorM(sg.GenMor(name), sg.Id(pad)))
    return rng.choice(options)


def _rand_base_cell(rng, sig):
    objs = sorted(sig.objects)
    a = GenObj(rng.choice(objs))
    kind = rng.choice(["promote", "getl", "putr", "getr", "putl", "idv", "idh"])
    if kind == "promote":
        return Promote(rand_mor(rng, sig, a))
    if kind == "getl":
        return GetL(a)
    if kind == "putr":
        return PutR(a)
    if kind == "getr":
        return GetR(a)
    if kind == "putl":
        return PutL(a)
    if kind == "idv":
        return IdV(a)
    return IdH(rand_proto(rng, sig, 1))


def _silent_unit_cell(rng, sig):
    """A cell with left protocol done and unit top: pure right-side talk."""
    objs = sorted(sig.objects)
    a = GenObj(rng.choice(objs))
    kind = rng.choice(["getr", "getr-promote", "inj0", "idh"])
    if kind == "getr":
        return GetR(a)
    if kind == "getr-promote":
        return VComp(GetR(a), Promote(rand_mor(rng, sig, a)))
    if kind == "inj0":
        return Inj0(DONE, rand_proto(rng, sig, 1))
    return IdH(DONE)


def _extend_below(rng, sig, bottom):
    """A cell with left protocol done whose top boundary equals `bottom`."""
    choices = ["idv", "promote", "pad"]
    factors = sg.obj_factors(bottom)
    if len(factors) == 1 and isinstance(factors[0], sg.GenObj):
        choices += ["putr"]
    kind = rng.choice(choices)
    if kind == "idv":
        return IdV(bottom)
    if kind == "promote":
        return Promote(rand_mor(rng, sig, bottom))
    if kind == "putr":
        return PutR(factors[0])
    if bottom == UNIT:
        return _silent_unit_cell(rng, sig)
    return HComp(IdV(bottom), _silent_unit_cell(rng, sig))


def gen_cell(rng: random.Random, sig: Signature, size=3) -> Cell:
    """A random well-typed cell, grown by `size` composition steps."""
    c = _rand_base_cell(rng, sig)
    for _ in range(size):
        b = infer_boundary(c, sig)
        right = b.right
        moves = ["below", "times", "plus", "copair", "inj"]
        if isinstance(right, ChooseP):
            moves.append("pi")
        if not proto_factors(right):
            moves.append("beside")
        kind = rng.choice(moves)
        if kind == "below":
            c = VComp(c, _extend_below(rng, sig, b.bottom))
        elif kind == "beside":
            c = HComp(c, _rand_base_cell_done_left(rng, sig))
        elif kind == "times":
            c = Times(c, c)
        elif kind == "plus":
            c = Plus(c, c)
        elif kind == "copair":
            c = CopairC(c, c)
        elif kind == "inj":
            p = rand_proto(rng, sig, 1)
            if rng.random() < 0.5:
                c = HComp(c, Inj0(right, p))
            else:
                c = HComp(c, Inj1(p, right))
        elif kind == "pi":
            which = Pi0 if rng.random() < 0.5 else Pi1
            c = HComp(c, which(right.left, right.right))
    return c


def _rand_base_cell_done_left(rng, sig):
    while True:
        c = _rand_base_cell(rng, sig)
        if not isinstance(c, (GetL, PutL, IdH)):
            return c


def gen_interchange_quad(rng: random.Random, sig: Signature, size=2):
    """Four cells (a, b, c, d) filling a square: b below a, c right of a,
    d in the corner, so that (a/b) | (c/d) and (a|c) / (b|d) are both
    well typed."""
    from .derived import crossing

    a = gen_cell(rng, sig, size)
    ba = infer_boundary(a, sig)
    b = _extend_below(rng, sig, ba.bottom)
    for _ in range(size - 1):
        bb = infer_boundary(b, sig)
        b = VComp(b, _extend_below(rng, sig, bb.bottom))
    bb = infer_boundary(b, sig)
    # growing c and d by silent rows keeps their left edges pinned to the
    # protocols a and b expose on the right
    c = IdH(ba.right)
    for _ in range(size - 1):
        bc = infer_boundary(c, sig)
        c = VComp(c, _extend_below(rng, sig, bc.bottom))
    bc = infer_boundary(c, sig)
    d = crossing(bb.right, bc.bottom)
    for _ in range(size - 1):
        bd = infer_boundary(d, sig)
        d = VComp(d, _extend_below(rng, sig, bd.bottom))
    return a, b, c, d
