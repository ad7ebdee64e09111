"""Executable denotational model: cells as stateful transformations.

A protocol denotes a payload functor:

    I           X  =  X
    send A      X  =  A-value paired with X            (PSend)
    recv A      X  =  table from A-values to X         (PTable)
    p1 * p2     X  =  [[p1]]([[p2]] X)                 (outermost first)
    U x W       X  =  pair of a U-value and a W-value  (PPair)
    U + W       X  =  tagged U-value or W-value        (PInl / PInr)
    U^+         X  =  X + [[U]]([[U^+]] X)             (PInl stops, PInr steps)
    U^x         X  =  X x [[U]]([[U^x]] X)             (PPair)

A cell with boundary [U | A -> B | W] denotes, for every payload type X, a
map from ([[U]] X, A-value) to [[W]] (X, B-value): it consumes a U-shaped
environment and a top input, and produces a W-shaped environment whose
leaves carry the surviving payload together with the bottom output.

Application threads a leaf continuation: `Interp.apply(c, pv, a, k)`
builds each output leaf (payload, bottom) through k.  Primitives call k on
the leaves they build, and a composite folds its own post-processing (the
lower cell of a vertical composite, the tensor of two bottom outputs, the
next layer of a loop handle) into the continuation it hands its parts, so
no output is walked twice.  Only the fold of a left-driven loop maps over
its body's output, to reach the tower beneath.

Environments are built call-by-need, so a run costs the path a reader
walks, not the whole output:

- the two arms of `Times` and the stop and next layer of a `^x` handle are
  the sides of a `PPair.lazy`, each built on its own first read;
- `pval_map` returns a pending map (`PMap`) at once.  `expect`, which
  every read of a layer goes through, resolves it one layer at a time and
  at most once, and the mapped function runs on a leaf only when a read
  reaches it.  The silent cells (`IdH`, `Pi*`, `Inj*`) and the fold of a
  left-driven loop map this way.  Maps over the same factor list compose
  into one flat sequence of functions;
- receive tables are eager: `GetR` builds every entry, though each entry
  may itself be lazy.

The readers are the rules that consume an input environment, the trace
walk and the walkers below; `pval_equal` forces everything it compares.
So a wrong-shaped layer raises `IllTypedValue` where it is read: a cell
reads its input as it is applied, but inside an arm of `Times`, a loop
handle or a pending map the error surfaces only when, and if, a read
reaches it.

A loop protocol is identified with its one-step unrolling, so each protocol
shape has one environment: a right-driven loop shares the pair of a choice,
and a left-driven loop the tagged value of an offer.

The environment walkers (`pval_map`, `pval_enumerate` and the observation
below) take flat factor lists, as `proto_factors` returns them, and
`branches` hands them the flat lists of a node's two sides.  So no walker
meets `done` or a nested sequence: `done` is the empty list, and a loop's
step is its body's factors followed by the loop itself.

Environments are compared and printed through one observation, a flat token
list: structure marks, each sent value and table key (tables in the order
of their keys' text), `#handle` where a `^x` handle is cut off, and the
payloads at the leaves.  `pval_equal` asks whether two observations are
equal and `pval_show` renders one, so two environments print alike exactly
when they are equal at that depth: behavioural equivalence up to a bounded
number of loop rounds (Rutten, *Universal Coalgebra*, TCS 2000).  The depth
rule: a `^x` handle observed at depth 0 is cut off; above that, its stop
side and its body are observed at the handle's depth d, the loop beneath
them at d - 1, and whatever follows a factor at the depth where that factor
was split off.
"""

from __future__ import annotations

import itertools

from dataclasses import dataclass

from .errors import IllTypedValue, InfiniteRecvCarrier, NotEnumerable
from .protocol import (
    ChooseP,
    OfferP,
    RecvP,
    SendP,
    StarPP,
    StarXP,
    proto_factors,
)
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
from .signature import (
    UNITV,
    InlV,
    InrV,
    Signature,
    Valuation,
    Value,
    enumerate_values,
    eval_mor,
    obj_factors,
    tensor_value,
    value_factors,
)

# ---------------------------------------------------------------------------
# Protocol environments (pvals)
#
# A done environment is the bare payload, with no wrapper.  Sequential
# protocols nest: the environment for p1 . p2 is a p1-environment whose
# payloads are p2-environments.


@dataclass
class PSend:
    value: Value
    rest: object


@dataclass
class PTable:
    table: dict  # Value -> environment


class PPair:
    """The environment of a choice U x W, or of a right-driven loop U^x read
    as its unrolling I x (U * U^x).

    PPair(left, right) is built eagerly.  PPair.lazy(left, right) takes a
    thunk per side and builds each side on its own first read, at most
    once.
    """

    __slots__ = ("left", "right", "_left", "_right")

    def __init__(self, left, right):
        self.left = left
        self.right = right

    @classmethod
    def lazy(cls, left, right):
        pv = cls.__new__(cls)
        pv._left, pv._right = left, right
        return pv

    def __getattr__(self, name):
        # reached only while a lazy side is unset: build it, drop its thunk
        if name == "left":
            value = self.left = self._left()
            self._left = None
        elif name == "right":
            value = self.right = self._right()
            self._right = None
        else:
            raise AttributeError(name)
        return value


@dataclass
class PInl:
    value: object


@dataclass
class PInr:
    value: object


# The environment of an offer U + W, or of a left-driven loop U^+ read as its
# unrolling I + (U * U^+): PInl(payload) stops and PInr(layer) steps.
TAGGED = (PInl, PInr)


_SHAPE_NAMES = {
    PSend: "a sent value",
    PTable: "a receive table",
    PPair: "a pair environment",
    TAGGED: "a tagged environment",
}


def expect(pv, shape):
    """pv itself if it has the given shape (a key of _SHAPE_NAMES), else
    IllTypedValue.  A pending map is resolved to its top layer first."""
    if type(pv) is PMap:
        pv = pv.layer()
    if isinstance(pv, shape):
        return pv
    raise IllTypedValue(f"expected {_SHAPE_NAMES[shape]}, got {pv!r}")


def branches(head):
    """The flat factor lists of the two sides of a binary node: the two
    branches of a choice or an offer, or the stop and the step of a loop.
    A loop's step is its body's factors followed by the loop itself."""
    if isinstance(head, (StarXP, StarPP)):
        return (), proto_factors(head.body) + (head,)
    return proto_factors(head.left), proto_factors(head.right)


# ---------------------------------------------------------------------------
# Mapping over environment leaves


class PMap:
    """A pending leaf map: the environment pv over the flat factor list
    protos with the functions fns applied in turn to every leaf.

    layer() resolves it one layer at a time, at most once: it builds the
    top layer of the mapped environment, whose parts are again pending
    maps, and keeps it.
    """

    __slots__ = ("pv", "protos", "fns", "_layer")

    def __init__(self, pv, protos, fns):
        self.pv, self.protos, self.fns = pv, protos, fns
        self._layer = None

    def layer(self):
        if self._layer is None:
            self._layer = _map_layer(self.pv, self.protos, self.fns)
            self.pv = self.fns = None
        return self._layer


def pval_map(pv, protos, fn):
    """Apply fn to every payload of an environment over a flat protocol
    factor list.  Over a non-empty list the map is pending: it returns at
    once, and fn runs on a leaf only when a read reaches it."""
    return _mapped(pv, protos, (fn,))


def _mapped(pv, protos, fns):
    if not protos:
        for fn in fns:
            pv = fn(pv)
        return pv
    if type(pv) is PMap and pv._layer is None and pv.protos == protos:
        # only a map over the same list composes: over a prefix list the
        # leaves are still environments, and fns must not reach into them
        return PMap(pv.pv, protos, pv.fns + fns)
    return PMap(pv, protos, fns)


def _map_layer(pv, protos, fns):
    """The top layer of pv mapped by fns, with pending maps beneath."""
    head, rest = protos[0], protos[1:]
    if isinstance(head, SendP):
        pv = expect(pv, PSend)
        return PSend(pv.value, _mapped(pv.rest, rest, fns))
    if isinstance(head, RecvP):
        pv = expect(pv, PTable)
        return PTable({k: _mapped(v, rest, fns) for k, v in pv.table.items()})
    if isinstance(head, (ChooseP, StarXP)):
        pv = expect(pv, PPair)
        lp, rp = branches(head)
        return PPair.lazy(
            lambda: _mapped(pv.left, lp + rest, fns),
            lambda: _mapped(pv.right, rp + rest, fns),
        )
    if isinstance(head, (OfferP, StarPP)):
        pv = expect(pv, TAGGED)
        side = branches(head)[isinstance(pv, PInr)]
        return type(pv)(_mapped(pv.value, side + rest, fns))
    raise TypeError(f"unknown protocol form {head!r}")


# ---------------------------------------------------------------------------
# Cell application


def _leaf(leaf):
    return leaf


def _payload(leaf):
    return leaf[0]


# Cells whose right protocol is done: their output is a single leaf.
_DONE_RIGHT = (Promote, GetL, PutL, IdV)


class Interp:
    """Runs cells against a signature and a valuation of its generators."""

    def __init__(self, sig: Signature, val: Valuation):
        self.sig = sig
        self.val = val

    def apply(self, c: Cell, pv, a: Value, k=None):
        """Run cell c on a left environment pv and a top input a.

        Returns a right-side environment whose leaves are k applied to the
        pairs (incoming payload, bottom output value); k defaults to the
        identity.  Every rule builds its leaves through k.
        """
        if k is None:
            k = _leaf
        if isinstance(c, Promote):
            return k((pv, eval_mor(c.mor, a, self.val, self.sig)))
        if isinstance(c, GetL):
            pv = expect(pv, PSend)
            return k((pv.rest, pv.value))
        if isinstance(c, PutR):
            return PSend(a, k((pv, UNITV)))
        if isinstance(c, GetR):
            try:
                values = list(enumerate_values(c.obj, self.val))
            except NotEnumerable as e:
                raise InfiniteRecvCarrier(str(e)) from e
            return PTable({v: k((pv, v)) for v in values})
        if isinstance(c, PutL):
            pv = expect(pv, PTable)
            if a not in pv.table:
                raise IllTypedValue(f"{a} missing from receive table")
            return k((pv.table[a], UNITV))
        if isinstance(c, IdV):
            return k((pv, a))
        if isinstance(c, IdH):
            return _map_unit(pv, c.proto, k)
        if isinstance(c, HComp):
            parts = value_factors(a)
            n1 = len(obj_factors(infer_boundary(c.a, self.sig).top))
            mid = self.apply(c.a, pv, tensor_value(*parts[:n1]))
            # leaves of c.b are ((x, b), d); fuse the two bottom outputs
            return self.apply(
                c.b,
                mid,
                tensor_value(*parts[n1:]),
                lambda leaf: k((leaf[0][0], tensor_value(leaf[0][1], leaf[1]))),
            )
        if isinstance(c, VComp):
            if isinstance(c.a, _DONE_RIGHT):
                # one leaf: hand it on without a continuation frame
                x, b = self.apply(c.a, pv, a)
                return self.apply(c.b, x, b, k)
            return self.apply(
                c.a, pv, a, lambda leaf: self.apply(c.b, leaf[0], leaf[1], k)
            )
        if isinstance(c, Pi0):
            return _map_unit(expect(pv, PPair).left, c.left, k)
        if isinstance(c, Pi1):
            return _map_unit(expect(pv, PPair).right, c.right, k)
        if isinstance(c, Times):
            return PPair.lazy(
                lambda: self.apply(c.a, pv, a, k), lambda: self.apply(c.b, pv, a, k)
            )
        if isinstance(c, Inj0):
            return PInl(_map_unit(pv, c.left, k))
        if isinstance(c, Inj1):
            return PInr(_map_unit(pv, c.right, k))
        if isinstance(c, Plus):
            tagged = expect(pv, TAGGED)
            branch = c.a if isinstance(tagged, PInl) else c.b
            return self.apply(branch, tagged.value, a, k)
        if isinstance(c, CopairC):
            if isinstance(a, InlV):
                return self.apply(c.a, pv, a.value, k)
            if isinstance(a, InrV):
                return self.apply(c.b, pv, a.value, k)
            raise IllTypedValue(f"branching cell needs a tagged input, got {a}")
        if isinstance(c, IterX):

            def make_handle(leaf):
                state, inp = leaf

                def layer():
                    # g peels a body-left environment over fresh loop states
                    peeled = self.apply(c.g, state, UNITV, _payload)
                    return self.apply(c.alpha, peeled, inp, make_handle)

                return PPair.lazy(lambda: self.apply(c.f, state, inp, k), layer)

            return make_handle((pv, a))
        if isinstance(c, IterP):
            body_right = proto_factors(infer_boundary(c.alpha, self.sig).right)

            def fold(state, inp):
                state = expect(state, TAGGED)
                if isinstance(state, PInl):
                    return self.apply(c.f, state.value, inp, k)
                # fold the layer's leaves through a pending map rather than
                # alpha's continuation: each fold runs when a read reaches
                # its leaf, so the stack does not grow with the tower
                stepped = self.apply(c.alpha, state.value, inp)
                folded = pval_map(stepped, body_right, lambda leaf: fold(*leaf))
                return self.apply(c.g, folded, UNITV, _payload)

            return fold(pv, a)
        raise TypeError(f"unknown cell form {c!r}")


def _map_unit(pv, proto, k):
    """The leaves of a silent cell: each payload x becomes k((x, ())."""
    return pval_map(pv, proto_factors(proto), lambda x: k((x, UNITV)))


# ---------------------------------------------------------------------------
# Environment enumeration, observation, and printing

_ENUM_CAP = 4096  # more input shapes than this are sampled, not enumerated


def pval_enumerate(protos, payloads, val: Valuation):
    """All environments over a flat, loop-free protocol factor list, with
    leaf payloads drawn from the given list.  A list kept on the way stops
    at _ENUM_CAP + 1 entries, which already put the total over the cap."""
    if not protos:
        yield from payloads
        return
    head, rest = protos[0], protos[1:]
    if isinstance(head, (StarXP, StarPP)):
        # a loop has no finite set of environments: refuse it before the
        # factors after it are enumerated
        raise NotEnumerable(f"cannot enumerate environments of {head}")
    if rest:
        inner = itertools.islice(pval_enumerate(rest, payloads, val), _ENUM_CAP + 1)
        yield from pval_enumerate((head,), list(inner), val)
        return
    if isinstance(head, SendP):
        for v in enumerate_values(head.obj, val):
            for p in payloads:
                yield PSend(v, p)
        return
    if isinstance(head, RecvP):
        keys = list(enumerate_values(head.obj, val))
        for combo in itertools.product(payloads, repeat=len(keys)):
            yield PTable(dict(zip(keys, combo)))
        return
    if isinstance(head, ChooseP):
        lefts, rights = (
            list(itertools.islice(pval_enumerate(p, payloads, val), _ENUM_CAP + 1))
            for p in branches(head)
        )
        for l in lefts:
            for r in rights:
                yield PPair(l, r)
        return
    if isinstance(head, OfferP):
        lp, rp = branches(head)
        for l in pval_enumerate(lp, payloads, val):
            yield PInl(l)
        for r in pval_enumerate(rp, payloads, val):
            yield PInr(r)
        return
    raise TypeError(f"unknown protocol form {head!r}")


def pval_label(pv, protos, labels):
    """A copy of pv, an environment over a flat, loop-free factor list, with
    each leaf drawn from the iterator labels once, in one eager walk, even
    where pv shares one environment between leaves."""
    if not protos:
        return next(labels)
    head, rest = protos[0], protos[1:]
    if isinstance(head, SendP):
        return PSend(pv.value, pval_label(pv.rest, rest, labels))
    if isinstance(head, RecvP):
        return PTable({k: pval_label(v, rest, labels) for k, v in pv.table.items()})
    lp, rp = branches(head)
    if isinstance(head, ChooseP):
        return PPair(
            pval_label(pv.left, lp + rest, labels),
            pval_label(pv.right, rp + rest, labels),
        )
    side = rp if isinstance(pv, PInr) else lp
    return type(pv)(pval_label(pv.value, side + rest, labels))


class _Mark:
    """A structure token of an observation.  A mark that a sent value or a
    table key follows has as `key` the text printed after that value."""

    __slots__ = ("text", "key")

    def __init__(self, text, key=None):
        self.text, self.key = text, key


_SEND, _END_SEND = _Mark("(", ", "), _Mark(")")
_TABLE, _END_TABLE = _Mark("{"), _Mark("}")
_KEY, _NEXT_KEY = _Mark("", " -> "), _Mark(", ", " -> ")
_PAIR, _COMMA, _END_PAIR = _Mark("<"), _Mark(", "), _Mark(">")
_HANDLE = _Mark("#handle")
# the tags of an offer and of a left-driven loop, stop side first
_TAGS = ((_Mark("L "), _Mark("R ")), (_Mark("stop "), _Mark("step ")))


def _observe(out, pv, protos, depth):
    """Append to out the observation of pv over the flat factor list protos
    at depth.  The work is a stack of tokens still to append and of pending
    observations (pv, protos, depth, then): their leaves are payloads when
    `then` is None, and otherwise environments observed over `then`, a
    triple (protos, depth, then)."""
    todo = [(pv, protos, depth, None)]
    while todo:
        item = todo.pop()
        if type(item) is not tuple:
            out.append(item)
            continue
        pv, protos, depth, then = item
        while not protos and then is not None:
            protos, depth, then = then
        if not protos:
            out.append(pv)
            continue
        head, rest = protos[0], protos[1:]
        if isinstance(head, SendP):
            pv = expect(pv, PSend)
            out += (_SEND, pv.value)
            todo += (_END_SEND, (pv.rest, rest, depth, then))
        elif isinstance(head, RecvP):
            table = expect(pv, PTable).table
            out.append(_TABLE)
            todo.append(_END_TABLE)
            # pushed last key first, so they come off in order of their text
            for i, key in reversed(list(enumerate(sorted(table, key=str)))):
                todo += ((table[key], rest, depth, then), key, _NEXT_KEY if i else _KEY)
        elif isinstance(head, (ChooseP, StarXP)):
            if isinstance(head, StarXP) and depth <= 0:
                out.append(_HANDLE)
                continue
            pv = expect(pv, PPair)
            lp, rp = branches(head)
            out.append(_PAIR)
            left = (pv.left, lp + rest, depth, then)
            if isinstance(head, StarXP):
                # the body at depth, the loop beneath it at depth - 1, and
                # what follows the loop at the depth it was split off at
                below = (rp[-1:], depth - 1, (rest, depth, then))
                right = (pv.right, rp[:-1], depth, below)
            else:
                right = (pv.right, rp + rest, depth, then)
            todo += (_END_PAIR, right, _COMMA, left)
        elif isinstance(head, (OfferP, StarPP)):
            pv = expect(pv, TAGGED)
            step = isinstance(pv, PInr)
            out.append(_TAGS[isinstance(head, StarPP)][step])
            todo.append((pv.value, branches(head)[step] + rest, depth, then))
        else:
            raise TypeError(f"unknown protocol form {head!r}")


def pval_equal(p, q, protos, depth) -> bool:
    """Observational equality of environments over a flat factor list: the
    two observations at `depth` are equal."""
    seen_p, seen_q = [], []
    _observe(seen_p, p, protos, depth)
    _observe(seen_q, q, protos, depth)
    return seen_p == seen_q


def pval_shape(pv, protos, depth) -> tuple:
    """The observation of pv at `depth` with its payloads renamed 0, 1, ...
    in order of first appearance: two environments have the same shape
    exactly when their observations agree up to renaming the payloads."""
    seen, names, key = [], {}, None
    _observe(seen, pv, protos, depth)
    for i, t in enumerate(seen):
        if type(t) is _Mark:
            key = t.key
        elif key is not None:
            key = None  # a sent value or a table key, not a payload
        else:
            seen[i] = names.setdefault(t, len(names))
    return tuple(seen)


def _show_payload(x) -> str:
    if isinstance(x, tuple):
        return "(" + ", ".join(_show_payload(i) for i in x) + ")"
    return str(x)


def pval_show(pv, protos, depth=2) -> str:
    """Render the observation of an environment over a flat factor list at
    `depth`.  Sent values and table keys are rendered with str, and the
    payloads at the leaves as tuples of their parts."""
    seen = []
    _observe(seen, pv, protos, depth)
    parts, key = [], None
    for t in seen:
        if type(t) is _Mark:
            parts.append(t.text)
            key = t.key
        elif key is not None:
            parts += (str(t), key)
            key = None
        else:
            parts.append(_show_payload(t))
    return "".join(parts)
