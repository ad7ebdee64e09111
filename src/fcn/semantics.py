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
its body's output, to reach the tower beneath.  Each application compiles
its cell, a shared subterm once, into a closure that calls its parts'
closures directly and holds what the rule needs of the cell's boundary
(Feeley & Lapalme, *Using Closures for Code Generation*, 1987).

Environments are built call-by-need, so a run costs the path a reader
walks, not the whole output:

- the two arms of `Times` and the stop and next layer of a `^x` handle are
  the sides of a `PPair.lazy`, each built on its own first read;
- `pval_map` returns a pending map (`PMap`) at once.  `expect`, which
  every read of a layer goes through, resolves it one layer at a time and
  at most once, and the mapped function runs on a leaf only when a read
  reaches it.  The silent cells (`IdH`, `Pi*`, `Inj*`) and the fold of a
  left-driven loop map this way.  Maps over the same factor list compose
  into one flat sequence of functions.  Under the continuation `_payload`
  a silent cell's map is the identity, so by the functor identity law it
  hands its environment through unmapped.  The loop formers apply their
  `g` under `_payload` in every round, and build no map there for a
  silent `g`;
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

The environment walkers (`pval_map`, `pval_enumerate`, the observation
below, `trace._walk` and `gen.rand_pval`) follow the step chains of
`protocol.proto_steps` and read a branch through its two `sides`, each
followed by the rest of the chain, so none meets `done` or a nested
sequence, or slices a factor list: `done` is `END`, and a loop's step side
is its body chained back to the loop's own node.  Only the observation and
`gen.rand_pval` count loop rounds, and read a loop's `parts` to do so.

Printing walks the observation of an environment, a flat token list:
structure marks, each sent value and table key (tables in the order of
their keys' text), `#handle` where a `^x` handle is cut off, and the
payloads at the leaves; `pval_show` renders it.  Comparison walks both
environments in lockstep under the same depth rule and in the same order,
and builds no list: `pval_equal` compares what two observations over one
step chain can differ in, the payloads, sent values, table key sets and
tags, and stops at the first difference.  So two environments print alike
exactly when they are equal at that depth: behavioural equivalence up to a
bounded number of loop rounds (Rutten, *Universal Coalgebra*, TCS 2000).
The depth rule: a `^x` handle observed at depth 0 is cut off; above that,
its stop side and its body are observed at the handle's depth d, the loop
beneath them at d - 1, and whatever follows a factor at the depth where
that factor was split off.
"""

from __future__ import annotations

import functools
import itertools

from dataclasses import dataclass

from .errors import IllTypedValue, InfiniteRecvCarrier, NotEnumerable
from .protocol import CHOOSE, END, LOOP_P, LOOP_X, RECV, SEND, proto_steps
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


# ---------------------------------------------------------------------------
# Mapping over environment leaves


class PMap:
    """A pending leaf map: the environment pv over the step chain node with
    the functions fns applied in turn to every leaf.

    layer() resolves it one layer at a time, at most once: it builds the
    top layer of the mapped environment, whose parts are again pending
    maps, and keeps it.
    """

    __slots__ = ("pv", "node", "fns", "_layer")

    def __init__(self, pv, node, fns):
        self.pv, self.node, self.fns = pv, node, fns
        self._layer = None

    def layer(self):
        if self._layer is None:
            self._layer = _map_layer(self.pv, self.node, self.fns)
            self.pv = self.fns = None
        return self._layer


def pval_map(pv, steps, fn):
    """Apply fn to every payload of an environment over a step chain.  Over
    a non-empty chain the map is pending: it returns at once, and fn runs
    on a leaf only when a read reaches it."""
    return _mapped(pv, steps, (fn,))


def _mapped(pv, node, fns):
    if node is END:
        for fn in fns:
            pv = fn(pv)
        return pv
    if type(pv) is PMap and pv._layer is None and (
        pv.node is node or pv.node.factors == node.factors
    ):
        # only a map over the same factor list composes: over a prefix the
        # leaves are still environments, and fns must not reach into them
        return PMap(pv.pv, node, pv.fns + fns)
    return PMap(pv, node, fns)


def _map_layer(pv, node, fns):
    """The top layer of pv mapped by fns, with pending maps beneath."""
    kind = node.kind
    if kind == SEND:
        pv = expect(pv, PSend)
        return PSend(pv.value, _mapped(pv.rest, node.rest, fns))
    if kind == RECV:
        pv, rest = expect(pv, PTable), node.rest
        return PTable({k: _mapped(v, rest, fns) for k, v in pv.table.items()})
    if kind <= LOOP_X:
        pv = expect(pv, PPair)
        left, right = node.sides
        return PPair.lazy(
            lambda: _mapped(pv.left, left, fns), lambda: _mapped(pv.right, right, fns)
        )
    pv = expect(pv, TAGGED)
    return type(pv)(_mapped(pv.value, node.sides[type(pv) is PInr], fns))


# ---------------------------------------------------------------------------
# Cell application


def _leaf(leaf):
    return leaf


def _payload(leaf):
    return leaf[0]


class Interp:
    """Runs cells against a signature and a valuation of its generators.

    Each application compiles its cell into closures `run(pv, a, k)`, kept
    by node id for that compile only, while the cell keeps every id in use."""

    def __init__(self, sig: Signature, val: Valuation):
        self.sig, self.val = sig, val
        self._runs = None  # while apply compiles: id(node) -> its closure

    def apply(self, c: Cell, pv, a: Value, k=None):
        """Run cell c on a left environment pv and a top input a.

        Returns a right-side environment whose leaves are k applied to the
        pairs (incoming payload, bottom output value); k defaults to the
        identity.  Every rule builds its leaves through k.
        """
        self._runs = {}
        run = self._run(c)
        self._runs = None
        return run(pv, a, k or _leaf)

    def _run(self, c):
        run = self._runs.get(id(c))
        if run is None:
            run = self._runs[id(c)] = _COMPILE[type(c)](self, c)
        return run


def _compile_promote(interp, c):
    mor, val, sig = c.mor, interp.val, interp.sig
    return lambda pv, a, k: k((pv, eval_mor(mor, a, val, sig)))


def _get_l(pv, a, k):
    pv = expect(pv, PSend)
    return k((pv.rest, pv.value))


def _compile_getr(interp, c):
    obj, val = c.obj, interp.val

    def run(pv, a, k):
        try:
            values = list(enumerate_values(obj, val))
        except NotEnumerable as e:
            raise InfiniteRecvCarrier(str(e)) from e
        return PTable({v: k((pv, v)) for v in values})

    return run


def _put_l(pv, a, k):
    table = expect(pv, PTable).table
    if a not in table:
        raise IllTypedValue(f"{a} missing from receive table")
    return k((table[a], UNITV))


def _compile_hcomp(interp, c):
    n1 = len(obj_factors(infer_boundary(c.a, interp.sig).top))
    run_a, run_b = interp._run(c.a), interp._run(c.b)

    def run(pv, a, k):
        parts = value_factors(a)
        mid = run_a(pv, tensor_value(*parts[:n1]), _leaf)
        # leaves of c.b are ((x, b), d); fuse the two bottom outputs
        fuse = lambda leaf: k((leaf[0][0], tensor_value(leaf[0][1], leaf[1])))
        return run_b(mid, tensor_value(*parts[n1:]), fuse)

    return run


def _compile_vcomp(interp, c):
    run_a, run_b = interp._run(c.a), interp._run(c.b)
    if proto_steps(infer_boundary(c.a, interp.sig).right) is END:
        # c.a's right protocol is done: hand its one leaf on directly
        return lambda pv, a, k: run_b(*run_a(pv, a, _leaf), k)
    return lambda pv, a, k: run_a(pv, a, lambda leaf: run_b(leaf[0], leaf[1], k))


def _compile_times(interp, c):
    run_a, run_b = interp._run(c.a), interp._run(c.b)
    return lambda pv, a, k: PPair.lazy(lambda: run_a(pv, a, k), lambda: run_b(pv, a, k))


def _compile_plus(interp, c):
    run_a, run_b = interp._run(c.a), interp._run(c.b)

    def run(pv, a, k):
        tagged = expect(pv, TAGGED)
        branch = run_a if type(tagged) is PInl else run_b
        return branch(tagged.value, a, k)

    return run


def _compile_copair(interp, c):
    run_a, run_b = interp._run(c.a), interp._run(c.b)

    def run(pv, a, k):
        if isinstance(a, InlV):
            return run_a(pv, a.value, k)
        if isinstance(a, InrV):
            return run_b(pv, a.value, k)
        raise IllTypedValue(f"branching cell needs a tagged input, got {a}")

    return run


def _compile_iterx(interp, c):
    run_f, run_g, run_alpha = interp._run(c.f), interp._run(c.g), interp._run(c.alpha)

    def run(pv, a, k):
        def make_handle(leaf):
            state, inp = leaf
            # the next layer: g peels a body-left environment over fresh
            # loop states, and alpha runs on it
            return PPair.lazy(
                lambda: run_f(state, inp, k),
                lambda: run_alpha(run_g(state, UNITV, _payload), inp, make_handle),
            )

        return make_handle((pv, a))

    return run


def _compile_iterp(interp, c):
    body_right = proto_steps(infer_boundary(c.alpha, interp.sig).right)
    run_f, run_g, run_alpha = interp._run(c.f), interp._run(c.g), interp._run(c.alpha)

    def run(pv, a, k):
        def fold(state, inp):
            state = expect(state, TAGGED)
            if type(state) is PInl:
                return run_f(state.value, inp, k)
            # fold the layer's leaves through a pending map rather than
            # alpha's continuation: each fold runs when a read reaches its
            # leaf, so the stack does not grow with the tower
            stepped = run_alpha(state.value, inp, _leaf)
            folded = pval_map(stepped, body_right, lambda leaf: fold(*leaf))
            return run_g(folded, UNITV, _payload)

        return fold(pv, a)

    return run


def _compile_silent(side, read, tag):
    """The compile function of a silent cell, which maps each payload x of
    the environment `read(pv)` over its protocol `side` to k((x, ())) and
    hands the result to `tag`.

    Under the continuation `_payload` that map is the identity, and a
    functor maps the identity to the identity, so `read(pv)` is handed
    through unmapped; the loop formers apply their `g` this way in every
    round.  No shape check is lost: whoever reads that environment still
    `expect`s each layer it reads, along an equal protocol."""

    def compile_cell(interp, c):
        steps = proto_steps(getattr(c, side))

        def run(pv, a, k):
            if k is _payload:
                return tag(read(pv))
            return tag(_mapped(read(pv), steps, (lambda x: k((x, UNITV)),)))

        return run

    return compile_cell


# One compile function per cell former: it returns the cell's closure,
# linked to the closures of its parts.
_COMPILE = {
    Promote: _compile_promote,
    GetL: lambda interp, c: _get_l,
    PutR: lambda interp, c: lambda pv, a, k: PSend(a, k((pv, UNITV))),
    GetR: _compile_getr,
    PutL: lambda interp, c: _put_l,
    IdV: lambda interp, c: lambda pv, a, k: k((pv, a)),
    IdH: _compile_silent("proto", _leaf, _leaf),
    HComp: _compile_hcomp,
    VComp: _compile_vcomp,
    Pi0: _compile_silent("left", lambda pv: expect(pv, PPair).left, _leaf),
    Pi1: _compile_silent("right", lambda pv: expect(pv, PPair).right, _leaf),
    Times: _compile_times,
    Inj0: _compile_silent("left", _leaf, PInl),
    Inj1: _compile_silent("right", _leaf, PInr),
    Plus: _compile_plus,
    CopairC: _compile_copair,
    IterX: _compile_iterx,
    IterP: _compile_iterp,
}


# ---------------------------------------------------------------------------
# Environment enumeration, observation, and printing

_ENUM_CAP = 4096  # more input shapes than this are sampled, not enumerated


def pval_enumerate(node, leaf, val: Valuation):
    """All environments over a loop-free step chain, each leaf a new leaf(),
    so no two leaves of one environment are the same object.  pval_count
    says how many there are before any is built."""
    if node is END:
        yield leaf()
        return
    kind = node.kind
    if kind == LOOP_X or kind == LOOP_P:
        # a loop has no finite set of environments: refuse it before the
        # factors after it are enumerated
        raise NotEnumerable(f"cannot enumerate environments of {node.head}")
    pool = lambda side: list(pval_enumerate(side, leaf, val))
    if kind == SEND:
        values = enumerate_values(node.head.obj, val)
        yield from itertools.starmap(PSend, itertools.product(values, pool(node.rest)))
    elif kind == RECV:
        # one pool per key, so no two entries of a table share a leaf
        keys = list(enumerate_values(node.head.obj, val))
        for combo in itertools.product(*(pool(node.rest) for _ in keys)):
            yield PTable(dict(zip(keys, combo)))
    elif kind == CHOOSE:
        yield from itertools.starmap(PPair, itertools.product(*map(pool, node.sides)))
    else:
        for tag, side in zip((PInl, PInr), node.sides):
            yield from map(tag, pval_enumerate(side, leaf, val))


def pval_count(steps, val: Valuation) -> int:
    """The number of environments pval_enumerate lists over a loop-free
    step chain, or _ENUM_CAP + 1 when there are more, found without
    building one: a send multiplies by its values, a receive raises to the
    power of its keys, a choice multiplies its sides and an offer adds
    them.  Raises NotEnumerable where pval_enumerate would."""
    over = _ENUM_CAP + 1

    @functools.cache  # the two sides of a branch share the rest of the chain
    def count(node):
        if node is END:
            return 1
        kind = node.kind
        if kind == LOOP_X or kind == LOOP_P:
            raise NotEnumerable(f"cannot enumerate environments of {node.head}")
        if kind == SEND or kind == RECV:
            # past `over` values the count is capped anyway
            values = itertools.islice(enumerate_values(node.head.obj, val), over)
            if kind == SEND:
                n = count(node.rest) * sum(1 for _ in values)
            else:
                n = 1
                for _ in values:
                    n = min(n * count(node.rest), over)
        elif kind == CHOOSE:
            n = count(node.sides[0]) * count(node.sides[1])
        else:
            n = count(node.sides[0]) + count(node.sides[1])
        return min(n, over)

    return count(steps)


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


def _observe(out, pv, node, depth):
    """Append to out the observation of pv over the step chain node at
    depth, for pval_show; pval_equal walks two environments in this order
    without building the list.  The work is a stack of tokens still to
    append and of pending observations (pv, node, depth, then): their
    leaves are payloads when `then` is None, and otherwise environments
    observed over `then`, a triple (node, depth, then)."""
    todo = [(pv, node, depth, None)]
    while todo:
        item = todo.pop()
        if type(item) is not tuple:
            out.append(item)
            continue
        pv, node, depth, then = item
        while node is END and then is not None:
            node, depth, then = then
        if node is END:
            out.append(pv)
            continue
        kind = node.kind
        if kind == SEND:
            pv = expect(pv, PSend)
            out += (_SEND, pv.value)
            todo += (_END_SEND, (pv.rest, node.rest, depth, then))
        elif kind == RECV:
            table, rest = expect(pv, PTable).table, node.rest
            out.append(_TABLE)
            todo.append(_END_TABLE)
            # pushed last key first, so they come off in order of their text
            for i, key in reversed(list(enumerate(sorted(table, key=str)))):
                todo += ((table[key], rest, depth, then), key, _NEXT_KEY if i else _KEY)
        elif kind == LOOP_X and depth <= 0:
            # cut off before a pending map is resolved: no layer is built
            out.append(_HANDLE)
        elif kind <= LOOP_X:
            pv = expect(pv, PPair)
            out.append(_PAIR)
            left = (pv.left, node.sides[0], depth, then)
            if kind == LOOP_X:
                # the body at depth, the loop beneath it at depth - 1, and
                # what follows the loop at the depth it was split off at
                body, loop = node.parts
                right = (pv.right, body, depth, (loop, depth - 1, (node.rest, depth, then)))
            else:
                right = (pv.right, node.sides[1], depth, then)
            todo += (_END_PAIR, right, _COMMA, left)
        else:
            pv = expect(pv, TAGGED)
            step = type(pv) is PInr
            out.append(_TAGS[kind == LOOP_P][step])
            todo.append((pv.value, node.sides[step], depth, then))


def pval_equal(p, q, steps, depth) -> bool:
    """Observational equality of environments over a step chain: the two
    observations at `depth` are equal.

    One walk over both sides in lockstep, under the observation's depth
    rule and in its order, with a stack of the pairs still to compare (p,
    q, node, depth, then) as in `_observe`.  Two environments over one
    step chain can differ only in a payload, a sent value, a table's key
    set or a tag, so only those are compared, and the walk stops at the
    first that differs: what lies after it is never read.  The walk holds
    no part it has compared, so when the caller holds neither environment,
    each compared part is freed as the walk moves on."""
    todo = [(p, q, steps, depth, None)]
    pop, push = todo.pop, todo.append
    while todo:
        p, q, node, depth, then = pop()
        while node is END and then is not None:
            node, depth, then = then
        if node is END:
            if p != q:
                return False
            continue
        kind = node.kind
        if kind == SEND:
            p, q = expect(p, PSend), expect(q, PSend)
            if p.value != q.value:
                return False
            push((p.rest, q.rest, node.rest, depth, then))
        elif kind == RECV:
            p, q, rest = expect(p, PTable).table, expect(q, PTable).table, node.rest
            if p.keys() != q.keys():
                return False
            # pushed last key first, so they come off in order of their text
            for key in sorted(p, key=str, reverse=True):
                push((p[key], q[key], rest, depth, then))
        elif kind == LOOP_X and depth <= 0:
            # cut off before a pending map is resolved: no layer is built
            continue
        elif kind <= LOOP_X:
            p, q = expect(p, PPair), expect(q, PPair)
            if kind == LOOP_X:
                body, loop = node.parts
                below = (loop, depth - 1, (node.rest, depth, then))
                push((p.right, q.right, body, depth, below))
            else:
                push((p.right, q.right, node.sides[1], depth, then))
            push((p.left, q.left, node.sides[0], depth, then))
        else:
            p, q = expect(p, TAGGED), expect(q, TAGGED)
            if type(p) is not type(q):
                return False
            push((p.value, q.value, node.sides[type(p) is PInr], depth, then))
    return True


def pval_shape(pv, steps) -> tuple:
    """The structure of pv over a step chain, with its payloads renamed 0,
    1, ... in order of first appearance, in one walk that numbers each ^x
    handle at its first visit and stops at its number on a later one.  So
    two draws of `gen.rand_pval`, whose handles settle into cycles, have
    equal shapes exactly when they are equal up to renaming payloads."""
    out, handles, names, todo = [], {}, {}, [(pv, steps)]
    while todo:
        pv, node = todo.pop()
        kind = node.kind
        if node is END:
            out.append(names.setdefault(pv, len(names)))
        elif kind == SEND:
            out.append(pv.value)
            todo.append((pv.rest, node.rest))
        elif kind == RECV:
            keys = sorted(pv.table, key=str)
            out.append(tuple(keys))
            todo += [(pv.table[key], node.rest) for key in reversed(keys)]
        elif kind == LOOP_X and id(pv) in handles:
            out.append(handles[id(pv)])
        elif kind <= LOOP_X:
            if kind == LOOP_X:
                out.append(handles.setdefault(id(pv), len(handles)))
            todo += [(pv.right, node.sides[1]), (pv.left, node.sides[0])]
        else:
            out.append(type(pv) is PInr)
            todo.append((pv.value, node.sides[type(pv) is PInr]))
    return tuple(out)


def _show_payload(x) -> str:
    if isinstance(x, tuple):
        return "(" + ", ".join(_show_payload(i) for i in x) + ")"
    return str(x)


def pval_show(pv, steps, depth=2) -> str:
    """Render the observation of an environment over a step chain at
    `depth`.  Sent values and table keys are rendered with str, and the
    payloads at the leaves as tuples of their parts."""
    seen = []
    _observe(seen, pv, steps, depth)
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
