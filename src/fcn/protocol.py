"""Protocol types: the two-sided session vocabulary.

A protocol describes one column of interaction between a left participant
and a right participant, and prints in the file syntax that `parser` reads
back.  `send A` passes an A from left to right, `recv A` the other way, and
`I` is the empty protocol.  Protocols compose in sequence (`*`), and branch
by `x` (the right participant picks) or `+` (the left participant picks).
The two loops repeat a protocol: `U^x` is driven by the right participant
(who may demand another round forever), `U^+` by the left (who must stop
eventually).

Equality of protocols is loop-unrolling equality: `U^x` is the same
protocol as `I x (U * U^x)`, and `U^+` the same as `I + (U * U^+)`.
Normal forms fold every such unrolling back into its loop, so
`proto_equal` is `==` on normal forms.

That is the only equation.  In particular a sequence does not distribute
over a branch: `(U x W) * V` is not `(U * V) x (W * V)`, and likewise for
`+`.  The interpreter gives both sides the same environments, but
boundaries are compared by their normal forms, so identifying them would
change which terms typecheck: a cell ending in `(U x W) * V` would meet a
projection `pi0{U * V, W * V}` that today it does not.

Normal form is decided here and, for objects, in `signature.normalize_obj`,
and nowhere else.  A protocol is normal when its sequences are flat and
free of `I`, every one-step loop unrolling is folded back into its
loop, and its objects are normal.  `normalize_proto` returns normal input
itself, not a copy, so callers holding a normal protocol never normalize
it again, and a boundary part or a parsed term stays the object it was.
"""

from __future__ import annotations

from dataclasses import dataclass

from .signature import ObjExpr, normalize_obj, _obj_atom_str, _same_items


@dataclass(frozen=True)
class Protocol:
    def __str__(self):
        """The file syntax that `parser` reads, parenthesized so that the
        text parses back to this protocol."""
        if isinstance(self, SendP):
            return f"send {_obj_atom_str(self.obj)}"
        if isinstance(self, RecvP):
            return f"recv {_obj_atom_str(self.obj)}"
        if isinstance(self, SeqP):
            return "(" + " * ".join(map(str, self.parts)) + ")"
        if isinstance(self, ChooseP):
            return f"({self.left} x {self.right})"
        if isinstance(self, OfferP):
            return f"({self.left} + {self.right})"
        if isinstance(self, StarXP):
            return f"({self.body})^x"
        if isinstance(self, StarPP):
            return f"({self.body})^+"
        return "I"


@dataclass(frozen=True)
class DoneP(Protocol):
    pass


DONE = DoneP()


@dataclass(frozen=True)
class SendP(Protocol):
    obj: ObjExpr


@dataclass(frozen=True)
class RecvP(Protocol):
    obj: ObjExpr


@dataclass(frozen=True)
class SeqP(Protocol):
    parts: tuple


@dataclass(frozen=True)
class ChooseP(Protocol):
    left: Protocol
    right: Protocol


@dataclass(frozen=True)
class OfferP(Protocol):
    left: Protocol
    right: Protocol


@dataclass(frozen=True)
class StarXP(Protocol):
    body: Protocol


@dataclass(frozen=True)
class StarPP(Protocol):
    body: Protocol


def normalize_proto(p: Protocol) -> Protocol:
    """Flatten sequences, drop done factors and fold one-step loop
    unrollings, bottom-up.  A node whose normalized children are its own
    children is returned itself, so normalizing normal input returns that
    input, and a sequence node built here carries its factor list."""
    parts = proto_factors(p)
    if isinstance(p, DoneP):
        return p
    if isinstance(p, SeqP) and len(parts) > 1 and _same_items(p.parts, parts):
        return p
    return _seq(parts)


def _seq(parts: tuple) -> Protocol:
    """The normal protocol with the given flat, normal factor list."""
    if not parts:
        return DONE
    if len(parts) == 1:
        return parts[0]
    out = SeqP(parts)
    object.__setattr__(out, "_factors", parts)
    return out


def proto_factors(p: Protocol) -> tuple:
    """Flat sequential factor list of normal atoms; branch and loop nodes
    count as atoms.  Stored on the node on first use, outside the dataclass
    fields, so equality, hashing and printing ignore it."""
    out = getattr(p, "_factors", None)
    if out is None:
        out = _proto_factors(p)
        object.__setattr__(p, "_factors", out)
    return out


def _proto_factors(p: Protocol) -> tuple:
    if isinstance(p, DoneP):
        return ()
    if isinstance(p, SeqP):
        out = []
        for part in p.parts:
            out.extend(proto_factors(part))
        return tuple(out)
    if isinstance(p, (SendP, RecvP)):
        obj = normalize_obj(p.obj)
        return (p if obj is p.obj else type(p)(obj),)
    if isinstance(p, (ChooseP, OfferP)):
        left, right = normalize_proto(p.left), normalize_proto(p.right)
        folded = _fold_unroll(left, right, StarXP if isinstance(p, ChooseP) else StarPP)
        if folded is not None:
            return (folded,)
        same = left is p.left and right is p.right
        return (p if same else type(p)(left, right),)
    if isinstance(p, (StarXP, StarPP)):
        body = normalize_proto(p.body)
        return (p if body is p.body else type(p)(body),)
    raise TypeError(f"unknown protocol form {p!r}")


def _fold_unroll(left, right, star):
    """Recognize one unrolling of a loop and fold it back to the loop node:
    I x (U * U^x) becomes U^x, and I + (U * U^+) becomes U^+, also when U
    is I and the sequence is the loop alone."""
    if not isinstance(left, DoneP):
        return None
    parts = proto_factors(right)
    if not parts or not isinstance(parts[-1], star):
        return None
    if _seq(parts[:-1]) == parts[-1].body:
        return parts[-1]
    return None


def seq_proto(*parts) -> Protocol:
    return normalize_proto(SeqP(tuple(parts)))


def proto_equal(p: Protocol, q: Protocol) -> bool:
    """Loop-unrolling equality: normal forms fold every unrolling, so two
    protocols are equal exactly when their normal forms are."""
    return normalize_proto(p) == normalize_proto(q)


# ---------------------------------------------------------------------------
# Step chains: a flat factor list as linked nodes, for the environment walkers

# A step's kind, by the class of its head.  A choice and a ^x loop read a
# pair, so `kind <= LOOP_X` picks them; an offer and a ^+ loop a tagged value.
SEND, RECV, CHOOSE, LOOP_X, OFFER, LOOP_P = range(6)
_KINDS = {SendP: SEND, RecvP: RECV, ChooseP: CHOOSE, StarXP: LOOP_X, OfferP: OFFER,
          StarPP: LOOP_P}


class Step:
    """A factor `head` of a flat factor list, its `kind`, and the `rest` of
    the list; a chain ends at END.  Built on first read and kept: the list
    of `factors` from here on; the two `sides` the environment splits into
    here, each followed by `rest`, which for a loop are its stop (`rest`)
    and its step (the body chained back to this node, so the graph stays
    finite); and, for a loop only, its `parts`, each ending at END: its
    body alone and the loop alone, for the walkers that count rounds."""

    __slots__ = ("head", "rest", "kind", "factors", "sides", "parts")

    def __init__(self, head, rest):
        self.head, self.rest, self.kind = head, rest, _KINDS[type(head)]

    def __getattr__(self, name):
        # reached only while a lazy field is unset: build it and keep it
        head, rest = self.head, self.rest
        if name == "factors":
            heads, node = [], self
            while node is not END:
                heads.append(node.head)
                node = node.rest
            value = tuple(heads)
        elif name == "parts" and self.kind in (LOOP_X, LOOP_P):
            value = (proto_steps(head.body), proto_steps(head))
        elif name != "sides":
            raise AttributeError(name)
        elif self.kind in (LOOP_X, LOOP_P):
            value = (rest, _chain(proto_factors(head.body), self))
        else:
            value = tuple(_chain(proto_factors(p), rest) for p in (head.left, head.right))
        setattr(self, name, value)
        return value


END = Step.__new__(Step)
END.head = END.rest = END.kind = None


def _chain(factors, tail):
    for head in reversed(factors):
        tail = Step(head, tail)
    return tail


def proto_steps(p: Protocol) -> Step:
    """The factor list of p as a chain of Steps, stored on the node on
    first use as `proto_factors` stores the list."""
    out = getattr(p, "_steps", None)
    if out is None:
        out = _chain(proto_factors(p), END)
        object.__setattr__(p, "_steps", out)
    return out
