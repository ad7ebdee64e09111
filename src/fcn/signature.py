"""Base signature: object/morphism expressions, valuations, and value evaluation.

Objects form a strict monoidal structure with a structural (non-strict) binary
sum and built-in stack objects.  Morphisms are generated by named finite
tables plus the structural morphisms (braiding, injections, copairing, the
distributors and their inverses, and the stack isomorphism).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, fields

from .errors import (
    CompositionMismatch,
    FcnError,
    IllTypedValue,
    NotEnumerable,
    UnknownName,
)

# ---------------------------------------------------------------------------
# Object expressions


@dataclass(frozen=True)
class ObjExpr:
    pass


@dataclass(frozen=True)
class GenObj(ObjExpr):
    name: str

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class Unit(ObjExpr):
    def __str__(self):
        return "I"


UNIT = Unit()


@dataclass(frozen=True)
class Tensor(ObjExpr):
    factors: tuple

    def __str__(self):
        return " * ".join(_obj_atom_str(f) for f in self.factors)


@dataclass(frozen=True)
class Sum(ObjExpr):
    left: ObjExpr
    right: ObjExpr

    def __str__(self):
        return f"({self.left} (+) {self.right})"


@dataclass(frozen=True)
class Stack(ObjExpr):
    elem: ObjExpr

    def __str__(self):
        return f"stack {_obj_atom_str(self.elem)}"


def _obj_atom_str(e):
    if isinstance(e, Tensor):
        return f"({e})"
    return str(e)


def normalize_obj(e: ObjExpr) -> ObjExpr:
    """Flatten tensors and drop units, bottom-up.  A node whose normalized
    children are its own children is returned itself, so normalizing
    normal input returns that input, and a tensor node built here carries
    its factor list.  This module and `protocol` alone decide normal form;
    everything else relies on their results being normal."""
    factors = obj_factors(e)
    if isinstance(e, Unit):
        return e
    if isinstance(e, Tensor) and len(factors) > 1 and _same_items(e.factors, factors):
        return e
    if not factors:
        return UNIT
    if len(factors) == 1:
        return factors[0]
    out = Tensor(factors)
    object.__setattr__(out, "_factors", factors)
    return out


def _same_items(xs: tuple, ys: tuple) -> bool:
    """Whether two tuples hold the same objects, position by position.  A
    node built from a factor tuple holds that tuple itself, so this is
    usually one identity test."""
    return xs is ys or (len(xs) == len(ys) and all(x is y for x, y in zip(xs, ys)))


def obj_factors(e: ObjExpr) -> tuple:
    """The flat tensor factor list of e, each factor normal; Sum and Stack
    nodes count as atoms.  Stored on the node on first use, outside the
    dataclass fields, so equality, hashing and printing ignore it."""
    out = getattr(e, "_factors", None)
    if out is None:
        out = _obj_factors(e)
        object.__setattr__(e, "_factors", out)
    return out


def _obj_factors(e: ObjExpr) -> tuple:
    if isinstance(e, Unit):
        return ()
    if isinstance(e, Tensor):
        out = []
        for f in e.factors:
            out.extend(obj_factors(f))
        return tuple(out)
    if isinstance(e, Sum):
        left, right = normalize_obj(e.left), normalize_obj(e.right)
        return (e if left is e.left and right is e.right else Sum(left, right),)
    if isinstance(e, Stack):
        elem = normalize_obj(e.elem)
        return (e if elem is e.elem else Stack(elem),)
    return (e,)


def tensor_obj(*parts) -> ObjExpr:
    return normalize_obj(Tensor(tuple(parts)))


# ---------------------------------------------------------------------------
# Morphism expressions


@dataclass(frozen=True)
class MorExpr:
    def __str__(self):
        """A former prints as its word and its fields in parentheses."""
        word, names = _SYNTAX[type(self)]
        return f"{word}({', '.join([str(getattr(self, n)) for n in names])})"


@dataclass(frozen=True)
class GenMor(MorExpr):
    name: str

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class Id(MorExpr):
    obj: ObjExpr


@dataclass(frozen=True)
class Compose(MorExpr):
    first: MorExpr
    second: MorExpr

    def __str__(self):
        return f"({self.first} ; {self.second})"


@dataclass(frozen=True)
class TensorM(MorExpr):
    left: MorExpr
    right: MorExpr

    def __str__(self):
        return f"({self.left} * {self.right})"


@dataclass(frozen=True)
class Braid(MorExpr):
    left: ObjExpr
    right: ObjExpr


@dataclass(frozen=True)
class Inj0(MorExpr):
    left: ObjExpr
    right: ObjExpr


@dataclass(frozen=True)
class Inj1(MorExpr):
    left: ObjExpr
    right: ObjExpr


@dataclass(frozen=True)
class Copair(MorExpr):
    left: MorExpr
    right: MorExpr


@dataclass(frozen=True)
class DistR(MorExpr):
    # (a (+) b) * c  ->  (a * c) (+) (b * c)
    a: ObjExpr
    b: ObjExpr
    c: ObjExpr


@dataclass(frozen=True)
class UndistR(MorExpr):
    a: ObjExpr
    b: ObjExpr
    c: ObjExpr


@dataclass(frozen=True)
class DistL(MorExpr):
    # c * (a (+) b)  ->  (c * a) (+) (c * b)
    a: ObjExpr
    b: ObjExpr
    c: ObjExpr


@dataclass(frozen=True)
class UndistL(MorExpr):
    a: ObjExpr
    b: ObjExpr
    c: ObjExpr


@dataclass(frozen=True)
class Nil(MorExpr):
    elem: ObjExpr


@dataclass(frozen=True)
class Push(MorExpr):
    elem: ObjExpr


@dataclass(frozen=True)
class Pop(MorExpr):
    elem: ObjExpr


@dataclass(frozen=True)
class ConstMor(MorExpr):
    """Constant morphism I -> obj, picking out a fixed element: `const(obj,
    value)`, as word senders emit their letters."""

    obj: ObjExpr
    value: Value


# distL, undistR and undistL are definitions: each takes its type and its
# value from its expansion.
_EXPANSIONS = {
    UndistR: lambda a, b, c: Copair(TensorM(Inj0(a, b), Id(c)), TensorM(Inj1(a, b), Id(c))),
    UndistL: lambda a, b, c: Copair(TensorM(Id(c), Inj0(a, b)), TensorM(Id(c), Inj1(a, b))),
    DistL: lambda a, b, c: Compose(Compose(Braid(c, Sum(a, b)), DistR(a, b, c)), Copair(
        Compose(Braid(a, c), Inj0(tensor_obj(c, a), tensor_obj(c, b))),
        Compose(Braid(b, c), Inj1(tensor_obj(c, a), tensor_obj(c, b))),
    )),
}

# The morphism formers by surface word.  `MorExpr.__str__` prints each one,
# and the parser reads it back by its fields.
MOR_WORDS = {
    "id": Id,
    "braid": Braid,
    "inj0": Inj0,
    "inj1": Inj1,
    "copair": Copair,
    "distR": DistR,
    "undistR": UndistR,
    "distL": DistL,
    "undistL": UndistL,
    "nil": Nil,
    "push": Push,
    "pop": Pop,
    "const": ConstMor,
}
_SYNTAX = {
    cls: (word, tuple(f.name for f in fields(cls))) for word, cls in MOR_WORDS.items()
}


# ---------------------------------------------------------------------------
# Values


@dataclass(frozen=True)
class Value:
    pass


@dataclass(frozen=True)
class UnitV(Value):
    def __str__(self):
        return "()"


UNITV = UnitV()


@dataclass(frozen=True)
class AtomV(Value):
    name: str

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class TupleV(Value):
    items: tuple

    def __str__(self):
        return "(" + ", ".join(str(v) for v in self.items) + ")"


@dataclass(frozen=True)
class InlV(Value):
    value: Value

    def __str__(self):
        return f"inl {self.value}"


@dataclass(frozen=True)
class InrV(Value):
    value: Value

    def __str__(self):
        return f"inr {self.value}"


@dataclass(frozen=True)
class ListV(Value):
    items: tuple

    def __str__(self):
        return "[" + ", ".join(str(v) for v in self.items) + "]"


def value_factors(v: Value) -> list:
    """Split a value of a flat tensor type into its per-factor values."""
    if isinstance(v, UnitV):
        return []
    if isinstance(v, TupleV):
        return list(v.items)
    return [v]


def tensor_value(*parts) -> Value:
    items = []
    for p in parts:
        items.extend(value_factors(p))
    if not items:
        return UNITV
    if len(items) == 1:
        return items[0]
    return TupleV(tuple(items))


def check_value(v: Value, e: ObjExpr, val: "Valuation") -> bool:
    e = normalize_obj(e)
    if isinstance(e, Unit):
        return isinstance(v, UnitV)
    if isinstance(e, Tensor):
        fs = e.factors
        if not isinstance(v, TupleV) or len(v.items) != len(fs):
            return False
        return all(check_value(x, f, val) for x, f in zip(v.items, fs))
    if isinstance(e, Sum):
        if isinstance(v, InlV):
            return check_value(v.value, e.left, val)
        if isinstance(v, InrV):
            return check_value(v.value, e.right, val)
        return False
    if isinstance(e, Stack):
        if not isinstance(v, ListV):
            return False
        return all(check_value(x, e.elem, val) for x in v.items)
    if isinstance(e, GenObj):
        carrier = val.carriers.get(e.name)
        if carrier is None:
            return False
        return isinstance(v, AtomV) and v.name in carrier
    return False


# ---------------------------------------------------------------------------
# Signature and valuation


@dataclass
class Signature:
    objects: set = field(default_factory=set)
    morphisms: dict = field(default_factory=dict)  # name -> (dom, cod)

    def declare_object(self, name):
        self.objects.add(name)

    def declare_morphism(self, name, dom, cod):
        """Declare name : dom -> cod.  A name keeps its first type: cells
        store the boundary they were typed with, so a later declaration of
        another type would leave them typed against a stale signature."""
        typ = (normalize_obj(dom), normalize_obj(cod))
        old = self.morphisms.setdefault(name, typ)
        if old != typ:
            raise FcnError(
                f"morphism {name} declared again: {old[0]} -> {old[1]}, "
                f"now {typ[0]} -> {typ[1]}"
            )


@dataclass
class Valuation:
    carriers: dict = field(default_factory=dict)  # name -> tuple of atom names
    mor_maps: dict = field(default_factory=dict)  # name -> dict Value -> Value

    def carrier_atoms(self, name):
        atoms = self.carriers.get(name)
        if atoms is None:
            raise UnknownName(f"no carrier for object {name}")
        return atoms

    def carrier_values(self, name):
        return [AtomV(a) for a in self.carrier_atoms(name)]


# ---------------------------------------------------------------------------
# Typing


def infer_mor_type(m: MorExpr, sig: Signature):
    """Return (domain, codomain) of m in normal form."""
    if isinstance(m, GenMor):
        if m.name not in sig.morphisms:
            raise UnknownName(f"unknown morphism {m.name}")
        return sig.morphisms[m.name]
    if isinstance(m, Id):
        o = normalize_obj(m.obj)
        return (o, o)
    if isinstance(m, Compose):
        d1, c1 = infer_mor_type(m.first, sig)
        d2, c2 = infer_mor_type(m.second, sig)
        if c1 != d2:
            raise CompositionMismatch(c1, d2)
        return (d1, c2)
    if isinstance(m, TensorM):
        d1, c1 = infer_mor_type(m.left, sig)
        d2, c2 = infer_mor_type(m.right, sig)
        return (tensor_obj(d1, d2), tensor_obj(c1, c2))
    if isinstance(m, Braid):
        a, b = normalize_obj(m.left), normalize_obj(m.right)
        return (tensor_obj(a, b), tensor_obj(b, a))
    if isinstance(m, Inj0):
        a, b = normalize_obj(m.left), normalize_obj(m.right)
        return (a, Sum(a, b))
    if isinstance(m, Inj1):
        a, b = normalize_obj(m.left), normalize_obj(m.right)
        return (b, Sum(a, b))
    if isinstance(m, Copair):
        d1, c1 = infer_mor_type(m.left, sig)
        d2, c2 = infer_mor_type(m.right, sig)
        if c1 != c2:
            raise CompositionMismatch(c1, c2)
        return (Sum(d1, d2), c1)
    if isinstance(m, DistR):
        a, b, c = (normalize_obj(x) for x in (m.a, m.b, m.c))
        return (tensor_obj(Sum(a, b), c), Sum(tensor_obj(a, c), tensor_obj(b, c)))
    if type(m) in _EXPANSIONS:
        return infer_mor_type(_EXPANSIONS[type(m)](m.a, m.b, m.c), sig)
    if isinstance(m, Nil):
        e = normalize_obj(m.elem)
        return (UNIT, Stack(e))
    if isinstance(m, Push):
        e = normalize_obj(m.elem)
        return (tensor_obj(e, Stack(e)), Stack(e))
    if isinstance(m, Pop):
        e = normalize_obj(m.elem)
        return (Stack(e), Sum(UNIT, tensor_obj(e, Stack(e))))
    if isinstance(m, ConstMor):
        return (UNIT, normalize_obj(m.obj))
    raise UnknownName(f"unknown morphism form {m!r}")


# ---------------------------------------------------------------------------
# Evaluation


def _num_factors(e):
    return len(obj_factors(e))


def eval_mor(m: MorExpr, v: Value, val: Valuation, sig: Signature) -> Value:
    """Evaluate morphism m on value v. v must check against dom(m)."""
    if isinstance(m, GenMor):
        table = val.mor_maps.get(m.name)
        if table is None:
            raise UnknownName(f"no map for morphism {m.name}")
        if v not in table:
            raise IllTypedValue(f"{v} not in domain of {m.name}")
        return table[v]
    if isinstance(m, Id):
        return v
    if isinstance(m, Compose):
        return eval_mor(m.second, eval_mor(m.first, v, val, sig), val, sig)
    if isinstance(m, TensorM):
        d1, _ = infer_mor_type(m.left, sig)
        parts = value_factors(v)
        n1 = _num_factors(d1)
        v1 = tensor_value(*parts[:n1])
        v2 = tensor_value(*parts[n1:])
        return tensor_value(
            eval_mor(m.left, v1, val, sig), eval_mor(m.right, v2, val, sig)
        )
    if isinstance(m, Braid):
        parts = value_factors(v)
        n1 = _num_factors(normalize_obj(m.left))
        return tensor_value(*parts[n1:], *parts[:n1])
    if isinstance(m, Inj0):
        return InlV(v)
    if isinstance(m, Inj1):
        return InrV(v)
    if isinstance(m, Copair):
        if isinstance(v, InlV):
            return eval_mor(m.left, v.value, val, sig)
        if isinstance(v, InrV):
            return eval_mor(m.right, v.value, val, sig)
        raise IllTypedValue(f"copair applied to {v}")
    if isinstance(m, DistR):
        parts = value_factors(v)
        s, c = parts[0], tensor_value(*parts[1:])
        if isinstance(s, (InlV, InrV)):
            return type(s)(tensor_value(s.value, c))
        raise IllTypedValue(f"distR applied to {v}")
    if type(m) in _EXPANSIONS:
        return eval_mor(_EXPANSIONS[type(m)](m.a, m.b, m.c), v, val, sig)
    if isinstance(m, Nil):
        return ListV(())
    if isinstance(m, Push):
        parts = value_factors(v)
        head = tensor_value(*parts[:-1])
        tail = parts[-1]
        if not isinstance(tail, ListV):
            raise IllTypedValue(f"push applied to {v}")
        return ListV((head,) + tail.items)
    if isinstance(m, Pop):
        if not isinstance(v, ListV):
            raise IllTypedValue(f"pop applied to {v}")
        if not v.items:
            return InlV(UNITV)
        return InrV(tensor_value(v.items[0], ListV(v.items[1:])))
    if isinstance(m, ConstMor):
        return m.value
    raise UnknownName(f"unknown morphism form {m!r}")


# ---------------------------------------------------------------------------
# Enumeration


def enumerate_values(e: ObjExpr, val: Valuation):
    """All values of e in a fixed deterministic order. Fails on stacks."""
    e = normalize_obj(e)
    if isinstance(e, Stack):
        raise NotEnumerable(f"{e} is countable, not enumerable")
    if isinstance(e, Unit):
        yield UNITV
        return
    if isinstance(e, GenObj):
        if e.name not in val.carriers:
            raise NotEnumerable(f"no finite carrier for {e.name}")
        yield from val.carrier_values(e.name)
        return
    if isinstance(e, Sum):
        for v in enumerate_values(e.left, val):
            yield InlV(v)
        for v in enumerate_values(e.right, val):
            yield InrV(v)
        return
    if isinstance(e, Tensor):
        pools = [list(enumerate_values(f, val)) for f in e.factors]
        for combo in itertools.product(*pools):
            yield tensor_value(*combo)
        return
    raise NotEnumerable(f"cannot enumerate {e}")
