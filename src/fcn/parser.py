"""Text format for signatures, protocols, and cells.

A document is a sequence of declarations:

    object bread;
    carrier bread = { loaf, roll };
    carrier shelf = list of bread;
    mor bake : dough -> bread;
    map bake = { wet -> loaf; dry -> roll };
    protocol p = send bread * recv bread;
    cell k : [ I | dough -> I | send dough ] = [knead] / putR dough;

Protocol syntax: `send A`, `recv A`, `I`, `*` for sequencing, `x` for
external choice, `+` for internal choice, postfix `^x` and `^+` for the
two loop forms.  Object syntax: names, `I`, `*`, `(+)`, `stack A`.  Value
literals: `()`, atom names, `(v1, v2)`, `inl v`, `inr v`, `[v1, v2]`.

Cell terms: `[f]` promotes a base morphism, `getL A`, `putR A`, `getR A`,
`putL A` are the corner cells, `1 A` and `id U` the identities, `a | b`
and `a / b` the two composites (`/` binds tighter), `pi0{U,W}`,
`pi1{U,W}`, `in0{U,W}`, `in1{U,W}`, `times(a,b)`, `plus(a,b)`,
`copair(a,b)`, `iterX(a; f; g)`, `iterP(a; f; g)`.  Convenience macros:
`cross{U,A}`, `tensor(a,b)`, `iterXs(a)`, `iterPs(a)`, `deltaX{U}`,
`nablaP{U}`, `epsX{U}`, `dX{U}`, `etaP{U}`, `muP{U}`,
`sendword{A}[v1,...]`.  A bare name refers to a previously declared cell.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import (
    BoundaryMismatch,
    FcnError,
    NotEnumerable,
    ParseError,
    UnknownName,
)
from .protocol import (
    ChooseP,
    DONE,
    OfferP,
    Protocol,
    RecvP,
    SendP,
    SeqP,
    StarPP,
    StarXP,
    proto_factors,
    seq_proto,
)
from . import signature as sg
from .cells import (
    Boundary,
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
    boundaries_equal,
    infer_boundary,
)
from . import derived as dv
from .trace import ContinueMove, PickMove, RecvMove, StopMove


# ---------------------------------------------------------------------------
# Tokens

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+|\#[^\n]*)
  | (?P<punct>\(\+\)|->|\^x|\^\+|[;:=@{}(),\[\]|/*+])
  | (?P<ident>[A-Za-z_][A-Za-z0-9_']*|\d+)
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    kind: str  # "punct", "ident", or "eof"
    text: str
    line: int
    col: int


def tokenize(text: str):
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(
                f"unexpected character {text[pos]!r}", line=line, column=col
            )
        kind = m.lastgroup
        chunk = m.group()
        if kind != "ws":
            tokens.append(Token(kind, chunk, line, col))
        newlines = chunk.count("\n")
        if newlines:
            line += newlines
            col = len(chunk) - chunk.rfind("\n")
        else:
            col += len(chunk)
        pos = m.end()
    tokens.append(Token("eof", "", line, col))
    return tokens


class _Stream:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0

    def peek(self) -> Token:
        return self.tokens[self.i]

    def next(self) -> Token:
        t = self.tokens[self.i]
        if t.kind != "eof":
            self.i += 1
        return t

    def at(self, text: str) -> bool:
        return self.peek().text == text and self.peek().kind != "eof"

    def eat(self, text: str) -> bool:
        if self.at(text):
            self.next()
            return True
        return False

    def expect(self, text: str) -> Token:
        t = self.peek()
        if t.text != text or t.kind == "eof":
            got = t.text or "end of input"
            raise ParseError(
                f"expected {text!r}, got {got!r}", line=t.line, column=t.col
            )
        return self.next()

    def ident(self, what="a name") -> Token:
        t = self.peek()
        if t.kind != "ident":
            got = t.text or "end of input"
            raise ParseError(
                f"expected {what}, got {got!r}", line=t.line, column=t.col
            )
        return self.next()

    def fail(self, msg: str):
        t = self.peek()
        raise ParseError(msg, line=t.line, column=t.col)


# ---------------------------------------------------------------------------
# Documents


@dataclass
class CellDecl:
    name: str
    declared: Boundary
    term: Cell


@dataclass
class Document:
    sig: sg.Signature = field(default_factory=sg.Signature)
    val: sg.Valuation = field(default_factory=sg.Valuation)
    protocols: dict = field(default_factory=dict)
    aliases: dict = field(default_factory=dict)  # name -> ObjExpr (list carriers)
    cells: dict = field(default_factory=dict)  # in declaration order


def parse_document(text: str) -> Document:
    doc = Document()
    s = _Stream(tokenize(text))
    p = _Parser(s, doc)
    while s.peek().kind != "eof":
        p.declaration()
    _check_valuation(doc)
    return doc


def parse_value(text: str) -> sg.Value:
    s = _Stream(tokenize(text))
    v = _Parser(s, Document()).value()
    if s.peek().kind != "eof":
        s.fail("trailing input after value")
    return v


def parse_script(text: str):
    """One move per line: `recv <value>`, `pick 0|1`, `stop`, `continue`."""
    moves = []
    for num, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        if head == "recv":
            moves.append(RecvMove(parse_value(rest)))
        elif head == "pick" and rest.strip() in ("0", "1"):
            moves.append(PickMove(int(rest)))
        elif head == "stop" and not rest.strip():
            moves.append(StopMove())
        elif head == "continue" and not rest.strip():
            moves.append(ContinueMove())
        else:
            raise ParseError(f"script line {num}: bad move {line!r}")
    return moves


class _Parser:
    def __init__(self, s: _Stream, doc: Document):
        self.s = s
        self.doc = doc

    # -- declarations -------------------------------------------------------

    def declaration(self):
        s = self.s
        t = s.ident("a declaration")
        if t.text == "object":
            name = s.ident("an object name").text
            self.doc.sig.declare_object(name)
        elif t.text == "carrier":
            self.carrier_decl()
        elif t.text == "mor":
            name = s.ident("a morphism name")
            s.expect(":")
            dom = self.obj()
            s.expect("->")
            cod = self.obj()
            try:
                self.doc.sig.declare_morphism(name.text, dom, cod)
            except FcnError as e:
                raise ParseError(str(e), line=name.line, column=name.col) from None
        elif t.text == "map":
            name = s.ident("a morphism name").text
            s.expect("=")
            s.expect("{")
            table = {}
            while not s.at("}"):
                key = self.value()
                s.expect("->")
                table[key] = self.value()
                if not s.eat(";"):
                    break
            s.expect("}")
            self.doc.val.mor_maps[name] = table
        elif t.text == "protocol":
            name = s.ident("a protocol name").text
            s.expect("=")
            self.doc.protocols[name] = self.proto()
        elif t.text == "cell":
            self.cell_decl()
        else:
            raise ParseError(
                f"unknown declaration {t.text!r}", line=t.line, column=t.col
            )
        s.expect(";")

    def carrier_decl(self):
        s = self.s
        name = s.ident("an object name").text
        if name not in self.doc.sig.objects:
            self.doc.sig.declare_object(name)
        s.expect("=")
        if s.at("{"):
            s.next()
            atoms = []
            while not s.at("}"):
                atoms.append(s.ident("an atom name").text)
                if not s.eat(","):
                    break
            s.expect("}")
            if not atoms:
                s.fail(f"carrier {name} must be nonempty")
            if len(set(atoms)) != len(atoms):
                s.fail(f"carrier {name} has duplicate atoms")
            self.doc.val.carriers[name] = tuple(atoms)
        else:
            t = s.ident("'list'")
            if t.text != "list":
                raise ParseError(
                    "expected an atom set or 'list of'", line=t.line, column=t.col
                )
            of = s.ident("'of'")
            if of.text != "of":
                raise ParseError("expected 'of'", line=of.line, column=of.col)
            elem = self.obj_atom()
            self.doc.sig.objects.discard(name)
            self.doc.aliases[name] = sg.Stack(elem)

    def cell_decl(self):
        s = self.s
        t = s.ident("a cell name")
        name = t.text
        if name in self.doc.cells:
            raise ParseError(f"cell {name} declared again", line=t.line, column=t.col)
        s.expect(":")
        s.expect("[")
        left = self.proto()
        s.expect("|")
        top = self.obj()
        s.expect("->")
        bottom = self.obj()
        s.expect("|")
        right = self.proto()
        s.expect("]")
        declared = Boundary(left, top, bottom, right)
        s.expect("=")
        term = self.cell()
        inferred = infer_boundary(term, self.doc.sig)
        if not boundaries_equal(declared, inferred):
            raise BoundaryMismatch(
                f"cell {name}", str(declared), str(inferred)
            )
        self.doc.cells[name] = CellDecl(name, inferred, term)

    # -- objects ------------------------------------------------------------

    def obj(self) -> sg.ObjExpr:
        """An object expression.  The object parsers return normal objects:
        tensors come from `tensor_obj` and every other node has normal
        children, so nothing that reads them normalizes them again."""
        left = self.obj_tensor()
        if self.s.eat("(+)"):
            return sg.Sum(left, self.obj())
        return left

    def obj_tensor(self) -> sg.ObjExpr:
        parts = [self.obj_atom()]
        while self.s.eat("*"):
            parts.append(self.obj_atom())
        return sg.tensor_obj(*parts)

    def obj_atom(self) -> sg.ObjExpr:
        s = self.s
        if s.eat("("):
            inner = self.obj()
            s.expect(")")
            return inner
        t = s.ident("an object")
        if t.text == "I":
            return sg.UNIT
        if t.text == "stack":
            return sg.Stack(self.obj_atom())
        if t.text in self.doc.aliases:
            return self.doc.aliases[t.text]
        if t.text not in self.doc.sig.objects:
            raise UnknownName(f"unknown object {t.text!r}", line=t.line, column=t.col)
        return sg.GenObj(t.text)

    # -- values -------------------------------------------------------------

    def value(self) -> sg.Value:
        s = self.s
        if s.eat("("):
            if s.eat(")"):
                return sg.UNITV
            parts = [self.value()]
            while s.eat(","):
                parts.append(self.value())
            s.expect(")")
            return sg.tensor_value(*parts)
        if s.eat("["):
            items = []
            while not s.at("]"):
                items.append(self.value())
                if not s.eat(","):
                    break
            s.expect("]")
            return sg.ListV(tuple(items))
        t = s.ident("a value")
        if t.text == "inl":
            return sg.InlV(self.value())
        if t.text == "inr":
            return sg.InrV(self.value())
        return sg.AtomV(t.text)

    # -- protocols ----------------------------------------------------------

    def proto(self) -> Protocol:
        left = self.proto_choose()
        if self.s.eat("+"):
            return OfferP(left, self.proto())
        return left

    def proto_choose(self) -> Protocol:
        left = self.proto_seq()
        if self.s.peek().text == "x" and self.s.peek().kind == "ident":
            self.s.next()
            return ChooseP(left, self.proto_choose())
        return left

    def proto_seq(self) -> Protocol:
        parts = [self.proto_post()]
        while self.s.eat("*"):
            parts.append(self.proto_post())
        return seq_proto(*parts)

    def proto_post(self) -> Protocol:
        p = self.proto_atom()
        while True:
            if self.s.eat("^x"):
                p = StarXP(p)
            elif self.s.eat("^+"):
                p = StarPP(p)
            else:
                return p

    def proto_atom(self) -> Protocol:
        s = self.s
        if s.eat("("):
            inner = self.proto()
            s.expect(")")
            return inner
        t = s.ident("a protocol")
        if t.text == "I":
            return DONE
        if t.text == "send":
            return SendP(self.obj_atom())
        if t.text == "recv":
            return RecvP(self.obj_atom())
        if t.text in self.doc.protocols:
            return self.doc.protocols[t.text]
        raise UnknownName(f"unknown protocol {t.text!r}", line=t.line, column=t.col)

    # -- morphism expressions -----------------------------------------------

    def mor(self) -> sg.MorExpr:
        left = self.mor_tensor()
        while self.s.eat(";"):
            left = sg.Compose(left, self.mor_tensor())
        return left

    def mor_tensor(self) -> sg.MorExpr:
        left = self.mor_atom()
        while self.s.eat("*"):
            left = sg.TensorM(left, self.mor_atom())
        return left

    def _obj_args(self, n):
        """n comma-separated objects in parentheses."""
        self.s.expect("(")
        out = [self.obj()]
        for _ in range(n - 1):
            self.s.expect(",")
            out.append(self.obj())
        self.s.expect(")")
        return out

    def mor_atom(self) -> sg.MorExpr:
        s = self.s
        if s.eat("("):
            inner = self.mor()
            s.expect(")")
            return inner
        t = s.ident("a morphism")
        word = t.text
        if word == "id":
            return sg.Id(self.obj_atom())
        if word == "braid":
            return sg.Braid(*self._obj_args(2))
        if word == "inj0":
            return sg.Inj0(*self._obj_args(2))
        if word == "inj1":
            return sg.Inj1(*self._obj_args(2))
        if word == "copair":
            s.expect("(")
            f = self.mor()
            s.expect(",")
            g = self.mor()
            s.expect(")")
            return sg.Copair(f, g)
        if word == "distR":
            return sg.DistR(*self._obj_args(3))
        if word == "undistR":
            return sg.UndistR(*self._obj_args(3))
        if word == "distL":
            return sg.DistL(*self._obj_args(3))
        if word == "undistL":
            return sg.UndistL(*self._obj_args(3))
        if word == "nil":
            return sg.Nil(self.obj_atom())
        if word == "push":
            return sg.Push(self.obj_atom())
        if word == "pop":
            return sg.Pop(self.obj_atom())
        if word == "const":
            s.expect("(")
            obj = self.obj()
            s.expect(",")
            v = self.value()
            s.expect(")")
            return sg.ConstMor(obj, v)
        if word in self.doc.sig.morphisms:
            return sg.GenMor(word)
        raise UnknownName(f"unknown morphism {word!r}", line=t.line, column=t.col)

    # -- cell terms ---------------------------------------------------------

    def cell(self) -> Cell:
        left = self.cell_vchain()
        while self.s.eat("|"):
            left = HComp(left, self.cell_vchain())
        return left

    def cell_vchain(self) -> Cell:
        left = self.cell_atom()
        while self.s.eat("/"):
            left = VComp(left, self.cell_atom())
        return left

    def _proto_pair(self):
        self.s.expect("{")
        u = self.proto()
        self.s.expect(",")
        w = self.proto()
        self.s.expect("}")
        return u, w

    def _proto_arg(self):
        self.s.expect("{")
        u = self.proto()
        self.s.expect("}")
        return u

    def _term_pair(self):
        self.s.expect("(")
        a = self.cell()
        self.s.expect(",")
        b = self.cell()
        self.s.expect(")")
        return a, b

    def _term_triple(self):
        self.s.expect("(")
        a = self.cell()
        self.s.expect(";")
        f = self.cell()
        self.s.expect(";")
        g = self.cell()
        self.s.expect(")")
        return a, f, g

    def cell_atom(self) -> Cell:
        s = self.s
        if s.eat("["):
            mor = self.mor()
            s.expect("]")
            return Promote(mor)
        if s.eat("("):
            inner = self.cell()
            s.expect(")")
            return inner
        t = s.ident("a cell term")
        word = t.text
        if word == "getL":
            return GetL(self.obj_atom())
        if word == "putR":
            return PutR(self.obj_atom())
        if word == "getR":
            return GetR(self.obj_atom())
        if word == "putL":
            return PutL(self.obj_atom())
        if word == "1":
            return IdV(self.obj_atom())
        if word == "id":
            return IdH(self.proto_atom())
        if word == "pi0":
            return Pi0(*self._proto_pair())
        if word == "pi1":
            return Pi1(*self._proto_pair())
        if word == "in0":
            return Inj0(*self._proto_pair())
        if word == "in1":
            return Inj1(*self._proto_pair())
        if word == "times":
            return Times(*self._term_pair())
        if word == "plus":
            return Plus(*self._term_pair())
        if word == "copair":
            return CopairC(*self._term_pair())
        if word == "iterX":
            return IterX(*self._term_triple())
        if word == "iterP":
            return IterP(*self._term_triple())
        if word == "cross":
            s.expect("{")
            u = self.proto()
            s.expect(",")
            a = self.obj()
            s.expect("}")
            return dv.crossing(u, a)
        if word == "tensor":
            return dv.tensor_cells(*self._term_pair(), self.doc.sig)
        if word == "iterXs":
            s.expect("(")
            a = self.cell()
            s.expect(")")
            return dv.simple_iter_x(a, self.doc.sig)
        if word == "iterPs":
            s.expect("(")
            a = self.cell()
            s.expect(")")
            return dv.simple_iter_p(a, self.doc.sig)
        if word == "deltaX":
            return dv.dup_x(self._proto_arg())
        if word == "nablaP":
            return dv.merge_p(self._proto_arg())
        if word == "epsX":
            return dv.extract_x(self._proto_arg())
        if word == "dX":
            return dv.duplicate_x(self._proto_arg())
        if word == "etaP":
            return dv.insert_p(self._proto_arg())
        if word == "muP":
            return dv.flatten_p(self._proto_arg())
        if word == "sendword":
            s.expect("{")
            a = self.obj()
            s.expect("}")
            s.expect("[")
            values = []
            while not s.at("]"):
                values.append(self.value())
                if not s.eat(","):
                    break
            s.expect("]")
            return dv.word_sender(values, a)
        if word in self.doc.cells:
            return self.doc.cells[word].term
        raise UnknownName(f"unknown cell term {word!r}", line=t.line, column=t.col)


# ---------------------------------------------------------------------------
# Surface printers.  Conservatively parenthesized so that every printed term
# reparses to a structurally identical tree.


def show_proto(p: Protocol) -> str:
    if isinstance(p, SendP):
        return f"send {_obj_atom(p.obj)}"
    if isinstance(p, RecvP):
        return f"recv {_obj_atom(p.obj)}"
    if isinstance(p, SeqP):
        return "(" + " * ".join(show_proto(f) for f in p.parts) + ")"
    if isinstance(p, ChooseP):
        return f"({show_proto(p.left)} x {show_proto(p.right)})"
    if isinstance(p, OfferP):
        return f"({show_proto(p.left)} + {show_proto(p.right)})"
    if isinstance(p, StarXP):
        return f"({show_proto(p.body)})^x"
    if isinstance(p, StarPP):
        return f"({show_proto(p.body)})^+"
    return "I"


def _obj_atom(e: sg.ObjExpr) -> str:
    if isinstance(e, (sg.Tensor, sg.Stack)):
        return f"({e})"
    return str(e)


def _proto_atom(p: Protocol) -> str:
    if not proto_factors(p):
        return "I"
    return f"({show_proto(p)})"


def show_cell(c: Cell) -> str:
    if isinstance(c, Promote):
        return f"[{c.mor}]"
    if isinstance(c, GetL):
        return f"getL {_obj_atom(c.obj)}"
    if isinstance(c, PutR):
        return f"putR {_obj_atom(c.obj)}"
    if isinstance(c, GetR):
        return f"getR {_obj_atom(c.obj)}"
    if isinstance(c, PutL):
        return f"putL {_obj_atom(c.obj)}"
    if isinstance(c, IdV):
        return f"1 {_obj_atom(c.obj)}"
    if isinstance(c, IdH):
        return f"id {_proto_atom(c.proto)}"
    if isinstance(c, HComp):
        return f"({show_cell(c.a)} | {show_cell(c.b)})"
    if isinstance(c, VComp):
        return f"({show_cell(c.a)} / {show_cell(c.b)})"
    if isinstance(c, Pi0):
        return f"pi0{{{show_proto(c.left)}, {show_proto(c.right)}}}"
    if isinstance(c, Pi1):
        return f"pi1{{{show_proto(c.left)}, {show_proto(c.right)}}}"
    if isinstance(c, Inj0):
        return f"in0{{{show_proto(c.left)}, {show_proto(c.right)}}}"
    if isinstance(c, Inj1):
        return f"in1{{{show_proto(c.left)}, {show_proto(c.right)}}}"
    if isinstance(c, Times):
        return f"times({show_cell(c.a)}, {show_cell(c.b)})"
    if isinstance(c, Plus):
        return f"plus({show_cell(c.a)}, {show_cell(c.b)})"
    if isinstance(c, CopairC):
        return f"copair({show_cell(c.a)}, {show_cell(c.b)})"
    if isinstance(c, IterX):
        return f"iterX({show_cell(c.alpha)}; {show_cell(c.f)}; {show_cell(c.g)})"
    if isinstance(c, IterP):
        return f"iterP({show_cell(c.alpha)}; {show_cell(c.f)}; {show_cell(c.g)})"
    raise ValueError(f"unprintable cell {c!r}")


def _check_valuation(doc: Document):
    """Morphism tables must be total on enumerable domains and land in the
    codomain."""
    for name, (dom, cod) in doc.sig.morphisms.items():
        table = doc.val.mor_maps.get(name)
        if table is None:
            continue
        for key, out in table.items():
            if not sg.check_value(key, dom, doc.val):
                raise ParseError(
                    f"map {name}: input {key} does not fit {dom}"
                )
            if not sg.check_value(out, cod, doc.val):
                raise ParseError(
                    f"map {name}: output {out} does not fit {cod}"
                )
        try:
            domain = list(sg.enumerate_values(dom, doc.val))
        except NotEnumerable:
            continue
        for v in domain:
            if v not in table:
                raise ParseError(f"map {name}: missing entry for {v}")
