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

Cell terms: `[f]` promotes a base morphism, `a | b` and `a / b` are the
two composites (`/` binds tighter), and a bare name refers to a previously
declared cell.  Every other cell former is a word in `CELL_WORDS`, every
morphism former a word in `signature.MOR_WORDS`.  A derived cell that is
one fixed term of its arguments is a word in `DEFINITIONS`, with its
parameters and its text: `deltaX{U}`, `nablaP{U}`, `epsX{U}`, `dX{U}`,
`etaP{U}`, `muP{U}`, `iterXs(c)`, `iterPs(c)` and `tensor(f, g)`.  The
parser reads such a word's arguments, binds them to its parameters with
`bind` and reads the text in their place.  `cross{U, A}` and
`sendword{A}[v1, ...]` recurse on their argument, so `derived` builds them.
No declaration may take one of these words, or `I`, `stack`, `send`, `recv`
or `x`, as a name where the parser would read it as built in.

A document holds one node per distinct subterm.  Every cell the parser
builds, from `[f]`, `|`, `/`, a former, a definition, `cross` or `sendword`,
goes through the document's `shared` table, keyed by its former or word
and its arguments: a cell argument by identity, anything else by value.
So a term is a DAG, and a repeated subterm is typed once (its stored
boundary), compiled once per `Interp.apply` and found normal once per
`rewrite`, as a named cell already is.  `show_cell` still prints the tree,
and `rewrite` rewrites each occurrence of a shared subterm that is not
normal.  A definition's text is read with the document's table, and no
two documents share a node.

`parse_term` reads one term of any kind against a document's names,
including an equation `cell = cell`, as the law suite writes its laws;
`bind` makes the document whose names are a binding's metavariables.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, fields

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
    StarPP,
    StarXP,
    normalize_proto,
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
    # (former or derived word, argument keys) -> (arguments, cell); see
    # `_Parser.share`
    shared: dict = field(default_factory=dict, repr=False, compare=False)


def parse_document(text: str) -> Document:
    doc = Document()
    s = _Stream(tokenize(text))
    p = _Parser(s, doc)
    while s.peek().kind != "eof":
        p.declaration()
    _check_valuation(doc, p.maps)
    return doc


def parse_term(text: str, kind: str, doc: Document = None):
    """One term read by the `_Parser` reader `kind` ("value", "obj",
    "proto", "cell" or "equation") against doc's names; trailing input is
    an error."""
    s = _Stream(tokenize(text))
    term = getattr(_Parser(s, doc or Document()), kind)()
    if s.peek().kind != "eof":
        s.fail(f"trailing input after {kind}")
    return term


# A metavariable's reader: o, a and b are objects, U, P and Q protocols, and
# any other name is a cell c, whose boundary parts are cL, cT, cB and cR.
_READERS = {"o": "obj", "a": "obj", "b": "obj", "U": "proto", "P": "proto", "Q": "proto"}


def bind(sig: sg.Signature, val: sg.Valuation, binding, aliases=None) -> Document:
    """A document over sig and val whose names are the given object aliases
    and the metavariables of the binding.  Each metavariable is bound, in
    the binding's order, to a term, normalized if it is an object or a
    protocol, or to a text read against the names bound before it."""
    doc = Document(sig, val, aliases=dict(aliases or {}))
    for name, term in binding.items():
        kind = _READERS.get(name, "cell")
        if isinstance(term, str):
            term = parse_term(term, kind, doc)
        if kind == "obj":
            doc.aliases[name] = sg.normalize_obj(term)
        elif kind == "proto":
            doc.protocols[name] = normalize_proto(term)
        else:
            bnd = infer_boundary(term, sig)
            doc.cells[name] = CellDecl(name, bnd, term)
            doc.protocols[name + "L"], doc.protocols[name + "R"] = bnd.left, bnd.right
            doc.aliases[name + "T"], doc.aliases[name + "B"] = bnd.top, bnd.bottom
    return doc


def parse_value(text: str) -> sg.Value:
    return parse_term(text, "value")


def parse_script(text: str):
    """One move per line: `recv <value>`, `pick 0|1`, `stop`, `continue`.
    An error gives the script line and the column within that line."""
    moves = []
    for num, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        col = raw.index(line) + 1
        head, _, rest = line.partition(" ")
        if head == "recv":
            try:
                moves.append(RecvMove(parse_value(rest)))
            except ParseError as e:
                at = col + len(line) - len(rest) + e.column - 1
                raise ParseError(e.message, line=num, column=at) from None
        elif head == "pick" and rest.strip() in ("0", "1"):
            moves.append(PickMove(int(rest)))
        elif head == "stop" and not rest.strip():
            moves.append(StopMove())
        elif head == "continue" and not rest.strip():
            moves.append(ContinueMove())
        else:
            raise ParseError(f"bad move {line!r}", line=num, column=col)
    return moves


class _Parser:
    def __init__(self, s: _Stream, doc: Document):
        self.s = s
        self.doc = doc
        self.maps = {}  # morphism name -> the `map` token of its table

    # -- declarations -------------------------------------------------------

    def declaration(self):
        s = self.s
        t = s.ident("a declaration")
        if t.text == "object":
            name = self.name("an object name", _OBJ_WORDS).text
            self.doc.sig.declare_object(name)
        elif t.text == "carrier":
            self.carrier_decl()
        elif t.text == "mor":
            name = self.name("a morphism name", sg.MOR_WORDS)
            s.expect(":")
            dom = self.obj()
            s.expect("->")
            cod = self.obj()
            try:
                self.doc.sig.declare_morphism(name.text, dom, cod)
            except FcnError as e:
                raise ParseError(str(e), line=name.line, column=name.col) from None
        elif t.text == "map":
            at = s.ident("a morphism name")
            name = at.text
            if name not in self.doc.sig.morphisms:
                raise UnknownName(f"unknown morphism {name!r}", line=at.line, column=at.col)
            if name in self.maps:
                raise ParseError(f"map {name} declared again", line=at.line, column=at.col)
            s.expect("=")
            s.expect("{")
            table = {}
            while not s.at("}"):
                at = s.peek()
                key = self.value()
                if key in table:
                    raise ParseError(
                        f"map {name}: repeated key {key}", line=at.line, column=at.col
                    )
                s.expect("->")
                table[key] = self.value()
                if not s.eat(";"):
                    break
            s.expect("}")
            self.doc.val.mor_maps[name] = table
            self.maps[name] = t
        elif t.text == "protocol":
            name = self.name("a protocol name", _PROTO_WORDS).text
            s.expect("=")
            self.doc.protocols[name] = self.proto()
        elif t.text == "cell":
            self.cell_decl()
        else:
            raise ParseError(
                f"unknown declaration {t.text!r}", line=t.line, column=t.col
            )
        s.expect(";")

    def name(self, what: str, words) -> Token:
        """A declared name, which may not be one of the words that the
        parser reads as built in where the name would be referenced."""
        t = self.s.ident(what)
        if t.text in words:
            raise ParseError(
                f"{t.text!r} is a reserved word, not {what}", line=t.line, column=t.col
            )
        return t

    def carrier_decl(self):
        s = self.s
        name = self.name("an object name", _OBJ_WORDS).text
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
        t = self.name("a cell name", _CELL_NAME_WORDS)
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
                f"cell {name}", str(declared), str(inferred), line=t.line, column=t.col
            )
        self.doc.cells[name] = CellDecl(name, inferred, term)

    def equation(self):
        """`cell = cell`: the two sides of a law."""
        lhs = self.cell()
        self.s.expect("=")
        return lhs, self.cell()

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

    def mor_atom(self) -> sg.MorExpr:
        s = self.s
        if s.eat("("):
            inner = self.mor()
            s.expect(")")
            return inner
        t = s.ident("a morphism")
        if t.text in sg.MOR_WORDS:
            cls = sg.MOR_WORDS[t.text]
            return cls(*self.former(cls))
        if t.text in self.doc.sig.morphisms:
            return sg.GenMor(t.text)
        raise UnknownName(f"unknown morphism {t.text!r}", line=t.line, column=t.col)

    def former(self, cls):
        """The arguments of former cls, whose word was just read, read by
        their kinds."""
        _, kinds, brackets = _SHAPES[cls]
        if brackets is None:
            return [getattr(self, kinds[0])()]
        return self.args(brackets, kinds)

    def args(self, brackets, kinds):
        """Arguments of the given kinds (reader names), between the open
        and close bracket and apart by the separator of `brackets`."""
        open_, sep, close = brackets
        self.s.expect(open_)
        out = []
        for kind in kinds:
            if out:
                self.s.expect(sep)
            out.append(getattr(self, kind)())
        self.s.expect(close)
        return out

    # -- cell terms ---------------------------------------------------------

    def share(self, word, args, build) -> Cell:
        """The document's one cell build(*args) for the former or derived
        word, built on first use.  Cell arguments are keyed by identity and
        every other argument by value, so no whole cell is ever hashed; the
        entry holds the arguments, so no id in a key is reused."""
        key = (word, *(id(x) if isinstance(x, Cell) else x for x in args))
        entry = self.doc.shared.get(key)
        if entry is None:
            entry = self.doc.shared[key] = (args, build(*args))
        return entry[1]

    def cell(self) -> Cell:
        left = self.cell_vchain()
        while self.s.eat("|"):
            left = self.share(HComp, (left, self.cell_vchain()), HComp)
        return left

    def cell_vchain(self) -> Cell:
        left = self.cell_atom()
        while self.s.eat("/"):
            left = self.share(VComp, (left, self.cell_atom()), VComp)
        return left

    def cell_atom(self) -> Cell:
        s = self.s
        if s.eat("["):
            mor = self.mor()
            s.expect("]")
            return self.share(Promote, (mor,), Promote)
        if s.eat("("):
            inner = self.cell()
            s.expect(")")
            return inner
        t = s.ident("a cell term")
        word = t.text
        if word in CELL_WORDS:
            cls = CELL_WORDS[word]
            return self.share(cls, self.former(cls), cls)
        if word in DEFINITIONS:
            kinds = [_READERS.get(p, "cell") for p in DEFINITIONS[word][0]]
            args = self.args("{,}" if kinds[0] == "proto" else "(,)", kinds)
            return self.share(word, args, lambda *args: self.define(word, args))
        if word == "cross":
            return self.share(word, self.args("{,}", ("proto", "obj")), dv.crossing)
        if word == "sendword":
            (a,) = self.args("{,}", ("obj",))
            s.expect("[")
            values = []
            while not s.at("]"):
                values.append(self.value())
                if not s.eat(","):
                    break
            s.expect("]")
            return self.share(word, (tuple(values), a), dv.word_sender)
        if word in self.doc.cells:
            return self.doc.cells[word].term
        raise UnknownName(f"unknown cell term {word!r}", line=t.line, column=t.col)

    def define(self, word, args) -> Cell:
        """The text of definition word read with its parameters bound to
        args, sharing this document's cells."""
        params, text = DEFINITIONS[word]
        doc = bind(self.doc.sig, self.doc.val, dict(zip(params, args)))
        doc.shared = self.doc.shared
        return parse_term(text, "cell", doc)


# ---------------------------------------------------------------------------
# Syntax tables.  A former is a surface word and a term class whose fields
# are its arguments; `_Parser.former` reads them and `show_cell` and
# `MorExpr.__str__` print them.  A lone object or protocol is an atom after
# the word (`getL dough`, `id U`); protocols go in `{U, W}`; cells in
# `(a, b)`, or `(a; f; g)` for three; morphism arguments in `(A, B)`.

CELL_WORDS = {
    "getL": GetL,
    "putR": PutR,
    "getR": GetR,
    "putL": PutL,
    "1": IdV,
    "id": IdH,
    "pi0": Pi0,
    "pi1": Pi1,
    "in0": Inj0,
    "in1": Inj1,
    "times": Times,
    "plus": Plus,
    "copair": CopairC,
    "iterX": IterX,
    "iterP": IterP,
}
_CELL_WORD = {cls: word for word, cls in CELL_WORDS.items()}

# Derived cells: a word, its parameters (metavariables, see `bind`) and the
# text it stands for.  Protocol arguments go in `{U}`, cells in `(c)`.
DEFINITIONS = {
    # the comonoid and comonad of U^x, read as its unrolling I x (U * U^x):
    # deltaX [U^x | I -> I | U^x * U^x], epsX [U^x | I -> I | U] and
    # dX [U^x | I -> I | (U^x)^x]
    "deltaX": (("U",), "iterX(id U; id (U^x); pi1{I, U * U^x})"),
    "epsX": (("U",), "pi1{I, U * U^x} | (id U / pi0{I, U * U^x})"),
    "dX": (("U",), "iterX(id (U^x); pi0{I, U * U^x}; deltaX{U})"),
    # the monoid and monad of U^+, read as its unrolling I + (U * U^+):
    # nablaP [U^+ * U^+ | I -> I | U^+], etaP [U | I -> I | U^+] and
    # muP [(U^+)^+ | I -> I | U^+]
    "nablaP": (("U",), "iterP(id U; id (U^+); in1{I, U * U^+})"),
    "etaP": (("U",), "(id U / in0{I, U * U^+}) | in1{I, U * U^+}"),
    "muP": (("U",), "iterP(id (U^+); in0{I, U * U^+}; nablaP{U})"),
    # c : [cL | cT -> cT | cR] replayed once per round of a loop on its left
    # or on its right: [cL^x | cT -> cT | cR^x] and [cL^+ | cT -> cT | cR^+]
    "iterXs": (("c",), "iterX(c; pi0{I, cL * cL^x} | 1 cT; pi1{I, cL * cL^x})"),
    "iterPs": (("c",), "iterP(c; 1 cT | in0{I, cR * cR^+}; in1{I, cR * cR^+})"),
    # f and g side by side, each crossing the other's protocol:
    # [fL * gL | fT * gT -> fB * gB | fR * gR]
    "tensor": (("f", "g"), "(f | cross{fR, gT}) / (cross{gL, fB} | g)"),
}

# Words a declaration may not take as its name: where the name is used, the
# parser reads them as built-in objects, protocols, formers or definitions.
_OBJ_WORDS = {"I", "stack"}
_PROTO_WORDS = {"I", "send", "recv", "x"}
_CELL_NAME_WORDS = {*CELL_WORDS, *DEFINITIONS, "cross", "sendword"}

# a field's annotation -> the `_Parser` method that reads it
_KINDS = {
    "ObjExpr": "obj",
    "Protocol": "proto",
    "Cell": "cell",
    "MorExpr": "mor",
    "Value": "value",
}


def _shape(cls):
    """A former's field names, their kinds, and its brackets (open,
    separator, close), which are None for a lone object or protocol: that
    is read as an atom."""
    names = tuple(f.name for f in fields(cls))
    kinds = tuple(_KINDS[f.type] for f in fields(cls))
    if kinds in (("obj",), ("proto",)):
        return names, (kinds[0] + "_atom",), None
    if kinds[0] == "proto":
        return names, kinds, "{,}"
    return names, kinds, "(;)" if kinds == ("cell",) * 3 else "(,)"


_SHAPES = {cls: _shape(cls) for cls in (*CELL_WORDS.values(), *sg.MOR_WORDS.values())}


# ---------------------------------------------------------------------------
# Surface printers.  Conservatively parenthesized so that every printed term
# reparses to a structurally identical tree.


def show_proto(p: Protocol) -> str:
    """The file syntax of p, which `Protocol.__str__` prints."""
    return str(p)


def _proto_atom(p: Protocol) -> str:
    if not proto_factors(p):
        return "I"
    return f"({p})"


def show_cell(c: Cell) -> str:
    word = _CELL_WORD.get(type(c))
    if word is not None:
        names, kinds, brackets = _SHAPES[type(c)]
        if brackets is None:
            return f"{word} {_SHOW[kinds[0]](getattr(c, names[0]))}"
        open_, sep, close = brackets
        args = [_SHOW[k](getattr(c, n)) for n, k in zip(names, kinds)]
        return f"{word}{open_}{f'{sep} '.join(args)}{close}"
    if isinstance(c, Promote):
        return f"[{c.mor}]"
    if isinstance(c, HComp):
        return f"({show_cell(c.a)} | {show_cell(c.b)})"
    if isinstance(c, VComp):
        return f"({show_cell(c.a)} / {show_cell(c.b)})"
    raise ValueError(f"unprintable cell {c!r}")


# a cell former's field kind -> its printer
_SHOW = {
    "obj_atom": sg._obj_atom_str,
    "proto_atom": _proto_atom,
    "proto": str,
    "cell": show_cell,
}


def _check_valuation(doc: Document, maps: dict):
    """Morphism tables must be total on enumerable domains and land in the
    codomain; an error points at the table's `map` token in maps."""
    for name, (dom, cod) in doc.sig.morphisms.items():
        table = doc.val.mor_maps.get(name)
        if table is None:
            continue
        at = maps[name]
        fail = lambda msg: ParseError(f"map {name}: {msg}", line=at.line, column=at.col)
        for key, out in table.items():
            if not sg.check_value(key, dom, doc.val):
                raise fail(f"input {key} does not fit {dom}")
            if not sg.check_value(out, cod, doc.val):
                raise fail(f"output {out} does not fit {cod}")
        try:
            domain = list(sg.enumerate_values(dom, doc.val))
        except NotEnumerable:
            continue
        for v in domain:
            if v not in table:
                raise fail(f"missing entry for {v}")
