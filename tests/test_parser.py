import pathlib
import random

import pytest

import goldens as g
from fcn import parser
from fcn import signature as sg
from fcn.cells import Cell, GetL, IdV, Promote, PutR, VComp, infer_boundary
from fcn.errors import BoundaryMismatch, ParseError, UnknownName
from fcn.gen import gen_cell
from fcn.parser import (
    parse_document,
    parse_script,
    parse_term,
    parse_value,
    show_cell,
)
from fcn.protocol import (
    ChooseP,
    DONE,
    OfferP,
    RecvP,
    SendP,
    StarPP,
    StarXP,
    seq_proto,
)
from fcn.trace import ContinueMove, PickMove, RecvMove, StopMove

HEADER = """
object a;
object b;
carrier a = { a0, a1 };
carrier b = { b0 };
mor f : a -> b;
map f = { a0 -> b0; a1 -> b0; };
"""


def doc(text):
    return parse_document(HEADER + text)


def test_empty_document():
    d = parse_document("")
    assert list(d.cells) == []


def test_values():
    assert parse_value("()") == sg.UNITV
    assert parse_value("x") == sg.AtomV("x")
    assert parse_value("(x, y)") == sg.TupleV((sg.AtomV("x"), sg.AtomV("y")))
    assert parse_value("inl inr ()") == sg.InlV(sg.InrV(sg.UNITV))
    assert parse_value("[x, ()]") == sg.ListV((sg.AtomV("x"), sg.UNITV))
    assert parse_value("((x, y), z)") == sg.TupleV(
        (sg.AtomV("x"), sg.AtomV("y"), sg.AtomV("z"))
    )


def test_protocol_syntax():
    d = doc("protocol p = send a * recv b x I + (send a)^x;")
    # precedence: + weakest, then x, then *
    p = d.protocols["p"]
    assert p == OfferP(
        ChooseP(seq_proto(SendP(sg.GenObj("a")), RecvP(sg.GenObj("b"))), DONE),
        StarXP(SendP(sg.GenObj("a"))),
    )


def test_loop_postfix():
    d = doc("protocol p = (send a * recv a)^+;")
    a = sg.GenObj("a")
    assert d.protocols["p"] == StarPP(seq_proto(SendP(a), RecvP(a)))


def test_object_syntax():
    d = doc(
        "mor g : a * b (+) I -> stack (a * b);"
    )
    dom, cod = d.sig.morphisms["g"]
    a, b = sg.GenObj("a"), sg.GenObj("b")
    assert dom == sg.Sum(sg.tensor_obj(a, b), sg.UNIT)
    assert cod == sg.Stack(sg.tensor_obj(a, b))


def test_cell_term_precedence():
    d = doc(
        "cell k : [ I | a * b -> b | send b ] ="
        " [f] / putR b | getL b / [id b] | putR b;"
    )
    # '/' binds tighter than '|'; hchain of three vchains
    from fcn.cells import HComp, VComp

    t = d.cells["k"].term
    assert isinstance(t, HComp) and isinstance(t.a, HComp)
    assert isinstance(t.a.a, VComp) and isinstance(t.a.b, VComp)


def test_declared_boundary_checked():
    with pytest.raises(BoundaryMismatch):
        doc("cell k : [ I | a -> a | I ] = [f];")


def test_unknown_names_have_positions():
    with pytest.raises(UnknownName) as e:
        doc("cell k : [ I | nope -> I | I ] = [f];")
    assert "line" in str(e.value)
    assert (e.value.line, e.value.column) == (8, 16)


def test_morphism_redeclared_with_another_type():
    # the same type again is allowed
    d = doc("cell k : [ I | a -> b | I ] = [f];\nmor f : a -> b;")
    assert d.sig.morphisms["f"] == (sg.GenObj("a"), sg.GenObj("b"))
    with pytest.raises(ParseError) as e:
        doc("cell k : [ I | a -> b | I ] = [f];\nmor f : b -> a;")
    assert (e.value.line, e.value.column) == (9, 5)
    assert "morphism f declared again" in str(e.value)


def test_cell_redeclared():
    with pytest.raises(ParseError) as e:
        doc("cell k : [ I | a -> b | I ] = [f];\ncell k : [ I | a -> a | I ] = 1 a;")
    assert (e.value.line, e.value.column) == (9, 6)
    assert "cell k declared again" in str(e.value)


def test_parse_error_position():
    with pytest.raises(ParseError) as e:
        parse_document("object ;")
    assert "line 1" in str(e.value)
    assert (e.value.line, e.value.column) == (1, 8)
    with pytest.raises(ParseError) as e:
        parse_document("object a;\n  $")
    assert (e.value.line, e.value.column) == (2, 3)
    assert str(e.value) == "line 2:3: unexpected character '$'"


def map_error(table):
    """The error of a one-line `mor f` and `map f` with the given table: it
    points at the `map` declaration."""
    with pytest.raises(ParseError) as e:
        parse_document(
            f"object a;\ncarrier a = {{ a0, a1 }};\nmor f : a -> a; map f = {table};"
        )
    return str(e.value), e.value.line, e.value.column


def test_map_totality_checked():
    assert map_error("{ a0 -> a0; }") == ("line 3:17: map f: missing entry for a1", 3, 17)


def test_map_codomain_checked():
    assert map_error("{ a0 -> zzz; a1 -> a0 }") == (
        "line 3:17: map f: output zzz does not fit a", 3, 17
    )
    assert map_error("{ a0 -> a0; a1 -> a0; zz -> a0 }") == (
        "line 3:17: map f: input zz does not fit a", 3, 17
    )


def test_duplicate_carrier_atoms_rejected():
    with pytest.raises(ParseError):
        parse_document("object a;\ncarrier a = { x, x };")


def test_list_carrier_is_alias():
    d = parse_document(
        "object a;\ncarrier a = { a0 };\ncarrier s = list of a;\n"
        "mor f : s -> s;"
    )
    dom, _ = d.sig.morphisms["f"]
    assert dom == sg.Stack(sg.GenObj("a"))


def test_cell_reference():
    d = doc(
        "cell k : [ I | a -> I | send b ] = [f] / putR b;\n"
        "cell kk : [ I | a * a -> I | send b * send b ] = tensor(k, k);"
    )
    assert "kk" in d.cells


def test_scripts():
    moves = parse_script("recv (x, y)\npick 0\nstop\ncontinue\n\n# end\n")
    assert moves == [
        RecvMove(sg.TupleV((sg.AtomV("x"), sg.AtomV("y")))),
        PickMove(0),
        StopMove(),
        ContinueMove(),
    ]
    with pytest.raises(ParseError):
        parse_script("pick 2")


def test_macros_expand(bakery):
    d = doc(
        "cell c : [ send a | b -> b | send a ] = cross{send a, b};\n"
        "cell m : [ I | a -> a | (send a * recv a)^x ] ="
        " iterX(putR a / getR a; 1 a; id I);\n"
        "cell w : [ I | I -> I | (send a)^+ ] = sendword{a}[a0, a1];\n"
        "cell d : [ (send b)^x | I -> I | (send b)^x * (send b)^x ] ="
        " deltaX{send b};"
    )
    assert len(d.cells) == 4


def test_round_trip_golden(bakery):
    sig, _ = bakery
    prelude = (
        "object dough;\nobject bread;\nobject oven;\nobject coin;\nobject flour;\n"
        "mor bake : dough * oven -> bread * oven;\n"
        "mor knead : flour -> dough;\n"
        "mor swapdough : dough -> dough;\n"
    )
    # putR stack coin: a lone stack atom prints without parentheses
    lone_stack = PutR(g.S_COIN)
    assert show_cell(lone_stack) == "putR stack coin"
    for cell in [g.kneader, g.baker, g.bakery, g.react, g.choice_h, g.stack_h,
                 g.memory, g.sale, g.sales, lone_stack]:
        b = infer_boundary(cell, sig)
        d = parse_document(f"{prelude}cell c : {b} = {show_cell(cell)};")
        assert d.cells["c"].declared == b
        assert d.cells["c"].term == cell


def test_round_trip_random(bakery):
    sig, _ = bakery
    prelude = (
        "object dough;\nobject bread;\nobject oven;\nobject coin;\nobject flour;\n"
        "mor bake : dough * oven -> bread * oven;\n"
        "mor knead : flour -> dough;\n"
        "mor swapdough : dough -> dough;\n"
    )
    rng = random.Random(11)
    for _ in range(40):
        cell = gen_cell(rng, sig, size=3)
        b = infer_boundary(cell, sig)
        d = parse_document(f"{prelude}cell c : {b} = {show_cell(cell)};")
        assert d.cells["c"].declared == b
        assert d.cells["c"].term == cell


# One sample argument per field kind of a former.  Objects and protocols are
# compound, so the printer's parentheses are exercised too.
A, B = sg.GenObj("a"), sg.GenObj("b")
SAMPLE_ARGS = {
    "obj_atom": sg.tensor_obj(A, B),
    "proto_atom": seq_proto(SendP(A), RecvP(B)),
    "obj": sg.Sum(sg.Stack(A), sg.tensor_obj(A, B)),
    "proto": StarXP(SendP(A)),
    "cell": VComp(IdV(A), GetL(A)),
    "mor": sg.Compose(sg.Id(A), sg.GenMor("f")),
    "value": sg.TupleV((sg.AtomV("a0"), sg.InlV(sg.UNITV))),
}


def read_cell(text):
    """A cell term, parsed but not typed, under HEADER's declarations."""
    return parse_term(text, "cell", doc(""))


def assert_round_trip(term):
    shown = show_cell(term)
    again = read_cell(shown)
    assert again == term
    assert show_cell(again) == shown


FORMERS = [("cell", w, c) for w, c in parser.CELL_WORDS.items()] + [
    ("mor", w, c) for w, c in sg.MOR_WORDS.items()
]


@pytest.mark.parametrize("table, word, cls", FORMERS, ids=[f"{t}-{w}" for t, w, _ in FORMERS])
def test_every_former_round_trips(table, word, cls):
    _, kinds, _ = parser._SHAPES[cls]
    term = cls(*(SAMPLE_ARGS[k] for k in kinds))
    if table == "mor":
        assert str(term).startswith(f"{word}(")
        term = Promote(term)
    else:
        assert show_cell(term).startswith(word)
    assert_round_trip(term)


# sample arguments for a definition, by its parameters
DEFINITION_ARGS = {
    ("U",): "{send a * recv b}",
    ("c",): "(putR a / getR a)",
    ("f", "g"): "(getL a, [f] / putR b)",
}


@pytest.mark.parametrize(
    "text",
    [f"{w}{DEFINITION_ARGS[params]}" for w, (params, _) in parser.DEFINITIONS.items()]
    + ["cross{(send a)^x, a * b}", "sendword{a}[a0, a1]"],
)
def test_every_macro_round_trips(text):
    assert_round_trip(read_cell(text))


@pytest.mark.parametrize(
    "term, error",
    [
        ("pi0{send a send b}", ("ParseError", "line 8:42: expected ',', got 'send'", 8, 42)),
        ("iterX(1 a, 1 a, 1 a)", ("ParseError", "line 8:40: expected ';', got ','", 8, 40)),
        ("[braid(a b)]", ("ParseError", "line 8:40: expected ',', got 'b'", 8, 40)),
        ("[const(a)]", ("ParseError", "line 8:39: expected ',', got ')'", 8, 39)),
    ],
)
def test_malformed_former_errors(term, error):
    with pytest.raises(ParseError) as e:
        doc(f"cell k : [ I | a -> a | I ] = {term};")
    assert (type(e.value).__name__, str(e.value), e.value.line, e.value.column) == error


# Each declaration and the words it may not take as its name, read from the
# syntax tables, so that a new former or definition is covered as it lands.
RESERVED = (
    [("object", w) for w in ("I", "stack")]
    + [("carrier", w) for w in ("I", "stack")]
    + [("mor", w) for w in sg.MOR_WORDS]
    + [("protocol", w) for w in ("I", "send", "recv", "x")]
    + [
        ("cell", w)
        for w in (*parser.CELL_WORDS, *parser.DEFINITIONS, "cross", "sendword")
    ]
)
DECLARATIONS = {
    "object": "object {};",
    "carrier": "carrier {} = {{ a0 }};",
    "mor": "mor {} : a -> a;",
    "protocol": "protocol {} = send a;",
    "cell": "cell {} : [ I | a -> a | I ] = 1 a;",
}


@pytest.mark.parametrize(
    "decl, word", RESERVED, ids=[f"{d}-{w}" for d, w in RESERVED]
)
def test_reserved_words_are_not_names(decl, word):
    with pytest.raises(ParseError) as e:
        doc(DECLARATIONS[decl].format(word))
    assert (e.value.line, e.value.column) == (8, len(decl) + 2)
    assert f"{word!r} is a reserved word" in str(e.value)


# ---------------------------------------------------------------------------
# Sharing: one node per distinct subterm of a document

BAKERY = (pathlib.Path(__file__).resolve().parent.parent / "demos" / "bakery.fcn").read_text()


def bakery_term(text):
    """A cell term read against the bakery demo's names, in a fresh
    document."""
    return parse_term(text, "cell", parse_document(BAKERY))


def nodes(c):
    """The distinct cell nodes of c, by id, found without recursion."""
    seen, todo = {}, [c]
    while todo:
        x = todo.pop()
        if id(x) not in seen:
            seen[id(x)] = x
            todo.extend(v for v in vars(x).values() if isinstance(v, Cell))
    return seen


@pytest.mark.parametrize(
    "text",
    [
        "cross{send dough, oven}",
        "deltaX{send dough}",
        "(getL dough / putR dough)",
        "sendword{dough}[ryedough, wheatdough]",
        "[knead]",
        "times(1 dough, 1 dough)",
        "tensor(kneader, baker)",
    ],
)
def test_a_repeated_subterm_is_one_node(text):
    c = bakery_term(f"{text} | {text}")
    assert c.a is c.b
    assert c.a == bakery_term(text)


@pytest.mark.parametrize(
    "x, y",
    [
        ("cross{send dough, oven}", "cross{send dough, flour}"),
        ("cross{send dough, oven}", "cross{recv dough, oven}"),
        ("1 dough", "1 oven"),
        ("deltaX{send dough}", "deltaX{recv dough}"),
        ("sendword{dough}[ryedough]", "sendword{dough}[wheatdough]"),
        ("getL dough | 1 oven", "getL flour | 1 oven"),
        ("times(1 dough, 1 dough)", "times(1 oven, 1 oven)"),
        ("tensor(kneader, baker)", "tensor(baker, kneader)"),
    ],
)
def test_different_subterms_are_different_nodes(x, y):
    c = bakery_term(f"({x}) / ({y})")
    assert c.a is not c.b
    assert (c.a, c.b) == (bakery_term(x), bakery_term(y))


def test_a_chain_of_equal_crossings_types_each_crossing_once():
    """Each / of the chain is one new node, and its n crossings are one."""
    below = set()
    for n in (2, 8, 32):
        body = " / ".join(["cross{send dough, oven}"] * n)
        side = " * ".join(["send dough"] * n)
        d = parse_document(f"{BAKERY}cell chain : [ {side} | oven -> oven | {side} ] = {body};")
        typed = [x for x in nodes(d.cells["chain"].term).values() if hasattr(x, "_boundary")]
        below.add(len(typed) - (n - 1))
    assert len(below) == 1


def test_two_documents_share_nothing():
    text = (
        f"{BAKERY}cell c : [ I | flour * oven * oven -> oven * bread * oven | I ] ="
        " kneader | cross{send dough, oven} | baker;"
    )
    first, second = (parse_document(text).cells["c"].term for _ in range(2))
    assert first == second
    assert not nodes(first).keys() & nodes(second).keys()
