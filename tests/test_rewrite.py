import ast
import importlib
import pathlib
import random
import sys

import pytest

import goldens as g
from fcn import signature as sg
from fcn.cells import (
    CopairC,
    GetL,
    GetR,
    HComp,
    IdH,
    IdV,
    Inj0,
    Inj1,
    IterP,
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
from fcn.derived import crossing, define
from fcn.errors import BoundaryMismatch, FcnError
from fcn.gen import gen_cell
from fcn.laws import cells_equal
from fcn.parser import parse_document
from fcn.protocol import DONE, RecvP, SendP, StarPP, StarXP, seq_proto
from fcn.rewrite import rewrite

A = g.DOUGH
B = g.BREAD
ROOT = pathlib.Path(__file__).resolve().parent.parent


def rules_of(report):
    return [rule for rule, _ in report.trace]


def test_snap_send_beside():
    r = rewrite(HComp(PutR(A), GetL(A)))
    assert r.result == IdV(A)
    assert rules_of(r) == ["snap-send-beside"]


def test_snap_recv_beside():
    r = rewrite(HComp(GetR(A), PutL(A)))
    assert r.result == IdV(A)
    assert rules_of(r) == ["snap-recv-beside"]


def test_snap_send_above():
    r = rewrite(VComp(GetL(A), PutR(A)))
    assert r.result == IdH(SendP(A))
    assert rules_of(r) == ["snap-send-above"]


def test_promote_fusion():
    r = rewrite(VComp(Promote(g.KNEAD), Promote(g.SWAP_DOUGH)))
    assert r.result == Promote(sg.Compose(g.KNEAD, g.SWAP_DOUGH))


def test_promote_id_collapses():
    r = rewrite(Promote(sg.Id(A)))
    assert r.result == IdV(A)


SWAP = Promote(g.SWAP_DOUGH)
TIMES = Times(PutR(A), VComp(SWAP, PutR(A)))
PLUS = Plus(GetL(A), VComp(GetL(A), SWAP))
INJ = (SendP(A), SendP(A))
COPAIR = CopairC(SWAP, IdV(A))
# the memory cell iterX(putR a / getR a; 1 a; id I) against a projection
ROUND = seq_proto(SendP(A), RecvP(A))
MEMORY_STEP = seq_proto(ROUND, StarXP(ROUND))
# [(!a)^p | I -> I | (!a)^p]: relay each sent dough, swapped
RELAY_STEP = seq_proto(SendP(A), StarPP(SendP(A)))
RELAY = IterP(
    VComp(VComp(GetL(A), SWAP), PutR(A)), Inj0(DONE, RELAY_STEP), Inj1(DONE, RELAY_STEP)
)

# One hand-written redex per rule, whose first step is that rule.  Demo
# cells and gen_cell terms fire no loop or offer-beta rule, among others.
REDEXES = {
    "snap-send-beside": HComp(PutR(A), GetL(A)),
    "snap-recv-beside": HComp(GetR(A), PutL(A)),
    "snap-send-above": VComp(GetL(A), PutR(A)),
    "snap-recv-above": VComp(GetR(A), PutL(A)),
    "snap-send-around": g.bakery,
    "promote-compose": VComp(Promote(g.KNEAD), SWAP),
    "promote-tensor": HComp(Promote(g.KNEAD), SWAP),
    "promote-widen": HComp(SWAP, IdV(g.OVEN)),
    "promote-id": Promote(sg.Id(A)),
    "choose-beta-0": HComp(TIMES, Pi0(*INJ)),
    "choose-beta-1": HComp(TIMES, Pi1(*INJ)),
    "offer-beta-0": HComp(Inj0(*INJ), PLUS),
    "offer-beta-1": HComp(Inj1(*INJ), PLUS),
    "branch-beta-0": VComp(Promote(sg.Inj0(A, A)), COPAIR),
    "branch-beta-1": VComp(Promote(sg.Inj1(A, A)), COPAIR),
    "loop-x-stop": HComp(g.memory, Pi0(DONE, MEMORY_STEP)),
    "loop-x-step": HComp(g.memory, Pi1(DONE, MEMORY_STEP)),
    "loop-p-stop": HComp(g.queue([]), g.sales),
    "loop-p-step": HComp(Inj1(DONE, RELAY_STEP), RELAY),
    "ident-beside": HComp(IdH(SendP(A)), GetL(A)),
    "ident-above": VComp(IdV(A), GetR(A)),
    "unit-beside": HComp(IdV(sg.UNIT), GetL(A)),
    "unit-above": VComp(IdH(DONE), GetL(A)),
    "assoc-beside": HComp(GetL(A), HComp(GetL(A), GetL(A))),
    "assoc-above": VComp(GetL(A), VComp(GetL(A), GetL(A))),
}


@pytest.mark.parametrize("rule", REDEXES)
def test_redex_takes_its_rule_first(rule):
    assert rewrite(REDEXES[rule], budget=1).trace == [(rule, "root")]


# Each beta rule below meets two different arms, so a rule that picks the
# wrong arm, or a loop rule that stops where it should step, gives another
# result.  Every arm is in normal form: the rule's step is the only step.


def only_step(rule):
    r = rewrite(REDEXES[rule])
    assert r.trace == [(rule, "root")]
    return r.result


def test_choose_beta():
    assert only_step("choose-beta-0") == PutR(A)
    assert only_step("choose-beta-1") == VComp(SWAP, PutR(A))


def test_offer_beta():
    assert only_step("offer-beta-0") == GetL(A)
    assert only_step("offer-beta-1") == VComp(GetL(A), SWAP)


def test_branch_beta():
    assert only_step("branch-beta-0") == SWAP
    assert only_step("branch-beta-1") == IdV(A)


def test_loop_x_stop_and_step():
    m = g.memory
    assert only_step("loop-x-stop") == m.f
    r = rewrite(REDEXES["loop-x-step"], budget=1)
    assert r.result == HComp(m.g, VComp(m.alpha, m))


def test_loop_p_step():
    r = rewrite(REDEXES["loop-p-step"], budget=1)
    assert r.result == HComp(VComp(RELAY.alpha, RELAY), RELAY.g)


# Branches of a rule that the redexes above leave out, each pinned by the one
# step it takes at the root.  Every part is in normal form.
LOOP = seq_proto(SendP(A), StarXP(SendP(A)))
BRANCH_STEPS = {
    # the stop projection stacked over an id row: deltaX{send dough} stops
    "stacked stop arm": (
        HComp(
            define("deltaX{U}", U=SendP(A)), VComp(Pi0(DONE, LOOP), IdH(StarXP(SendP(A))))
        ),
        "loop-x-stop",
        IdH(StarXP(SendP(A))),
    ),
    # a send column against a bare receive
    "bare getL": (HComp(g.kneader, GetL(A)), "snap-send-around", Promote(g.KNEAD)),
    # a send column against a receive that heads a column
    "getL heads a column": (
        HComp(g.kneader, VComp(GetL(A), HComp(SWAP, GetR(B)))),
        "snap-send-around",
        VComp(Promote(g.KNEAD), HComp(SWAP, GetR(B))),
    ),
    # the unit on the right of a beside pair
    "unit on the right": (HComp(GetL(A), IdV(sg.UNIT)), "unit-beside", GetL(A)),
}


@pytest.mark.parametrize("name", BRANCH_STEPS)
def test_rule_branch_takes_one_step(name, bakery):
    sig, _ = bakery
    term, rule, result = BRANCH_STEPS[name]
    r = rewrite(term)
    assert (r.trace, r.result) == ([(rule, "root")], result)
    assert boundaries_equal(infer_boundary(term, sig), infer_boundary(result, sig))


def test_snap_send_around_needs_a_closed_receiver(bakery):
    # below the receive, the receiving column still reads a send on its
    # left: the seam is ill-typed, and snapping would hide that
    sig, _ = bakery
    term = HComp(PutR(A), VComp(GetL(A), HComp(GetL(B), IdV(A))))
    with pytest.raises(BoundaryMismatch):
        infer_boundary(term, sig)
    r = rewrite(term)
    assert (r.trace, r.result) == ([], term)


def test_bakery_fuses_to_promote():
    r = rewrite(g.bakery)
    assert r.result == Promote(
        sg.Compose(sg.TensorM(g.KNEAD, sg.Id(g.OVEN)), g.BAKE)
    )
    assert "snap-send-around" in rules_of(r)


def test_identity_elimination():
    r = rewrite(VComp(IdV(A), GetR(A)))
    assert r.result == GetR(A)
    r = rewrite(HComp(IdH(SendP(A)), GetL(A)))
    assert r.result == GetL(A)


def test_loop_stop_arm():
    # an empty queue against the sales loop collapses to its stop handler
    r = rewrite(HComp(g.queue([]), g.sales))
    assert "loop-p-stop" in rules_of(r)
    assert r.result == IdV(sg.tensor_obj(g.S_BREAD, g.S_COIN))


def test_normal_form_is_fixed_point():
    r = rewrite(g.bakery)
    again = rewrite(r.result)
    assert (again.result, again.steps, again.trace) == (r.result, 0, [])
    assert not r.budget_exhausted


def test_a_negative_budget_is_refused():
    # as EqConfig refuses a negative count, rather than take it as 0
    with pytest.raises(FcnError, match="budget must be at least 0, got -5"):
        rewrite(g.bakery, budget=-5)


def test_budget_zero_reports_redex():
    r = rewrite(g.bakery, budget=0)
    assert r.result == g.bakery
    assert r.steps == 0
    assert r.budget_exhausted
    done = rewrite(IdV(A), budget=0)
    assert not done.budget_exhausted


def test_random_rewrites_preserve_boundary_and_meaning(bakery):
    sig, val = bakery
    rng = random.Random(7)
    for _ in range(25):
        c = gen_cell(rng, sig, size=3)
        r = rewrite(c)
        before = infer_boundary(c, sig)
        after = infer_boundary(r.result, sig)
        assert before.top == after.top and before.bottom == after.bottom
        assert cells_equal(c, r.result, sig, val, depth=3, samples=12)


def send_chain(n):
    """The / chain of n cross{send dough, oven}, nested to the left as the
    parser reads it."""
    t = crossing(SendP(A), g.OVEN)
    for _ in range(n - 1):
        t = VComp(t, crossing(SendP(A), g.OVEN))
    return t


def test_a_shared_crossing_rewrites_as_its_copies():
    """The parser shares the crossings of a chain; rewriting it takes the
    steps that the same chain with a crossing built per occurrence takes."""
    side = " * ".join(["send dough"] * 4)
    body = " / ".join(["cross{send dough, oven}"] * 4)
    text = (ROOT / "demos" / "bakery.fcn").read_text()
    shared = parse_document(f"{text}cell c : [ {side} | oven -> oven | {side} ] = {body};")
    parsed, built = shared.cells["c"].term, send_chain(4)
    assert parsed.b is parsed.a.b and built.b is not built.a.b
    assert parsed == built
    r, s = rewrite(parsed), rewrite(built)
    assert (r.steps, r.trace, r.result) == (s.steps, s.trace, s.result)
    assert r.steps == 6


def rows(c):
    """The rows of a left-nested / chain, top first, without recursion."""
    out = []
    while isinstance(c, VComp):
        out.append(c.b)
        c = c.a
    return [c, *reversed(out)]


def test_rewrite_work_grows_linearly(monkeypatch):
    module = importlib.import_module("fcn.rewrite")
    here, calls = module._rewrite_here, [0]

    def counted(c):
        calls[0] += 1
        return here(c)

    monkeypatch.setattr(module, "_rewrite_here", counted)
    work = {}
    for n in (100, 300):
        calls[0] = 0
        assert rewrite(send_chain(n)).steps == 2 * n - 2
        work[n] = calls[0]
    assert work[300] <= 3.5 * work[100]


@pytest.mark.parametrize("n", [400, 600])
def test_long_chains_rewrite_under_the_recursion_limit(n):
    crossing_rows = rows(rewrite(crossing(SendP(A), g.OVEN)).result)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        r = rewrite(send_chain(n))
    finally:
        sys.setrecursionlimit(limit)
    assert (r.steps, r.budget_exhausted) == (2 * n - 2, False)
    assert rows(r.result) == crossing_rows * n


CUT_TERMS = {
    "bakery": g.bakery,
    "sales": HComp(g.queue(["c1", "c2"]), g.sales),
    "chain": send_chain(4),
    "loop-x": REDEXES["loop-x-step"],
}


@pytest.mark.parametrize("name", CUT_TERMS)
def test_a_budget_cuts_the_full_run(name):
    term = CUT_TERMS[name]
    full = rewrite(term)
    assert full.steps > 1 and not full.budget_exhausted
    for k in (full.steps, full.steps - 1, 1):
        cut = rewrite(term, budget=k)
        assert (cut.steps, cut.trace) == (k, full.trace[:k])
        assert cut.budget_exhausted == (k < full.steps)
        rest = rewrite(cut.result)
        assert (rest.result, rest.trace) == (full.result, full.trace[k:])


def rule_names():
    """Every rule name rewrite.py can return: the string that ends each
    (result, rule name) pair in its source, a 2-tuple of a term and a
    string."""
    tree = ast.parse((ROOT / "src" / "fcn" / "rewrite.py").read_text())
    is_str = lambda e: isinstance(e, ast.Constant) and isinstance(e.value, str)
    return {
        node.elts[1].value
        for node in ast.walk(tree)
        if isinstance(node, ast.Tuple)
        and len(node.elts) == 2
        and not is_str(node.elts[0])
        and is_str(node.elts[1])
    }


def test_every_rule_fires_on_the_corpus(bakery):
    sig, _ = bakery
    corpus = list(REDEXES.values())
    for path in sorted((ROOT / "demos").glob("*.fcn")):
        doc = parse_document(path.read_text())
        corpus += [decl.term for decl in doc.cells.values()]
    corpus += [gen_cell(random.Random(i), sig, size=1 + i % 8) for i in range(200)]
    fired = {rule for t in corpus for rule in rules_of(rewrite(t))}
    names = rule_names()
    assert set(REDEXES) <= names  # 25 rules; the table names only real ones
    assert names - fired == set()
