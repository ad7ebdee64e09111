"""End-to-end acceptance checks for the cell calculus.

Each test covers one pillar: golden boundary inference, the corner
equations, interchange, the choice laws, crossing cells, the iteration
laws, rewriter soundness, Mealy machines against a classical fold, and
the scripted scenario traces.  Every test carries a wall-clock budget so
regressions in oracle performance surface here too.
"""

import random
import time

import pytest

import goldens as g
from fcn import signature as sg
from fcn.cells import (
    Boundary,
    HComp,
    Promote,
    VComp,
    infer_boundary,
)
from fcn.derived import crossing
from fcn.gen import gen_cell, gen_interchange_quad
from fcn.laws import cells_equal, run_laws
from fcn.protocol import (
    ChooseP,
    DONE,
    RecvP,
    SendP,
    StarPP,
    StarXP,
    proto_equal,
    seq_proto,
)
from fcn.rewrite import rewrite
from fcn.semantics import Interp
from fcn.trace import run_trace

SEED = 0xFCC


@pytest.fixture(scope="module")
def bakery():
    return g.bakery_signature()


def _assert_laws(results, allow_skip=()):
    for r in results:
        assert r.status in ("pass", "skipped"), str(r)
        if r.law not in allow_skip:
            assert r.status == "pass", str(r)


def _budget(t0, limit):
    elapsed = time.monotonic() - t0
    assert elapsed < limit, f"took {elapsed:.1f}s, budget {limit}s"


def test_golden_typecheck(bakery):
    t0 = time.monotonic()
    sig, _ = bakery
    A, B, O, C = g.DOUGH, g.BREAD, g.OVEN, g.COIN
    I = sg.UNIT

    assert infer_boundary(g.kneader, sig) == Boundary(
        DONE, sg.GenObj("flour"), I, SendP(A)
    )
    assert infer_boundary(g.baker, sig) == Boundary(
        SendP(A), O, sg.tensor_obj(B, O), DONE
    )
    assert infer_boundary(g.bakery, sig) == Boundary(
        DONE, sg.tensor_obj(sg.GenObj("flour"), O), sg.tensor_obj(B, O), DONE
    )
    from fcn.protocol import OfferP

    assert infer_boundary(g.react, sig) == Boundary(
        OfferP(SendP(B), SendP(A)), O, sg.tensor_obj(B, O), DONE
    )
    assert infer_boundary(g.choice_h, sig) == Boundary(
        ChooseP(SendP(A), SendP(O)),
        I,
        sg.tensor_obj(B, O),
        ChooseP(RecvP(A), RecvP(O)),
    )
    assert infer_boundary(g.stack_h, sig) == Boundary(
        ChooseP(SendP(B), DONE), g.S_BREAD, g.S_BREAD, DONE
    )

    mem = infer_boundary(g.memory, sig)
    assert mem.top == mem.bottom == A
    assert mem.left == DONE
    assert proto_equal(mem.right, StarXP(seq_proto(SendP(A), RecvP(A))))

    sale = infer_boundary(g.sale, sig)
    assert proto_equal(sale.left, seq_proto(SendP(C), ChooseP(RecvP(C), RecvP(B))))
    assert sale.top == sale.bottom == sg.tensor_obj(g.S_BREAD, g.S_COIN)
    assert sale.right == DONE

    sales = infer_boundary(g.sales, sig)
    assert proto_equal(
        sales.left, StarPP(seq_proto(SendP(C), ChooseP(RecvP(C), RecvP(B))))
    )
    assert sales.top == sales.bottom == sg.tensor_obj(g.S_BREAD, g.S_COIN)
    assert sales.right == DONE

    table = {
        ("i0", "s0"): ("s1", "o1"),
        ("i1", "s0"): ("s0", "o0"),
        ("i0", "s1"): ("s0", "o0"),
        ("i1", "s1"): ("s1", "o1"),
    }
    msig, _, (a, s, b) = g.mealy_signature(2, 2, 2, table)
    from fcn.derived import mealy_loop

    loop = mealy_loop(sg.GenMor("step"), a, s, b, msig)
    lb = infer_boundary(loop, msig)
    assert proto_equal(lb.left, StarPP(SendP(a)))
    assert lb.top == lb.bottom == s
    assert proto_equal(lb.right, StarPP(SendP(b)))

    drive = infer_boundary(g.mealy_driver(["i0", "i1"], msig, a, s, b), msig)
    assert drive.left == DONE
    assert drive.top == drive.bottom == s
    assert proto_equal(drive.right, StarPP(SendP(b)))
    _budget(t0, 1.0)


def test_yanking_and_corner_functoriality(bakery):
    t0 = time.monotonic()
    sig, val = bakery
    names = [
        "yank-send-h",
        "yank-send-v",
        "yank-recv-h",
        "yank-recv-v",
        "promote-compose",
        "promote-tensor",
        "promote-id",
    ]
    _assert_laws(run_laws(sig, val, names=names))
    _budget(t0, 5.0)


def test_interchange_and_units(bakery):
    t0 = time.monotonic()
    sig, val = bakery
    rng = random.Random(SEED)
    for _ in range(200):
        a, b, c, d = gen_interchange_quad(rng, sig)
        lhs = VComp(HComp(a, c), HComp(b, d))
        rhs = HComp(VComp(a, b), VComp(c, d))
        assert cells_equal(lhs, rhs, sig, val), f"interchange: {lhs}"
    _assert_laws(run_laws(sig, val, names=["unit-above", "unit-beside"]))
    _budget(t0, 30.0)


def test_choice_suite(bakery):
    t0 = time.monotonic()
    sig, val = bakery
    names = [
        "choose-beta",
        "offer-beta",
        "branch-beta",
        "pairing-surjective",
        "copairing-surjective",
        "copair-coincide",
        "absorb-left",
        "absorb-right",
        "absorb-above",
        "moral-equiv-send",
        "moral-equiv-recv",
    ]
    _assert_laws(run_laws(sig, val, names=names))
    _budget(t0, 30.0)


def test_crossing_suite(bakery):
    t0 = time.monotonic()
    sig, val = bakery
    names = [
        "crossing-tensor",
        "crossing-unit",
        "crossing-sum",
        "crossing-strength",
        "crossing-swap",
    ]
    _assert_laws(run_laws(sig, val, names=names))

    # Sliding a crossed object over any cell leaves both unchanged.
    rng = random.Random(SEED)
    c = g.OVEN
    for _ in range(200):
        alpha = gen_cell(rng, sig)
        bnd = infer_boundary(alpha, sig)
        lhs = HComp(alpha, crossing(bnd.right, c))
        rhs = VComp(
            VComp(
                Promote(sg.Braid(bnd.top, c)),
                HComp(crossing(bnd.left, c), alpha),
            ),
            Promote(sg.Braid(c, bnd.bottom)),
        )
        assert cells_equal(lhs, rhs, sig, val), f"crossing swap: {alpha}"
    _budget(t0, 60.0)


def test_iteration_suite(bakery):
    t0 = time.monotonic()
    sig, val = bakery
    names = [
        "loop-x-beta",
        "loop-p-beta",
        "loop-x-mediate",
        "comonoid-x",
        "monoid-p",
        "comonoid-x-natural",
        "monoid-p-natural",
        "comonad-x",
        "monad-p",
    ]
    _assert_laws(run_laws(sig, val, names=names))
    _budget(t0, 120.0)


def test_rewriter_soundness(bakery):
    t0 = time.monotonic()
    sig, val = bakery
    golden = [
        g.kneader,
        g.baker,
        g.bakery,
        g.react,
        g.choice_h,
        g.stack_h,
        g.memory,
    ]
    rng = random.Random(SEED)
    cases = golden + [gen_cell(rng, sig) for _ in range(100)]
    for cell in cases:
        report = rewrite(cell)
        assert not report.budget_exhausted
        b1 = infer_boundary(cell, sig)
        b2 = infer_boundary(report.result, sig)
        assert b1.top == b2.top and b1.bottom == b2.bottom
        assert proto_equal(b1.left, b2.left) and proto_equal(b1.right, b2.right)
        assert cells_equal(
            cell, report.result, sig, val, depth=3, samples=24
        ), f"rewrite changed behavior: {cell}"
    _budget(t0, 60.0)


def _classical_mealy(table, word, start):
    state, outs = start, []
    for letter in word:
        state, out = table[(letter, state)]
        outs.append(out)
    return outs, state


def test_mealy_against_classical_fold():
    t0 = time.monotonic()
    rng = random.Random(SEED)
    for _ in range(50):
        ns = rng.randint(1, 3)
        ni = rng.randint(1, 3)
        no = rng.randint(1, 3)
        table = {
            (f"i{i}", f"s{q}"): (f"s{rng.randrange(ns)}", f"o{rng.randrange(no)}")
            for i in range(ni)
            for q in range(ns)
        }
        sig, val, (a, s, b) = g.mealy_signature(ns, ni, no, table)
        word = [f"i{rng.randrange(ni)}" for _ in range(rng.randint(0, 5))]
        start = f"s{rng.randrange(ns)}"

        interp = Interp(sig, val)
        cell = g.mealy_driver(word, sig, a, s, b)
        events = run_trace(interp, cell, sg.AtomV(start), [])

        outs, final = _classical_mealy(table, word, start)
        expect = []
        for out in outs:
            expect += ["more", f"sent {out}"]
        expect += ["halted", f"result {final}"]
        assert events == expect, f"word {word} from {start}"
    _budget(t0, 30.0)


def test_scenario_traces(bakery):
    sig, val = bakery
    t0 = time.monotonic()
    interp = Interp(sig, val)

    from fcn.trace import ContinueMove, RecvMove, StopMove

    rye = sg.AtomV("ryedough")
    wheat = sg.AtomV("wheatdough")
    events = run_trace(
        interp,
        g.memory,
        rye,
        [
            ContinueMove(),
            RecvMove(wheat),
            ContinueMove(),
            RecvMove(rye),
            StopMove(),
        ],
    )
    assert events == ["sent ryedough", "sent wheatdough", "result ryedough"]

    loaf = sg.ListV((sg.AtomV("ryeloaf"),))
    empty = sg.ListV(())
    stocked = sg.TupleV((loaf, empty))
    bare = sg.TupleV((empty, empty))

    assert run_trace(interp, g.scenario([], stocked), sg.UNITV, []) == [
        "result ([ryeloaf], [])"
    ]
    assert run_trace(interp, g.scenario(["c1"], stocked), sg.UNITV, []) == [
        "result (inr ryeloaf, [], [c1])"
    ]
    assert run_trace(interp, g.scenario(["c1"], bare), sg.UNITV, []) == [
        "result (inl c1, [], [])"
    ]
    _budget(t0, 5.0)
