import random

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
    infer_boundary,
)
from fcn.gen import gen_cell
from fcn.laws import cells_equal
from fcn.protocol import DONE, RecvP, SendP, StarPP, StarXP, seq_proto
from fcn.rewrite import rewrite, rewrite_step

A = g.DOUGH
B = g.BREAD


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


# Each beta rule below meets two different arms, so a rule that picks the
# wrong arm, or a loop rule that stops where it should step, gives another
# result.  Every arm is in normal form: the rule's step is the only step.

SWAP = Promote(g.SWAP_DOUGH)


def only_step(t, rule):
    new, name, path = rewrite_step(t)
    assert (name, path) == (rule, ())
    assert rewrite_step(new) is None
    return new


def test_choose_beta():
    t = Times(PutR(A), VComp(SWAP, PutR(A)))
    assert only_step(HComp(t, Pi0(SendP(A), SendP(A))), "choose-beta-0") == PutR(A)
    picked = only_step(HComp(t, Pi1(SendP(A), SendP(A))), "choose-beta-1")
    assert picked == VComp(SWAP, PutR(A))


def test_offer_beta():
    p = Plus(GetL(A), VComp(GetL(A), SWAP))
    inj = (SendP(A), SendP(A))
    assert only_step(HComp(Inj0(*inj), p), "offer-beta-0") == GetL(A)
    assert only_step(HComp(Inj1(*inj), p), "offer-beta-1") == VComp(GetL(A), SWAP)


def test_branch_beta():
    c = CopairC(SWAP, IdV(A))
    assert only_step(VComp(Promote(sg.Inj0(A, A)), c), "branch-beta-0") == SWAP
    assert only_step(VComp(Promote(sg.Inj1(A, A)), c), "branch-beta-1") == IdV(A)


def test_loop_x_stop_and_step():
    # the memory cell iterX(putR a / getR a; 1 a; id I) against a projection
    u = seq_proto(SendP(A), RecvP(A))
    step = seq_proto(u, StarXP(u))
    m = g.memory
    assert only_step(HComp(m, Pi0(DONE, step)), "loop-x-stop") == m.f
    new, name, _ = rewrite_step(HComp(m, Pi1(DONE, step)))
    assert (name, new) == ("loop-x-step", HComp(m.g, VComp(m.alpha, m)))


def test_loop_p_step():
    # [(!a)^p | I -> I | (!a)^p]: relay each sent dough, swapped
    step = seq_proto(SendP(A), StarPP(SendP(A)))
    body = VComp(VComp(GetL(A), SWAP), PutR(A))
    loop = IterP(body, Inj0(DONE, step), Inj1(DONE, step))
    new, name, _ = rewrite_step(HComp(Inj1(DONE, step), loop))
    assert (name, new) == ("loop-p-step", HComp(VComp(body, loop), loop.g))


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
    assert rewrite_step(r.result) is None
    assert not r.budget_exhausted


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
