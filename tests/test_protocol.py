import gc
import weakref

import pytest
from hypothesis import given, strategies as st

from fcn import signature as sg
from fcn.cells import HComp, IdH, Pi0, infer_boundary
from fcn.errors import BoundaryMismatch
from fcn.protocol import (
    CHOOSE,
    END,
    LOOP_P,
    LOOP_X,
    OFFER,
    RECV,
    SEND,
    ChooseP,
    DONE,
    OfferP,
    RecvP,
    SendP,
    SeqP,
    StarPP,
    StarXP,
    normalize_proto,
    proto_equal,
    proto_factors,
    proto_steps,
    seq_proto,
)
from fcn.semantics import pval_enumerate, pval_show

A = sg.GenObj("a")
B = sg.GenObj("b")

SEND_A = SendP(A)
RECV_B = RecvP(B)


protos = st.recursive(
    st.sampled_from([SEND_A, RECV_B, DONE]),
    lambda kids: st.one_of(
        st.tuples(kids, kids).map(lambda p: SeqP(p)),
        st.tuples(kids, kids).map(lambda p: ChooseP(*p)),
        st.tuples(kids, kids).map(lambda p: OfferP(*p)),
        kids.map(StarXP),
        kids.map(StarPP),
    ),
    max_leaves=6,
)


@given(protos)
def test_normalize_idempotent(p):
    # normal input comes back as the same object, not a rebuilt copy
    n = normalize_proto(p)
    assert normalize_proto(n) is n
    for f in proto_factors(n):
        assert normalize_proto(f) is f


@given(protos)
def test_factors_flat_and_done_free(p):
    for f in proto_factors(p):
        assert not isinstance(f, SeqP)
        assert f != DONE


@given(protos)
def test_proto_equal_reflexive(p):
    assert proto_equal(p, p)


def test_done_is_empty_seq():
    assert normalize_proto(SeqP(())) == DONE
    assert seq_proto(DONE, SEND_A, DONE) == SEND_A
    assert seq_proto() == DONE


def test_seq_flattens():
    p = SeqP((SeqP((SEND_A, RECV_B)), SEND_A))
    assert proto_factors(p) == (SEND_A, RECV_B, SEND_A)


def test_star_unfold_equal():
    star = StarXP(SEND_A)
    assert proto_equal(star, ChooseP(DONE, SeqP((SEND_A, star))))
    plus = StarPP(SEND_A)
    assert proto_equal(plus, OfferP(DONE, SeqP((SEND_A, plus))))
    assert not proto_equal(star, plus)
    assert not proto_equal(star, StarXP(RecvP(A)))


def test_unroll_folds_back():
    star = StarXP(SEND_A)
    assert normalize_proto(ChooseP(DONE, seq_proto(SEND_A, star))) == star
    plus = StarPP(seq_proto(SEND_A, RECV_B))
    assert (
        normalize_proto(OfferP(DONE, seq_proto(SEND_A, RECV_B, plus))) == plus
    )
    # a genuinely different left arm must not fold
    kept = normalize_proto(ChooseP(RECV_B, seq_proto(SEND_A, star)))
    assert isinstance(kept, ChooseP)


def test_nested_star_unfold_equal():
    inner = StarXP(SEND_A)
    outer = StarXP(inner)
    unrolled = ChooseP(DONE, SeqP((inner, outer)))
    assert proto_equal(outer, unrolled)
    assert proto_equal(unrolled, ChooseP(DONE, seq_proto(inner, outer)))


def test_unroll_of_a_done_loop_folds_back():
    # I x I^x is I^x, and I + I^p is I^p
    for star, branch in ((StarXP, ChooseP), (StarPP, OfferP)):
        loop = star(DONE)
        assert normalize_proto(branch(DONE, SeqP((DONE, loop)))) == loop
        assert normalize_proto(branch(DONE, loop)) == loop


def unroll_some(p, rnd):
    """p with each loop, at random, replaced by its one-step unrolling
    U^x = done & (U . U^x) or U^p = done + (U . U^p), built raw."""
    if isinstance(p, SeqP):
        return SeqP(tuple(unroll_some(x, rnd) for x in p.parts))
    if isinstance(p, (ChooseP, OfferP)):
        return type(p)(unroll_some(p.left, rnd), unroll_some(p.right, rnd))
    if isinstance(p, (StarXP, StarPP)):
        loop = type(p)(unroll_some(p.body, rnd))
        if rnd.random() < 0.5:
            return loop
        branch = ChooseP if isinstance(p, StarXP) else OfferP
        return branch(DONE, SeqP((unroll_some(p.body, rnd), loop)))
    return p


@given(protos, st.randoms(use_true_random=False), st.integers(1, 3))
def test_unrolling_keeps_the_normal_form(p, rnd, rounds):
    q = p
    for _ in range(rounds):
        q = unroll_some(q, rnd)
    assert normalize_proto(q) == normalize_proto(p)
    assert proto_equal(p, q)


def test_proto_equal_distinguishes_choice_sides():
    assert not proto_equal(ChooseP(SEND_A, RECV_B), ChooseP(RECV_B, SEND_A))
    assert not proto_equal(OfferP(SEND_A, RECV_B), ChooseP(SEND_A, RECV_B))


def test_factor_lists_do_not_pin_terms():
    # freshly built terms, never normalized before
    p = SeqP((SEND_A, SeqP((StarXP(SeqP((RECV_B, DONE))), SEND_A))))
    e = sg.Tensor((A, sg.Tensor((B, sg.UNIT))))
    u = SeqP((SendP(sg.Tensor((A, B))), RECV_B))
    c = HComp(IdH(u), IdH(SeqP((u, DONE))))
    sig = sg.Signature()
    for name in ("a", "b"):
        sig.declare_object(name)
    assert len(proto_factors(p)) == 3
    assert sg.obj_factors(e) == (A, B)
    assert infer_boundary(c, sig).left == seq_proto(SendP(sg.tensor_obj(A, B)), RECV_B)
    refs = [weakref.ref(x) for x in (p, e, u, c, c.b.proto)]
    del p, e, u, c
    gc.collect()
    assert [r() for r in refs] == [None] * len(refs)


def test_sequence_does_not_distribute_over_branch():
    # (U & W) . V and (U . V) & (W . V) have the same environments, but
    # proto_equal keeps them apart, so only the second meets a projection
    # (see the module docstring).
    val = sg.Valuation(carriers={"a": ("a1",), "b": ("b1", "b2")})
    sig = sg.Signature()
    for name in ("a", "b"):
        sig.declare_object(name)
    u, w, v = SEND_A, RECV_B, SEND_A
    for branch in (ChooseP, OfferP):
        before = seq_proto(branch(u, w), v)
        after = branch(seq_proto(u, v), seq_proto(w, v))
        assert not proto_equal(before, after)
        leaf = iter(range(100)).__next__
        envs = list(pval_enumerate(proto_steps(before), leaf, val))
        assert [pval_show(e, proto_steps(before)) for e in envs] == [
            pval_show(e, proto_steps(after)) for e in envs
        ]
    pick = Pi0(seq_proto(u, v), seq_proto(w, v))
    infer_boundary(HComp(IdH(ChooseP(seq_proto(u, v), seq_proto(w, v))), pick), sig)
    with pytest.raises(BoundaryMismatch):
        infer_boundary(HComp(IdH(seq_proto(ChooseP(u, w), v)), pick), sig)


# ---------------------------------------------------------------------------
# Step chains: the walkers' view of a factor list


@given(protos)
def test_steps_follow_the_factor_list(p):
    steps = proto_steps(p)
    assert proto_steps(p) is steps  # built once per protocol object
    node, heads = steps, []
    while node is not END:
        assert node.factors == proto_factors(p)[len(heads):]
        heads.append(node.head)
        node = node.rest
    assert tuple(heads) == proto_factors(p)


def test_a_loop_step_returns_to_the_loop_node():
    for star in (StarXP, StarPP):
        loop = star(seq_proto(SEND_A, RECV_B))
        steps = proto_steps(seq_proto(RECV_B, loop, SEND_A))
        node = steps.rest
        assert node.kind == (LOOP_X if star is StarXP else LOOP_P)
        stop, step = node.sides
        assert stop is node.rest and stop.head == SEND_A
        assert (step.kind, step.rest.kind) == (SEND, RECV)
        assert step.rest.rest is node  # a finite graph, not an unrolling
        assert step.factors == (SEND_A, RECV_B) + node.factors
        assert node.sides is node.sides  # built once, on first read
        body, alone = node.parts
        assert body is proto_steps(loop.body) and alone is proto_steps(loop)
        assert alone.rest is END


def test_branch_sides_end_with_the_rest():
    for branch, kind in ((ChooseP, CHOOSE), (OfferP, OFFER)):
        steps = proto_steps(seq_proto(branch(SEND_A, seq_proto(RECV_B, SEND_A)), RECV_B))
        assert steps.kind == kind
        left, right = steps.sides
        assert left.factors == (SEND_A, RECV_B) and left.rest is steps.rest
        assert right.factors == (RECV_B, SEND_A, RECV_B) and right.rest.rest is steps.rest
        with pytest.raises(AttributeError):
            steps.parts  # only a loop, whose walkers count rounds, has parts
