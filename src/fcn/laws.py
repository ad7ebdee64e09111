"""Model-checked equality of cells and the named law suite.

Every law is a builder that returns a list of checks.  A check is a pair of
cells ``(c1, c2)``, or ``(c1, c2, cap)`` to sample at most ``cap`` inputs, or
``(c1, ref)`` with a reference map ``ref(pv, a) -> environment`` for c2.
Each check runs against one batch of inputs, an environment for the left
protocol plus a value for the top edge: all of them when the left protocol
is loop free and the carriers involved are finite and small, otherwise a
seeded random sample, with loop handles in the outputs compared to a bounded
observation depth.  When ``samples`` is 0 and the inputs cannot be
enumerated, a law skips the check and ``cells_equal`` raises NotEnumerable.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .errors import BoundaryMismatch, NotEnumerable
from .protocol import (
    ChooseP,
    DONE,
    OfferP,
    RecvP,
    SendP,
    StarPP,
    StarXP,
    has_loop,
    proto_factors,
    seq_proto,
)
from . import signature as sg
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
    boundaries_equal,
    infer_boundary,
)
from .semantics import Interp, pval_enumerate, pval_equal, pval_map
from .rewrite import rewrite
from . import derived as dv
from .gen import gen_cell, gen_interchange_quad, rand_pval, rand_value

DEFAULT_DEPTH = 4
DEFAULT_SAMPLES = 64
DEFAULT_SEED = 0xFCC

_ENUM_CAP = 4096
_ENUM_TOKENS = ("x0", "x1")


@dataclass(frozen=True)
class EqConfig:
    depth: int = DEFAULT_DEPTH
    samples: int = DEFAULT_SAMPLES
    seed: int = DEFAULT_SEED


@dataclass
class LawResult:
    law: str
    status: str  # "pass", "fail", or "skipped"
    instances: int
    detail: str = ""

    def __str__(self):
        n = f"{self.instances} instance{'s' if self.instances != 1 else ''}"
        line = f"{self.law:<34} {self.status:<8} {n}"
        if self.detail:
            line += f"  ({self.detail})"
        return line


def _inputs(bound, val, depth, samples, seed):
    """The (left environment, top value) inputs for cells of this boundary:
    every input when the space is small enough to enumerate, otherwise
    ``samples`` seeded random ones, or None when ``samples`` is 0."""
    left = proto_factors(bound.left)
    if not has_loop(bound.left):
        try:
            pvs = list(
                itertools.islice(
                    pval_enumerate(left, list(_ENUM_TOKENS), val), _ENUM_CAP + 1
                )
            )
            tops = list(sg.enumerate_values(bound.top, val))
            if len(pvs) * len(tops) <= _ENUM_CAP:
                return [(pv, a) for pv in pvs for a in tops]
        except NotEnumerable:
            pass
    if samples == 0:
        return None
    rng = random.Random(seed)
    counter = itertools.count()
    mk = lambda: f"s{next(counter)}"
    return [
        (rand_pval(rng, left, mk, val, depth), rand_value(rng, bound.top, val))
        for _ in range(samples)
    ]


def _check(sig, val, cfg, c1, c2, cap=None):
    """Does c1 agree with c2, a cell or a reference map, on every input?
    None when there are no inputs to try; BoundaryMismatch when c2 is a
    cell of another boundary."""
    bound = infer_boundary(c1, sig)
    interp = Interp(sig, val)
    if isinstance(c2, Cell):
        b2 = infer_boundary(c2, sig)
        if not boundaries_equal(bound, b2):
            raise BoundaryMismatch("cells_equal", str(bound), str(b2))
        want = lambda pv, a: interp.apply(c2, pv, a)
    else:
        want = c2
    samples = cfg.samples if cap is None else min(cfg.samples, cap)
    inputs = _inputs(bound, val, cfg.depth, samples, cfg.seed)
    if inputs is None:
        return None
    right = proto_factors(bound.right)
    return all(
        pval_equal(interp.apply(c1, pv, a), want(pv, a), right, cfg.depth)
        for pv, a in inputs
    )


def cells_equal(
    c1: Cell,
    c2: Cell,
    sig: sg.Signature,
    val: sg.Valuation,
    depth: int = DEFAULT_DEPTH,
    samples: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
) -> bool:
    """Do the two cells behave identically on a shared input batch?  Raises
    NotEnumerable when the inputs cannot be enumerated and ``samples`` is 0."""
    ok = _check(sig, val, EqConfig(depth, samples, seed), c1, c2)
    if ok is None:
        raise NotEnumerable("cells_equal needs sampled inputs")
    return ok


# ---------------------------------------------------------------------------
# The law suite


class _Ctx:
    def __init__(self, sig: sg.Signature, val: sg.Valuation, cfg: EqConfig):
        self.sig = sig
        self.val = val
        self.cfg = cfg
        names = sorted(sig.objects)
        if not names:
            raise NotEnumerable("the law suite needs at least one object")
        self.a = sg.GenObj(names[0])
        self.b = sg.GenObj(names[1 % len(names)])

    def rng(self, law: str) -> random.Random:
        return random.Random(f"{self.cfg.seed}:{law}")


def _law_result(ctx: _Ctx, law: str, checks) -> LawResult:
    ran = 0
    skipped = 0
    for i, check in enumerate(checks):
        try:
            ok = _check(ctx.sig, ctx.val, ctx.cfg, *check)
        except BoundaryMismatch:
            ok = False
        if ok is None:
            skipped += 1
        elif not ok:
            return LawResult(law, "fail", ran, f"instance {i}")
        else:
            ran += 1
    if ran == 0 and skipped > 0:
        return LawResult(law, "skipped", 0, "needs sampled inputs")
    detail = f"{skipped} skipped" if skipped else ""
    return LawResult(law, "pass", ran, detail)


# -- instance stock ---------------------------------------------------------


def _loopfree_protos(ctx):
    a, b = ctx.a, ctx.b
    return [
        SendP(a),
        RecvP(a),
        seq_proto(SendP(a), RecvP(b)),
        ChooseP(SendP(a), RecvP(b)),
        OfferP(SendP(a), DONE),
    ]


def _small_protos(ctx):
    a, b = ctx.a, ctx.b
    return [SendP(a), seq_proto(SendP(a), RecvP(b))]


def _golden_cells(ctx):
    a, b = ctx.a, ctx.b
    return [
        PutR(a),
        GetL(a),
        GetR(a),
        PutL(a),
        IdV(a),
        HComp(PutR(a), GetL(a)),
        VComp(PutR(a), GetR(b)),
        dv.crossing(SendP(a), b),
        dv.crossing(ChooseP(SendP(a), RecvP(b)), a),
        dv.offer_to_sum(a, b),
        dv.sum_to_offer(a, b),
    ]


# -- corner laws ------------------------------------------------------------


def _law_yank_send_h(ctx, law):
    return [
        (HComp(PutR(o), GetL(o)), IdV(o)) for o in (ctx.a, ctx.b)
    ]


def _law_yank_send_v(ctx, law):
    return [
        (VComp(GetL(o), PutR(o)), IdH(SendP(o))) for o in (ctx.a, ctx.b)
    ]


def _law_yank_recv_h(ctx, law):
    return [
        (HComp(GetR(o), PutL(o)), IdV(o)) for o in (ctx.a, ctx.b)
    ]


def _law_yank_recv_v(ctx, law):
    return [
        (VComp(GetR(o), PutL(o)), IdH(RecvP(o))) for o in (ctx.a, ctx.b)
    ]


# -- category and functor laws ----------------------------------------------


def _law_unit_beside(ctx, law):
    pairs = []
    for c in _golden_cells(ctx):
        b = infer_boundary(c, ctx.sig)
        pairs.append((HComp(IdH(b.left), c), c))
        pairs.append((HComp(c, IdH(b.right)), c))
    return pairs


def _law_unit_above(ctx, law):
    pairs = []
    for c in _golden_cells(ctx):
        b = infer_boundary(c, ctx.sig)
        pairs.append((VComp(IdV(b.top), c), c))
        pairs.append((VComp(c, IdV(b.bottom)), c))
    return pairs


def _law_assoc_beside(ctx, law):
    a, b = ctx.a, ctx.b
    pairs = []
    for c1 in (PutR(a), GetR(a), IdV(b)):
        bnd = infer_boundary(c1, ctx.sig)
        c2 = dv.crossing(bnd.right, b)
        c3 = dv.crossing(bnd.right, a)
        pairs.append(
            (HComp(HComp(c1, c2), c3), HComp(c1, HComp(c2, c3)))
        )
    return pairs


def _law_assoc_above(ctx, law):
    a, b = ctx.a, ctx.b
    pairs = []
    for u in (SendP(a), RecvP(b), ChooseP(SendP(a), DONE)):
        c1 = dv.crossing(u, a)
        c2 = dv.crossing(OfferP(RecvP(a), DONE), a)
        c3 = dv.crossing(RecvP(b), a)
        pairs.append(
            (VComp(VComp(c1, c2), c3), VComp(c1, VComp(c2, c3)))
        )
    return pairs


def _law_promote_id(ctx, law):
    return [(Promote(sg.Id(o)), IdV(o)) for o in (ctx.a, ctx.b)]


def _law_promote_compose(ctx, law):
    a, b = ctx.a, ctx.b
    f = sg.Braid(a, b)
    g = sg.Braid(b, a)
    return [
        (VComp(Promote(f), Promote(g)), Promote(sg.Compose(f, g))),
        (
            VComp(Promote(sg.Inj0(a, b)), Promote(sg.Id(sg.Sum(a, b)))),
            Promote(sg.Compose(sg.Inj0(a, b), sg.Id(sg.Sum(a, b)))),
        ),
    ]


def _law_promote_tensor(ctx, law):
    a, b = ctx.a, ctx.b
    return [
        (
            HComp(Promote(sg.Id(a)), Promote(sg.Id(b))),
            Promote(sg.TensorM(sg.Id(a), sg.Id(b))),
        ),
        (
            HComp(Promote(sg.Braid(a, b)), Promote(sg.Id(a))),
            Promote(sg.TensorM(sg.Braid(a, b), sg.Id(a))),
        ),
    ]


def _law_interchange(ctx, law):
    rng = ctx.rng(law)
    pairs = []
    for _ in range(25):
        a, b, c, d = gen_interchange_quad(rng, ctx.sig)
        pairs.append(
            (
                VComp(HComp(a, c), HComp(b, d)),
                HComp(VComp(a, b), VComp(c, d)),
            )
        )
    return pairs


# -- choice laws ------------------------------------------------------------


def _square_pairs(ctx):
    """(f, g) with equal left, top, and bottom but distinct behavior."""
    a, b = ctx.a, ctx.b
    f1 = IdV(a)
    g1 = dv.vchain(PutR(a), GetR(a))
    f2 = dv.crossing(SendP(b), a)
    g2 = VComp(f2, g1)
    return [(f1, g1), (f2, g2)]


def _law_choose_beta(ctx, law):
    pairs = []
    for f, g in _square_pairs(ctx):
        bf = infer_boundary(f, ctx.sig)
        bg = infer_boundary(g, ctx.sig)
        t = Times(f, g)
        pairs.append((HComp(t, Pi0(bf.right, bg.right)), f))
        pairs.append((HComp(t, Pi1(bf.right, bg.right)), g))
    return pairs


def _cosquare_pairs(ctx):
    """(f, g) with equal top, bottom, and right but distinct lefts."""
    a, b = ctx.a, ctx.b
    f1 = dv.vchain(PutR(a), GetR(a))
    g1 = dv.crossing(seq_proto(SendP(a), RecvP(a)), a)
    f2 = IdV(a)
    g2 = dv.crossing(DONE, a)
    return [(f1, g1), (f2, g2)]


def _law_offer_beta(ctx, law):
    pairs = []
    for f, g in _cosquare_pairs(ctx):
        bf = infer_boundary(f, ctx.sig)
        bg = infer_boundary(g, ctx.sig)
        p = Plus(f, g)
        pairs.append((HComp(Inj0(bf.left, bg.left), p), f))
        pairs.append((HComp(Inj1(bf.left, bg.left), p), g))
    return pairs


def _law_branch_beta(ctx, law):
    a, b = ctx.a, ctx.b
    f = Promote(sg.Inj0(a, b))
    g = Promote(sg.Inj1(a, b))
    c = CopairC(f, g)
    return [
        (VComp(Promote(sg.Inj0(a, b)), c), f),
        (VComp(Promote(sg.Inj1(a, b)), c), g),
    ]


def _law_pairing_surjective(ctx, law):
    a, b = ctx.a, ctx.b
    pairs = []
    hs = [
        Times(*_square_pairs(ctx)[0]),
        dv.crossing(ChooseP(SendP(a), RecvP(b)), a),
    ]
    for h in hs:
        bh = infer_boundary(h, ctx.sig)
        r = bh.right
        pairs.append(
            (
                Times(
                    HComp(h, Pi0(r.left, r.right)),
                    HComp(h, Pi1(r.left, r.right)),
                ),
                h,
            )
        )
    return pairs


def _law_copairing_surjective(ctx, law):
    a, b = ctx.a, ctx.b
    pairs = []
    hs = [
        Plus(*_cosquare_pairs(ctx)[0]),
        dv.crossing(OfferP(SendP(a), RecvP(b)), a),
    ]
    for h in hs:
        bh = infer_boundary(h, ctx.sig)
        l = bh.left
        pairs.append(
            (
                Plus(
                    HComp(Inj0(l.left, l.right), h),
                    HComp(Inj1(l.left, l.right), h),
                ),
                h,
            )
        )
    return pairs


def _law_copair_coincide(ctx, law):
    a, b = ctx.a, ctx.b
    f = sg.Inj0(a, b)
    g = sg.Inj1(a, b)
    return [
        (CopairC(Promote(f), Promote(g)), Promote(sg.Copair(f, g))),
        (
            CopairC(Promote(sg.Id(a)), Promote(sg.Id(a))),
            Promote(sg.Copair(sg.Id(a), sg.Id(a))),
        ),
    ]


def _branch_pairs(ctx):
    """(alpha, beta) suitable for a branching cell: same left, bottom,
    and right, with tops a and b."""
    a, b = ctx.a, ctx.b
    s = sg.Sum(a, b)
    return [
        (Promote(sg.Inj0(a, b)), Promote(sg.Inj1(a, b))),
        (
            VComp(Promote(sg.Inj0(a, b)), dv.vchain(PutR(s), GetR(a))),
            VComp(Promote(sg.Inj1(a, b)), dv.vchain(PutR(s), GetR(a))),
        ),
    ]


def _law_absorb_left(ctx, law):
    a, b = ctx.a, ctx.b
    pairs = []
    for alpha, beta in _branch_pairs(ctx):
        for gamma in (IdV(b), GetL(b), HComp(PutR(b), GetL(b))):
            bg = infer_boundary(gamma, ctx.sig)
            lhs = HComp(gamma, CopairC(alpha, beta))
            rhs = VComp(
                Promote(sg.DistL(a, b, bg.top)),
                CopairC(HComp(gamma, alpha), HComp(gamma, beta)),
            )
            pairs.append((lhs, rhs))
    return pairs


def _law_absorb_right(ctx, law):
    a, b = ctx.a, ctx.b
    pairs = []
    for alpha, beta in _branch_pairs(ctx):
        seam = infer_boundary(alpha, ctx.sig).right
        gammas = [dv.crossing(seam, b)]
        if not proto_factors(seam):
            gammas.append(dv.vchain(PutR(b), GetR(b)))
        for gamma in gammas:
            bg = infer_boundary(gamma, ctx.sig)
            lhs = HComp(CopairC(alpha, beta), gamma)
            rhs = VComp(
                Promote(sg.DistR(a, b, bg.top)),
                CopairC(HComp(alpha, gamma), HComp(beta, gamma)),
            )
            pairs.append((lhs, rhs))
    return pairs


def _law_absorb_above(ctx, law):
    a, b = ctx.a, ctx.b
    s = sg.Sum(a, b)
    pairs = []
    for alpha, beta in _branch_pairs(ctx):
        bb = infer_boundary(alpha, ctx.sig)
        for gamma in (IdV(bb.bottom), dv.vchain(PutR(bb.bottom), GetR(a))):
            lhs = VComp(CopairC(alpha, beta), gamma)
            rhs = CopairC(VComp(alpha, gamma), VComp(beta, gamma))
            pairs.append((lhs, rhs))
    return pairs


def _law_moral_equiv_send(ctx, law):
    a, b = ctx.a, ctx.b
    fwd = dv.offer_send_forward(a, b)
    bwd = dv.offer_send_backward(a, b)
    return [
        (HComp(fwd, bwd), IdH(OfferP(SendP(a), SendP(b)))),
        (HComp(bwd, fwd), IdH(SendP(sg.Sum(a, b)))),
    ]


def _law_moral_equiv_recv(ctx, law):
    a, b = ctx.a, ctx.b
    split = dv.recv_to_pair(a, b)
    join = dv.pair_to_recv(a, b)
    return [
        (HComp(split, join), IdH(RecvP(sg.Sum(a, b)))),
        (HComp(join, split), IdH(ChooseP(RecvP(a), RecvP(b)))),
    ]


# -- crossing laws ----------------------------------------------------------


def _law_crossing_tensor(ctx, law):
    a, b = ctx.a, ctx.b
    return [
        (
            dv.crossing(u, sg.Tensor((a, b))),
            HComp(dv.crossing(u, a), dv.crossing(u, b)),
        )
        for u in _loopfree_protos(ctx) + [StarXP(SendP(a)), StarPP(SendP(a))]
    ]


def _law_crossing_unit(ctx, law):
    return [
        (dv.crossing(u, sg.UNIT), IdH(u))
        for u in _loopfree_protos(ctx) + [StarXP(SendP(ctx.a))]
    ]


def _law_crossing_sum(ctx, law):
    a, b = ctx.a, ctx.b
    pairs = []
    for u in (SendP(a), RecvP(b), ChooseP(SendP(a), DONE)):
        lhs = dv.crossing(u, sg.Sum(a, b))
        rhs = CopairC(
            VComp(dv.crossing(u, a), Promote(sg.Inj0(a, b))),
            VComp(dv.crossing(u, b), Promote(sg.Inj1(a, b))),
        )
        pairs.append((lhs, rhs))
    return pairs


def _crossing_swap_pair(ctx, alpha, c):
    bnd = infer_boundary(alpha, ctx.sig)
    lhs = HComp(alpha, dv.crossing(bnd.right, c))
    rhs = VComp(
        VComp(
            Promote(sg.Braid(bnd.top, c)),
            HComp(dv.crossing(bnd.left, c), alpha),
        ),
        Promote(sg.Braid(c, bnd.bottom)),
    )
    return (lhs, rhs)


def _law_crossing_swap(ctx, law):
    rng = ctx.rng(law)
    pairs = [
        _crossing_swap_pair(ctx, alpha, ctx.b)
        for alpha in _golden_cells(ctx)
    ]
    for _ in range(10):
        pairs.append(_crossing_swap_pair(ctx, gen_cell(rng, ctx.sig), ctx.a))
    return pairs


def _carry_top(factors):
    """The crossing cell carries the top value across unchanged: each
    payload x becomes (x, a)."""
    return lambda pv, a: pval_map(pv, factors, lambda x: (x, a))


def _law_crossing_strength(ctx, law):
    protos = _loopfree_protos(ctx) + [StarXP(SendP(ctx.a)), StarPP(SendP(ctx.a))]
    return [
        (dv.crossing(u, ctx.a), _carry_top(proto_factors(u))) for u in protos
    ]


# -- iteration laws ---------------------------------------------------------


def _iterx_beta_pairs(ctx, m: IterX):
    ba = infer_boundary(m.alpha, ctx.sig)
    bf = infer_boundary(m.f, ctx.sig)
    _, stop, step = dv._x_unroll(ba.right)
    k = bf.right
    return [
        (HComp(m, VComp(Pi0(stop, step), IdH(k))), m.f),
        (
            HComp(m, VComp(Pi1(stop, step), IdH(k))),
            HComp(m.g, VComp(m.alpha, m)),
        ),
    ]


def _iterp_beta_pairs(ctx, m: IterP):
    ba = infer_boundary(m.alpha, ctx.sig)
    bf = infer_boundary(m.f, ctx.sig)
    _, stop, step = dv._p_unroll(ba.left)
    k = bf.left
    return [
        (HComp(VComp(Inj0(stop, step), IdH(k)), m), m.f),
        (
            HComp(VComp(Inj1(stop, step), IdH(k)), m),
            HComp(VComp(m.alpha, m), m.g),
        ),
    ]


def _law_loop_x_beta(ctx, law):
    a, b = ctx.a, ctx.b
    ms = [
        dv.simple_iter_x(dv.crossing(SendP(a), b), ctx.sig),
        dv.memory_cell(a),
        dv.dup_x(SendP(a)),
        dv.duplicate_x(SendP(a)),
    ]
    pairs = []
    for m in ms:
        pairs.extend(_iterx_beta_pairs(ctx, m))
    return pairs


def _law_loop_p_beta(ctx, law):
    a, b = ctx.a, ctx.b
    ms = [
        dv.simple_iter_p(dv.crossing(SendP(a), b), ctx.sig),
        dv.merge_p(SendP(a)),
        dv.flatten_p(SendP(a)),
    ]
    pairs = []
    for m in ms:
        pairs.extend(_iterp_beta_pairs(ctx, m))
    return pairs


def _law_loop_x_mediate(ctx, law):
    pairs = []
    for u in _small_protos(ctx):
        _, stop, step = dv._x_unroll(u)
        for h in (
            IdH(StarXP(u)),
            Times(Pi0(stop, step), Pi1(stop, step)),
        ):
            med = IterX(
                IdH(u),
                HComp(h, Pi0(stop, step)),
                HComp(h, Pi1(stop, step)),
            )
            lhs = HComp(
                h,
                Times(
                    Pi0(stop, step),
                    HComp(Pi1(stop, step), VComp(IdH(u), med)),
                ),
            )
            pairs.append((lhs, med))
    return pairs


def _law_comonoid_x(ctx, law):
    pairs = []
    heavy = []
    for u in _small_protos(ctx):
        star = StarXP(u)
        d = dv.dup_x(u)
        e = dv.counit_x(u)
        i = IdH(star)
        pairs.append((HComp(d, VComp(e, i)), i))
        pairs.append((HComp(d, VComp(i, e)), i))
        # Coassociativity triples the loop nesting on the right boundary, so
        # full-depth observation is costly; a few inputs cover the code paths.
        heavy.append((HComp(d, VComp(d, i)), HComp(d, VComp(i, d)), 4))
    return pairs + heavy


def _law_monoid_p(ctx, law):
    pairs = []
    for u in _small_protos(ctx):
        star = StarPP(u)
        n = dv.merge_p(u)
        e = dv.unit_p(u)
        i = IdH(star)
        pairs.append((HComp(VComp(e, i), n), i))
        pairs.append((HComp(VComp(i, e), n), i))
        pairs.append((HComp(VComp(n, i), n), HComp(VComp(i, n), n)))
    return pairs


def _law_comonoid_x_natural(ctx, law):
    a, b = ctx.a, ctx.b
    pairs = []
    for h in (Pi0(SendP(a), RecvP(b)), dv.extract_x(SendP(a))):
        bh = infer_boundary(h, ctx.sig)
        hx = dv.simple_iter_x(h, ctx.sig)
        lhs = HComp(dv.dup_x(bh.left), VComp(hx, hx))
        rhs = HComp(hx, dv.dup_x(bh.right))
        pairs.append((lhs, rhs))
    return pairs


def _law_monoid_p_natural(ctx, law):
    a, b = ctx.a, ctx.b
    pairs = []
    for h in (Inj0(SendP(a), RecvP(b)), dv.insert_p(SendP(a))):
        bh = infer_boundary(h, ctx.sig)
        hp = dv.simple_iter_p(h, ctx.sig)
        lhs = HComp(dv.merge_p(bh.left), hp)
        rhs = HComp(VComp(hp, hp), dv.merge_p(bh.right))
        pairs.append((lhs, rhs))
    return pairs


def _law_comonad_x(ctx, law):
    pairs = []
    heavy = []
    for u in _small_protos(ctx):
        star = StarXP(u)
        d = dv.duplicate_x(u)
        i = IdH(star)
        pairs.append((HComp(d, dv.extract_x(star)), i))
        pairs.append(
            (HComp(d, dv.simple_iter_x(dv.extract_x(u), ctx.sig)), i)
        )
        heavy.append(
            (
                HComp(d, dv.duplicate_x(star)),
                HComp(d, dv.simple_iter_x(dv.duplicate_x(u), ctx.sig)),
                2,
            )
        )
    # Coassociativity compares environments over a triply nested loop
    # protocol, whose observation cost explodes with depth; a couple of
    # inputs at full depth already exercise every code path.
    return pairs + heavy[:1]


def _law_monad_p(ctx, law):
    pairs = []
    for u in _small_protos(ctx):
        star = StarPP(u)
        m = dv.flatten_p(u)
        i = IdH(star)
        pairs.append((HComp(dv.insert_p(star), m), i))
        pairs.append(
            (HComp(dv.simple_iter_p(dv.insert_p(u), ctx.sig), m), i)
        )
        pairs.append(
            (
                HComp(dv.flatten_p(star), m),
                HComp(dv.simple_iter_p(dv.flatten_p(u), ctx.sig), m),
            )
        )
    return pairs


# -- rewriter soundness -----------------------------------------------------


def _law_rewrite_sound(ctx, law):
    rng = ctx.rng(law)
    cells = list(_golden_cells(ctx))
    for _ in range(20):
        cells.append(gen_cell(rng, ctx.sig))
    return [(c, rewrite(c).result) for c in cells]


LAWS = [
    ("absorb-above", _law_absorb_above),
    ("absorb-left", _law_absorb_left),
    ("absorb-right", _law_absorb_right),
    ("assoc-above", _law_assoc_above),
    ("assoc-beside", _law_assoc_beside),
    ("branch-beta", _law_branch_beta),
    ("choose-beta", _law_choose_beta),
    ("comonad-x", _law_comonad_x),
    ("comonoid-x", _law_comonoid_x),
    ("comonoid-x-natural", _law_comonoid_x_natural),
    ("copair-coincide", _law_copair_coincide),
    ("copairing-surjective", _law_copairing_surjective),
    ("crossing-strength", _law_crossing_strength),
    ("crossing-sum", _law_crossing_sum),
    ("crossing-swap", _law_crossing_swap),
    ("crossing-tensor", _law_crossing_tensor),
    ("crossing-unit", _law_crossing_unit),
    ("interchange", _law_interchange),
    ("loop-p-beta", _law_loop_p_beta),
    ("loop-x-beta", _law_loop_x_beta),
    ("loop-x-mediate", _law_loop_x_mediate),
    ("monad-p", _law_monad_p),
    ("monoid-p", _law_monoid_p),
    ("monoid-p-natural", _law_monoid_p_natural),
    ("moral-equiv-recv", _law_moral_equiv_recv),
    ("moral-equiv-send", _law_moral_equiv_send),
    ("offer-beta", _law_offer_beta),
    ("pairing-surjective", _law_pairing_surjective),
    ("promote-compose", _law_promote_compose),
    ("promote-id", _law_promote_id),
    ("promote-tensor", _law_promote_tensor),
    ("rewrite-sound", _law_rewrite_sound),
    ("unit-above", _law_unit_above),
    ("unit-beside", _law_unit_beside),
    ("yank-recv-h", _law_yank_recv_h),
    ("yank-recv-v", _law_yank_recv_v),
    ("yank-send-h", _law_yank_send_h),
    ("yank-send-v", _law_yank_send_v),
]


def run_laws(sig: sg.Signature, val: sg.Valuation, cfg: EqConfig = None, names=None):
    """Run every named law over the given signature, or only the laws in
    ``names`` when given. Returns LawResults sorted by law name."""
    if cfg is None:
        cfg = EqConfig()
    if names is not None:
        wanted = set(names)
        unknown = wanted - {name for name, _ in LAWS}
        if unknown:
            raise KeyError(f"unknown laws: {sorted(unknown)}")
        picked = [(n, f) for n, f in LAWS if n in wanted]
    else:
        picked = LAWS
    ctx = _Ctx(sig, val, cfg)
    return [
        _law_result(ctx, name, build(ctx, name)) for name, build in sorted(picked)
    ]
