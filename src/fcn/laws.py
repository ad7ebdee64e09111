"""Model-checked equality of cells and the named law suite.

Every law builds a list of checks.  A check is a pair of cells ``(c1, c2)``,
or ``(c1, c2, cap)`` to sample at most ``cap`` inputs, or ``(c1, ref)`` with
a reference map ``ref(pv, a) -> environment`` for c2.  Most laws are written
as equations in the surface syntax, ``putR o | getL o = 1 o``, read once for
each binding of their metavariables, and the bindings are text too.  Python
builds only what text cannot say: random cells, reference maps and the
rewriter's own output.

Each check runs once per shape of input, an environment for the left
protocol plus a value for the top edge.  A cell moves, copies and drops
payloads but cannot look at them, so one input per shape with its leaves
labelled apart decides every payload assignment (Wadler, *Theorems for
Free!*, 1989).  The inputs are every shape, enumerated with its leaves
labelled apart, when the left protocol is loop free and its carriers are
finite and small; otherwise the distinct shapes among ``samples`` seeded
random draws, with loop handles in the outputs compared to a bounded
observation depth.  In both modes no two inputs share a shape.  When
``samples`` is 0 and the inputs cannot be enumerated, a law skips the check
and ``cells_equal`` raises NotEnumerable.

Laws share no state, so ``run_laws`` runs them in forked worker processes,
one per usable CPU; the rows come back in name order.  When a worker dies,
its law and every law after it in name order get an ``error`` row.
"""

from __future__ import annotations

import itertools
import os
import random
from dataclasses import dataclass

from .errors import BoundaryMismatch, FcnError, NotEnumerable
from .protocol import proto_steps
from . import signature as sg
from .cells import Cell, boundaries_equal, infer_boundary
from .parser import Document, bind, parse_term
from .semantics import (
    _ENUM_CAP, Interp, pval_count, pval_enumerate, pval_equal, pval_map, pval_shape,
)
from .rewrite import rewrite
from .gen import gen_cell, gen_interchange_quad, rand_pval, rand_value

DEFAULT_DEPTH = 4
DEFAULT_SAMPLES = 64
DEFAULT_SEED = 0xFCC


@dataclass(frozen=True)
class EqConfig:
    depth: int = DEFAULT_DEPTH
    samples: int = DEFAULT_SAMPLES
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        # a negative count would observe or draw nothing, and pass
        for name, value in (("depth", self.depth), ("samples", self.samples)):
            if value < 0:
                raise FcnError(f"{name} must be at least 0, got {value}")


@dataclass
class LawResult:
    law: str
    status: str  # "pass", "fail", "error", or "skipped"
    instances: int
    detail: str = ""

    def __str__(self):
        n = f"{self.instances} instance{'s' if self.instances != 1 else ''}"
        line = f"{self.law:<34} {self.status:<8} {n}"
        if self.detail:
            line += f"  ({self.detail})"
        return line


def _inputs(bound, val, depth, samples, seed):
    """The (left environment, top value) inputs for cells of this boundary,
    one per shape: every shape when there are at most _ENUM_CAP of them,
    its leaves labelled u0, u1, ... apart, with each top value; otherwise
    the distinct shapes among ``samples`` seeded random draws, labelled s0,
    s1, ..., or None when ``samples`` is 0."""
    left = proto_steps(bound.left)
    try:
        # count the shapes first: past the cap nothing is built
        tops = list(sg.enumerate_values(bound.top, val))
        if pval_count(left, val) * len(tops) <= _ENUM_CAP:
            count = itertools.count()
            pvs = pval_enumerate(left, lambda: f"u{next(count)}", val)
            return [(pv, a) for pv in pvs for a in tops]
    except NotEnumerable:
        # a loop factor or an infinite carrier: sample instead
        pass
    if samples == 0:
        return None
    rng, counter = random.Random(seed), itertools.count()
    mk = lambda: f"s{next(counter)}"
    # two draws share a shape key exactly when they are equal up to
    # renaming leaves; the first draw of each key is kept
    inputs = {}
    for _ in range(samples):
        pv = rand_pval(rng, left, mk, val, depth)
        a = rand_value(rng, bound.top, val)
        inputs.setdefault((pval_shape(pv, left), a), (pv, a))
    return list(inputs.values())


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
    right = proto_steps(bound.right)
    # both outputs go straight into pval_equal, which frees each part it has
    # compared when nothing else holds the output
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


def _law_result(ctx: _Ctx, law: str, build) -> LawResult:
    try:
        checks = build(ctx, law)
    except FcnError as exc:
        # an instance that cannot be built, such as an ill-typed cell
        return LawResult(law, "fail", 0, f"build: {type(exc).__name__}: {exc}")
    ran = 0
    skipped = 0
    for i, check in enumerate(checks):
        try:
            ok = _check(ctx.sig, ctx.val, ctx.cfg, *check)
        except FcnError:
            ok = False
        except Exception as exc:
            # a fault in the engine itself: report it and go on
            detail = f"instance {i}: {type(exc).__name__}: {exc}"
            return LawResult(law, "error", ran, detail)
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


# -- equations --------------------------------------------------------------
#
# A law written as text is a list of rows (equations, domain) or (equations,
# domain, cap).  Each equation `cell = cell` is read in the surface syntax
# once per binding of the row's metavariables (`parser.bind`), in the order
# the domain lists them: a list of bindings, or a function (ctx, law) that
# generates one.  a and b always name two objects of the signature.


def _bind(ctx, binding) -> Document:
    return bind(ctx.sig, ctx.val, binding, {"a": ctx.a, "b": ctx.b})


def _eqs(*rows):
    """The build of a law written as the given rows."""

    def build(ctx, law):
        checks = []
        for eqs, domain, *cap in rows:
            for binding in domain(ctx, law) if callable(domain) else domain:
                doc = _bind(ctx, binding)
                checks += [(*parse_term(eq, "equation", doc), *cap) for eq in eqs]
        return checks

    return build


# -- domains ----------------------------------------------------------------

_O = [{"o": "a"}, {"o": "b"}]
_U3 = [{"U": "send a"}, {"U": "recv b"}, {"U": "send a x I"}]
_LOOPFREE = [
    {"U": u}
    for u in ("send a", "recv a", "send a * recv b", "send a x recv b", "send a + I")
]
_LOOPS = [{"U": "(send a)^x"}, {"U": "(send a)^+"}]
_SMALL = [{"U": "send a"}, {"U": "send a * recv b"}]

# [send a + send b | I -> a (+) b | I]: tag whichever value was offered;
# [I | a (+) b -> I | send a + send b]: send the value under its tag
_OFFER_TO_SUM = "plus(getL a / [inj0(a, b)], getL b / [inj1(a, b)])"
_SUM_TO_OFFER = "copair(putR a | in0{send a, send b}, putR b | in1{send a, send b})"

# cells of many shapes
_GOLDEN = [{"c": c} for c in (
    "putR a", "getL a", "getR a", "putL a", "1 a", "putR a | getL a",
    "putR a / getR b", "cross{send a, b}", "cross{send a x recv b, a}",
    _OFFER_TO_SUM, _SUM_TO_OFFER,
)]

# (f, g) for a branching cell: the same left, bottom and right, tops a and b
_BRANCH = [
    {"f": "[inj0(a, b)]", "g": "[inj1(a, b)]"},
    {
        "f": "[inj0(a, b)] / (putR (a (+) b) / getR a)",
        "g": "[inj1(a, b)] / (putR (a (+) b) / getR a)",
    },
]


def _quads(ctx, law):
    rng = ctx.rng(law)
    return [dict(zip("fghk", gen_interchange_quad(rng, ctx.sig))) for _ in range(25)]


def _random_cells(ctx, law):
    rng = ctx.rng(law)
    return [{"c": gen_cell(rng, ctx.sig), "o": ctx.a} for _ in range(10)]


def _parts(*loops):
    """A domain that binds c, f and g to the parts of each loop, a text:
    the equations rebuild it as iterX(c; f; g) or iterP(c; f; g)."""

    def domain(ctx, law):
        ms = [parse_term(m, "cell", _bind(ctx, {})) for m in loops]
        return [{"c": m.alpha, "f": m.f, "g": m.g} for m in ms]

    return domain


# -- laws that text cannot say ----------------------------------------------


def _carry_top(steps):
    """The crossing cell carries the top value across unchanged: each
    payload x becomes (x, a)."""
    return lambda pv, a: pval_map(pv, steps, lambda x: (x, a))


def _law_crossing_strength(ctx, law):
    checks = []
    for u in _LOOPFREE + _LOOPS:
        doc = _bind(ctx, u)
        top = _carry_top(proto_steps(doc.protocols["U"]))
        checks.append((parse_term("cross{U, a}", "cell", doc), top))
    return checks


def _law_rewrite_sound(ctx, law):
    rng = ctx.rng(law)
    cells = [_bind(ctx, c).cells["c"].term for c in _GOLDEN]
    cells += [gen_cell(rng, ctx.sig) for _ in range(20)]
    return [(c, rewrite(c).result) for c in cells]


_SWAP = "c | cross{cR, o} = [braid(cT, o)] / (cross{cL, o} | c) / [braid(o, cB)]"

LAWS = [
    # corners
    ("yank-send-h", _eqs((["putR o | getL o = 1 o"], _O))),
    ("yank-send-v", _eqs((["getL o / putR o = id (send o)"], _O))),
    ("yank-recv-h", _eqs((["getR o | putL o = 1 o"], _O))),
    ("yank-recv-v", _eqs((["getR o / putL o = id (recv o)"], _O))),
    # categories and functors
    ("unit-beside", _eqs((["id cL | c = c", "c | id cR = c"], _GOLDEN))),
    ("unit-above", _eqs((["1 cT / c = c", "c / 1 cB = c"], _GOLDEN))),
    ("assoc-beside", _eqs((
        ["(c | cross{cR, b}) | cross{cR, a} = c | (cross{cR, b} | cross{cR, a})"],
        [{"c": "putR a"}, {"c": "getR a"}, {"c": "1 b"}],
    ))),
    ("assoc-above", _eqs((
        ["(cross{U, a} / cross{recv a + I, a}) / cross{recv b, a}"
         " = cross{U, a} / (cross{recv a + I, a} / cross{recv b, a})"],
        _U3,
    ))),
    ("promote-id", _eqs((["[id o] = 1 o"], _O))),
    ("promote-compose", _eqs((
        ["[braid(a, b)] / [braid(b, a)] = [braid(a, b); braid(b, a)]",
         "[inj0(a, b)] / [id (a (+) b)] = [inj0(a, b); id (a (+) b)]"],
        [{}],
    ))),
    ("promote-tensor", _eqs((
        ["[id a] | [id b] = [id a * id b]",
         "[braid(a, b)] | [id a] = [braid(a, b) * id a]"],
        [{}],
    ))),
    ("interchange", _eqs((["(f | h) / (g | k) = (f / g) | (h / k)"], _quads))),
    # choice
    ("choose-beta", _eqs((
        ["times(f, g) | pi0{fR, gR} = f", "times(f, g) | pi1{fR, gR} = g"],
        [{"f": "1 a", "g": "putR a / getR a"},
         {"f": "cross{send b, a}", "g": "cross{send b, a} / (putR a / getR a)"}],
    ))),
    ("offer-beta", _eqs((
        ["in0{fL, gL} | plus(f, g) = f", "in1{fL, gL} | plus(f, g) = g"],
        [{"f": "putR a / getR a", "g": "cross{send a * recv a, a}"},
         {"f": "1 a", "g": "cross{I, a}"}],
    ))),
    ("branch-beta", _eqs((
        ["[inj0(a, b)] / copair(f, g) = f", "[inj1(a, b)] / copair(f, g) = g"],
        _BRANCH[:1],
    ))),
    ("pairing-surjective", _eqs((
        ["times(h | pi0{P, Q}, h | pi1{P, Q}) = h"],
        [{"h": "times(1 a, putR a / getR a)", "P": "I", "Q": "send a * recv a"},
         {"h": "cross{send a x recv b, a}", "P": "send a", "Q": "recv b"}],
    ))),
    ("copairing-surjective", _eqs((
        ["plus(in0{P, Q} | h, in1{P, Q} | h) = h"],
        [{"h": "plus(putR a / getR a, cross{send a * recv a, a})",
          "P": "I", "Q": "send a * recv a"},
         {"h": "cross{send a + recv b, a}", "P": "send a", "Q": "recv b"}],
    ))),
    ("copair-coincide", _eqs((
        ["copair([inj0(a, b)], [inj1(a, b)]) = [copair(inj0(a, b), inj1(a, b))]",
         "copair([id a], [id a]) = [copair(id a, id a)]"],
        [{}],
    ))),
    ("absorb-left", _eqs((
        ["h | copair(f, g) = [distL(a, b, hT)] / copair(h | f, h | g)"],
        [{**p, "h": h} for p in _BRANCH for h in ("1 b", "getL b", "putR b | getL b")],
    ))),
    ("absorb-right", _eqs((
        ["copair(f, g) | h = [distR(a, b, hT)] / copair(f | h, g | h)"],
        [{**_BRANCH[0], "h": "cross{fR, b}"}, {**_BRANCH[0], "h": "putR b / getR b"},
         {**_BRANCH[1], "h": "cross{fR, b}"}],
    ))),
    ("absorb-above", _eqs((
        ["copair(f, g) / h = copair(f / h, g / h)"],
        [{**p, "h": h} for p in _BRANCH for h in ("1 fB", "putR fB / getR a")],
    ))),
    ("moral-equiv-send", _eqs((
        ["f | g = id (send a + send b)", "g | f = id (send (a (+) b))"],
        # [send a + send b | I -> I | send (a (+) b)] and back
        [{"f": f"{_OFFER_TO_SUM} / putR (a (+) b)",
          "g": f"getL (a (+) b) / {_SUM_TO_OFFER}"}],
    ))),
    ("moral-equiv-recv", _eqs((
        ["f | g = id (recv (a (+) b))", "g | f = id (recv a x recv b)"],
        # [recv (a (+) b) | I -> I | recv a x recv b]: split a tagged
        # receiver; [recv a x recv b | I -> I | recv (a (+) b)]: merge two
        [{"f": "times(getR a / [inj0(a, b)] / putL (a (+) b),"
               " getR b / [inj1(a, b)] / putL (a (+) b))",
          "g": "getR (a (+) b)"
               " / copair(pi0{recv a, recv b} | putL a, pi1{recv a, recv b} | putL b)"}],
    ))),
    # crossings
    ("crossing-tensor", _eqs((
        ["cross{U, a * b} = cross{U, a} | cross{U, b}"], _LOOPFREE + _LOOPS,
    ))),
    ("crossing-unit", _eqs((["cross{U, I} = id U"], _LOOPFREE + _LOOPS[:1]))),
    ("crossing-sum", _eqs((
        ["cross{U, a (+) b}"
         " = copair(cross{U, a} / [inj0(a, b)], cross{U, b} / [inj1(a, b)])"],
        _U3,
    ))),
    ("crossing-swap", _eqs(
        ([_SWAP], [{**c, "o": "b"} for c in _GOLDEN]),
        ([_SWAP], _random_cells),
    )),
    ("crossing-strength", _law_crossing_strength),
    # iteration
    ("loop-x-beta", _eqs((
        ["iterX(c; f; g) | (pi0{I, cR * cR^x} / id fR) = f",
         "iterX(c; f; g) | (pi1{I, cR * cR^x} / id fR) = g | (c / iterX(c; f; g))"],
        _parts(
            "iterXs(cross{send a, b})", "iterX(putR a / getR a; 1 a; id I)",
            "deltaX{send a}", "dX{send a}",
        ),
    ))),
    ("loop-p-beta", _eqs((
        ["(in0{I, cL * cL^+} / id fL) | iterP(c; f; g) = f",
         "(in1{I, cL * cL^+} / id fL) | iterP(c; f; g) = (c / iterP(c; f; g)) | g"],
        _parts("iterPs(cross{send a, b})", "nablaP{send a}", "muP{send a}"),
    ))),
    ("loop-x-mediate", _eqs((
        ["h | times(pi0{I, U * U^x}, pi1{I, U * U^x} | (id U / m)) = m"],
        [{**u, "h": h, "m": "iterX(id U; h | pi0{I, U * U^x}; h | pi1{I, U * U^x})"}
         for u in _SMALL
         for h in ("id (U^x)", "times(pi0{I, U * U^x}, pi1{I, U * U^x})")],
    ))),
    ("comonoid-x", _eqs(
        (["deltaX{U} | (pi0{I, U * U^x} / id (U^x)) = id (U^x)",
          "deltaX{U} | (id (U^x) / pi0{I, U * U^x}) = id (U^x)"], _SMALL),
        # Coassociativity triples the loop nesting on the right boundary, so
        # full-depth observation is costly; a few inputs cover the code paths.
        (["deltaX{U} | (deltaX{U} / id (U^x)) = deltaX{U} | (id (U^x) / deltaX{U})"],
         _SMALL, 4),
    )),
    ("monoid-p", _eqs((
        ["(in0{I, U * U^+} / id (U^+)) | nablaP{U} = id (U^+)",
         "(id (U^+) / in0{I, U * U^+}) | nablaP{U} = id (U^+)",
         "(nablaP{U} / id (U^+)) | nablaP{U} = (id (U^+) / nablaP{U}) | nablaP{U}"],
        _SMALL,
    ))),
    ("comonoid-x-natural", _eqs((
        ["deltaX{hL} | (iterXs(h) / iterXs(h)) = iterXs(h) | deltaX{hR}"],
        [{"h": "pi0{send a, recv b}"}, {"h": "epsX{send a}"}],
    ))),
    ("monoid-p-natural", _eqs((
        ["nablaP{hL} | iterPs(h) = (iterPs(h) / iterPs(h)) | nablaP{hR}"],
        [{"h": "in0{send a, recv b}"}, {"h": "etaP{send a}"}],
    ))),
    ("comonad-x", _eqs(
        (["dX{U} | epsX{U^x} = id (U^x)", "dX{U} | iterXs(epsX{U}) = id (U^x)"],
         _SMALL),
        # Coassociativity compares environments over a triply nested loop
        # protocol, whose observation cost explodes with depth; a couple of
        # inputs at full depth already exercise every code path.
        (["dX{U} | dX{U^x} = dX{U} | iterXs(dX{U})"], _SMALL[:1], 2),
    )),
    ("monad-p", _eqs((
        ["etaP{U^+} | muP{U} = id (U^+)", "iterPs(etaP{U}) | muP{U} = id (U^+)",
         "muP{U^+} | muP{U} = iterPs(muP{U}) | muP{U}"],
        _SMALL,
    ))),
    ("rewrite-sound", _law_rewrite_sound),
]


# In a worker process of run_laws: its _Ctx and its sorted (name, build)
# list, inherited through fork with no pickling.
_JOB = None


def _take_job(job):
    global _JOB
    _JOB = job


def _law_at(i: int) -> LawResult:
    ctx, picked = _JOB
    return _law_result(ctx, *picked[i])


def run_laws(sig: sg.Signature, val: sg.Valuation, cfg: EqConfig = None, names=None):
    """Run every named law over the given signature, or only the laws in
    ``names`` when given. Returns LawResults sorted by law name.

    The laws run in forked worker processes, one per usable CPU and no more
    than there are laws; each worker inherits the laws and the context and
    sends back only LawResults, which come back in name order.  When a
    worker dies, the law it ran and every law after it in name order get an
    ``error`` row, even those that had finished.  No worker outlives the
    call."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

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
    picked = sorted(picked)
    job = (_Ctx(sig, val, cfg), picked)
    workers = max(1, min(len(os.sched_getaffinity(0)), len(picked)))
    fork = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(
        workers, mp_context=fork, initializer=_take_job, initargs=(job,)
    ) as pool:
        rows = []
        try:
            # the map's iterator cancels every law not yet started when a
            # law raises or the run is interrupted
            rows += pool.map(_law_at, range(len(picked)))
        except BrokenProcessPool as exc:
            # the worker running or due to run law len(rows) died
            detail = f"{type(exc).__name__}: {exc}"
            rows += [LawResult(n, "error", 0, detail) for n, _ in picked[len(rows):]]
        return rows
