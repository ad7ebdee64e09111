"""The three workloads: inputs made from a seed, the fixed operation list
of one pass, and the checks on what a pass returned.

`build(name, root, seed, profile, tracer)` loads a workload's inputs and
returns its operations. `FULL` is the benchmark's profile; `QUICK` shrinks
every input for the self-test but keeps the two operations that fail today
at full size, since both fail within milliseconds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from fcn import signature as sg
from fcn.cells import Cell, HComp, boundaries_equal, boundary, infer_boundary
from fcn.derived import mealy_loop, word_sender
from fcn.gen import gen_cell
from fcn.laws import LAWS, EqConfig, cells_equal, run_laws
from fcn.parser import parse_document, parse_script, show_cell, show_proto, tokenize
from fcn.protocol import ChooseP, OfferP, RecvP, SendP, proto_equal, seq_proto
from fcn.rewrite import rewrite
from fcn.semantics import Interp
from fcn.trace import run_trace

import oracles

DEMOS = ("bakery", "choice", "sales")

# The protocols u that the check-normalize chains slide past `oven`.
CHAIN_PROTOCOLS = {
    "send": "send dough",
    "recv": "recv dough",
    "choose": "send dough x recv dough",
    "offer": "send dough + recv dough",
}
REWRITTEN_CHAINS = ("send", "recv")  # the others are already normal forms

# Operations that fail today because of a fault in fcn; see README.md.
DEEP_CHAIN_TERMS = 1000
MEMORY_FAULT_ROUNDS = 300


@dataclass(frozen=True)
class Profile:
    chain_ns: tuple = (100, 200, 300)
    relay_ks: tuple = (100, 200, 300)
    gen_docs: int = 10
    gen_per_doc: int = 20
    sales_ks: tuple = (1, 2, 3, 4, 5, 6, 7)
    mealy_lengths: tuple = (40, 80, 160)
    memory_rounds: tuple = (100, 200)
    laws: EqConfig = EqConfig()  # the `fcn laws` defaults


FULL = Profile()
QUICK = Profile(
    chain_ns=(4, 8),
    relay_ks=(4, 8),
    gen_docs=2,
    gen_per_doc=5,
    sales_ks=(1, 2, 3),
    mealy_lengths=(4, 8),
    memory_rounds=(3, 6),
    laws=EqConfig(depth=2, samples=4),
)


@dataclass
class Op:
    """One operation of a pass.

    run(tracer) returns the output; check(output) returns one problem per
    failed item. An op that raises fails all of its items. `fault` names
    the fault in fcn that makes the op fail today, if it does.
    """

    name: str
    run: Callable
    check: Callable
    items: int = 1
    fault: str = ""


@dataclass
class Workload:
    name: str
    ops: list  # one untraced pass
    traced_ops: list  # one traced pass: the same work, timed by layer
    probe: Callable  # () -> problems with a known answer the checks rely on


def build(name: str, root, seed: int, profile: Profile, tr) -> Workload:
    texts = {d: (root / "demos" / f"{d}.fcn").read_text() for d in DEMOS}
    with tr.span("parser.load_s"):
        docs = {d: parse_document(t) for d, t in texts.items()}
    maker = {
        "laws-bakery": _laws_bakery,
        "check-normalize": _check_normalize,
        "eval-trace": _eval_trace,
    }[name]
    return maker(texts, docs, seed, profile, tr)


def per_layer_names(profile: Profile = FULL) -> list:
    """Every per-layer metric a traced run prints, in print order."""
    names = [
        "parser.load_s",
        "parser.tokenize_s",
        "parser.tokens",
        "parser.check_s",
        "parser.show_s",
        "parser.script_s",
    ]
    names += [f"cells.infer.{u}{n}_ms" for u in CHAIN_PROTOCOLS for n in profile.chain_ns]
    names += [f"cells.infer.relay{k}_ms" for k in profile.relay_ks]
    names += [
        "protocol.proto_equal_s",
        "protocol.factors_cache_entries",
        "signature.factors_cache_entries",
    ]
    names += [f"rewrite.{u}{n}_ms" for u in REWRITTEN_CHAINS for n in profile.chain_ns]
    names += [f"rewrite.relay{k}_ms" for k in profile.relay_ks]
    names += ["rewrite.gen_s", "rewrite.steps", "rewrite.nf_nodes"]
    names += [f"semantics.apply.sales{k}_ms" for k in profile.sales_ks]
    names += [f"semantics.apply.mealy{n}_ms" for n in profile.mealy_lengths]
    names += [f"trace.sales{k}_ms" for k in profile.sales_ks]
    names += [f"trace.mealy{n}_ms" for n in profile.mealy_lengths]
    names += [f"trace.memory{r}_ms" for r in profile.memory_rounds]
    names += ["trace.events"]
    names += [f"laws.{law}_s" for law in sorted(n for n, _ in LAWS)]
    names += ["laws.instances", "gen.gen_cell_s"]
    names += ["cli.check_s", "cli.normalize_s", "cli.eval_s", "cli.laws0_s"]
    names += [
        "bench.traced_wall_s",
        "bench.trace_overhead_s",
        "bench.spans",
    ]
    return names


# ---------------------------------------------------------------------------
# laws-bakery: `fcn laws demos/bakery.fcn` at the CLI defaults.

# Pairs the equality oracle must tell apart, plus one it must not.
_PROBE_CELLS = """
mor swapdough : dough -> dough;
map swapdough = { ryedough -> wheatdough; wheatdough -> ryedough; };
cell swapmemory : [ I | dough -> dough | ((send dough) * (recv dough))^x ] =
  iterX(putR dough / getR dough / [swapdough]; 1 dough; id I);
cell samememory : [ I | dough -> dough | ((send dough) * (recv dough))^x ] =
  iterX(putR dough / (getR dough / 1 dough); 1 dough; id I);
cell plainsend : [ I | dough -> I | send dough ] = putR dough;
cell swapsend : [ I | dough -> I | send dough ] = [swapdough] / putR dough;
cell keep : [ I | dough -> dough | send dough * recv dough ] = putR dough / getR dough;
cell swap : [ I | dough -> dough | send dough * recv dough ] =
  putR dough / getR dough / [swapdough];
cell keepfirst : [ I | dough -> dough | (send dough * recv dough) x (send dough * recv dough) ] =
  times(keep, swap);
cell swapfirst : [ I | dough -> dough | (send dough * recv dough) x (send dough * recv dough) ] =
  times(swap, keep);
cell relay : [ (send dough)^+ | I -> I | (send dough)^+ ] = id ((send dough)^+);
cell swaprelay : [ (send dough)^+ | I -> I | (send dough)^+ ] =
  iterPs(getL dough / [swapdough] / putR dough);
"""
_PROBE_UNEQUAL = (
    ("memory", "swapmemory"),
    ("plainsend", "swapsend"),
    ("keepfirst", "swapfirst"),
    ("relay", "swaprelay"),
)
_PROBE_EQUAL = (("memory", "samememory"),)


def _laws_bakery(texts, docs, seed, profile, tr):
    doc = docs["bakery"]
    cfg = profile.laws
    names = sorted(n for n, _ in LAWS)

    def check_results(expected):
        def check(results):
            got = {r.law: r for r in results}
            problems = [f"{n}: no result" for n in expected if n not in got]
            return problems + [
                str(r) for r in results if r.status != "pass" or r.instances < 1
            ]

        return check

    whole = Op(
        "run_laws",
        lambda tr: run_laws(doc.sig, doc.val, cfg),
        check_results(names),
        items=len(names),
    )

    def one(law):
        def run(tr):
            with tr.span(f"laws.{law}_s"):
                results = run_laws(doc.sig, doc.val, cfg, names=[law])
            tr.count("laws.instances", sum(r.instances for r in results))
            return results

        return Op(f"law {law}", run, check_results([law]))

    probe_doc = parse_document(texts["bakery"] + _PROBE_CELLS)

    def probe():
        cells = probe_doc.cells
        problems = []
        for pairs, want in ((_PROBE_UNEQUAL, False), (_PROBE_EQUAL, True)):
            for a, b in pairs:
                got = cells_equal(
                    cells[a].term, cells[b].term, probe_doc.sig, probe_doc.val,
                    cfg.depth, cfg.samples, seed,
                )
                if got != want:
                    problems.append(f"cells_equal({a}, {b}) is {got}")
        return problems

    return Workload("laws-bakery", [whole], [one(n) for n in names], probe)


# ---------------------------------------------------------------------------
# check-normalize: parse, typecheck and rewrite documents of growing size.


def _boundary_text(b):
    return f"[ {show_proto(b.left)} | {b.top} -> {b.bottom} | {show_proto(b.right)} ]"


def _chain_proto(u):
    dough = sg.GenObj("dough")
    send, recv = SendP(dough), RecvP(dough)
    return {"send": send, "recv": recv, "choose": ChooseP(send, recv), "offer": OfferP(send, recv)}[u]


def _cell_nodes(c) -> int:
    n, todo = 0, [c]
    while todo:
        x = todo.pop()
        n += 1
        todo.extend(v for v in vars(x).values() if isinstance(v, Cell))
    return n


def _normalize(tr, term, span):
    with tr.span(span):
        report = rewrite(term)
    with tr.span("parser.show_s"):
        shown = show_cell(report.result)
    if tr.on:
        tr.count("rewrite.steps", report.steps)
        with tr.span("bench.count_nodes", extra=True):
            tr.count("rewrite.nf_nodes", _cell_nodes(report.result))
    return report, shown


def _check_doc(tr, text):
    if tr.on:
        with tr.span("parser.tokenize_s", extra=True):
            tokens = tokenize(text)
        tr.count("parser.tokens", len(tokens))
    with tr.span("parser.check_s"):
        return parse_document(text)


def _normal_form_problems(sig, term, report, want_boundary):
    """rewrite keeps the boundary, reaches a normal form, and is idempotent."""
    problems = []
    if report.budget_exhausted:
        problems.append("rewrite ran out of budget")
    nf = report.result
    if nf is not term and not boundaries_equal(infer_boundary(nf, sig), want_boundary):
        problems.append("rewrite changed the boundary")
    if rewrite(nf).steps != 0:
        problems.append("a second rewrite takes steps")
    return problems


# The three primitive rows of the crossing of u past oven, as show_cell
# prints them. Rewriting a chain of crossings only reassociates it, so its
# normal form is these rows for every crossing, nested to the left.
_CROSSING_ROWS = {
    "send": ("(getL dough | 1 oven)", "[braid(dough, oven)]", "(1 oven | putR dough)"),
    "recv": ("(1 oven | getR dough)", "[braid(oven, dough)]", "(putL dough | 1 oven)"),
}


def _flat_chain_text(u, n):
    rows = _CROSSING_ROWS[u] * n
    text = rows[0]
    for row in rows[1:]:
        text = f"({text} / {row})"
    return text


def _check_normalize(texts, docs, seed, profile, tr):
    head = texts["bakery"]
    sig, val = docs["bakery"].sig, docs["bakery"].val
    oven = sg.GenObj("oven")
    ops = []

    def chain_op(u, n):
        side = " * ".join(f"({CHAIN_PROTOCOLS[u]})" for _ in range(n))
        body = " / ".join(f"cross{{{CHAIN_PROTOCOLS[u]}, oven}}" for _ in range(n))
        text = f"{head}\ncell chain : [ {side} | oven -> oven | {side} ] = {body};\n"
        un = seq_proto(*[_chain_proto(u)] * n)
        want = boundary(un, oven, oven, un)  # [u^n | oven -> oven | u^n]
        rewritten = u in REWRITTEN_CHAINS

        def run(tr):
            doc = _check_doc(tr, text)
            term = doc.cells["chain"].term
            if tr.on:
                with tr.span(f"cells.infer.{u}{n}_ms", extra=True):
                    b = infer_boundary(term, doc.sig)
                with tr.span("protocol.proto_equal_s", extra=True):
                    proto_equal(b.left, want.left)
                    proto_equal(b.right, want.right)
            span = f"rewrite.{u}{n}_ms" if rewritten else "rewrite.normal_s"
            report, shown = _normalize(tr, term, span)
            return doc, report, shown

        def check(out):
            doc, report, shown = out
            decl = doc.cells["chain"]
            if decl.declared != want:
                return [f"inferred {decl.declared}, want {want}"]
            if rewritten:
                # the exact normal form, whose boundary is want by construction;
                # inferring it again would cost more than the pass itself
                if shown != _flat_chain_text(u, n):
                    return ["normal form is not the flattened chain"]
                return [] if rewrite(report.result).steps == 0 else ["a second rewrite takes steps"]
            return [] if report.steps == 0 else [f"{report.steps} steps on a normal form"]

        return Op(f"chain {u} {n}", run, check)

    def relay_op(k):
        units = " | ".join(["(getL dough / putR dough)"] * k)
        text = (
            f"{head}\ncell relay : [ I | flour -> dough | I ] =\n"
            f"  ([knead] / putR dough) | {units} | (getL dough / 1 dough);\n"
        )

        def run(tr):
            doc = _check_doc(tr, text)
            term = doc.cells["relay"].term
            if tr.on:
                with tr.span(f"cells.infer.relay{k}_ms", extra=True):
                    infer_boundary(term, doc.sig)
            report, shown = _normalize(tr, term, f"rewrite.relay{k}_ms")
            return doc, report, shown

        def check(out):
            doc, report, shown = out
            decl = doc.cells["relay"]
            problems = _normal_form_problems(doc.sig, decl.term, report, decl.declared)
            if shown != "[knead]":
                problems.append(f"normal form {shown}, want [knead]")
            return problems[:1]

        return Op(f"relay {k}", run, check)

    for u in CHAIN_PROTOCOLS:
        ops += [chain_op(u, n) for n in profile.chain_ns]
    ops += [relay_op(k) for k in profile.relay_ks]

    rng = random.Random(f"{seed}:gen")
    with tr.span("gen.gen_cell_s"):
        terms = [gen_cell(rng, sig) for _ in range(profile.gen_docs * profile.gen_per_doc)]

    def gen_op(i, chunk):
        names = [f"g{j}" for j in range(len(chunk))]
        bounds = [infer_boundary(t, sig) for t in chunk]
        text = head + "".join(
            f"\ncell {name} : {_boundary_text(b)} =\n  {show_cell(t)};\n"
            for name, t, b in zip(names, chunk, bounds)
        )

        def run(tr):
            doc = _check_doc(tr, text)
            return doc, [_normalize(tr, doc.cells[n].term, "rewrite.gen_s") for n in names]

        def check(out):
            doc, results = out
            shown_nfs = "".join(
                f"\ncell {name} : {_boundary_text(b)} = {shown};\n"
                for name, b, (_, shown) in zip(names, bounds, results)
            )
            reparsed = parse_document(head + shown_nfs).cells
            problems = []
            for name, t, b, (report, _) in zip(names, chunk, bounds, results):
                nf = report.result
                found = _normal_form_problems(sig, t, report, b)
                if doc.cells[name].term != t:
                    found.append("parse(show_cell(t)) differs from t")
                if reparsed[name].term != nf:
                    found.append("parse(show_cell(nf)) differs from nf")
                if not cells_equal(t, nf, sig, val):
                    found.append("the interpreter tells t from its normal form")
                problems += [f"{name}: {found[0]}"] if found else []
            return problems

        return Op(f"gen doc {i}", run, check, items=len(chunk))

    size = profile.gen_per_doc
    ops += [gen_op(i, terms[i * size:(i + 1) * size]) for i in range(profile.gen_docs)]

    deep_text = (
        f"{head}\ncell deep : [ I | dough -> dough | I ] =\n  "
        + " / ".join(["1 dough"] * DEEP_CHAIN_TERMS)
        + ";\n"
    )

    def deep_run(tr):
        doc = _check_doc(tr, deep_text)
        report, shown = _normalize(tr, doc.cells["deep"].term, "rewrite.deep_s")
        return doc, shown

    def deep_check(out):
        doc, shown = out
        return [] if shown == "1 dough" else [f"normal form {shown}, want 1 dough"]

    ops.append(
        Op(
            f"deep chain {DEEP_CHAIN_TERMS}",
            deep_run,
            deep_check,
            fault="parse_document raises RecursionError from infer_boundary",
        )
    )

    def probe():
        # a known answer that needs more rules than reassociation: the
        # demo's two columns snap together and their morphisms compose
        shown = show_cell(rewrite(docs["bakery"].cells["bakery"].term).result)
        want = "[((knead * id(oven)) ; bake)]"
        return [] if shown == want else [f"bakery normalizes to {shown}, want {want}"]

    return Workload("check-normalize", ops, ops, probe)


# ---------------------------------------------------------------------------
# eval-trace: run closed cells forward with run_trace.


class _TimedInterp:
    """Stands in for an Interp inside run_trace and times its top-level
    apply; the recursion inside the real Interp is not intercepted."""

    def __init__(self, interp, tr, span):
        self._interp, self._tr, self._span = interp, tr, span

    def apply(self, c, pv, a):
        with self._tr.span(self._span):
            return self._interp.apply(c, pv, a)

    def __getattr__(self, name):
        return getattr(self._interp, name)


def _timed_trace(tr, label, interp, cell, top, moves):
    if tr.on:
        interp = _TimedInterp(interp, tr, f"semantics.apply.{label}_ms")
    with tr.span(f"trace.{label}_ms"):
        events = run_trace(interp, cell, top, moves)
    tr.count("trace.events", len(events))
    return events


_SALES_EXTRA = """
cell customer2 : [ I | I -> coin (+) bread | customerP ] =
  ([const(coin, c2)] / putR coin)
  / times(getR coin / [inj0(coin, bread)],
          getR bread / [inj1(coin, bread)]);
"""
_COIN_CELLS = {"c1": "customer", "c2": "customer2"}


def _sales_text(sales, coins, shelf, till):
    """The demo seller against a queue; coins[0] is served first."""
    lines = [sales, _SALES_EXTRA]
    got = "(coin (+) bread)"
    prev = "nobody"
    for i, coin in enumerate(reversed(coins), start=1):
        bottom = " * ".join([got] * i)
        lines.append(
            f"cell q{i} : [ I | I -> {bottom} | (customerP)^+ ] =\n"
            f"  ({_COIN_CELLS[coin]} / (1 {got} | {prev})) | in1{{I, customerP * (customerP)^+}};"
        )
        prev = f"q{i}"
    stock = f"([{', '.join(shelf)}], [{', '.join(till)}])"
    lines.append(
        f"cell run : [ I | I -> {' * '.join([got] * len(coins))} * shelf * till | I ] =\n"
        f"  {prev} | ([const(shelf * till, {stock})] / sales);"
    )
    return "\n".join(lines)


_MEALY_STATES = ("s0", "s1", "s2")
_MEALY_INPUTS = ("i0", "i1")
_MEALY_OUTPUTS = ("o0", "o1")


def _eval_trace(texts, docs, seed, profile, tr):
    ops = []

    def op(name, label, sig, val, cell, top, want, script=None, fault=""):
        def run(tr):
            moves = []
            if script is not None:
                with tr.span("parser.script_s"):
                    moves = parse_script(script)
            return _timed_trace(tr, label, Interp(sig, val), cell, top, moves)

        def check(events):
            return [] if events == want else [f"events {events[:4]}..., want {want[:4]}..."]

        return Op(name, run, check, fault=fault)

    for k in profile.sales_ks:
        rng = random.Random(f"{seed}:sales:{k}")
        coins = [rng.choice(("c1", "c2")) for _ in range(k)]
        shelf = [rng.choice(("ryeloaf", "wheatloaf")) for _ in range(rng.randint(0, k))]
        till = [rng.choice(("c1", "c2")) for _ in range(rng.randint(0, 2))]
        doc = parse_document(_sales_text(texts["sales"], coins, shelf, till))
        ops.append(
            op(f"sales {k}", f"sales{k}", doc.sig, doc.val, doc.cells["run"].term,
               sg.UNITV, oracles.sales_events(coins, shelf, till))
        )

    rng = random.Random(f"{seed}:mealy")
    table = {
        (i, s): (rng.choice(_MEALY_STATES), rng.choice(_MEALY_OUTPUTS))
        for i in _MEALY_INPUTS
        for s in _MEALY_STATES
    }
    entries = "".join(f"  ({i}, {s}) -> ({t}, {o});\n" for (i, s), (t, o) in table.items())
    mdoc = parse_document(
        "object inp; object st; object out;\n"
        f"carrier inp = {{{', '.join(_MEALY_INPUTS)}}};\n"
        f"carrier st = {{{', '.join(_MEALY_STATES)}}};\n"
        f"carrier out = {{{', '.join(_MEALY_OUTPUTS)}}};\n"
        "mor step : inp * st -> st * out;\n"
        f"map step = {{\n{entries}}};\n"
    )
    inp, st, out = sg.GenObj("inp"), sg.GenObj("st"), sg.GenObj("out")
    machine = mealy_loop(sg.GenMor("step"), inp, st, out, mdoc.sig)
    for n in profile.mealy_lengths:
        word = [rng.choice(_MEALY_INPUTS) for _ in range(n)]
        start = rng.choice(_MEALY_STATES)
        cell = HComp(word_sender([sg.AtomV(x) for x in word], inp), machine)
        ops.append(
            op(f"mealy {n}", f"mealy{n}", mdoc.sig, mdoc.val, cell, sg.AtomV(start),
               oracles.mealy_events(table, start, word))
        )

    bakery = docs["bakery"]
    memory = bakery.cells["memory"].term
    doughs = ("ryedough", "wheatdough")
    for r in profile.memory_rounds + (MEMORY_FAULT_ROUNDS,):
        rng = random.Random(f"{seed}:memory:{r}")
        start = rng.choice(doughs)
        stored = [rng.choice(doughs) for _ in range(r)]
        script = "".join(f"continue\nrecv {v}\n" for v in stored) + "stop\n"
        fault = "trace._walk recurses once per move" if r == MEMORY_FAULT_ROUNDS else ""
        ops.append(
            op(f"memory {r}", f"memory{r}", bakery.sig, bakery.val, memory,
               sg.AtomV(start), oracles.memory_events(start, stored), script, fault)
        )
    return Workload("eval-trace", ops, ops, lambda: [])
