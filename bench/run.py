"""One run of the fcn benchmark on one workload.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout: it imports `fcn` from the
checkout's `src/` and reads `demos/`. The last line of standard output is
one JSON object with `correct`, `attempted`, `failed` and `metrics`.

Every pass runs in a fresh process that sets up, runs the workload's whole
operation list once and then checks the outputs, so each pass starts from
cold caches as every `fcn` command does, and memory cannot pile up across
passes. --trace 0 starts passes one after another until S seconds of
passes are measured (at least one) and prints the end-to-end metrics:
setup_s, wall_s and peak_rss_mb, each the median over the run's processes.
--trace 1 sets up with tracing on, runs one traced pass and the CLI probes
in this process, prints the per-layer metrics and the tracing overhead, and
writes every span to bench/out/. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("laws-bakery", "check-normalize", "eval-trace")
SETUP_SAMPLES = 7  # fresh processes whose set-up times give setup_s
CHILD_TIMEOUT_S = 150

# `fcn` commands timed one subprocess at a time in the traced run, with a
# line their output must hold.
CLI_PROBES = (
    ("cli.check_s", ["check", "demos/bakery.fcn"], "OK bakery :"),
    (
        "cli.normalize_s",
        ["normalize", "demos/bakery.fcn", "--cell", "bakery"],
        "[((knead * id(oven)) ; bake)]",
    ),
    (
        "cli.eval_s",
        ["eval", "demos/sales.fcn", "--cell", "scenario", "--input", "()"],
        "result (inr ryeloaf, [], [c1])",
    ),
    ("cli.laws0_s", ["laws", "demos/bakery.fcn", "--samples", "0"], "yank-send-v"),
)


def main(argv=None) -> int:
    args = _parse_args(argv)
    started = time.perf_counter()
    if not (ROOT / "src" / "fcn" / "__init__.py").is_file():
        print(f"bench: no fcn sources at {ROOT / 'src' / 'fcn'}", file=sys.stderr)
        return 2
    if args.trace == 0 and args.child is None:
        result = _untraced_run(args)
    else:
        sys.path.insert(0, str(ROOT / "src"))
        import workloads  # imports fcn

        tracer = Tracer(on=bool(args.trace))
        wl = workloads.build(args.workload, ROOT, args.seed, workloads.FULL, tracer)
        setup_s = time.perf_counter() - started
        if args.child == "setup":
            result = {"setup_s": setup_s}
        elif args.child == "pass":
            result = _pass_child(wl, setup_s)
        else:
            result = _traced_run(wl, tracer, args)
    print(json.dumps(result))
    return 0


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--child", choices=("setup", "pass"), help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _one_pass(ops, tracer):
    outputs = []
    t0 = time.perf_counter()
    for op in ops:
        try:
            with tracer.span(f"op.{op.name}"):
                outputs.append(op.run(tracer))
        except Exception as exc:  # judged below, outside the timed region
            outputs.append(exc)
    return time.perf_counter() - t0, outputs


def _judge(ops, outputs):
    """(attempted, failed, problems); a problem means a wrong result."""
    attempted = failed = 0
    problems = []
    for op, out in zip(ops, outputs):
        attempted += op.items
        if isinstance(out, Exception):
            failed += op.items
            if not op.fault:
                problems.append(f"{op.name}: raised {type(out).__name__}: {out}")
            continue
        try:
            found = op.check(out)
        except Exception as exc:
            found = [f"check raised {type(exc).__name__}: {exc}"] * op.items
        failed += min(len(found), op.items)
        problems += [f"{op.name}: {p}" for p in found]
    return attempted, failed, problems


def _pass_child(wl, setup_s):
    """Set-up, one untraced pass, then the checks: one process of a run."""
    wall, outputs = _one_pass(wl.ops, Tracer.off())
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted, failed, problems = _judge(wl.ops, outputs)
    return {
        "setup_s": setup_s,
        "wall_s": wall,
        "peak_rss_mb": peak_mb,
        "attempted": attempted,
        "failed": failed,
        "problems": wl.probe() + problems,
    }


def _child(args, kind) -> dict:
    cmd = [
        sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--child", kind,
    ]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"bench: a {kind} process exited with {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def _untraced_run(args):
    passes = []
    while not passes or sum(p["wall_s"] for p in passes) < args.seconds:
        passes.append(_child(args, "pass"))
    setups = [p["setup_s"] for p in passes]
    setups += [_child(args, "setup")["setup_s"] for _ in range(SETUP_SAMPLES - len(setups))]
    problems = [q for p in passes for q in p["problems"]]
    _report(problems)

    def median(key):
        return statistics.median(p[key] for p in passes)

    return {
        "correct": not problems,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": median("wall_s"), "unit": "s"},
            "peak_rss_mb": {"value": median("peak_rss_mb"), "unit": "MB"},
        },
    }


def _traced_run(wl, tracer, args):
    import workloads
    from fcn import protocol, signature

    problems = wl.probe()
    traced_wall, outputs = _one_pass(wl.traced_ops, tracer)
    attempted, failed, found = _judge(wl.traced_ops, outputs)
    del outputs
    problems += found + _cli_probes(tracer)
    _report(problems)

    fixed = {
        "protocol.factors_cache_entries": len(getattr(protocol, "_FACTORS_CACHE", ())),
        "signature.factors_cache_entries": len(getattr(signature, "_FACTORS_CACHE", ())),
        "bench.traced_wall_s": traced_wall,
        "bench.trace_overhead_s": tracer.overhead_s,
        "bench.spans": len(tracer.spans),
    }
    metrics = {}
    for name in workloads.per_layer_names():
        if name in fixed:
            value = fixed[name]
        elif name.endswith("_ms"):
            value = tracer.total(name) * 1000
        elif name.endswith("_s"):
            value = tracer.total(name)
        else:
            value = tracer.counts.get(name, 0)
        metrics[name] = {"value": value, "unit": _unit(name)}
    tracer.dump(BENCH / "out" / f"trace-{args.workload}-seed{args.seed}.json")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def _cli_probes(tracer):
    env = {k: v for k, v in os.environ.items() if k != "FCN_SEED"}
    env["PYTHONPATH"] = str(ROOT / "src")
    problems = []
    for name, cli_args, expect in CLI_PROBES:
        with tracer.span(name):
            done = subprocess.run(
                [sys.executable, "-m", "fcn.cli", *cli_args],
                cwd=ROOT, env=env, capture_output=True, text=True,
                timeout=CHILD_TIMEOUT_S,
            )
        if done.returncode != 0 or expect not in done.stdout:
            problems.append(f"{name}: exit {done.returncode}, output {done.stdout[-200:]!r}")
    return problems


def _unit(name):
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    return "count"


def _report(problems):
    for p in problems:
        print(f"bench: wrong result: {p}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
