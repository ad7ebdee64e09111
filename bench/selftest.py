"""Quick self-test of the benchmark.

    python3 bench/selftest.py

Runs a shortened pass of each workload (the QUICK profile), untraced
through the same code as a pass process of a run and then traced, with
every output check and the equality-oracle probes. Exits 0 when every
check passes, the only failed operations are the two that fail today,
every per-layer metric is recorded by some span or counter, and
BENCHMARK.json names exactly the metrics run.py prints.
"""

from __future__ import annotations

import json
import sys

import run
from spans import Tracer

sys.path.insert(0, str(run.ROOT / "src"))
import workloads  # noqa: E402  (needs src/ on the path)


def main() -> int:
    errors = _spec_errors()
    recorded = set()
    for name in run.WORKLOADS:
        tracer = Tracer()
        wl = workloads.build(name, run.ROOT, 1, workloads.QUICK, tracer)
        faults = sum(op.items for op in wl.ops if op.fault)
        untraced = run._pass_child(wl, 0.0)
        errors += [f"{name}: {p}" for p in untraced["problems"]]
        if untraced["failed"] != faults:
            errors.append(f"{name}: {untraced['failed']} failed untraced, want {faults}")
        _, outputs = run._one_pass(wl.traced_ops, tracer)
        attempted, failed, problems = run._judge(wl.traced_ops, outputs)
        errors += [f"{name} traced: {p}" for p in problems]
        if (attempted, failed) != (untraced["attempted"], faults):
            errors.append(f"{name}: traced pass {failed}/{attempted} failed")
        recorded |= {span[1] for span in tracer.spans} | set(tracer.counts)
        print(f"selftest: {name}: {untraced['attempted']} items, {failed} failed "
              f"as expected, {len(tracer.spans)} spans")

    run_level = ("cli.", "bench.", "protocol.factors", "signature.factors")
    errors += [
        f"no span or counter records {n}"
        for n in workloads.per_layer_names(workloads.QUICK)
        if not n.startswith(run_level) and n not in recorded
    ]
    for e in errors:
        print(f"selftest: FAIL {e}", file=sys.stderr)
    print("selftest: ok" if not errors else f"selftest: {len(errors)} failures")
    return 1 if errors else 0


def _spec_errors():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    errors = []
    if [w["name"] for w in spec["workloads"]] != list(run.WORKLOADS):
        errors.append("BENCHMARK.json workloads differ from run.WORKLOADS")
    if [m["name"] for m in spec["end_to_end"]] != ["setup_s", "wall_s", "peak_rss_mb"]:
        errors.append("BENCHMARK.json end_to_end differs from what run.py prints")
    if [m["name"] for m in spec["per_layer"]] != workloads.per_layer_names():
        errors.append("BENCHMARK.json per_layer differs from per_layer_names()")
    return errors


if __name__ == "__main__":
    sys.exit(main())
