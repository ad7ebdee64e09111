"""Per-law engine time of the law suite, serial and in one process.

Runs each law of `fcn laws` on a .fcn file at the CLI defaults (depth,
samples and seed), one law after another in this process with no worker
pool, and prints per law its status, its instance count, the best of
--repeat wall times and the number of `pval_equal` comparisons one run
makes, then the totals.  The comparisons are counted in an untimed first
run, which also fills the caches: a counting wrapper would hold both
environments of a comparison for its whole walk, which `pval_equal`
otherwise lets go of part by part, and so would time the collector too.
Each timed run starts after a full collection, so it pays for the
collections of its own garbage only.

    python3 tools/lawtimes.py demos/bakery.fcn [--repeat N] [--law NAME ...]
"""

import argparse
import gc
import pathlib
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from fcn import laws  # noqa: E402
from fcn.parser import parse_document  # noqa: E402


def law_times(doc, names=None, repeat=3):
    """(name, LawResult, best wall time in s, pval_equal calls) for each
    law in name order, or for the laws in `names`."""
    picked = sorted((n, b) for n, b in laws.LAWS if names is None or n in names)
    unknown = set(names or ()) - {n for n, _ in picked}
    if unknown:
        raise KeyError(f"unknown laws: {sorted(unknown)}")
    ctx = laws._Ctx(doc.sig, doc.val, laws.EqConfig())
    compare, calls = laws.pval_equal, [0]

    def counted(*args):
        calls[0] += 1
        return compare(*args)

    rows = []
    for name, build in picked:
        calls[0] = 0
        laws.pval_equal = counted
        try:
            laws._law_result(ctx, name, build)
        finally:
            laws.pval_equal = compare
        best = None
        for _ in range(repeat):
            gc.collect()
            start = time.perf_counter()
            result = laws._law_result(ctx, name, build)
            took = time.perf_counter() - start
            best = took if best is None else min(best, took)
        rows.append((name, result, best, calls[0]))
    return rows


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("file", help="a .fcn file")
    p.add_argument("--repeat", type=int, default=3, help="timed runs per law (best is kept)")
    p.add_argument("--law", action="append", help="run only this law (repeatable)")
    args = p.parse_args(argv)
    if args.repeat < 1:
        p.error("--repeat must be at least 1")
    doc = parse_document(pathlib.Path(args.file).read_text())
    try:
        rows = law_times(doc, args.law, args.repeat)
    except KeyError as exc:
        p.error(str(exc.args[0]))
    print(f"{'law':<28} {'status':<8} {'instances':>9} {'best_s':>8} {'pval_equal':>10}")
    for name, result, best, calls in rows:
        print(f"{name:<28} {result.status:<8} {result.instances:>9} {best:>8.3f} {calls:>10}")
    print(f"{'total':<28} {'':<8} {'':>9} {sum(r[2] for r in rows):>8.3f} "
          f"{sum(r[3] for r in rows):>10}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
