"""Command line front end: check, normalize, eval, and laws over .fcn files."""

from __future__ import annotations

import sys

import click

from .errors import FcnError, UnknownCell
from .laws import DEFAULT_DEPTH, DEFAULT_SAMPLES, DEFAULT_SEED, EqConfig, run_laws
from .parser import parse_document, parse_script, parse_value, show_cell
from .rewrite import rewrite
from .semantics import Interp
from .trace import run_trace


def _load(path: str):
    try:
        with open(path, "r", encoding="ascii") as fh:
            text = fh.read()
    except OSError as exc:
        raise click.ClickException(str(exc))
    try:
        return parse_document(text)
    except FcnError as exc:
        raise click.ClickException(str(exc))


def _pick_cell(doc, name):
    decl = doc.cells.get(name)
    if decl is None:
        known = ", ".join(doc.cells) or "none declared"
        raise click.ClickException(
            str(UnknownCell(f"no cell named {name!r} (cells: {known})"))
        )
    return decl


@click.group()
def main():
    """Protocol cells: typecheck, normalize, run, and test equational laws."""


@main.command()
@click.argument("file", type=click.Path())
def check(file):
    """Typecheck every cell in FILE."""
    doc = _load(file)
    for name in doc.cells:
        click.echo(f"OK {name} : {doc.cells[name].declared}")


@main.command()
@click.argument("file", type=click.Path())
@click.option("--cell", "cellname", required=True, help="Cell to normalize.")
@click.option("--budget", default=10000, show_default=True, help="Max rewrite steps.")
@click.option("--trace-rules", is_flag=True, help="Print each rule application.")
def normalize(file, cellname, budget, trace_rules):
    """Rewrite a cell to normal form and print it."""
    doc = _load(file)
    decl = _pick_cell(doc, cellname)
    report = rewrite(decl.term, budget=budget)
    click.echo(show_cell(report.result))
    if trace_rules:
        for rule, path in report.trace:
            click.echo(f"  {rule} @ {path}")
    note = " (budget exhausted)" if report.budget_exhausted else ""
    click.echo(f"{report.steps} steps{note}")


@main.command("eval")
@click.argument("file", type=click.Path())
@click.option("--cell", "cellname", required=True, help="Cell to run.")
@click.option("--input", "literal", required=True, help="Top boundary value.")
@click.option(
    "--script", "scriptfile", type=click.Path(), default=None,
    help="Moves file, one per line: recv <v>, pick 0|1, stop, continue.",
)
def eval_cmd(file, cellname, literal, scriptfile):
    """Run a cell on an input value, scripted from the right boundary."""
    doc = _load(file)
    decl = _pick_cell(doc, cellname)
    try:
        top = parse_value(literal)
        moves = []
        if scriptfile is not None:
            with open(scriptfile, "r", encoding="ascii") as fh:
                moves = parse_script(fh.read())
        interp = Interp(doc.sig, doc.val)
        events = run_trace(interp, decl.term, top, moves)
    except FcnError as exc:
        raise click.ClickException(str(exc))
    except OSError as exc:
        raise click.ClickException(str(exc))
    for line in events:
        click.echo(line)


@main.command()
@click.argument("file", type=click.Path())
@click.option("--depth", default=DEFAULT_DEPTH, show_default=True, type=click.IntRange(0))
@click.option("--samples", default=DEFAULT_SAMPLES, show_default=True, type=click.IntRange(0))
@click.option("--seed", default=DEFAULT_SEED, show_default=True)
def laws(file, depth, samples, seed):
    """Run the equational law suite over the file's signature."""
    doc = _load(file)
    cfg = EqConfig(depth=depth, samples=samples, seed=seed)
    try:
        results = run_laws(doc.sig, doc.val, cfg)
    except FcnError as exc:
        raise click.ClickException(str(exc))
    for result in results:
        click.echo(str(result))
    if any(result.status in ("fail", "error") for result in results):
        sys.exit(1)


if __name__ == "__main__":
    main()
