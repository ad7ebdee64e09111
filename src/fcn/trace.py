"""Interactive traces: play the right participant against a cell.

A closed cell (left protocol done) applied to a top input yields an
environment over its right protocol.  The harness walks that environment
under a script of moves for the decisions the right participant owns, and
records an event for everything the cell does:

    move  recv v     supply v where the cell listens
    move  pick 0|1   choose a branch the cell offers as a pair
    move  stop       end a right-driven loop
    move  continue   demand another round of a right-driven loop

    event sent v     the cell transmitted v
    event offered i  the cell committed to branch i of an offer
    event halted     a left-driven loop ended
    event more       a left-driven loop produced another layer
    event result v   the walk reached the bottom output v

The environment is call-by-need, so a trace costs little beyond the path
it walks: a pair side or a mapped leaf off that path is never built.
Receive tables are the exception: every entry is built with its table.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import IllTypedValue, ScriptOverrun, ScriptUnderrun, WrongMove
from .cells import infer_boundary
from .protocol import ChooseP, OfferP, RecvP, SendP, StarPP, StarXP, proto_factors
from .semantics import TAGGED, Interp, PInr, PPair, PSend, PTable, branches, expect
from .signature import Value, check_value


@dataclass(frozen=True)
class RecvMove:
    value: Value

    def __str__(self):
        return f"recv {self.value}"


@dataclass(frozen=True)
class PickMove:
    which: int

    def __str__(self):
        return f"pick {self.which}"


@dataclass(frozen=True)
class StopMove:
    def __str__(self):
        return "stop"


@dataclass(frozen=True)
class ContinueMove:
    def __str__(self):
        return "continue"


def run_trace(interp: Interp, cell, top_value: Value, moves) -> list:
    """Run cell on top_value and walk its right environment under moves.

    Returns the list of event strings. The cell's left protocol must be
    done, top_value must fit the cell's top boundary, and the walk must
    consume the script exactly.
    """
    b = infer_boundary(cell, interp.sig)
    if proto_factors(b.left):
        raise IllTypedValue(
            f"cell is open on the left ({b.left}); traces need a closed left side"
        )
    if not check_value(top_value, b.top, interp.val):
        raise IllTypedValue(f"top input {top_value} does not fit {b.top}")
    pv = interp.apply(cell, None, top_value)
    events = []
    moves = list(moves)
    pos = _walk(pv, proto_factors(b.right), moves, events)
    if pos < len(moves):
        raise ScriptOverrun(f"{len(moves) - pos} unused moves, next: {moves[pos]}")
    return events


def _walk(pv, protos, moves, events) -> int:
    """Walk pv over the flat factor list protos, one move or event per step,
    and return how many moves were consumed."""
    pos = 0

    def need(kinds, what):
        if pos >= len(moves):
            raise ScriptUnderrun(f"script ended where {what} was needed")
        m = moves[pos]
        if not isinstance(m, kinds):
            raise WrongMove(what, m)
        return m

    while protos:
        head, protos = protos[0], protos[1:]
        if isinstance(head, SendP):
            pv = expect(pv, PSend)
            events.append(f"sent {pv.value}")
            pv = pv.rest
        elif isinstance(head, RecvP):
            m = need(RecvMove, "RecvMove")
            pv = expect(pv, PTable)
            if m.value not in pv.table:
                raise WrongMove(f"recv of one of {sorted(map(str, pv.table))}", m)
            pv = pv.table[m.value]
            pos += 1
        elif isinstance(head, (ChooseP, StarXP)):
            # the right participant picks a side: a branch, or stop / continue
            if isinstance(head, ChooseP):
                right = need(PickMove, "PickMove").which != 0
            else:
                m = need((StopMove, ContinueMove), "stop or continue")
                right = isinstance(m, ContinueMove)
            pair = expect(pv, PPair)
            pv = pair.right if right else pair.left
            protos = branches(head)[right] + protos
            pos += 1
        elif isinstance(head, (OfferP, StarPP)):
            # the cell has picked a side
            tagged = expect(pv, TAGGED)
            right = isinstance(tagged, PInr)
            if isinstance(head, OfferP):
                events.append(f"offered {int(right)}")
            else:
                events.append("more" if right else "halted")
            pv = tagged.value
            protos = branches(head)[right] + protos
        else:
            raise TypeError(f"unknown protocol form {head!r}")
    x, bottom = pv
    events.append(f"result {bottom}")
    return pos
