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
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import IllTypedValue, ScriptOverrun, ScriptUnderrun, WrongMove
from .protocol import (
    ChooseP,
    DoneP,
    OfferP,
    RecvP,
    SendP,
    SeqP,
    StarPP,
    StarXP,
    proto_factors,
)
from .semantics import (
    Interp,
    PInl,
    PSend,
    PTable,
    as_handle,
    as_pair,
    as_tagged,
    as_tower,
    PStop,
)
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
    b = interp.boundary(cell)
    if proto_factors(b.left):
        raise IllTypedValue(
            f"cell is open on the left ({b.left}); traces need a closed left side"
        )
    if not check_value(top_value, b.top, interp.val):
        raise IllTypedValue(f"top input {top_value} does not fit {b.top}")
    pv = interp.apply(cell, None, top_value)
    events = []
    moves = list(moves)
    pos = _walk(pv, tuple(proto_factors(b.right)), moves, 0, events)
    if pos < len(moves):
        raise ScriptOverrun(f"{len(moves) - pos} unused moves, next: {moves[pos]}")
    return events


def _walk(pv, protos, moves, pos, events) -> int:
    if not protos:
        x, bottom = pv
        events.append(f"result {bottom}")
        return pos

    def need(kind):
        if pos >= len(moves):
            raise ScriptUnderrun(f"script ended while a {kind} move was needed")
        m = moves[pos]
        if not isinstance(m, kind):
            raise WrongMove(kind.__name__, m)
        return m

    head, rest = protos[0], protos[1:]
    if isinstance(head, DoneP):
        return _walk(pv, rest, moves, pos, events)
    if isinstance(head, SeqP):
        return _walk(pv, tuple(head.parts) + rest, moves, pos, events)
    if isinstance(head, SendP):
        if not isinstance(pv, PSend):
            raise IllTypedValue(f"expected a sent value, got {pv!r}")
        events.append(f"sent {pv.value}")
        return _walk(pv.rest, rest, moves, pos, events)
    if isinstance(head, RecvP):
        m = need(RecvMove)
        if not isinstance(pv, PTable):
            raise IllTypedValue(f"expected a receive table, got {pv!r}")
        if m.value not in pv.table:
            raise WrongMove(f"recv of one of {sorted(map(str, pv.table))}", m)
        return _walk(pv.table[m.value], rest, moves, pos + 1, events)
    if isinstance(head, ChooseP):
        m = need(PickMove)
        pair = as_pair(pv)
        branch = pair.left if m.which == 0 else pair.right
        sub = head.left if m.which == 0 else head.right
        return _walk(branch, (sub,) + rest, moves, pos + 1, events)
    if isinstance(head, OfferP):
        tagged = as_tagged(pv)
        if isinstance(tagged, PInl):
            events.append("offered 0")
            return _walk(tagged.value, (head.left,) + rest, moves, pos, events)
        events.append("offered 1")
        return _walk(tagged.value, (head.right,) + rest, moves, pos, events)
    if isinstance(head, StarXP):
        if pos >= len(moves):
            raise ScriptUnderrun("script ended at a loop decision")
        m = moves[pos]
        if isinstance(m, StopMove):
            stop, _ = as_handle(pv).observe()
            return _walk(stop, rest, moves, pos + 1, events)
        if isinstance(m, ContinueMove):
            _, layer = as_handle(pv).observe()
            return _walk(layer, (head.body, head) + rest, moves, pos + 1, events)
        raise WrongMove("stop or continue", m)
    if isinstance(head, StarPP):
        tower = as_tower(pv)
        if isinstance(tower, PStop):
            events.append("halted")
            return _walk(tower.payload, rest, moves, pos, events)
        events.append("more")
        return _walk(tower.layer, (head.body, head) + rest, moves, pos, events)
    raise TypeError(f"unknown protocol form {head!r}")
