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
from .protocol import CHOOSE, END, LOOP_X, OFFER, RECV, SEND, proto_factors, proto_steps
from .semantics import TAGGED, Interp, PInr, PPair, PSend, PTable, expect
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
    pos = _walk(pv, proto_steps(b.right), moves, events)
    if pos < len(moves):
        raise ScriptOverrun(f"{len(moves) - pos} unused moves, next: {moves[pos]}")
    return events


def _walk(pv, node, moves, events) -> int:
    """Walk pv over the step chain node, one move or event per step, and
    return how many moves were consumed."""
    pos = 0

    def need(kinds, what):
        if pos >= len(moves):
            raise ScriptUnderrun(f"script ended where {what} was needed")
        m = moves[pos]
        if not isinstance(m, kinds):
            raise WrongMove(what, m)
        return m

    while node is not END:
        kind = node.kind
        if kind == SEND:
            pv = expect(pv, PSend)
            events.append(f"sent {pv.value}")
            pv, node = pv.rest, node.rest
        elif kind == RECV:
            m = need(RecvMove, "RecvMove")
            pv = expect(pv, PTable)
            if m.value not in pv.table:
                raise WrongMove(f"recv of one of {sorted(map(str, pv.table))}", m)
            pv, node = pv.table[m.value], node.rest
            pos += 1
        elif kind <= LOOP_X:
            # the right participant picks a side: a branch, or stop / continue
            if kind == CHOOSE:
                right = need(PickMove, "PickMove").which != 0
            else:
                m = need((StopMove, ContinueMove), "stop or continue")
                right = isinstance(m, ContinueMove)
            pair = expect(pv, PPair)
            pv = pair.right if right else pair.left
            node = node.sides[right]
            pos += 1
        else:
            # the cell has picked a side
            tagged = expect(pv, TAGGED)
            right = type(tagged) is PInr
            if kind == OFFER:
                events.append(f"offered {int(right)}")
            else:
                events.append("more" if right else "halted")
            pv, node = tagged.value, node.sides[right]
    x, bottom = pv
    events.append(f"result {bottom}")
    return pos
