"""Reference results computed without `fcn`, for the eval-trace checks.

Each function returns the event lines `run_trace` must print for its cell,
formatted here by hand so that a fault in the printer shows as well.
"""

from __future__ import annotations


def mealy_events(table, start, word):
    """A classical fold of the transition table over the word.

    table maps (input, state) to (state, output). The `^+` loop reports
    `more` before each letter's output and `halted` at the end.
    """
    events = []
    state = start
    for letter in word:
        state, out = table[(letter, state)]
        events += ["more", f"sent {out}"]
    return events + ["halted", f"result {state}"]


def sales_events(coins, shelf, till):
    """The seller serves the queue in order: a customer whose coin meets a
    loaf gets the loaf (`inr`) and the coin goes on top of the till; one who
    meets an empty shelf gets the coin back (`inl`)."""
    shelf, till = list(shelf), list(till)
    got = []
    for coin in coins:
        if shelf:
            got.append(f"inr {shelf.pop(0)}")
            till.insert(0, coin)
        else:
            got.append(f"inl {coin}")
    parts = got + [_list(shelf), _list(till)]
    return [f"result ({', '.join(parts)})"]


def memory_events(start, stored):
    """A one-slot store: each round shows the contents, then takes the
    replacement; `stop` hands back what is stored last."""
    events = []
    cur = start
    for value in stored:
        events.append(f"sent {cur}")
        cur = value
    return events + [f"result {cur}"]


def _list(items):
    return f"[{', '.join(items)}]"
