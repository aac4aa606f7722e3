"""Exact intersection calculus on relative flag-Hilbert schemes of nodal curve families."""

from contextvars import ContextVar
from functools import wraps

__version__ = "0.1.0"

# Work shared within one call or one command, never across them: a dict
# of tables while a scope is open, None otherwise.
_SHARED = ContextVar("tautcalc_shared", default=None)


def shares_work(fn):
    """Run fn inside a shared-work scope, opening one if none is open.

    The scope closes when the call that opened it returns or raises, so
    nothing computed in one call is seen by the next.
    """

    @wraps(fn)
    def call(*args, **kwargs):
        if _SHARED.get() is not None:
            return fn(*args, **kwargs)
        token = _SHARED.set({})
        try:
            return fn(*args, **kwargs)
        finally:
            _SHARED.reset(token)
    return call


def shared_table(name):
    """The open scope's table called name, made on first use.

    A table maps a computation's input to its result; every result in
    it is read by all later lookups and must never be mutated.  With no
    scope open this is a new empty table that only the caller holds, so
    every call computes afresh.
    """
    tables = _SHARED.get()
    if tables is None:
        return {}
    table = tables.get(name)
    if table is None:
        table = tables[name] = {}
    return table
