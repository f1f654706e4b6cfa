"""Error classes shared across the package, and the two checks that refuse
a field type or an index by name.

The CLI maps these onto its exit codes, so everything user-triggerable
should raise one of the classes below rather than a bare ValueError.
"""

import operator


class KneserlabError(Exception):
    """Base class for all package errors."""


class UsageError(KneserlabError):
    """Invalid arguments at an API or CLI boundary (exit code 2)."""


def check_fields(value, kinds):
    """Refuse by name a field of value whose type is not exactly the one that
    kinds, (name, type) pairs, gives it: a bool or float would pass for an
    int, and hash equal to the int in a cache key."""
    for name, kind in kinds:
        field = getattr(value, name)
        if type(field) is not kind:
            raise UsageError("%s must be of type %s, not %r" % (name, kind.__name__, field))


def check_index(i, n, what, plural):
    """An index of one of n things, each a what, as an int in 0..n-1. A
    bool, float or str is refused by name, not read as a position."""
    if isinstance(i, bool) or not hasattr(i, "__index__"):
        raise UsageError("%s index %r is a %s, not an integer" % (what, i, type(i).__name__))
    if not 0 <= i < n:
        raise UsageError("%s index %r is out of range for %d %s" % (what, i, n, plural))
    return operator.index(i)


class FixtureIntegrityError(KneserlabError):
    """A UCEP witness failed verify_witness: a counterexample fixture, which
    is guaranteed to certify, or the witness of a check-ucep `fails` report,
    which the UCEP scan found in the built graph.

    This always signals a bug in the geometry kernel or the scan (or a
    corrupted fixture), never a mathematical discovery. Exit code 4.
    """


class CrossValidationError(KneserlabError):
    """Geometric apartment and coset-level graph disagree (exit code 5)."""

    def __init__(self, detail):
        self.detail = detail
        super().__init__(str(detail))


class SearchBudgetExceeded(KneserlabError):
    """Exact search ran out of its node budget; only bounds are available."""

    def __init__(self, lower, upper):
        self.lower = lower
        self.upper = upper
        super().__init__("search budget exceeded: bounds [%d, %d]" % (lower, upper))
