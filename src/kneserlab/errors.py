"""Error classes shared across the package.

The CLI maps these onto its exit codes, so everything user-triggerable
should raise one of the classes below rather than a bare ValueError.
"""


class KneserlabError(Exception):
    """Base class for all package errors."""


class UsageError(KneserlabError):
    """Invalid arguments at an API or CLI boundary (exit code 2)."""


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
