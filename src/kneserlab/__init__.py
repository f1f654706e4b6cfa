"""kneserlab: Kneser graphs of classical buildings over small prime fields.

Builds the geometric Kneser graphs (projective, flag, and polar types),
extracts apartment subgraphs, decides the unique coclique extension
property exhaustively, certifies the known counterexamples, and
cross-validates the geometry against the Weyl-group coset model.
"""

from .algebra import (
    Form,
    Subspace,
    enumerate_singular_subspaces,
    enumerate_subspaces,
    intersect,
    is_totally_singular,
    rref,
)
from .buildings import (
    BuildingSpec,
    KneserGraph,
    build_graph,
)
from .coclique import (
    UcepReport,
    check_ucep,
    extension_set,
    max_coclique,
    maximal_cocliques_sigma,
    span_check,
)
from .coxeter import (
    ParabolicQuotient,
    WeylGroup,
    check_lifting,
    phi_map,
    shortest_double_coset,
)
from .crossval import cross_validate
from .errors import (
    CrossValidationError,
    FixtureIntegrityError,
    KneserlabError,
    SearchBudgetExceeded,
    UsageError,
)
from .exterior import Multivector, plucker, span_membership, wedge
from .fixtures import verify_nonexample, verify_witness
from .matroid import ColumnMatroid, have_disjoint_bases, union_rank

__version__ = "0.1.0"
