"""Non-commuting graphs of finite-dimensional Lie algebras over small finite fields."""

from .catalog import CatalogEntry, builtin_catalog
from .enumeration import jacobi_tensors
from .errors import (
    AbelianAlgebra,
    CapExceeded,
    JacobiViolation,
    LieNcgError,
    NotPrimePower,
    ParseError,
    UnknownStatement,
    UnsupportedField,
)
from .gf import Field, field_new
from .graphs import Graph, property_report
from .iso import canonical_certificate, isomorphism
from .liealg import AlgebraSpec, LieAlgebra, algebra_from_spec
from .ncg import NcGraph, build_graph
from .verifier import (
    TheoremReport,
    check_all_statements,
    check_figures,
    check_statement,
    explore_conjecture,
)

__all__ = [
    "AbelianAlgebra",
    "AlgebraSpec",
    "CapExceeded",
    "CatalogEntry",
    "Field",
    "Graph",
    "JacobiViolation",
    "LieAlgebra",
    "LieNcgError",
    "NcGraph",
    "NotPrimePower",
    "ParseError",
    "TheoremReport",
    "UnknownStatement",
    "UnsupportedField",
    "algebra_from_spec",
    "build_graph",
    "builtin_catalog",
    "canonical_certificate",
    "check_all_statements",
    "check_figures",
    "check_statement",
    "explore_conjecture",
    "field_new",
    "isomorphism",
    "jacobi_tensors",
    "property_report",
]
