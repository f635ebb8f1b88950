"""Named algebras every verification run exercises.

The catalog spans prime and non-prime field orders, nilpotent and
non-nilpotent algebras, and both small derived-subalgebra dimensions, so each
statement in the registry fires with a non-vacuous hypothesis somewhere.
"""

from collections import namedtuple

from .liealg import AlgebraSpec, algebra_from_spec


class CatalogEntry(namedtuple("CatalogEntry", "name spec provenance")):
    """A named AlgebraSpec and where the algebra comes from."""

    __slots__ = ()

    def algebra(self):
        return algebra_from_spec(self.spec)


def _spec(q, basis, brackets):
    return AlgebraSpec(q=q, dim=len(basis), basis=tuple(basis), brackets=tuple(brackets))


_ENTRIES = [
    CatalogEntry(
        "aff1_f2",
        _spec(2, ("x", "y"), ((("x"), ("y"), {"x": 1}),)),
        "2-dimensional non-abelian algebra over F_2 (unique up to isomorphism)",
    ),
    CatalogEntry(
        "aff1_f3",
        _spec(3, ("x", "y"), ((("x"), ("y"), {"x": 1}),)),
        "2-dimensional non-abelian algebra over F_3",
    ),
    CatalogEntry(
        "aff1_f4",
        _spec(4, ("x", "y"), ((("x"), ("y"), {"x": 1}),)),
        "2-dimensional non-abelian algebra over a non-prime field order",
    ),
    CatalogEntry(
        "heisenberg_f2",
        _spec(2, ("x", "y", "z"), ((("x"), ("y"), {"z": 1}),)),
        "3-dimensional Heisenberg algebra over F_2 (nilpotent)",
    ),
    CatalogEntry(
        "heisenberg_f3",
        _spec(3, ("x", "y", "z"), ((("x"), ("y"), {"z": 1}),)),
        "3-dimensional Heisenberg algebra over F_3",
    ),
    CatalogEntry(
        "heisenberg_f4",
        _spec(4, ("x", "y", "z"), ((("x"), ("y"), {"z": 1}),)),
        "3-dimensional Heisenberg algebra over F_4 (derived dimension 1, q non-prime)",
    ),
    CatalogEntry(
        "l2_f2",
        _spec(2, ("x", "y", "z"), ((("x"), ("y"), {"x": 1}),)),
        "3-dimensional algebra with [x,y]=x over F_2 (not nilpotent)",
    ),
    CatalogEntry(
        "cross_product_f2",
        _spec(
            2,
            ("x", "y", "z"),
            (
                ("x", "y", {"z": 1}),
                ("y", "z", {"x": 1}),
                ("z", "x", {"y": 1}),
            ),
        ),
        "cross-product algebra over F_2 (derived dimension 3, trivial center)",
    ),
    CatalogEntry(
        "split_pairs_f2",
        _spec(
            2,
            ("x1", "y1", "x2", "y2"),
            (
                ("x1", "y1", {"x1": 1}),
                ("x2", "y2", {"x2": 1}),
            ),
        ),
        "4-dimensional direct sum of two non-abelian pairs over F_2 (15 vertices)",
    ),
]


def builtin_catalog():
    """The built-in list of CatalogEntry values, in a fixed order."""
    return list(_ENTRIES)
