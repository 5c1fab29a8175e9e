"""Exact computations in ordered-semigroup models of Cuntz semigroups.

The package splits into generic ordered-monoid machinery (``ordmon``),
the concrete two-part model over finitely many traces (``wmodel``), the
invariant category and its model functor (``elliott``), dyadic staircases
and sup-realizations along a denominator chain over finite trace simplices
(``approx``), the diagonal-element simulator over [0, 1] (``goodearl``),
and a JSON-document CLI (``cli``).
"""

__version__ = "0.1.0"
