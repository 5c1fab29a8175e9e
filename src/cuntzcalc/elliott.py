"""Elliott invariants at finite trace resolution and the induced model maps.

An invariant bundles ordered K0 data with its trace pairing, one state row
per extreme trace, and a K1 group carried along untouched.  A morphism is
a triple (theta0, theta1, gamma): a K0 lattice map, a K1 homomorphism, and
a map of trace simplices given on extreme points by convex coefficients.
The compatibility square ties gamma^T against the state matrices.

The functor G sends an invariant to its Cuntz semigroup model and a
morphism to the pair (projection part theta0, soft part gamma^T).
"""

from __future__ import annotations

from fractions import Fraction

from .linalg import Frozen, identity, int_matrix, matmul, matrix, matvec, transpose
from .wmodel import CuntzClass, K0Model, WModel


class AbelianGroupData(Frozen):
    """A finitely generated abelian group in invariant-factor form."""

    __slots__ = ("free_rank", "torsion")
    free_rank: int
    torsion: tuple[int, ...]

    def __init__(self, free_rank: int, torsion=()):
        free_rank = int(free_rank)
        if free_rank < 0:
            raise ValueError("free rank cannot be negative")
        torsion = tuple(int(t) for t in torsion)
        if any(t < 2 for t in torsion):
            raise ValueError("torsion orders must be at least 2")
        for a, b in zip(torsion, torsion[1:]):
            if b % a != 0:
                raise ValueError("torsion orders must form a divisibility chain")
        object.__setattr__(self, "free_rank", free_rank)
        object.__setattr__(self, "torsion", torsion)

    @property
    def generator_count(self) -> int:
        return len(self.torsion) + self.free_rank


class AbelianGroupHom(Frozen):
    """A homomorphism between AbelianGroupData, as an integer matrix.

    Columns index source generators (torsion first, then free), rows index
    target generators.  Well-formedness demands each source torsion
    generator map to an element killed by its order: free components zero,
    torsion components annihilated modulo the target order.
    """

    __slots__ = ("source", "target", "mat")
    source: AbelianGroupData
    target: AbelianGroupData
    mat: tuple[tuple[int, ...], ...]

    def __init__(self, source: AbelianGroupData, target: AbelianGroupData, mat):
        mat = int_matrix(mat)
        rows = target.generator_count
        cols = source.generator_count
        if len(mat) != rows or any(len(r) != cols for r in mat):
            raise ValueError("homomorphism matrix has the wrong shape")
        st = len(source.torsion)
        tt = len(target.torsion)
        for j in range(st):
            order = source.torsion[j]
            for i in range(rows):
                entry = mat[i][j]
                if i < tt:
                    if (order * entry) % target.torsion[i] != 0:
                        raise ValueError(
                            "torsion generator image must be killed by its order"
                        )
                elif entry != 0:
                    raise ValueError("torsion cannot map to a free generator")
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "mat", mat)

    @classmethod
    def identity_on(cls, group: AbelianGroupData) -> "AbelianGroupHom":
        return cls(group, group, identity(group.generator_count))

    def compose(self, other: "AbelianGroupHom") -> "AbelianGroupHom":
        """self after other."""
        if other.target != self.source:
            raise ValueError("homomorphisms do not compose")
        if not self.mat or not other.mat:
            return AbelianGroupHom(other.source, self.target,
                                   [[0] * other.source.generator_count
                                    for _ in range(self.target.generator_count)])
        return AbelianGroupHom(other.source, self.target, matmul(self.mat, other.mat))


class ElliottInvariant(Frozen):
    """Ordered K0 with its trace pairing (one extreme trace per state row), and K1."""

    __slots__ = ("k0", "k1")
    k0: K0Model
    k1: AbelianGroupData


class InvariantMorphism(Frozen):
    """(theta0, theta1, gamma) between invariants.

    gamma has one row per source trace and one column per target trace;
    each column lists convex coefficients, reading the target trace as a
    convex combination of source traces.
    """

    __slots__ = ("theta0", "theta1", "gamma")
    theta0: tuple[tuple[int, ...], ...]
    theta1: AbelianGroupHom
    gamma: tuple[tuple[Fraction, ...], ...]

    def __init__(self, theta0, theta1: AbelianGroupHom, gamma):
        object.__setattr__(self, "theta0", int_matrix(theta0))
        object.__setattr__(self, "theta1", theta1)
        object.__setattr__(self, "gamma", matrix(gamma))


def validate_invariant(inv: ElliottInvariant) -> list[str]:
    """The unit in the K0 cone and every state 1 on it.  Every ``K0Model``
    constructor already refuses a state that is not 1 on the unit, and R·u =
    scale >= 1 puts the unit in the cone, so on constructed data this is
    empty."""
    problems = []
    if not inv.k0.cone_member(inv.k0.unit):
        problems.append("unit outside the K0 cone")
    for i, value in enumerate(matvec(inv.k0.state_matrix, inv.k0.unit)):
        if value != 1:
            problems.append(f"state {i} takes value {value} on the unit")
    return problems


def validate_morphism(
    mor: InvariantMorphism, source: ElliottInvariant, target: ElliottInvariant
) -> list[str]:
    """Check shapes, unit, convexity and the state square.

    Returns a list of human-readable violations; empty means valid.  These
    checks imply that theta0 is positive: for a nonzero x in the source cone,
    R_t theta0 x = gamma^T R_s x, and each convex column of gamma averages the
    entries of R_s x > 0, so R_t theta0 x > 0 and theta0 x lies in the target
    cone.
    """
    problems = []
    ka, kb = source.k0.rank, target.k0.rank
    na, nb = source.k0.trace_count, target.k0.trace_count
    if len(mor.theta0) != kb or any(len(r) != ka for r in mor.theta0):
        problems.append("theta0 must be (target K0 rank) x (source K0 rank)")
        return problems
    if len(mor.gamma) != na or any(len(r) != nb for r in mor.gamma):
        problems.append("gamma must be (source traces) x (target traces)")
        return problems
    if mor.theta1.source != source.k1 or mor.theta1.target != target.k1:
        problems.append("theta1 endpoints do not match the invariants' K1 groups")
    for j in range(nb):
        col = [mor.gamma[i][j] for i in range(na)]
        if any(c < 0 for c in col):
            problems.append(f"gamma column {j} has a negative coefficient")
        if sum(col) != 1:
            problems.append(f"gamma column {j} does not sum to 1")
    if matvec(mor.theta0, source.k0.unit) != tuple(target.k0.unit):
        problems.append("theta0 does not send unit to unit")
    lhs = matmul(transpose(mor.gamma), source.k0.state_matrix)
    rhs = matmul(target.k0.state_matrix, mor.theta0)
    if lhs != rhs:
        problems.append("state square fails: gamma^T R_source != R_target theta0")
    return problems


def identity_morphism(inv: ElliottInvariant) -> InvariantMorphism:
    return InvariantMorphism(
        identity(inv.k0.rank),
        AbelianGroupHom.identity_on(inv.k1),
        identity(inv.k0.trace_count),
    )


def compose_morphisms(
    later: InvariantMorphism, first: InvariantMorphism
) -> InvariantMorphism:
    """Composite of first: A -> B then later: B -> C."""
    return InvariantMorphism(
        matmul(later.theta0, first.theta0),
        later.theta1.compose(first.theta1),
        matmul(first.gamma, later.gamma),
    )


class WModelMorphism(Frozen):
    """Induced map of models: theta0 on projections, gamma^T on soft parts."""

    __slots__ = ("source", "target", "theta0", "gamma")
    source: WModel
    target: WModel
    theta0: tuple[tuple[int, ...], ...]
    gamma: tuple[tuple[Fraction, ...], ...]

    def apply(self, x: CuntzClass) -> CuntzClass:
        self.source.validate_class(x)
        if x.is_proj:
            return CuntzClass.proj(matvec(self.theta0, x.values))
        return CuntzClass.soft(matvec(transpose(self.gamma), x.values))


def functor_g_obj(inv: ElliottInvariant) -> WModel:
    """Model of an invariant: the finite model of its K0 data over its traces."""
    return WModel(inv.k0)


def functor_g_mor(
    mor: InvariantMorphism, source: ElliottInvariant, target: ElliottInvariant
) -> WModelMorphism:
    problems = validate_morphism(mor, source, target)
    if problems:
        raise ValueError("; ".join(problems))
    return WModelMorphism(
        functor_g_obj(source), functor_g_obj(target), mor.theta0, mor.gamma
    )


def compose_w_morphisms(later: WModelMorphism, first: WModelMorphism) -> WModelMorphism:
    if later.source != first.target:
        raise ValueError("model morphisms do not compose")
    return WModelMorphism(
        first.source,
        later.target,
        matmul(later.theta0, first.theta0),
        matmul(first.gamma, later.gamma),
    )
