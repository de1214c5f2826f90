"""Todd series push-forwards and cone decompositions of classes.

Three groups of tools live here.  First, the push-forward of the
orbifold Todd series of a complete multi-fan, which is rigid: after
the one-variable substitution all nonconstant Laurent coefficients
cancel and the constant is the degree of the fan.  Expanding the same
sum against a dilated support class gives the polynomial coefficients
of the lattice point count.

Second, the decomposition machinery: every cohomology class of degree
2k decomposes over the k-dimensional cones with rational coefficients
mu(x, J) that depend on a generic middle-dimensional plane E.  The
coefficient is a ratio of wedge pairings against the Pluecker vector
of E, and equally a ratio of values on the line where E meets the
cone.  The sampled plane keeps both readings of every face, and the
cone pairings of each line once a coefficient first reads them; each
coefficient is computed from both readings and compared.  The
residuals of the decomposition take the table of coefficients of one
class.  Push-forward and cohomology reduction are linear, so a
residual is the value of the class minus the mu-weighted values of the
face classes x_J, and those are kept per fan: one push-forward per
(support, J), one reduction per (k, J).

Third, Todd series of single cones and their additivity under star
subdivisions, checked coefficient by coefficient on a Laurent window.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

# todd_factor_series stays importable: perfbench/test_smoke.py traces it here
from .cyclotomic import LaurentSeries, todd_factor_series  # noqa
from .errors import (
    CrossCheckFailed,
    InvalidFan,
    NonGenericPlane,
    NotTCartier,
    RankMismatch,
    RigidityViolation,
)
from .facering import (
    EquivariantClass,
    SupportClass,
    cohomology_quotient,
    embed_weight,
    face_class,
    fixed_point_series,
    generic_pairings,
    graded_values,
    p_star,
    vertex_series,
)
from .fans import MultiFan, is_complete, sample_generic_vector
from .lattices import (
    Vec,
    determinant,
    dot,
    dual_basis,
    plane_line_intersection,
    rank,
)

# ---------------------------------------------------------------------------
# wedge algebra: exterior powers of the covector space, Pluecker style


def ascending_subsets(n: int, m: int) -> list[tuple[int, ...]]:
    """Index order shared by all wedge coordinate vectors."""
    return list(itertools.combinations(range(n), m))


def wedge_coordinates(rows, n: int) -> tuple[Fraction, ...]:
    """Coordinates of row_1 ^ ... ^ row_m: the maximal minors in
    ascending column order.  The empty wedge is the scalar (1,)."""
    rows = [tuple(r) for r in rows]
    m = len(rows)
    out = []
    for S in ascending_subsets(n, m):
        out.append(determinant([[r[c] for c in S] for r in rows]))
    return tuple(out)


def wedge_pair(a, b) -> Fraction:
    """Pairing of a covector wedge with a vector wedge.

    Both sides are coordinate vectors over the ascending subsets; the
    pairing of pure wedges is det(<u_i, w_j>), which expands to the sum
    of products of matching minors.
    """
    if len(a) != len(b):
        raise RankMismatch("wedge degree mismatch")
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


@dataclass(frozen=True)
class GenericPlane:
    """A rational (n-k+1)-plane E in generic position for a fan.

    `basis` spans E; `wedge` is the Pluecker coordinate vector of the
    basis; `certificates` names the genericity checks the plane passed
    when it was sampled, and `rejected` counts the candidates discarded
    before this one was found.  For every face J of size k of the fan it
    was sampled for, `lines[J]` generates E meet span(J) and
    `pairings[J][i]` is the wedge pairing <f^J(x_i), w_E> of ray i
    (zero off J).  `line_values[J]` is filled when morelli_coefficient
    first reads J: one entry (I, {i: <u_i^I, line>}, prod_{j in J}
    <u_j^I, line>) per top cone I containing J, on the stored line
    lines[J] whatever the sign of the reading that filled it.
    """

    k: int
    basis: tuple[Vec, ...]
    wedge: tuple[Fraction, ...]
    certificates: tuple[str, ...] = ()
    rejected: int = 0
    lines: dict = field(default_factory=dict, compare=False)
    pairings: dict = field(default_factory=dict, compare=False)
    line_values: dict = field(default_factory=dict, compare=False)


def face_wedge(fan: MultiFan, J, i: int, omega_sign: int = 1):
    """Wedge of the restricted ray covector x_i with the face wedge of J.

    Computed as u_i^I ^ omega_J from every top cone I containing J and
    checked to be independent of I.  The result is zero unless i lies in J:
    for i outside J the covector u_i^I annihilates the whole span of J
    and is swallowed by omega_J.  With omega_sign = -1 the orientation
    of omega_J is reversed (a global sign on all coordinates; for a top
    face the empty wedge 1 becomes -1).
    """
    J = tuple(sorted(J))
    n = fan.rank
    m = n - len(J) + 1
    if not J:
        raise RankMismatch("face wedges need a nonempty face")
    omega = [list(r) for r in fan.annihilator_of(J).vectors]
    coords = None
    for I in fan.cones_containing(J):
        if i in I:
            u = fan.dual_basis_of(I)[I.index(i)]
            if omega_sign < 0:  # u ^ (-omega_J) = (-u) ^ omega_J
                u = [-x for x in u]
            w = wedge_coordinates([u] + omega, n)
        else:
            w = tuple([Fraction(0)] * math.comb(n, m))
        if coords is not None and coords != w:
            raise CrossCheckFailed(f"face wedge of {J} at {i} changes on cone {I}")
        coords = w
    return coords


# ---------------------------------------------------------------------------
# generic plane sampling with explicit certificates

_CERTIFICATES = (
    "rank-one-face-intersections",
    "nonzero-line-pairings",
    "nonzero-wedge-pairings",
    "face-covector-surjectivity",
)


def _plane_readings(fan: MultiFan, k: int, basis, wedge):
    """Run all genericity checks; return the per-face readings, or None.

    The readings are the line E meet span(J) and the wedge pairings of
    every ray, for each face J of size k.
    """
    lines, pairings = {}, {}
    for J in fan.faces_of_card(k):
        line = plane_line_intersection(basis, [fan.edge(j) for j in J])
        I0 = fan.cones_containing(J)[0]
        duals = fan.dual_basis_of(I0)
        for pos, i in enumerate(I0):
            if i in J and dot(duals[pos], line) == 0:
                return None
        row = tuple(wedge_pair(face_wedge(fan, J, i), wedge) for i in range(fan.n_rays))
        if any(row[j] == 0 for j in J):
            return None
        lines[J], pairings[J] = line, row
    # the face covector spaces must still surject onto the dual of E
    for card in range(k):
        for K in fan.faces_of_card(card):
            if K:
                rows = fan.annihilator_of(K).vectors
            else:
                rows = [tuple(1 if c == b else 0 for c in range(fan.rank)) for b in range(fan.rank)]
            mat = [[dot(r, w) for w in basis] for r in rows]
            if rank(mat) < len(basis):
                return None
    return lines, pairings


def sample_generic_plane(
    fan: MultiFan, k: int, rng: random.Random | None = None, bound: int = 20
) -> GenericPlane:
    """Rejection-sample an integer basis of a generic (n-k+1)-plane.

    Genericity fails only on finitely many hypersurfaces, so sampling
    integer vectors in [-bound, bound] terminates quickly.  The plane
    records which certificates were established.
    """
    if not 1 <= k <= fan.rank:
        raise RankMismatch("plane parameter k must be between 1 and the rank")
    rng = rng or random.Random(0x9E0)
    n = fan.rank
    m = n - k + 1
    rejected = 0
    while True:
        basis = tuple(
            tuple(rng.randint(-bound, bound) for _ in range(n)) for _ in range(m)
        )
        if rank(basis) < m:
            rejected += 1
            continue
        wedge = wedge_coordinates(basis, n)
        try:
            readings = _plane_readings(fan, k, basis, wedge)
        except NonGenericPlane:
            readings = None
        if readings is None:
            rejected += 1
            continue
        lines, pairings = readings
        return GenericPlane(k, basis, wedge, _CERTIFICATES, rejected, lines, pairings)


# ---------------------------------------------------------------------------
# the decomposition coefficients


def _face_readings(plane: GenericPlane, J):
    """The line and the ray pairings the plane keeps for the face J."""
    if J not in plane.lines:
        raise RankMismatch(f"{J} is not a face of the size {plane.k} the plane was sampled for")
    return plane.lines[J], plane.pairings[J]


def morelli_coefficient(
    fan: MultiFan,
    cls: EquivariantClass,
    J,
    plane: GenericPlane,
    omega_sign: int = 1,
    line_sign: int = 1,
) -> Fraction:
    """Coefficient mu(x, J) of the face J in the decomposition of x.

    Two readings are computed and must agree exactly.  The wedge path
    pairs f^J(x_i) = u_i^I ^ omega_J against the Pluecker vector of the
    plane and forms prod <f^J(x_i), w_E>^a_i / prod_j <f^J_j, w_E>.
    The line path evaluates the restriction of x on the generator of
    E meet span(J) and divides by the product of the covector values
    on that generator, on every top cone containing J.  Both read what
    the plane keeps for J: the wedge pairings, and the cone pairings of
    the line, taken on its stored generator once and kept in
    plane.line_values.  Flipping the orientation of omega_J negates every
    wedge pairing and flipping the generator negates every line pairing;
    either changes numerator and denominator by the same factor, so the
    ratio is unchanged.
    """
    J = tuple(sorted(int(j) for j in J))
    k = len(J)
    if cls.homogeneous_degree() != k or k == 0:
        raise RankMismatch("class degree must match the nonzero face size")
    line, pairs = _face_readings(plane, J)
    if omega_sign < 0:
        pairs = [-x for x in pairs]
    num_a = Fraction(0)
    for expo, coeff in cls.terms.items():
        val = coeff
        for i, e in enumerate(expo):
            if e:
                val *= pairs[i] ** e
        num_a += val
    value = num_a / math.prod(pairs[j] for j in J)

    if J not in plane.line_values:
        entries = []
        for I in fan.cones_containing(J):
            at_line = {i: dot(u, line) for i, u in zip(I, fan.dual_basis_of(I))}
            entries.append((I, at_line, math.prod(at_line[j] for j in J)))
        plane.line_values[J] = entries
    num_b = None
    den_b = None
    for I, at_line, d in plane.line_values[J]:
        if line_sign < 0:  # the class has degree k, the product k factors
            at_line = {i: -x for i, x in at_line.items()}
            d *= (-1) ** k
        val = graded_values(cls, at_line)[k]
        if num_b is not None and (num_b, den_b) != (val, d):
            raise CrossCheckFailed(f"line values on {J} depend on the cone {I}")
        num_b, den_b = val, d
    if value != num_b / den_b:
        raise CrossCheckFailed(f"mu({J}): wedge {value} != line {num_b / den_b}")
    return value


def todd_face_coefficient(fan: MultiFan, J, plane: GenericPlane | None = None) -> Fraction:
    """Todd weight mu_k(J) of a face against a generic plane.

    The constant Laurent coefficient of the product over j in J of
    1/(1 - chi(u_j^J, h) e^(-c_j t)), averaged over the quotient group
    of the face.  The scalars c_j are read twice, from the wedge pairings
    and from the line of the plane, and both readings go through the same
    kernel.  Their agreement checks that the value does not depend on the
    plane (the coefficient has homogeneity degree zero); it is not a
    second route to the value.  The empty face has weight 1 and needs no
    plane.
    """
    J = tuple(sorted(int(j) for j in J))
    if not fan.is_face(J):
        raise RankMismatch(f"{J} is not a face of the fan")
    if not J:
        return Fraction(1)
    if plane is None:
        raise NonGenericPlane("nonempty faces need a generic plane")
    line, pairs = _face_readings(plane, J)
    I0 = fan.cones_containing(J)[0]
    duals = dict(zip(I0, fan.dual_basis_of(I0)))
    face_duals = fan.face_dual_basis(J)
    values = []
    for cs in ([pairs[j] for j in J], [dot(duals[j], line) for j in J]):
        series = fixed_point_series(cs, face_duals, range(len(J)), fan.rank + 3)
        values.append(series.coefficient(0))
    if values[0] != values[1]:
        raise CrossCheckFailed(f"mu_k({J}): wedge {values[0]} != line {values[1]}")
    return values[0]


# ---------------------------------------------------------------------------
# push-forward of the Todd series; rigidity; lattice point coefficients


def todd_pushforward(fan: MultiFan, v, high: int | None = None) -> LaurentSeries:
    """Push-forward of the orbifold Todd series along a generic vector.

    The sum over top cones I and group elements h of
    w(I)/|H_I| prod_{i in I} 1/(1 - chi_I(u_i^I, h) e^(-<u_i^I, v> t)),
    expanded on the window [-n, high].  For a complete multi-fan every
    nonconstant coefficient in the window must cancel; a survivor
    raises RigidityViolation.  The constant term is the degree.
    """
    n = fan.rank
    if high is None:
        high = n
    total = vertex_series(fan, v, high + n + 1)
    for m, c in enumerate(total.coeffs, -n):
        if m and c:
            raise RigidityViolation(f"nonzero coefficient {c} at t^{m}")
    return total


def todd_genus(fan: MultiFan, rng: random.Random | None = None) -> Fraction:
    """Constant term of the Todd push-forward (the degree of the fan)."""
    rng = rng or random.Random(0x7D4)
    v = sample_generic_vector(fan, rng)
    return todd_pushforward(fan, v).coefficient(0)


def ehrhart_coefficients(fan: MultiFan, support) -> tuple[Fraction, ...]:
    """Coefficients a_0 .. a_n with #P(nu * xi) = sum_k a_k nu^(n-k).

    Expands the push-forward of e^(nu xi) times the Todd factors: the
    constant Laurent coefficient per (I, h) is a polynomial in nu whose
    nu^j term is a_I^j / j! times the t^(-j) coefficient of the Todd
    factor product.  Requires an integral support class; a restriction
    with a fractional vertex would produce dilation-dependent phases
    and the count would not be a polynomial.
    """
    if not isinstance(support, SupportClass):
        support = SupportClass(support)
    if not is_complete(fan):
        raise InvalidFan("lattice point polynomials need a complete multi-fan")
    if not support.is_T_Cartier(fan):
        raise NotTCartier("support class has a fractional vertex covector")
    n = fan.rank
    v = sample_generic_vector(fan, random.Random(0xEA7))
    poly = [Fraction(0)] * (n + 1)
    for I, w in zip(fan.cones, fan.weights):
        duals = fan.dual_basis_of(I)
        a = dot(support.restrict(fan, I), v)
        series = fixed_point_series(generic_pairings(duals, v), duals, range(n), n + 3)
        pw = Fraction(w)
        for j in range(n + 1):
            poly[j] += series.coefficient(-j) * pw
            pw = pw * a / (j + 1)
    return tuple(poly[n - k] for k in range(n + 1))


# ---------------------------------------------------------------------------
# residuals of the decomposition statements


def _require_decomposable(fan: MultiFan, cls: EquivariantClass) -> int:
    """The degree k of a class the residuals take: 1..rank, on a complete fan."""
    k = cls.homogeneous_degree()
    if not k or not 1 <= k <= fan.rank:
        raise RankMismatch("class must be homogeneous of degree 1..rank")
    if not is_complete(fan):
        raise InvalidFan("the face decomposition needs a complete multi-fan")
    return k


def face_decomposition_residual(
    fan: MultiFan, cls: EquivariantClass, support, mu
) -> Fraction:
    """p_*(e^xi x) minus p_*(e^xi D), where D = sum_J mu_J x_J.

    `mu` maps the faces J of size k to the coefficients mu(x, J) read
    off one generic plane.  Exactly zero for every complete multi-fan,
    homogeneous class and generic plane.  p_* is linear, so the residual
    is p_*(e^xi x) - sum_J mu_J p_*(e^xi x_J); each p_*(e^xi x_J) is
    computed once per (fan, support, J), with its own pole and
    two-vector checks.
    """
    if not isinstance(support, SupportClass):
        support = SupportClass(support)
    _require_decomposable(fan, cls)
    faces = fan._cache.setdefault("face_pushforward", {})
    residual = p_star(fan, cls, support=support)
    for J, m in mu.items():
        if m:
            if (support, J) not in faces:
                faces[support, J] = p_star(fan, face_class(fan, J), support=support)
            residual -= Fraction(m) * faces[support, J]
    return residual


def cohomology_decomposition_residual(
    fan: MultiFan, cls: EquivariantClass, mu
) -> tuple[Fraction, ...]:
    """Coordinates of x - sum_J mu_J x_J in the cohomology quotient.

    `mu` is the table of face_decomposition_residual.  Zero for fans of
    varieties whose rational cohomology is generated in degree two (for
    example smooth projective toric surfaces).  The reduction is linear,
    so the coordinates are those of x minus the mu-weighted coordinates
    of the x_J, each reduced once per (fan, k, J).
    """
    k = _require_decomposable(fan, cls)
    quotient = cohomology_quotient(fan, k)
    faces = fan._cache.setdefault("face_reduction", {})
    residual = list(quotient.reduce(cls))
    for J, m in mu.items():
        if m:
            if (k, J) not in faces:
                faces[k, J] = quotient.reduce(face_class(fan, J))
            m = Fraction(m)
            residual = [r - m * c for r, c in zip(residual, faces[k, J])]
    return tuple(residual)


def spanning_classes(fan: MultiFan, k: int) -> list[EquivariantClass]:
    """Products of k1 lattice weights with a face class of size k - k1.

    Ranging over 0 <= k1 < k, all faces of that size and all monomials
    in the standard basis covectors, these span the degree-2k part of
    the face ring.
    """
    n = fan.rank
    out = []
    for k1 in range(k):
        basis_weights = [
            embed_weight(fan, tuple(1 if c == b else 0 for c in range(n)))
            for b in range(n)
        ]
        for J in fan.faces_of_card(k - k1):
            for combo in itertools.combinations_with_replacement(range(n), k1):
                cls = face_class(fan, J)
                for b in combo:
                    cls = cls * basis_weights[b]
                out.append(cls)
    return out


# ---------------------------------------------------------------------------
# single cones and additivity under subdivision


def cone_todd_series(rays, v, high: int | None = None) -> LaurentSeries:
    """Todd series of the single cone spanned by n independent edges.

    (1/|H|) sum_h prod_i 1/(1 - chi(u_i, h) e^(-<u_i, v> t)) on the
    window [-n, high], where H is the quotient of the saturated span
    by the integer span of the edges.
    """
    rays = [tuple(int(x) for x in r) for r in rays]
    n = len(rays)
    if high is None:
        high = n
    duals = dual_basis(rays)
    return fixed_point_series(generic_pairings(duals, v), duals, range(n), high + n + 1)


def check_subdivision_cover(parent_rays, child_cones) -> None:
    """Necessary checks that the child cones tile the parent cone.

    Every child edge must lie inside the parent cone, and the volumes of
    the cross-section simplices cut out by a covector that is 1 on a
    transversal hyperplane must add up to the parent's cross-section
    volume.  Both conditions are necessary for an exact cover; raises
    InvalidFan on failure.
    """
    parent = [tuple(r) for r in parent_rays]
    duals = dual_basis(parent)
    level = [sum(col) for col in zip(*duals)]

    def section(cone):
        # the simplex of the points r / <level, r>: |det(cone)| / prod <level, r>
        heights = []
        for r in cone:
            h = dot(level, r)
            if h <= 0:
                raise InvalidFan(f"edge {r} misses the cross-section of the parent")
            heights.append(h)
        return abs(determinant(cone)) / math.prod(heights)

    total = Fraction(0)
    for child in child_cones:
        child = [tuple(r) for r in child]
        if len(child) != len(parent):
            raise InvalidFan("child cone has the wrong number of edges")
        if determinant(child) == 0:
            raise InvalidFan(f"child cone {child} is degenerate")
        for r in child:
            if any(dot(u, r) < 0 for u in duals):
                raise InvalidFan(f"edge {r} lies outside the parent cone")
        total += section(child)
    if total != section(parent):
        raise InvalidFan("child cross-sections do not add up to the parent's")


def subdivision_residual(parent_rays, child_cones, v, high: int | None = None) -> LaurentSeries:
    """Todd series of a subdivision minus the series of the parent cone.

    The Todd series is additive under simplicial subdivisions, so each
    coefficient of the residual on [-n, high] must vanish; callers
    check `is_zero_on`.  The trivial subdivision residual is zero by
    construction.
    """
    n = len(parent_rays)
    if high is None:
        high = n
    total = cone_todd_series(parent_rays, v, high).scale(-1)
    for child in child_cones:
        total = total + cone_todd_series(child, v, high)
    return total
