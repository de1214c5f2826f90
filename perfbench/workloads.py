"""Seeded workload generators and the answer checks attached to each op.

An op is one `multifan` command line.  Generators write the fan documents
an op reads and attach checks that are independent of the program:
closed forms (binomial counts on projective space, the direct inequality
count of a convex rank-2 polygon, genus = degree = 1 on genuine complete
fans) and agreements between the reports of two ops of the same pass
(the leading Ehrhart coefficient against `volume`, the constant one
against the `todd` genus).

Every fan is fixed, random ones as `random_complete_fan` draws with fixed
arguments, and the seed places it (see Placement) and moves its supports,
so that neither the set-up nor a pass costs more for one seed than
another.  The choice of fans keeps run time bounded; see README.md.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

WORKLOADS = ("todd-ladder", "count-brute", "face-decompose")

# P(1,1,d) rungs.  P(1,1,47) `todd` takes about 20 s and P(1,1,97) about
# 168 s, so the ladder stops at 23; `ehrhart` skips the two top rungs for
# the same reason.
LADDER = (5, 11, 13, 17, 23)
LADDER_EHRHART_MAX = 13


@dataclass
class Op:
    """One CLI invocation plus the checks its report must pass.

    Each check is called as check(report, pass_reports) after the pass
    ends, where pass_reports maps the index of each op that succeeded to
    its parsed report in the same pass, and returns a message when the
    answer is wrong or, prefixed with UNVERIFIABLE, cannot be checked.
    """

    label: str
    argv: list
    checks: list = field(default_factory=list)


# Prefix of a check message that means the answer could not be checked,
# as opposed to an answer found wrong.
UNVERIFIABLE = "unverifiable: "


class DocWriter:
    """Writes generated documents to a work directory under the checkout."""

    def __init__(self, mf, root: str, workdir: str):
        self.mf = mf
        self.root = root
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)

    def write(self, name: str, fan, supports: dict) -> str:
        doc = self.mf.document_from_fan(fan, supports)
        path = os.path.join(self.workdir, name + ".json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.mf.render_document(doc))
        return os.path.relpath(path, self.root)


# ---------------------------------------------------------------------------
# values read back from reports


def rational(text) -> Fraction:
    if isinstance(text, int):
        return Fraction(text)
    num, _, den = str(text).partition("/")
    return Fraction(int(num), int(den or 1))


def ehrhart_poly(report) -> list:
    return [rational(a) for a in report["results"]["coefficients"]]


def poly_at(coeffs, nu) -> Fraction:
    n = len(coeffs) - 1
    return sum(a * Fraction(nu) ** (n - k) for k, a in enumerate(coeffs))


# ---------------------------------------------------------------------------
# closed forms, computed without the library


def projective_count(n: int, total: int) -> int:
    """Lattice points of P^n with supports summing to `total` >= 0."""
    return math.comb(total + n, n)


def _solve2(a, b, c):
    """The point u with <u, a> = b[0] and <u, c> = b[1] in the plane."""
    det = a[0] * c[1] - a[1] * c[0]
    return (
        Fraction(b[0] * c[1] - b[1] * a[1], det),
        Fraction(a[0] * b[1] - c[0] * b[0], det),
    )


def convex_polygon_count(rays, cones, support):
    """Direct count of {u : <u, v_i> <= d_i} for a convex rank-2 support.

    Returns None unless every vertex satisfies every inequality, which is
    when the support function is convex and the multi-polytope count is
    the plain count of the polygon.
    """
    verts = []
    for i, j in cones:
        u = _solve2(rays[i], (support[i], support[j]), rays[j])
        verts.append(u)
        if any(u[0] * r[0] + u[1] * r[1] > d for r, d in zip(rays, support)):
            return None
    lo = [math.floor(min(v[c] for v in verts)) for c in range(2)]
    hi = [math.ceil(max(v[c] for v in verts)) for c in range(2)]
    return sum(
        1
        for x in range(lo[0], hi[0] + 1)
        for y in range(lo[1], hi[1] + 1)
        if all(x * r[0] + y * r[1] <= d for r, d in zip(rays, support))
    )


# ---------------------------------------------------------------------------
# checks


def check_count(expected: int):
    def check(report, _):
        got = report["results"]["formula"]
        if got != expected or report["results"]["bruteforce"] != expected:
            return f"count {got} / {report['results']['bruteforce']}, closed form {expected}"
    return check


def check_polynomial(counter, nus):
    """Ehrhart polynomial against an independent count at each dilation."""
    def check(report, _):
        if report["results"]["mode"] != "polynomial":
            return f"mode {report['results']['mode']}, expected polynomial"
        coeffs = ehrhart_poly(report)
        for nu in nus:
            if poly_at(coeffs, nu) != counter(nu):
                return f"polynomial at nu={nu} is {poly_at(coeffs, nu)}, closed form {counter(nu)}"
    return check


def check_genus_one(report, _):
    r = report["results"]
    if rational(r["genus"]) != 1 or r["degree"] != 1:
        return f"genus {r['genus']}, degree {r['degree']}, closed form 1"


def check_against_partners(volume_op, todd_op):
    """a_0 equals the `volume` report and a_n the `todd` genus."""
    def check(report, pass_reports):
        coeffs = ehrhart_poly(report)
        if volume_op is not None:
            other = pass_reports.get(volume_op)
            if other is None:
                return UNVERIFIABLE + "its volume op failed"
            if coeffs[0] != rational(other["results"]["volume"]):
                return f"a_0 {coeffs[0]} != volume {other['results']['volume']}"
        if todd_op is not None:
            other = pass_reports.get(todd_op)
            if other is None:
                return UNVERIFIABLE + "its todd op failed"
            if coeffs[-1] != rational(other["results"]["genus"]):
                return f"a_n {coeffs[-1]} != todd genus {other['results']['genus']}"
    return check


def check_validate(degree: int, complete: bool = True):
    def check(report, _):
        r = report["results"]
        if r["complete"] is not complete or r["pre_complete"] is not True or r["degree"] != degree:
            return f"validate complete={r['complete']} degree={r['degree']}, expected degree {degree}"
    return check


# ---------------------------------------------------------------------------
# helpers on generated fans


def cone_index(mf, fan, I) -> int:
    """Order of the quotient group of a top cone: |det| of its edges."""
    return abs(int(mf.determinant([fan.edge(i) for i in I])))


def cartier_multiple(mf, fan, support) -> int:
    """Smallest m such that m * support restricts integrally on every cone."""
    sc = mf.SupportClass(support)
    m = 1
    for I in fan.cones:
        for x in sc.restrict(fan, I):
            m = math.lcm(m, x.denominator)
    return m


def interior_ray(fan, I):
    """Primitive sum of the edges of cone I, strictly inside it."""
    s = [sum(fan.edge(i)[c] for i in I) for c in range(fan.rank)]
    g = 0
    for x in s:
        g = math.gcd(g, x)
    return tuple(x // g for x in s)


def weighted_plane(mf, d: int):
    """P(1,1,d): one cone of index d, two smooth ones."""
    return mf.MultiFan(2, [(1, 0), (0, 1), (-1, -d)], [(0, 1), (1, 2), (0, 2)])


class Placement:
    """A seeded copy of a fan: a signed permutation of the coordinates and
    a relabelling of the rays.

    A signed permutation is an automorphism of the lattice that keeps
    every coordinate box the same size, so counts, volumes, genera and
    degrees, the cone indices and the brute-force box, and with them the
    cost of every op, are the same for every seed; the documents and the
    answers' coordinates are not.
    """

    def __init__(self, mf, fan, rng):
        n = fan.rank
        self.axes = rng.sample(range(n), n)
        self.signs = [rng.choice((-1, 1)) for _ in range(n)]
        self.order = rng.sample(range(fan.n_rays), fan.n_rays)  # new ray k is old order[k]
        self.new = {old: new for new, old in enumerate(self.order)}
        self.fan = mf.MultiFan(
            n,
            [self.vector(fan.rays[old]) for old in self.order],
            [tuple(self.new[i] for i in c) for c in fan.cones],
            fan.weights,
            [fan.multipliers[old] for old in self.order],
        )

    def vector(self, v):
        return tuple(s * v[a] for s, a in zip(self.signs, self.axes))

    def support(self, values):
        return [values[old] for old in self.order]

    def face(self, rays) -> str:
        """1-based `--face` argument of the image of a set of old ray indices."""
        return ",".join(str(i + 1) for i in sorted(self.new[r] for r in rays))


def translated(fan, support, m):
    """Support of the multi-polytope moved by the lattice vector m.

    {u : <u, e_i> <= d_i} + m = {u : <u, e_i> <= d_i + <m, e_i>}, which
    has the same lattice points, the same Ehrhart polynomial and a
    brute-force box of the same size.
    """
    return [d + sum(a * b for a, b in zip(m, fan.edge(i))) for i, d in enumerate(support)]


def shift(rng, rank: int):
    return tuple(rng.randint(-2, 2) for _ in range(rank))


# ---------------------------------------------------------------------------
# todd-ladder


# Fixed members of the ladder besides P(1,1,d), as random_complete_fan
# arguments (seed, rank, star subdivisions): fans of rank 2 to 4 with 8 to
# 43 cones and largest cone index 3 to 12.  Random fans of 44 to 50 cones
# in rank 3 and 4 take 3 to 240 s per op, so only the rank-2 fan is that big.
TODD_FANS = ((1, 2, 40), (630633907, 2, 5), (64294825, 2, 12), (746860543, 2, 20),
             (412100693, 3, 4), (452595253, 3, 8), (570247596, 4, 3),
             (65583689, 4, 4))


def todd_ladder(mf, root, workdir, seed):
    rng = random.Random(f"todd-ladder:{seed}")
    out = DocWriter(mf, root, workdir)
    ops = []
    # (label, fan, with an ehrhart op)
    fans = [(f"P(1,1,{d})", weighted_plane(mf, d), d <= LADDER_EHRHART_MAX) for d in LADDER]
    for fan_seed, dim, steps in TODD_FANS:
        fan = mf.random_complete_fan(fan_seed, dim, steps)
        fans.append((f"random rank {dim}, {len(fan.cones)} cones", fan, True))
    for k, (name, base, with_ehrhart) in enumerate(fans):
        placed = Placement(mf, base, rng)
        fan = placed.fan
        m = cartier_multiple(mf, fan, [1] * fan.n_rays)
        path = out.write(f"todd{k:02d}", fan, {"cartier": [m] * fan.n_rays})
        todd_idx = len(ops)
        ops.append(Op(f"todd {name}", ["todd", path], [check_genus_one]))
        vol_idx = len(ops)
        ops.append(Op(f"volume {name}", ["volume", path, "cartier"]))
        if with_ehrhart:
            ops.append(Op(f"ehrhart {name}", ["ehrhart", path, "cartier"],
                          [check_against_partners(vol_idx, todd_idx)]))
        # the first cone of index <= 2, wherever the placement put it
        cone = next(I for I in base.cones if cone_index(mf, base, I) <= 2)
        ray = interior_ray(fan, [placed.new[i] for i in cone])
        ops.append(Op(f"subdivide-check {name}",
                      ["subdivide-check", path, "--ray=" + ",".join(map(str, ray))]))
    return ops


# ---------------------------------------------------------------------------
# count-brute


def _random_split(rng, total: int, parts: int):
    cuts = sorted(rng.randint(0, total) for _ in range(parts - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


def _count_ops(label, path, support_arg, face, nu_check, count_check=None,
               face_check=None, poly_check=None):
    """`count`, `count --face` unless face is None, `ehrhart --nu-check`."""
    ops = [Op(f"count {label}", ["count", path, support_arg],
              [count_check] if count_check else [])]
    if face is not None:
        ops.append(Op(f"count {label} face",
                      ["count", path, support_arg, "--face", face],
                      [face_check] if face_check else []))
    ops.append(Op(f"ehrhart {label} nu<={nu_check}",
                  ["ehrhart", path, support_arg, "--nu-check", str(nu_check)],
                  [poly_check] if poly_check else []))
    return ops


# Dilation totals D (sum of the supports) of P^2 and P^3, with the rays of
# the face counted.  Every split of D over the rays is a translate of the
# same simplex, so the seed splits D.  Brute force on random rank-3 and
# rank-4 fans takes 59 s and 354 s, so those are left out.
COUNT_PROJECTIVE = ((2, 15, (0,)), (2, 24, (1,)), (3, 3, (3,)), (3, 5, (1, 3)))
# Rank-2 random fans (random_complete_fan arguments) whose unit support has
# a fractional vertex on a cone of index >= 3, where count_formula fails
# today (ROADMAP item 1).
COUNT_FANS = ((505738816, 2, 4), (777176654, 2, 4))
# Hirzebruch fans F_a, each with the convex support [0, 0, 2, 2] moved by
# the seed, and the ray whose face is counted.
COUNT_HIRZEBRUCH = ((1, 0), (3, 2))
# (document under demos/fans, support, ray whose face is counted)
DEMO_SUPPORTS = (
    ("square.json", "unit", 0),
    ("square.json", "skew", 3),
    ("weighted-plane.json", "unit", 1),
    ("weighted-plane.json", "corner", 2),
    ("projective-plane.json", "unit", 2),
    ("doubled-interval.json", "unit", 0),
)


def count_brute(mf, root, workdir, seed):
    rng = random.Random(f"count-brute:{seed}")
    out = DocWriter(mf, root, workdir)
    ops = []
    for t, (n, total, face) in enumerate(COUNT_PROJECTIVE):
        placed = Placement(mf, mf.projective_space_fan(n), rng)
        support = placed.support(_random_split(rng, total, n + 1))
        path = out.write(f"p{n}_{t}", placed.fan, {"s": support})
        ops += _count_ops(
            f"P^{n} D={total}", path, "s", placed.face(face), 2,
            check_count(projective_count(n, total)),
            check_count(projective_count(n - len(face), total)),
            check_polynomial(lambda nu, n=n, total=total: projective_count(n, nu * total),
                             range(n + 2)),
        )
    for h, (a, face) in enumerate(COUNT_HIRZEBRUCH):
        placed = Placement(mf, mf.hirzebruch_fan(a), rng)
        fan = placed.fan
        support = translated(fan, placed.support([0, 0, 2, 2]), shift(rng, 2))
        path = out.write(f"hirzebruch{h}", fan, {"s": support})
        count = lambda nu, s=support, fan=fan: convex_polygon_count(
            fan.rays, fan.cones, [nu * x for x in s])
        ops += _count_ops(f"F_{a}", path, "s", placed.face([face]), 2,
                          check_count(count(1)), None, check_polynomial(count, range(4)))
    for d, (name, support_name, face) in enumerate(DEMO_SUPPORTS):
        doc = mf.load_document(os.path.join("demos", "fans", name))
        placed = Placement(mf, doc.fan(), rng)
        fan = placed.fan
        support = translated(fan, placed.support(doc.supports[support_name]),
                             shift(rng, fan.rank))
        path = out.write(f"demo{d}", fan, {support_name: support})
        count_check = None
        if fan.rank == 2 and all(w == 1 for w in fan.weights):
            expected = convex_polygon_count(fan.rays, fan.cones, support)
            if expected is not None:
                count_check = check_count(expected)
        ops += _count_ops(f"{name} {support_name}", path, support_name,
                          placed.face([face]), 2, count_check)
    for r, (fan_seed, dim, steps) in enumerate(COUNT_FANS):
        placed = Placement(mf, mf.random_complete_fan(fan_seed, dim, steps), rng)
        fan = placed.fan
        path = out.write(f"random{r}", fan, {"unit": [1] * fan.n_rays})
        ops += _count_ops(f"random rank 2, {len(fan.cones)} cones", path, "unit", None, 1)
    # the reproducer of the vertex-phase sign defect in count_formula
    placed = Placement(mf, mf.MultiFan(2, [(1, 0), (0, 1), (-1, -5)],
                                       [(0, 1), (1, 2), (0, 2)]), rng)
    path = out.write("phase_reproducer", placed.fan, {"unit": [1, 1, 1]})
    ops += _count_ops("phase reproducer", path, "unit", placed.face([0]), 2, check_count(11))
    return ops


# ---------------------------------------------------------------------------
# face-decompose


# The fixed rank-3 fan sets the heaviest ops of a pass; the random fans
# (random_complete_fan arguments) stay small.  `morelli` for k = 2, 3 on
# rank-3 random fans of 8 cones takes 3 to 6 s, so those get `validate`
# and k = 1 only.
FACE_FIXED3 = (0, 3, 1)  # 6 cones
FACE_FANS = ((724434918, 2, 2), (410523990, 2, 2), (799627390, 2, 2), (992592575, 3, 1))
FACE_HIRZEBRUCH = 2


def face_decompose(mf, root, workdir, seed):
    rng = random.Random(f"face-decompose:{seed}")
    out = DocWriter(mf, root, workdir)
    smooth = [
        ("cross", mf.cross_fan()),
        ("P^2", mf.projective_plane_fan()),
        (f"F_{FACE_HIRZEBRUCH}", mf.hirzebruch_fan(FACE_HIRZEBRUCH)),
    ]
    # (label, fan, largest k)
    fans = [(name, fan, 2) for name, fan in smooth] + [
        ("P(1,1,2)", mf.weighted_p112_fan(), 2),
        ("P^3", mf.projective_space_fan(3), 3),
        ("fixed rank 3", mf.random_complete_fan(*FACE_FIXED3), 3),
    ]
    for r, (fan_seed, dim, steps) in enumerate(FACE_FANS):
        fans.append((f"random rank {dim} #{r}", mf.random_complete_fan(fan_seed, dim, steps),
                     2 if dim == 2 else 1))
    ops = []
    for k, (name, base, top) in enumerate(fans):
        fan = Placement(mf, base, rng).fan
        path = out.write(f"face{k:02d}", fan, {"unit": [1] * fan.n_rays})
        ops.append(Op(f"validate {name}", ["validate", path], [check_validate(1)]))
        for j in range(1, top + 1):
            planes = 2 if j == 1 else 1
            ops.append(Op(f"morelli {name} k={j}",
                          ["morelli", path, "--k", str(j), "--planes", str(planes),
                           "--xi", "unit"]))
    for name, base in smooth:
        path = out.write(f"smooth_{name.replace('^', '')}", Placement(mf, base, rng).fan, {})
        for j in (1, 2):
            ops.append(Op(f"morelli --cohomology {name} k={j}",
                          ["morelli", path, "--k", str(j), "--planes", "2", "--cohomology"]))
    return ops


GENERATORS = {
    "todd-ladder": todd_ladder,
    "count-brute": count_brute,
    "face-decompose": face_decompose,
}
