"""Additivity of the cone Todd series under star subdivision.

Each simplicial cone has a Todd series in one variable t built from a
generic direction; subdividing the cone and adding the pieces leaves
the series unchanged, coefficient by coefficient, even when the pieces
are singular and contribute character sums over nontrivial groups.
"""

from multifan import cone_todd_series, check_subdivision_cover, subdivision_residual

quadrant = [(1, 0), (0, 1)]
v = (5, 3)

series = cone_todd_series(quadrant, v, high=2)
print("quadrant cone, direction (5,3):")
for m in range(-2, 3):
    print(f"  t^{m}: {series.coefficient(m)}")

splits = {
    "smooth split at (1,1)": [[(1, 0), (1, 1)], [(1, 1), (0, 1)]],
    "singular split at (2,1)": [[(1, 0), (2, 1)], [(2, 1), (0, 1)]],
    "no-op": [quadrant],
}
for name, children in splits.items():
    check_subdivision_cover(quadrant, children)
    res = subdivision_residual(quadrant, children, v)
    values = [res.coefficient(m) for m in range(-2, 3)]
    print(f"{name}: residual {values}")

octant = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
children = [
    [(1, 0, 0), (0, 1, 0), (1, 1, 1)],
    [(0, 1, 0), (0, 0, 1), (1, 1, 1)],
    [(1, 0, 0), (0, 0, 1), (1, 1, 1)],
]
check_subdivision_cover(octant, children)
res = subdivision_residual(octant, children, (7, 3, 2))
print("octant split through (1,1,1): residual is zero on the window:",
      res.is_zero_on(-3, 3))
