"""Decompose cohomology classes into face classes with exact coefficients.

A generic plane E of complementary dimension turns every degree-k class
x into rational coefficients mu(x, J)(E), one per face J of cardinality
k, with x = sum mu(x, J) x_J after push-forward against any support.
The same machinery produces the mu_k coefficients that refine the
dilation polynomial by faces.
"""

import random

from multifan import (
    MultiPolytope,
    SupportClass,
    ehrhart_coefficients,
    face_class,
    face_decomposition_residual,
    morelli_coefficient,
    sample_generic_plane,
    spanning_classes,
    todd_face_coefficient,
    volume,
)
from multifan.catalog import projective_plane_fan

fan = projective_plane_fan()
rng = random.Random(3)

plane = sample_generic_plane(fan, 1, rng)
print("sampled generic plane for k=1, basis:", plane.basis)
print("certificates:", ", ".join(plane.certificates))

print("\ncoefficients of each ray class against the ray faces:")
faces = fan.faces_of_card(1)
for i in range(3):
    row = [morelli_coefficient(fan, face_class(fan, (i,)), J, plane) for J in faces]
    print(f"  x_{i + 1}: {row}")

xi = SupportClass([1, 1, 1])
print("\nresiduals of the degree-1 spanning family (must all be 0):")
for cls in spanning_classes(fan, 1):
    mu = {J: morelli_coefficient(fan, cls, J, plane) for J in faces}
    print("  residual:", face_decomposition_residual(fan, cls, xi, mu))

print("\nface refinement of the dilation coefficients:")
a = ehrhart_coefficients(fan, [1, 1, 1])
P = MultiPolytope(fan, [1, 1, 1])
for k in (1, 2):
    E = sample_generic_plane(fan, k, rng)
    terms = {J: todd_face_coefficient(fan, J, E) for J in fan.faces_of_card(k)}
    total = sum(terms[J] * volume(P, J) for J in terms)
    print(f"  a_{k} = {a[k]} = " + " + ".join(
        f"({terms[J]})*{volume(P, J)}" for J in sorted(terms)
    ) + f" = {total}")

print("\nthe coefficients do not depend on the orientation conventions:")
J = (0,)
x = face_class(fan, (1,))
base = morelli_coefficient(fan, x, J, plane)
flips = [
    morelli_coefficient(fan, x, J, plane, omega_sign=s, line_sign=t)
    for s in (1, -1) for t in (1, -1)
]
print(f"  mu(x_2, {{1}}) = {base}, under flips: {flips}")
