"""Rigidity of the equivariant Todd push-forward.

Summing the localized Todd series over all top cones of a complete
multi-fan kills every power of t in the inspection window and leaves
the degree of the fan at t^0, whatever generic direction is used.
"""

import random

from multifan import (
    RigidityViolation,
    MultiFan,
    random_complete_fan,
    sample_generic_vector,
    todd_genus,
    todd_pushforward,
)
from multifan.catalog import line_fan, projective_plane_fan, weighted_p112_fan

for name, fan in [
    ("interval fan", line_fan()),
    ("interval fan with weight 2", line_fan(weight=2)),
    ("projective plane fan", projective_plane_fan()),
    ("weighted plane fan", weighted_p112_fan()),
]:
    v = sample_generic_vector(fan, random.Random(7))
    series = todd_pushforward(fan, v, high=4)
    window = {m: series.coefficient(m) for m in range(-fan.rank, 5)}
    print(f"{name}: direction {v}")
    print("  coefficients:", {m: str(c) for m, c in window.items()})
    print("  genus:", todd_genus(fan))

print("\nrandom complete fans, rank 2 and 3")
for seed in range(4):
    fan = random_complete_fan(seed, 2 + seed % 2, steps=3)
    print(f"  seed {seed}: {len(fan.cones)} cones, genus {todd_genus(fan)}")

print("\nan incomplete fan has poles left over:")
quadrant = MultiFan(2, [(1, 0), (0, 1)], [(0, 1)])
try:
    todd_pushforward(quadrant, (3, 5))
except RigidityViolation as exc:
    print(f"  {exc}")
