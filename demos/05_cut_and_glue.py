"""
Superinjective maps that miss curves
====================================

Cutting along a separating curve and gluing a gadget into the seam
embeds the old surface into a new one.  Every old curve keeps its
meaning (dual chains are rerouted across the seam), intersection
numbers are preserved, and the new handle carries curves that no old
curve maps to.  With a finite gadget the new surface is homeomorphic to
the old one; with an infinite arm it is not, yet the curve map is still
superinjective.
"""

import random

from curvelab import (
    PantsCurve,
    build_truncation,
    check_superinjective,
    cut_and_glue,
    format_ref,
    surfaces_homeomorphic,
)

g = build_truncation("loch_ness", 4)
res = cut_and_glue(g, "c2", gadget="s12")
print(f"glued a one-handled gadget at c2: {len(g.pants)} pants -> {len(res.target.pants)}")
print("map:", res.map.provenance)

moved = [(s, t) for s, t in res.map.assoc if s != t]
print(f"\n{len(res.map.assoc)} domain curves, {len(moved)} rerouted across the seam:")
for s, t in moved:
    print(f"  {format_ref(s)} -> {format_ref(t)}")

print("\nwitnesses outside the image:", [format_ref(w) for w in res.witnesses])

rng = random.Random(7)
domain = sorted(res.map.domain, key=format_ref)
pairs = [(rng.choice(domain), rng.choice(domain)) for _ in range(200)]
rep = check_superinjective(res.map, pairs)
print(f"superinjectivity on {rep['checked']} sampled pairs:"
      f" {len(rep['violations'])} violations, {len(rep['skipped'])} undefined")
print("target homeomorphic to source:", surfaces_homeomorphic(g, res.target, 1))

# An infinite arm changes the end space: the map is just as good, but
# the two surfaces can no longer be homeomorphic.
m = cut_and_glue(g, "c2", gadget="ladder").map
pairs = [(a, b) for a in m.domain for b in m.domain if isinstance(a, PantsCurve)]
rep = check_superinjective(m, pairs[:300])
print(f"\narm gadget: {len(rep['violations'])} violations on {rep['checked']} pairs,"
      f" homeomorphic: {surfaces_homeomorphic(g, m.target, 1)}")
