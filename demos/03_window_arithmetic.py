"""
Slope arithmetic inside windows
===============================

Around a handle the surface contains a one-holed torus, and around a
separating curve joining two distinct pants a four-holed sphere.  Inside
such a window the simple curves are labelled by coprime slopes p/q, and
intersection numbers become determinants.
"""

from curvelab import (
    abstract_window,
    build_truncation,
    dt_uniqueness_check,
    dt_vector,
    make_slope,
    parse_ref,
    sch04_common_neighbors,
    slopes_up_to,
    triple_completion,
    twist,
    window_around,
    window_intersection,
)

torus = abstract_window("torus")
sphere = abstract_window("sphere")

a, b = make_slope(0, 1), make_slope(2, 5)
print(f"torus  i({a}, {b}) = {window_intersection(torus, a, b)}")
print(f"sphere i({a}, {b}) = {window_intersection(sphere, a, b)}")

# Twisting along a curve is a unimodular change of slope and never
# changes intersection numbers.
t = twist(torus, a, make_slope(1, 0))
print(f"\ntwist of 1/0 along {a}: {t}")
x, y = make_slope(1, 3), make_slope(4, 7)
tx, ty = twist(torus, a, x), twist(torus, a, y)
print(f"i({x}, {y}) = {window_intersection(torus, x, y)}"
      f" = i({tx}, {ty}) = {window_intersection(torus, tx, ty)}")

# Any curve crossing the axis at least twice splits into a triple: two
# curves through the axis once each, sharing the crossings additively.
g1, g2 = triple_completion(torus, a, b)
print(f"\ntriple through {a} splitting {b}: {g1} and {g2}")
print(f"i({b}, {g1}) + i({b}, {g2}) = "
      f"{window_intersection(torus, b, g1)} + {window_intersection(torus, b, g2)}"
      f" = i({a}, {b}) = {window_intersection(torus, a, b)}")

# In a four-holed sphere, two curves crossing twice have exactly two
# common neighbors that cross each of them twice: the sum and the
# difference of their slopes.
sols = sch04_common_neighbors(sphere, make_slope(0, 1), make_slope(1, 1))
print(f"\ntwo-crossing neighbors of 0/1 and 1/1: {sorted(map(str, sols))}")

# Intersections against a small fixed family pin a slope down uniquely.
print("\nslopes up to 20 with equal coordinate vectors:",
      dt_uniqueness_check(torus, 20) or "none")

# The same arithmetic runs on a window found inside a surface.
g = build_truncation("loch_ness", 4)
w = window_around(g, "c2")
print(f"\nwindow at c2: {w.kind}, {len(w.cuff_slots)} cuffs")
coords = [parse_ref("pants:c2"), parse_ref("win:c2:1/0")]
print("coordinates of win:c2:1/1:", dt_vector(g, parse_ref("win:c2:1/1"), coords))
print(f"slopes with |p|,|q| <= 2: {len(slopes_up_to(2))}")
