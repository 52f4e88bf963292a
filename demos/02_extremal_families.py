#!/usr/bin/env python3
"""The exceptional families: construction, orbits, and classification.

A(n,k,delta) = K_{k-1} v (K_{delta-k+2} u K_{n-delta-1}) is the barely-not-
k-connected graph this whole library orbits around.  Removing up to
floor((delta-k+2)(k-1)/4) edges inside Y u Z stays in class A1 (still meets
the spectral threshold); exactly one more lands in A2 (drops just below).
"""

from qconn import (
    ExtremalParams,
    build_A,
    classify_membership,
    family_members,
    is_k_connected,
    make_member,
    orbit_census,
    q_threshold,
    threshold_F,
    write_graph6,
)
from qconn.extremal import shrunken_params

params = ExtremalParams(103, 3, 3)
print(f"order threshold F(3,3) = {threshold_F(3, 3)}")
print(f"spectral threshold 2(n-delta+k-3) = {q_threshold(params)}")

g, part = build_A(params)
print(f"\nA(103,3,3): n={g.n}, m={g.m}")
print(f"  X (degree delta)      : {part.X}")
print(f"  Y (degree n-1)        : {part.Y}")
print(f"  Z (degree n-delta+k-3): {part.Z[:6]} ... ({len(part.Z)} vertices)")
ok, cut = is_k_connected(g, 3)
print(f"  3-connected? {ok}; witness cut = {cut} (the join part Y)")

print(f"\nE' budget: A1 up to {params.eprime_bound}, A2 exactly {params.eprime_bound + 1}")
for size in (1, 2):
    members = family_members(params, size)  # one member per orbit representative
    print(f"size-{size} orbit representatives ({len(members)}):")
    for member in members:
        print(f"  remove {list(member.removed_edges)} -> class {member.family_class}")

print("\norbit census on the shrunken instance (|Z| capped at 5), run once and")
print("shared by every order of (k, delta, size) = (3, 3, 2):")
small = shrunken_params(params, 2)
census = orbit_census(small, 2)
total = sum(size for _, size in census)
print(f"  {len(census)} orbits covering {total} = C(21,2) configurations")

print("\nclassification round trip:")
member = make_member(params, [(4, 5), (4, 6)])
back = classify_membership(member.graph, 3, 3)
print(f"  built member with E'={list(member.removed_edges)}, class {member.family_class}")
print(f"  classifier recovered |E'|={len(back.removed_edges)}, class {back.family_class}")
print(f"  graph6 prefix: {write_graph6(member.graph)[:40]}...")
