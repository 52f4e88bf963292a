#!/usr/bin/env python3
"""Certified Q-index brackets, and why certification beats point estimates.

The largest eigenvalue of Q = D + A drives the k-connectivity certificate,
so we never settle for "the solver said 199.9999": every estimate carries
rigorous lower and upper Collatz-Wielandt bounds, and the independent
dense eigvalsh oracle is around to keep the iteration honest.
"""

from qconn import (
    complete,
    cycle,
    disjoint_union,
    empty,
    join,
    q_index,
    q_index_dense_oracle,
    q_upper_bound_edges,
    rayleigh_q_exact,
    verify_eigen_identity,
)

print("== closed forms ==")
for n in (4, 10, 25):
    est = q_index(complete(n), 1e-10)
    print(f"K_{n}:  q in [{est.lower:.12f}, {est.upper:.12f}]  (exact: {2 * (n - 1)})")
for n in (5, 12):
    est = q_index(cycle(n), 1e-10)
    print(f"C_{n}:  q in [{est.lower:.12f}, {est.upper:.12f}]  (exact: 4)")

print("\n== iterative bracket vs dense eigvalsh oracle ==")
star = join(complete(1), empty(7))
est = q_index(star, 1e-10)
print(f"star on 8 vertices: bracket [{est.lower:.12f}, {est.upper:.12f}], "
      f"oracle {q_index_dense_oracle(star):.12f}")

print("\n== the clique-plus-isolated-vertices benchmark ==")
g = disjoint_union(complete(101), empty(2))
est = q_index(g, 1e-10)
print(f"K_101 u 2 isolated vertices: q = {est.value:.9f} (converged={est.converged})")
print("exact Rayleigh quotient of the clique indicator (a lower bound for q):",
      rayleigh_q_exact(g, [1] * 101 + [0, 0]))

print("\n== edge-count upper bound 2m/(n-1) + n - 2 ==")
for g, name in [(complete(6), "K_6"), (cycle(7), "C_7"), (star, "star_8")]:
    print(f"{name}: q <= {q_upper_bound_edges(g):.6f}, actual {q_index_dense_oracle(g):.6f}")

print("\n== eigen-identity residuals of the converged Perron pair ==")
g = join(complete(3), disjoint_union(complete(2), complete(6)))
report = verify_eigen_identity(g, q_index(g, 1e-10))
print(f"entrywise identity residual: {report.eq1_residual:.2e}")
print(f"pairwise identity residual:  {report.eq2_residual:.2e}  (bound {report.bound:.2e})")
