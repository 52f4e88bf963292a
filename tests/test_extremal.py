import itertools
import math

import numpy as np
import pytest

from qconn import (
    ExtremalParams,
    Graph,
    brute_force_connectivity,
    build_A,
    classify_membership,
    complete,
    cycle,
    degree_profile,
    disjoint_union,
    empty,
    enumerate_Eprime_orbits,
    family_members,
    is_k_connected,
    join,
    make_member,
    orbit_census,
    q_threshold,
    threshold_F,
)
import qconn.extremal as extremal_mod
from qconn.extremal import FAMILY_A1, FAMILY_A2, FAMILY_SUBGRAPH, shrunken_params
from qconn.harness import CampaignConfig, run_campaign

from conftest import petersen


# -- parameters and thresholds -------------------------------------------------


def test_params_validation():
    ExtremalParams(103, 3, 3)
    ExtremalParams(10, 2, 4)  # density-lemma scope allows k = 2
    with pytest.raises(ValueError):
        ExtremalParams(10, 1, 3)
    with pytest.raises(ValueError):
        ExtremalParams(10, 4, 3)  # delta < k
    with pytest.raises(ValueError):
        ExtremalParams(4, 3, 3)  # n <= delta + 1


def test_threshold_F_values():
    # hand evaluation: 12*9 - 2*3 + 1
    assert threshold_F(3, 3) == 103
    # 12*16 - 2*4 + 1
    assert threshold_F(3, 4) == 185
    # independent expansion of the three coefficient terms at k=4:
    # 21 d^2 - 52 d + 32 at d=4
    assert (16 + 8 - 3) == 21
    assert (2 * 64 - 16 - 68 + 8) == 52
    assert (256 - 192 - 128 + 92 + 4) == 32
    assert threshold_F(4, 4) == 21 * 16 - 52 * 4 + 32 == 160
    with pytest.raises(ValueError):
        threshold_F(4, 3)
    with pytest.raises(ValueError):
        threshold_F(2, 5)


def test_threshold_F_monotone():
    for k in range(3, 11):
        for d in range(k, 10):
            assert threshold_F(k, d + 1) > threshold_F(k, d)


def test_q_threshold():
    assert q_threshold(ExtremalParams(103, 3, 3)) == 200
    assert q_threshold(ExtremalParams(10, 3, 4)) == 12
    for n in (20, 50):
        p = ExtremalParams(n, 4, 4)  # k = delta
        assert q_threshold(p) == 2 * (n - 3)


# -- constructions ---------------------------------------------------------------


def test_build_A_small():
    g, part = build_A(ExtremalParams(10, 3, 4))
    # K2 v (K3 u K5): 1 + 3 + 10 internal plus 2*8 join edges
    assert g.n == 10 and g.m == 30
    assert g == join(complete(2), disjoint_union(complete(3), complete(5)))
    assert len(part.X) == 3 and len(part.Y) == 2 and len(part.Z) == 5
    for v in part.X:
        assert g.degree(v) == 4
    for v in part.Y:
        assert g.degree(v) == 9
    for v in part.Z:
        assert g.degree(v) == 6
    assert brute_force_connectivity(g).kappa == 2


def test_build_A_paper_scale():
    params = ExtremalParams(103, 3, 3)
    g, part = build_A(params)
    prof = degree_profile(g)
    assert sorted(prof.degrees).count(3) == 2
    assert sorted(prof.degrees).count(102) == 2
    assert sorted(prof.degrees).count(100) == 99
    assert prof.min_degree == 3 and prof.is_connected
    ok, cut = is_k_connected(g, 3)
    assert not ok and tuple(sorted(cut)) == part.Y


def test_partition_degrees_assorted():
    for (n, k, d) in [(9, 3, 3), (12, 3, 5), (14, 4, 6), (20, 5, 5)]:
        params = ExtremalParams(n, k, d)
        g, part = build_A(params)
        for v in part.X:
            assert g.degree(v) == d
        for v in part.Y:
            assert g.degree(v) == n - 1
        for v in part.Z:
            assert g.degree(v) == n - d + k - 3
        assert not is_k_connected(g, k)[0]


# -- members -----------------------------------------------------------------------


def test_make_member_classes():
    params = ExtremalParams(103, 3, 3)
    assert params.eprime_bound == 1
    m0 = make_member(params, [])
    assert m0.family_class == FAMILY_A1 and m0.hypothesis_ok
    m1 = make_member(params, [(0, 1)])  # the one Y-Y edge
    assert m1.family_class == FAMILY_A1
    m2 = make_member(params, [(0, 4), (4, 5)])
    assert m2.family_class == FAMILY_A2
    assert m2.graph.m == m0.graph.m - 2


def test_make_member_errors():
    params = ExtremalParams(103, 3, 3)
    with pytest.raises(ValueError):
        make_member(params, [(2, 4)])  # X-Z pair is not even an edge of A
    with pytest.raises(ValueError):
        make_member(params, [(2, 3)])  # inside X
    with pytest.raises(ValueError):
        make_member(params, [(0, 4), (0, 4)])  # duplicate
    with pytest.raises(ValueError):
        make_member(params, [(0, 1), (0, 4), (4, 5)])  # above A2 size


def test_member_refinement():
    params = ExtremalParams(103, 3, 3)
    member = make_member(params, [(4, 5), (4, 6)])
    y1, y2, z1, z2 = member.refinement()
    assert len(y1) == 2 and not y2
    assert len(z2) == 3  # vertex 4 lost two edges, 5 and 6 one each
    assert len(z1) == 96
    assert member.y_internal_edges() == 1


# -- orbit enumeration ---------------------------------------------------------------


def test_orbit_representatives_size1():
    params = ExtremalParams(103, 3, 3)
    reps = enumerate_Eprime_orbits(params, 1)
    assert len(reps) == 3
    kinds = set()
    for (edge,) in reps:
        kinds.add(tuple(sorted("Y" if v < 2 else "Z" for v in edge)))
    assert kinds == {("Y", "Y"), ("Y", "Z"), ("Z", "Z")}


def edge_types(rep, y_max=2):
    return tuple(sorted(tuple(sorted("Y" if v < y_max else "Z" for v in e)) for e in rep))


def test_orbit_representatives_size2():
    params = ExtremalParams(103, 3, 3)
    reps = enumerate_Eprime_orbits(params, 2)
    assert len(reps) == 9
    type_counts = {}
    for rep in reps:
        type_counts[edge_types(rep)] = type_counts.get(edge_types(rep), 0) + 1
    # YY can pair with YZ (always sharing a Y) and ZZ (always disjoint)
    assert type_counts[(("Y", "Y"), ("Y", "Z"))] == 1
    assert type_counts[(("Y", "Y"), ("Z", "Z"))] == 1
    # two YZ edges: share Y, share Z, or disjoint
    assert type_counts[(("Y", "Z"), ("Y", "Z"))] == 3
    # YZ + ZZ: sharing a Z endpoint or disjoint
    assert type_counts[(("Y", "Z"), ("Z", "Z"))] == 2
    # two ZZ edges: sharing or disjoint
    assert type_counts[(("Z", "Z"), ("Z", "Z"))] == 2


def test_orbit_census_totals():
    # shrunken instance at |Z| = 5: Y u Z has 7 vertices, 21 internal edges
    small = shrunken_params(ExtremalParams(103, 3, 3), 2)
    assert small.n == 9 and small.z_size == 5
    census1 = orbit_census(small, 1)
    assert sum(size for _, size in census1) == 21
    assert len(census1) == 3
    census2 = orbit_census(small, 2)
    assert sum(size for _, size in census2) == math.comb(21, 2)
    assert len(census2) == 9


def test_orbit_enumeration_guards():
    params = ExtremalParams(103, 3, 3)
    with pytest.raises(ValueError):
        enumerate_Eprime_orbits(params, 3)
    assert enumerate_Eprime_orbits(params, 0) == [()]


def test_orbits_cover_all_configs_exactly_once():
    # every size-2 configuration on the shrunken instance must canonicalize
    # to exactly one representative
    small = shrunken_params(ExtremalParams(103, 3, 3), 2)
    reps = {rep for rep, _ in orbit_census(small, 2)}
    assert len(reps) == 9


def test_family_members_are_the_made_members():
    params = ExtremalParams(103, 3, 3)
    for size in range(params.eprime_bound + 2):
        made = [make_member(params, rep) for rep in enumerate_Eprime_orbits(params, size)]
        assert family_members(params, size) == made


@pytest.fixture
def census_calls(monkeypatch):
    """Clear the census cache and record each ``orbit_census`` call."""
    calls = []
    census = extremal_mod.orbit_census

    def spy(small, size):
        calls.append((small, size))
        return census(small, size)

    extremal_mod._orbit_representatives.cache_clear()
    monkeypatch.setattr(extremal_mod, "orbit_census", spy)
    yield calls
    extremal_mod._orbit_representatives.cache_clear()


def test_one_census_per_shrunken_instance(census_calls):
    # the A1 and A2 sizes once each, across both campaigns
    for mode in ("family-sweep", "theorem15"):
        assert run_campaign(CampaignConfig(mode=mode, n=103, k=3, delta=3)).failed == 0
    assert [size for _, size in census_calls] == [1, 2]


def test_orders_of_one_shrunken_instance_share_its_census(census_calls):
    assert shrunken_params(ExtremalParams(60, 3, 3), 2) == shrunken_params(ExtremalParams(103, 3, 3), 2)
    first = family_members(ExtremalParams(60, 3, 3), 2)
    second = family_members(ExtremalParams(103, 3, 3), 2)
    assert len(census_calls) == 1
    assert [m.removed_edges for m in first] == [m.removed_edges for m in second]


def _y_edges_by_walk(member):
    y = set(member.partition.Y)
    return sum(1 for u, v in member.graph.edges() if u in y and v in y)


def permissive_members():
    """C_8 at (8,3,3), then A(10,3,4) less one X-Y edge and up to two more,
    each classified in permissive mode."""
    subgraphs = [classify_membership(cycle(8), 3, 3, permissive=True)]
    a10, part = build_A(ExtremalParams(10, 3, 4))
    for x, y in itertools.product(part.X, part.Y):
        for extra in ((), ((0, 1),), ((0, 5),), ((5, 6),), ((0, 1), (5, 6))):
            damaged = a10.with_edges_removed([(min(x, y), max(x, y)), *extra])
            subgraphs.append(classify_membership(damaged, 3, 4, permissive=True))
    return subgraphs


def test_y_internal_edges_matches_the_edge_walk():
    params = ExtremalParams(103, 3, 3)
    members = [m for size in range(params.eprime_bound + 2) for m in family_members(params, size)]
    # permissive SUBGRAPH members: removed_edges lists every edge of A they lack
    subgraphs = permissive_members()
    assert all(m.family_class == FAMILY_SUBGRAPH for m in subgraphs)
    y_pairs = [m for m in subgraphs if any(u in m.partition.Y and v in m.partition.Y
                                           for u, v in m.removed_edges)]
    assert len(subgraphs) == 31 and len(y_pairs) == 13
    for member in members + subgraphs:
        assert member.y_internal_edges() == _y_edges_by_walk(member), member.removed_edges


def _removed_by_walk(member):
    """A's edges, carried to the member's labels through its partition (A
    lists Y, then X, then Z), less the graph's edges: sorted."""
    a_graph, _ = build_A(member.params)
    part = member.partition
    inv = dict(enumerate(part.Y + part.X + part.Z))
    missing = []
    for i, j in a_graph.edges():
        u, w = inv[i], inv[j]
        if not member.graph.has_edge(u, w):
            missing.append((min(u, w), max(u, w)))
    return tuple(sorted(missing))


def test_removed_edges_match_the_walk_over_A():
    params = ExtremalParams(8, 3, 3)
    g, part = build_A(params)
    subgraphs = permissive_members()
    subgraphs.append(classify_membership(g.with_edges_removed([(part.X[0], part.Y[0])]), 3, 3,
                                         permissive=True))
    assert len(subgraphs) == 32 and all(m.family_class == FAMILY_SUBGRAPH for m in subgraphs)
    for member in subgraphs:
        assert member.removed_edges == _removed_by_walk(member), member.removed_edges
    # every strict member at (10,3,4): as built, classified, and classified
    # under a seeded relabeling
    params = ExtremalParams(10, 3, 4)
    rng = np.random.default_rng(26)
    strict = []
    for size in range(params.eprime_bound + 2):
        for built in family_members(params, size):
            perm = rng.permutation(params.n)
            relabeled = Graph(params.n, [(perm[u], perm[v]) for u, v in built.graph.edges()])
            strict += [built, classify_membership(built.graph, 3, 4),
                       classify_membership(relabeled, 3, 4)]
    assert len(strict) == 3 * 13
    for i, member in enumerate(strict):
        assert member.family_class == strict[i - i % 3].family_class
        assert member.removed_edges == _removed_by_walk(member), member.removed_edges


# -- classification --------------------------------------------------------------------


def test_classify_intact():
    params = ExtremalParams(10, 3, 4)
    g, part = build_A(params)
    member = classify_membership(g, 3, 4)
    assert member is not None
    assert member.family_class == FAMILY_A1
    assert member.removed_edges == ()
    assert set(member.partition.X) == set(part.X)


def test_classify_one_removed():
    params = ExtremalParams(10, 3, 4)
    assert params.eprime_bound == 1
    g, part = build_A(params)
    z0, z1 = part.Z[0], part.Z[1]
    member = classify_membership(g.with_edges_removed([(z0, z1)]), 3, 4)
    assert member is not None and member.family_class == FAMILY_A1
    assert len(member.removed_edges) == 1


def test_classify_rejects_non_members():
    assert classify_membership(petersen(), 3, 3) is None
    assert classify_membership(complete(10), 3, 3) is None
    assert classify_membership(empty(10), 3, 3) is None


def test_classify_round_trip_paper_scales():
    for (n, k, d) in [(103, 3, 3), (185, 3, 4)]:
        params = ExtremalParams(n, k, d)
        for size in range(params.eprime_bound + 2):
            for rep in enumerate_Eprime_orbits(params, size):
                member = make_member(params, rep)
                got = classify_membership(member.graph, k, d)
                assert got is not None
                assert got.family_class == member.family_class
                assert len(got.removed_edges) == len(rep)


def test_members_not_k_connected():
    params = ExtremalParams(103, 3, 3)
    for size in range(params.eprime_bound + 1):
        for rep in enumerate_Eprime_orbits(params, size):
            member = make_member(params, rep)
            ok, cut = is_k_connected(member.graph, 3)
            assert not ok and len(cut) == 2


def test_z1_nonempty_for_A2():
    params = ExtremalParams(103, 3, 3)
    assert params.z_size > 2 * (params.eprime_bound + 1) + 1
    for rep in enumerate_Eprime_orbits(params, 2):
        member = make_member(params, rep)
        _, _, z1, _ = member.refinement()
        assert z1


def test_permissive_mode():
    params = ExtremalParams(8, 3, 3)
    g, part = build_A(params)
    # drop an X-Y join edge: no exact member has that shape
    damaged = g.with_edges_removed([(part.X[0], part.Y[0])])
    assert classify_membership(damaged, 3, 3) is None
    member = classify_membership(damaged, 3, 3, permissive=True)
    assert member is not None and member.family_class == FAMILY_SUBGRAPH
    assert (min(part.X[0], part.Y[0]), max(part.X[0], part.Y[0])) in member.removed_edges
    # the 8-cycle has a 2-cut splitting 2 + 4, so it embeds in A(8,3,3)
    from qconn import cycle
    assert classify_membership(cycle(8), 3, 3, permissive=True) is not None
    # K8 has no cut at all
    assert classify_membership(complete(8), 3, 3, permissive=True) is None


def test_classify_degree_collision_fallback():
    # at (9,3,4): X degree 4 = Z degree n-d+k-3 = 5... distinct; craft a case
    # where a Z vertex drops to degree delta and could masquerade as X
    params = ExtremalParams(9, 3, 4)
    g, part = build_A(params)
    # Z degree is 9-4+3-3 = 5; removing one incident edge gives 4 = delta
    z0, z1 = part.Z[0], part.Z[1]
    damaged = g.with_edges_removed([(z0, z1)])
    member = classify_membership(damaged, 3, 4)
    assert member is not None
    assert len(member.removed_edges) == 1
    assert set(member.partition.X) == set(part.X)


def test_flagged_members_tiny_params():
    # at (6,3,3) two removals at one Z vertex drop its degree below delta;
    # the member is retained but flagged, and lemma sweeps skip it
    tiny = ExtremalParams(6, 3, 3)
    member = make_member(tiny, [(0, 4), (1, 4)])
    assert member.connected and not member.min_degree_ok
    assert not member.hypothesis_ok
    from qconn import check_lemma_3_8
    rep = check_lemma_3_8(family_members(tiny, tiny.eprime_bound + 1))
    assert not rep.applicable  # order below the polynomial threshold
    assert rep.details["skipped_flagged"]
