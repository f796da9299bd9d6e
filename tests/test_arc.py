"""Arc approximations: cell complexes, routing, parametrisation, verification."""

import copy
import functools
import math
import random
from fractions import Fraction as F
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractarc.cantor import (Address, GenerationBudgetError, ProductCantor,
                             RatioCantorSet, RatioSequence, SelfSimilarCantor,
                             product_for_dimension)
from fractarc.arc import (ArcApproximation, Connector, RoutingFailed,
                          build_arc, continuity_violations,
                          modulus_of_continuity, param_intervals,
                          route_connectors, sample_addresses,
                          verify_containment, verify_injectivity, _gap_box)
from fractarc.geometry import (boxes_disjoint, points_bbox, polylines_disjoint,
                               vlerp)

LOG2_3 = math.log(2.0) / math.log(3.0)


def planar_sets():
    base = RatioCantorSet(RatioSequence.dyadic())
    product = ProductCantor(SelfSimilarCantor(F(1, 3)), 1)
    return base, product


def first_generation(base, product):
    return build_arc(base, product, 1).generation_cells(1)


def rows_of(depth, ambient_dimension):
    """The derived parameter rows, with lo and hi as Fractions."""
    return [SimpleNamespace(**{**row, "lo": F(row["lo"]), "hi": F(row["hi"])})
            for row in param_intervals(depth, ambient_dimension)]


def tree(arc):
    """The arc's parameter tree as a dict from row id to row."""
    return {row.id: row for row in rows_of(arc.depth, arc.ambient_dimension)}


#: Arcs small enough for the all-pairs connector scan.
SUBSUMPTION_ARCS = (("planar", 1), ("planar", 2), ("planar", 3), ("spatial", 2))


@functools.lru_cache(maxsize=None)
def reference_arc(kind, depth):
    """A built arc shared by the property tests; never mutated."""
    base = RatioCantorSet(RatioSequence.dyadic())
    product = planar_sets()[1] if kind == "planar" else product_for_dimension(1.5)
    return build_arc(base, product, depth)


def pair_scan_violations(arc, k):
    """Every pair of cumulative connectors that shares a point, by scanning
    all pairs: the oracle of the traversal check."""
    conns = arc.cumulative_connectors(k)
    boxes = {c.id: points_bbox(c.vertices) for c in conns}
    violations = []
    for i in range(len(conns)):
        ci = conns[i]
        for j in range(i + 1, len(conns)):
            cj = conns[j]
            if boxes_disjoint(boxes[ci.id], boxes[cj.id]):
                continue
            if not polylines_disjoint(ci.vertices, cj.vertices):
                violations.append((ci.id, cj.id))
    return violations


@pytest.fixture(scope="module")
def figure_arc():
    base, product = planar_sets()
    return build_arc(base, product, 4)


class TestFirstGeneration:
    def test_four_cells_in_distance_order(self):
        cells = first_generation(*planar_sets())
        assert [cell.generation for cell in cells] == [1] * 4
        boxes = [cell.box for cell in cells]
        assert boxes == [
            ((F(0), F(1, 4)), (F(0), F(1, 3))),
            ((F(0), F(1, 4)), (F(2, 3), F(1))),
            ((F(3, 4), F(1)), (F(0), F(1, 3))),
            ((F(3, 4), F(1)), (F(2, 3), F(1))),
        ]

    def test_cell_count_scales_with_axes(self):
        base = RatioCantorSet(RatioSequence.dyadic())
        product = ProductCantor(SelfSimilarCantor(F(1, 4)), 2)
        assert len(first_generation(base, product)) == 8  # 2^(n+1) with n = 2

    def test_first_cell_touches_origin(self):
        cells = first_generation(*planar_sets())
        assert cells[0].near_corner == (F(0), F(0))
        assert cells[0].distance_sq == 0


class TestParamSubdivision:
    def test_planar_subdivision_counts(self):
        root, *kids = rows_of(1, 2)
        assert root.children == [kid.id for kid in kids]
        assert len(kids) == 7
        assert all(kid.hi - kid.lo == F(1, 7) for kid in kids)
        statuses = [kid.status for kid in kids]
        assert statuses == ["neglected", "used", "neglected", "used",
                            "neglected", "used", "neglected"]

    def test_two_axis_subdivision(self):
        root, *kids = rows_of(1, 3)
        assert len(kids) == len(root.children) == 15
        assert sum(1 for kid in kids if kid.status == "neglected") == 8

    def test_used_interval_does_not_subdivide(self):
        rows = rows_of(3, 2)
        assert all(row.children == [] for row in rows if row.status == "used")
        assert all(len(row.children) == 7 for row in rows
                   if row.status == "neglected" and row.depth < 3)

    def test_children_tile_parent(self):
        rows = {row.id: row for row in rows_of(3, 2)}
        for row in rows.values():
            kids = [rows[i] for i in row.children]
            if kids:
                assert kids[0].lo == row.lo and kids[-1].hi == row.hi
                assert all(a.hi == b.lo for a, b in zip(kids, kids[1:]))


class TestRouting:
    def test_first_generation_has_three_connectors(self, figure_arc):
        assert len(figure_arc.connectors_at(1)) == 3

    def test_single_cell_needs_no_connector(self):
        base, product = planar_sets()
        arc = ArcApproximation(base, product)
        arc.build_to(1)
        gap = _gap_box(arc.cells[0].box, arc._child_lengths(1))
        assert route_connectors(arc.generation_cells(1)[:1], arc.cells[0].box, gap) == []

    def test_figure_connector_geometry(self, figure_arc):
        first = figure_arc.connectors_at(1)
        assert [c.vertices for c in first] == [
            [(F(1, 4), F(1, 3)), (F(0), F(2, 3))],
            [(F(1, 4), F(1)), (F(3, 4), F(0))],
            [(F(1), F(1, 3)), (F(3, 4), F(2, 3))],
        ]

    def test_connectors_join_far_to_near(self, figure_arc):
        for conn in figure_arc.connectors:
            assert conn.source == figure_arc.cells[conn.source_cell].far_corner
            assert conn.target == figure_arc.cells[conn.target_cell].near_corner

    def test_three_dimensional_routing(self):
        base = RatioCantorSet(RatioSequence.dyadic())
        product = product_for_dimension(1.0)  # two axes, ambient 3
        arc = build_arc(base, product, 2)
        assert len(arc.connectors) == 63
        assert verify_injectivity(arc, 2).passed


class TestCountingInvariants:
    def test_cells_connectors_per_depth(self, figure_arc):
        rows = tree(figure_arc).values()
        for k in range(1, 5):
            assert len(figure_arc.generation_cells(k)) == 4 ** k
            assert len(figure_arc.cumulative_connectors(k)) == 4 ** k - 1
            used = [row for row in rows if row.depth == k and row.status == "used"]
            assert len(used) == len(figure_arc.connectors_at(k)) == 4 ** (k - 1) * 3

    def test_param_partition_tiles_unit_interval(self, figure_arc):
        rows = tree(figure_arc).values()
        for depth in range(1, 5):
            used = [row for row in rows if row.depth == depth and row.status == "used"]
            neglected = [row for row in rows
                         if row.depth == depth and row.status == "neglected"]
            # total neglected length shrinks by 4/7 per depth
            assert sum((iv.hi - iv.lo for iv in neglected), F(0)) == F(4, 7) ** depth
            covered = sum((iv.hi - iv.lo for iv in used), F(0))
            assert covered == F(4, 7) ** (depth - 1) - F(4, 7) ** depth

    def test_order_coherence(self, figure_arc):
        # neglected children in parameter order match cells in distance order
        rows = tree(figure_arc)
        for iv in rows.values():
            kids = [rows[i] for i in iv.children if rows[i].status == "neglected"]
            ranks = [figure_arc.cells[kid.link].rank for kid in kids]
            assert ranks == sorted(ranks)

    def test_refinement_consistency(self, figure_arc):
        rows = tree(figure_arc)
        for iv in rows.values():
            for kid in (rows[i] for i in iv.children):
                assert iv.lo <= kid.lo and kid.hi <= iv.hi
        for cell in figure_arc.cells[1:]:
            parent = figure_arc.cells[cell.parent_id]
            for (plo, phi), (clo, chi) in zip(parent.box, cell.box):
                assert plo <= clo and chi <= phi

    def test_budget_exceeded(self):
        base, product = planar_sets()
        arc = ArcApproximation(base, product, cell_budget=64)
        arc.build_to(3)
        with pytest.raises(GenerationBudgetError):
            arc.build_to(4)


class TestEvaluate:
    def test_midpoint_of_first_used_interval(self, figure_arc):
        iv = next(row for row in rows_of(1, 2) if row.status == "used")
        point, err = figure_arc.evaluate(float((iv.lo + iv.hi) / 2), 1)
        assert err == 0.0
        # straight connector: constant speed hits the segment midpoint
        assert point[0] == pytest.approx(0.125)
        assert point[1] == pytest.approx(0.5)

    def test_origin_parameter_maps_to_first_cell_corner(self, figure_arc):
        for k in range(1, 5):
            point, err = figure_arc.evaluate(0.0, k)
            assert point == (0.0, 0.0)
            assert err == pytest.approx(figure_arc.cell_diameter(k))

    def test_depth_consistency_on_grid(self, figure_arc):
        for i in range(0, 1000, 7):
            t = i / 999.0
            for k in range(1, 4):
                p1, _ = figure_arc.evaluate(t, k)
                p2, _ = figure_arc.evaluate(t, k + 1)
                assert math.dist(p1, p2) <= figure_arc.cell_diameter(k) + 1e-12

    def test_rejects_unbuilt_depth(self, figure_arc):
        with pytest.raises(ValueError):
            figure_arc.evaluate(0.5, 7)


class TestInjectivity:
    def test_figure_build_passes(self, figure_arc):
        for k in (1, 2, 3):
            report = verify_injectivity(figure_arc, k)
            assert report.passed, report

    def test_single_cell_vacuous(self):
        base, product = planar_sets()
        arc = ArcApproximation(base, product)
        arc.build_to(1)
        report = verify_injectivity(arc, 1)
        assert report.passed

    def test_corrupted_connector_detected(self):
        base, product = planar_sets()
        arc = build_arc(base, product, 2)
        # reroute one depth-2 connector straight through its siblings' region
        victim = arc.connectors_at(2)[0]
        other = arc.connectors_at(2)[1]
        detour_through_other = tuple((a + b) / 2
                                     for a, b in zip(other.source, other.target))
        crossing = [victim.source, detour_through_other, victim.target]
        arc.connectors[victim.id] = Connector(
            victim.id, victim.depth, crossing, victim.parent_cell,
            victim.source_cell, victim.target_cell, victim.param_length)
        report = verify_injectivity(arc, 2)
        assert not report.passed
        assert report.traversal_violation is not None or report.clearance_violations

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_traversal_check_subsumes_pair_scan(self, data):
        # one connector rerouted through a waypoint on another connector or
        # at a lattice point; every pair the all-pairs scan flags must also
        # break the traversal chain
        kind, depth = data.draw(st.sampled_from(SUBSUMPTION_ARCS))
        arc = reference_arc(kind, depth)
        conns = arc.connectors
        victim = conns[data.draw(st.integers(0, len(conns) - 1))]
        if data.draw(st.booleans()):
            index = data.draw(st.integers(0, len(conns) - 2))
            other = conns[index + (index >= victim.id)]
            seg = data.draw(st.integers(0, len(other.vertices) - 2))
            t = F(data.draw(st.integers(0, 16)), 16)
            waypoint = vlerp(other.vertices[seg], other.vertices[seg + 1], t)
        else:
            waypoint = tuple(F(data.draw(st.integers(0, 64)), 64)
                             for _ in range(arc.ambient_dimension))
        tampered = copy.copy(arc)
        tampered.connectors = list(conns)
        tampered.connectors[victim.id] = Connector(
            victim.id, victim.depth, [victim.source, waypoint, victim.target],
            victim.parent_cell, victim.source_cell, victim.target_cell,
            victim.param_length)
        if pair_scan_violations(tampered, depth):
            assert verify_injectivity(tampered, depth).traversal_violation is not None

    def test_traversal_chain_glues(self, figure_arc):
        chain = figure_arc.traversal_chain(3)
        assert chain[0] == (F(0), F(0))
        assert chain[-1] == (F(1), F(1))


class TestContainment:
    def test_origin_address_distance_zero(self, figure_arc):
        addr = Address(("0000", "0000"))
        for k in range(1, 5):
            rep = verify_containment(figure_arc, k, [addr])
            assert rep.max_distance == 0.0

    def test_all_ones_address_near_last_cell(self, figure_arc):
        addr = Address(("1111", "1111"))
        rep = verify_containment(figure_arc, 4, [addr])
        assert rep.max_distance == 0.0  # far corner is shared down the chain

    def test_random_addresses_within_bound_and_shrinking(self, figure_arc):
        rng = random.Random(4)
        addrs = sample_addresses(figure_arc, 100, rng)
        worst = []
        for k in range(1, 5):
            rep = verify_containment(figure_arc, k, addrs)
            assert rep.passed
            worst.append(rep.max_distance)
        assert all(a > b for a, b in zip(worst, worst[1:]))


class TestModulus:
    def test_vacuous_epsilon(self, figure_arc):
        rep = modulus_of_continuity(figure_arc, 2.0)
        assert rep.vacuous and rep.delta == 1.0

    def test_cutoff_just_above_first_generation(self, figure_arc):
        eps = figure_arc.cell_diameter(1) + 0.01
        rep = modulus_of_continuity(figure_arc, eps)
        assert rep.cutoff_depth == 1
        assert rep.delta_prime == pytest.approx(1.0 / (2 * 49))
        lipschitz = max(c.lipschitz for c in figure_arc.connectors_at(1))
        assert rep.lipschitz_bound == pytest.approx(lipschitz)
        assert rep.delta == pytest.approx(min(1.0 / 98, eps / (2 * lipschitz)))

    def test_zero_violations_for_sampled_pairs(self, figure_arc):
        rng = random.Random(9)
        for eps in (0.5, 0.25, 0.12):
            rep = modulus_of_continuity(figure_arc, eps)
            assert continuity_violations(figure_arc, eps, rep.delta, 2000, rng) == 0

    def test_needs_depth_beyond_cutoff(self):
        base, product = planar_sets()
        shallow = build_arc(base, product, 1)
        with pytest.raises(GenerationBudgetError):
            modulus_of_continuity(shallow, 0.3)


class TestGeometryExactness:
    def test_all_corners_and_vertices_are_rational(self, figure_arc):
        from fractions import Fraction
        for cell in figure_arc.cells:
            for lo, hi in cell.box:
                assert type(lo) is Fraction and type(hi) is Fraction
        for conn in figure_arc.connectors:
            for vertex in conn.vertices:
                assert all(type(c) is Fraction for c in vertex)
        for row in param_intervals(figure_arc.depth, figure_arc.ambient_dimension):
            for text in (row["lo"], row["hi"]):
                x = Fraction(text)
                assert f"{x.numerator}/{x.denominator}" == text


class TestOtherConfigurations:
    def test_four_axis_ambient_routing(self):
        base = RatioCantorSet(RatioSequence.dyadic())
        product = product_for_dimension(2.2)  # three copies, ambient 4
        assert product.copies == 3
        arc = build_arc(base, product, 1)
        assert len(arc.connectors) == 2 ** 4 - 1
        assert verify_injectivity(arc, 1).passed

    def test_depth_five_planar_build(self):
        base, product = planar_sets()
        arc = build_arc(base, product, 5)
        assert len(arc.connectors) == 4 ** 5 - 1
        report = verify_injectivity(arc, 5)
        assert report.passed
        assert report.connector_pairs_checked == (4 ** 5 - 1) * (4 ** 5 - 2) // 2

    def test_harmonic_family_arc(self):
        base = RatioCantorSet(RatioSequence.harmonic())
        arc = build_arc(base, ProductCantor(SelfSimilarCantor(F(2, 5)), 1), 3)
        assert verify_injectivity(arc, 3).passed
        addrs = sample_addresses(arc, 50, random.Random(1))
        assert verify_containment(arc, 3, addrs).passed

    def test_geometric_family_arc(self):
        base = RatioCantorSet(RatioSequence.geometric(F(2, 5)))
        arc = build_arc(base, ProductCantor(SelfSimilarCantor(F(1, 4)), 1), 3)
        assert verify_injectivity(arc, 3).passed


class TestVertexCloudConvergence:
    def test_hausdorff_distance_bounded_by_cell_diameter(self, figure_arc):
        import numpy as np

        def hausdorff(a, b):
            d_ab = max(float(np.min(np.linalg.norm(b - p, axis=1))) for p in a)
            d_ba = max(float(np.min(np.linalg.norm(a - p, axis=1))) for p in b)
            return max(d_ab, d_ba)

        for k in range(1, 4):
            ca = figure_arc.vertex_cloud(k)
            cb = figure_arc.vertex_cloud(k + 1)
            assert hausdorff(ca, cb) <= figure_arc.cell_diameter(k) + 1e-12


class TestArcAsRugFactor:
    def test_rug_sample_is_vertices_times_grid(self, figure_arc):
        from fractarc.metric import ArcFactor, RugSpace
        space = RugSpace(ArcFactor(figure_arc))
        k = 3
        pts = space.sample(k)
        cloud = figure_arc.vertex_cloud(k)
        assert pts.shape == (len(cloud) * 2 ** k, 3)

    def test_rug_distance_uses_euclidean_first_factor(self, figure_arc):
        from fractarc.metric import ArcFactor, RugSpace
        space = RugSpace(ArcFactor(figure_arc))
        p = (0.0, 0.0, 0.0)
        q = (0.3, 0.4, 0.1)
        assert space.distance(p, q) == pytest.approx(0.5)


class TestLipschitz:
    def test_constant_is_length_over_interval(self, figure_arc):
        conn = figure_arc.connectors_at(1)[1]
        # the long diagonal of the first generation
        assert conn.length == pytest.approx(math.sqrt(0.25 + 1.0))
        assert conn.lipschitz == pytest.approx(conn.length * 7)

    def test_endpoints_of_parametrisation(self, figure_arc):
        conn = figure_arc.connectors_at(2)[5]
        assert conn.point_at(0.0) == tuple(float(c) for c in conn.source)
        assert conn.point_at(1.0) == tuple(float(c) for c in conn.target)
