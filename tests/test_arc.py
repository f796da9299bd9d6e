"""Arc approximations: cell complexes, routing, parametrisation, verification."""

import copy
import dataclasses
import functools
import math
import random
from array import array
from fractions import Fraction as F
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fractarc.cantor import (GenerationBudgetError, ProductCantor, RatioCantorSet,
                             RatioSequence, SelfSimilarCantor, product_for_dimension)
import fractarc.arc as arc_module
from fractarc.arc import (ArcApproximation, RoutingFailed, build_arc, continuity_violations,
                          modulus_of_continuity, route_connectors, verify_containment,
                          verify_injectivity, _path_legal)
from fractarc.cli import RunConfig, arc_estimate, build_model
from fractarc.geometry import (boxes_disjoint, chain_self_intersection, lift, points_bbox,
                               polylines_disjoint, vlerp, vsub)
import oracles
from oracles import (Address, Connector, RowView, box_corners, class_checks, cloud_box_count,
                     connector_vertex_cloud, fraction_evaluate, full_product, lattices_nest,
                     param_intervals, path_legal as fraction_path_legal, row_verify_injectivity,
                     rows_are_children, rows_contain, sample_addresses, scan_containment,
                     shape_of, view_verify_injectivity)

LOG2_3 = math.log(2.0) / math.log(3.0)


def planar_sets():
    base = RatioCantorSet(RatioSequence.dyadic())
    product = ProductCantor(SelfSimilarCantor(F(1, 3)), 1)
    return base, product


def first_generation(base, product):
    return RowView(build_arc(base, product, 1)).generation_cells(1)


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


@functools.lru_cache(maxsize=None)
def reference_views(kind, depth):
    """The ``RowView`` of ``reference_arc(kind, depth)``; never mutated."""
    return RowView(reference_arc(kind, depth))


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


def per_connector_clearance(arc, k):
    """One ``Fraction`` clearance check per connector, which must be a single
    segment: the oracle of the integer check once per translation key."""
    violations = []
    for conn in arc.cumulative_connectors(k):
        ranked = arc.sub_cells(conn.parent_cell)
        s = conn.source_cell - ranked[0].id
        if not (len(conn.vertices) == 2
                and fraction_path_legal(conn.vertices, [c.box for c in ranked], s,
                                        arc.cells[conn.parent_cell].box)):
            violations.append(conn.id)
    return violations


def integer_frame(parent_box, boxes, vertices):
    """``_path_legal``'s arguments for a Fraction frame: the parent's far
    corner, the boxes' corners and the vertices, all over one denominator
    and minus the parent's near corner."""
    points = [tuple(lo for lo, _ in parent_box), tuple(hi for _, hi in parent_box)]
    for box in boxes:
        points += [tuple(lo for lo, _ in box), tuple(hi for _, hi in box)]
    _, (near, *lifted) = lift(points + list(vertices))
    offsets = [tuple(a - b for a, b in zip(p, near)) for p in lifted]
    return offsets[:2 * len(boxes) + 1], offsets[2 * len(boxes) + 1:]


#: A parent cell and two sub-cells of a clearance frame.
UNIT_SQUARE = ((F(0), F(1)), (F(0), F(1)))
FRAME_BOXES = [((F(0), F(1, 4)), (F(0), F(1, 4))), ((F(1, 2), F(3, 4)), (F(1, 2), F(3, 4)))]


@st.composite
def clearance_frames(draw):
    """(parent box, sub-cell boxes, rank s, segment) on a k/8 grid in 2-D or
    3-D.  Boxes may overlap, touch or leave the parent; segment ends are box
    corners or free k/16 points, or a segment runs on through its drawn end,
    so zero-length segments, segments outside the parent, sliding along a
    face or touching a corner mid-segment all come up."""
    dim = draw(st.sampled_from([2, 3]))
    grid = st.integers(-4, 4)
    parent = tuple((F(lo, 8), F(lo + draw(st.integers(4, 8)), 8))
                   for lo in (draw(grid) for _ in range(dim)))
    boxes = []
    for _ in range(draw(st.integers(1, 4))):
        box = []
        for lo, _ in parent:
            low = lo + F(draw(st.integers(-1, 7)), 8)
            box.append((low, low + F(draw(st.integers(1, 4)), 8)))
        boxes.append(tuple(box))
    s = draw(st.integers(0, len(boxes) - 1))
    if s + 1 < len(boxes) and draw(st.booleans()):
        # the built connector: far corner of s to near corner of s+1
        return parent, boxes, s, [tuple(hi for _, hi in boxes[s]),
                                  tuple(lo for lo, _ in boxes[s + 1])]
    corners = [c for box in (parent, *boxes) for c in box_corners(box)]
    free = st.tuples(*[st.integers(-2, 10).map(lambda n, lo=lo: lo + F(n, 16))
                       for lo, _ in parent])
    point = st.sampled_from(corners) | free
    # an end on a corner of cell s, the other on one of cell s+1, or anywhere
    a, b = (draw(st.sampled_from(box_corners(boxes[min(r, len(boxes) - 1)])) | point)
            for r in (s, s + 1))
    if draw(st.booleans()):
        b = tuple(2 * y - x for x, y in zip(a, b))  # passes the drawn b at t = 1/2
    return parent, boxes, s, [a, b]


# -- the waypoint router, kept as the oracle of the straight connectors ------

#: Waypoint offsets, as fractions of the inter-cell gap, tried in order when
#: the straight segment fails its legality tests, first as single waypoints,
#: then as axis detours.  All lie within (-3/8, 3/8) so every waypoint stays
#: strictly inside the open gap box.
CLEARANCE_OFFSETS = tuple(
    F(n, d) for n, d in (
        (0, 1), (1, 8), (-1, 8), (1, 4), (-1, 4), (1, 16), (-1, 16),
        (3, 16), (-3, 16), (5, 16), (-5, 16), (1, 32), (-1, 32),
        (3, 32), (-3, 32), (5, 32), (-5, 32), (7, 32), (-7, 32),
    ))


def _gap_box(parent_box, child_lengths):
    """Open middle gap per axis; no sub-cell meets a point whose every
    coordinate lies in its gap."""
    gaps = []
    for (lo, hi), h in zip(parent_box, child_lengths):
        g_lo, g_hi = lo + h, hi - h
        if not g_lo < g_hi:
            raise ValueError("child intervals leave no middle gap")
        gaps.append((g_lo, g_hi))
    return tuple(gaps)


def _candidate_paths(src, dst, gap):
    yield (src, dst)
    center = tuple((lo + hi) / 2 for lo, hi in gap)
    span = tuple(hi - lo for lo, hi in gap)
    for off in CLEARANCE_OFFSETS:
        w = tuple(c + off * s for c, s in zip(center, span))
        yield (src, w, dst)
    for off in CLEARANCE_OFFSETS:
        base = [c + off * s for c, s in zip(center, span)]
        for axis in range(len(center)):
            w1 = list(base)
            w2 = list(base)
            w1[axis] = base[axis] - span[axis] / 8
            w2[axis] = base[axis] + span[axis] / 8
            yield (src, tuple(w1), tuple(w2), dst)


def search_route_connectors(ordered_cells, parent_box, gap):
    """Vertex paths joining consecutive cells in distance order: the straight
    segment first, then gap-waypoint detours from the clearance schedule."""
    paths = []
    for s in range(len(ordered_cells) - 1):
        src = ordered_cells[s].far_corner
        dst = ordered_cells[s + 1].near_corner
        chosen = None
        for cand in _candidate_paths(src, dst, gap):
            if not fraction_path_legal(cand, [c.box for c in ordered_cells], s,
                                       parent_box):
                continue
            if all(polylines_disjoint(cand, p) for p in paths):
                chosen = list(cand)
                break
        if chosen is None:
            raise RoutingFailed(
                f"no legal path between cells ranked {s + 1} and {s + 2} of "
                f"generation {ordered_cells[s].generation} "
                f"(parent {ordered_cells[s].parent_id}); clearance schedule exhausted")
        paths.append(chosen)
    return paths


@st.composite
def run_configs(draw):
    """A RunConfig with its depth inside the oracle's budget: planar depth
    <= 3, spatial <= 2, ambient dimension 4 at depth 1."""
    family = draw(st.sampled_from(["dyadic", "harmonic", "geometric"]))
    params = {}
    if family == "geometric":
        params["q"] = draw(st.sampled_from([F(1, 2), F(1, 3), F(3, 4), F(2, 5),
                                            F(1, 10), F(9, 10)]))
    c = draw(st.floats(1.05, 3.9))
    max_depth = {2: 3, 3: 2}.get(int(c - 1) + 2, 1)
    return RunConfig(target_dimension=c, ratio_family=family, ratio_params=params,
                     depth=draw(st.integers(1, max_depth)))


def parents_with_connectors(arc):
    """(generation, order, parent, its sub-cells, its connectors) for every
    parent of a view; the order is the sub-cells' last branch bits in rank
    order."""
    q = arc.branching
    for k in range(1, arc.depth + 1):
        for parent in arc.generation_cells(k - 1):
            sub_cells = arc.sub_cells(parent.id)
            order = tuple(tuple(w[-1] for w in cell.address) for cell in sub_cells)
            conns = arc.connectors[parent.id * (q - 1):(parent.id + 1) * (q - 1)]
            yield k, order, parent, sub_cells, conns


@pytest.fixture(scope="module")
def figure_arc():
    base, product = planar_sets()
    return build_arc(base, product, 4)


@pytest.fixture(scope="module")
def figure_views(figure_arc):
    return RowView(figure_arc)


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
    def test_first_generation_has_three_connectors(self, figure_views):
        assert len(figure_views.connectors_at(1)) == 3

    def test_single_cell_needs_no_connector(self):
        # one sub-cell that fills its parent: no connector, and it glues
        base, product = planar_sets()
        cell = RowView(ArcApproximation(base, product, 1)).generation_cells(1)[0]
        assert route_connectors(shape_of([cell], cell.box), 1, 0) == []

    @pytest.mark.parametrize("ranked", [slice(0, 3), slice(1, 4)], ids=["far", "near"])
    def test_a_parent_that_does_not_glue_is_refused(self, ranked):
        # legal, disjoint connectors, but the last sub-cell misses the
        # parent's far corner, or the first its near corner
        views = reference_views("planar", 1)
        cells = views.generation_cells(1)[ranked]
        with pytest.raises(RoutingFailed, match=r"check \(e\) fails at generation 1 "
                                                r"\(parent 0\)"):
            route_connectors(shape_of(cells, views.cells[0].box), 1, 0)

    def test_illegal_segment_names_generation_parent_and_ranks(self):
        base, product = planar_sets()
        views = RowView(ArcApproximation(base, product, 1))
        cells = views.generation_cells(1)
        # rank order 1, 4, 2, 3: the segment from the fourth cell's far corner
        # to the second cell's near corner runs through both cells
        with pytest.raises(RoutingFailed, match=r"generation 1 \(parent 0\) between "
                                                r"cells ranked 2 and 3"):
            route_connectors(shape_of([cells[0], cells[3], cells[1], cells[2]],
                                      views.cells[0].box), 1, 0)

    def test_crossing_segments_are_refused(self):
        views = reference_views("spatial", 1)
        cells = views.generation_cells(1)
        # each segment alone is legal among these four cells, but the third
        # crosses the first
        with pytest.raises(RoutingFailed, match="ranked 3 and 4"):
            route_connectors(shape_of([cells[1], cells[6], cells[4], cells[3]],
                                      views.cells[0].box), 1, 0)

    @settings(max_examples=40, deadline=None)
    @given(config=run_configs())
    def test_search_router_picks_the_straight_segments(self, config):
        arc = build_model(config)
        for k, _, parent, sub_cells, conns in parents_with_connectors(RowView(arc)):
            gap = _gap_box(parent.box, [s.generation_length(k) for s in arc._axis_sets])
            assert (search_route_connectors(sub_cells, parent.box, gap)
                    == [c.vertices for c in conns]), (k, parent.id)

    @staticmethod
    def checked_parents(config):
        """(parent id, segment count) of every ``route_connectors`` run
        while ``config`` is built, and the built arc."""
        import fractarc.arc as arc_module
        real = arc_module.route_connectors
        checked = []

        def record(shape, generation, parent_id):
            segments = real(shape, generation, parent_id)
            checked.append((parent_id, len(segments)))
            return segments

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(arc_module, "route_connectors", record)
            arc = build_model(config)
        return checked, arc

    @settings(max_examples=40, deadline=None)
    @given(config=run_configs())
    def test_route_checks_the_first_parent_of_each_class(self, config):
        # one run per distinct parent shape picks the same parents as one
        # per (generation, order) class of the view
        checked, arc = self.checked_parents(config)
        firsts = {}
        for k, order, parent, _, _ in parents_with_connectors(RowView(arc)):
            firsts.setdefault((k, order), parent.id)
        assert [parent for parent, _ in checked] == list(firsts.values())
        # each run returns the representative's q-1 segments
        assert all(n == arc.branching - 1 for _, n in checked)

    @pytest.mark.parametrize("config, runs", [
        (RunConfig(depth=5), 9),  # of 341 parents
        (RunConfig(depth=6), 11),
        (RunConfig(target_dimension=2.5, depth=4), 30)])
    def test_route_runs_once_per_distinct_shape(self, config, runs):
        checked, _ = self.checked_parents(config)
        assert len(checked) == runs

    @settings(max_examples=40, deadline=None)
    @given(config=run_configs())
    def test_connectors_are_translates_within_each_class(self, config):
        # the class check's premise: sub-cell boxes and connectors, minus the
        # parent's near corner, depend only on (generation, order)
        shapes = {}
        for k, order, parent, sub_cells, conns in parents_with_connectors(
                RowView(build_model(config))):
            origin = parent.near_corner
            shape = (tuple(tuple(zip(vsub(cell.near_corner, origin),
                                     vsub(cell.far_corner, origin))) for cell in sub_cells),
                     tuple(tuple(vsub(v, origin) for v in c.vertices) for c in conns))
            assert shapes.setdefault((k, order), shape) == shape, (k, parent.id)

    def test_figure_connector_geometry(self, figure_views):
        first = figure_views.connectors_at(1)
        assert [c.vertices for c in first] == [
            [(F(1, 4), F(1, 3)), (F(0), F(2, 3))],
            [(F(1, 4), F(1)), (F(3, 4), F(0))],
            [(F(1), F(1, 3)), (F(3, 4), F(2, 3))],
        ]

    def test_connectors_join_far_to_near(self, figure_views):
        for conn in figure_views.connectors:
            assert conn.source == figure_views.cells[conn.source_cell].far_corner
            assert conn.target == figure_views.cells[conn.target_cell].near_corner

    def test_three_dimensional_routing(self):
        base = RatioCantorSet(RatioSequence.dyadic())
        product = product_for_dimension(1.0)  # two axes, ambient 3
        arc = build_arc(base, product, 2)
        assert len(RowView(arc).connectors) == 63
        assert verify_injectivity(arc, 2).passed


class TestCountingInvariants:
    def test_cells_connectors_per_depth(self, figure_views):
        rows = tree(figure_views).values()
        for k in range(1, 5):
            assert len(figure_views.generation_cells(k)) == 4 ** k
            assert len(figure_views.cumulative_connectors(k)) == 4 ** k - 1
            used = [row for row in rows if row.depth == k and row.status == "used"]
            assert len(used) == len(figure_views.connectors_at(k)) == 4 ** (k - 1) * 3

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

    def test_order_coherence(self, figure_views):
        # neglected children in parameter order match cells in distance order
        rows = tree(figure_views)
        for iv in rows.values():
            kids = [rows[i] for i in iv.children if rows[i].status == "neglected"]
            ranks = [figure_views.cells[kid.link].rank for kid in kids]
            assert ranks == sorted(ranks)

    def test_refinement_consistency(self, figure_views):
        rows = tree(figure_views)
        for iv in rows.values():
            for kid in (rows[i] for i in iv.children):
                assert iv.lo <= kid.lo and kid.hi <= iv.hi
        for cell in figure_views.cells[1:]:
            parent = figure_views.cells[cell.parent_id]
            for (plo, phi), (clo, chi) in zip(parent.box, cell.box):
                assert plo <= clo and chi <= phi

    def test_budget_exceeded(self, monkeypatch):
        import fractarc.arc as arc_module
        monkeypatch.setattr(arc_module, "DEFAULT_CELL_BUDGET", 64)
        base, product = planar_sets()
        assert ArcApproximation(base, product, 3).depth == 3
        with pytest.raises(GenerationBudgetError, match="needs 2\\^8 cells, over the budget 64"):
            ArcApproximation(base, product, 4)
        with pytest.raises(ValueError, match="depth must be non-negative"):
            ArcApproximation(base, product, -1)


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

    @settings(max_examples=200, deadline=None)
    @given(kind=st.sampled_from(["planar", "spatial"]), k=st.integers(1, 4),
           t=st.floats(0.0, 1.0))
    def test_integer_digits_match_fraction_digits_on_floats(self, kind, k, t):
        arc = reference_arc(kind, 4 if kind == "planar" else 2)
        views = reference_views(kind, arc.depth)
        k = min(k, arc.depth)
        assert arc.evaluate(t, k) == fraction_evaluate(views, t, k)

    @settings(max_examples=200, deadline=None)
    @given(kind=st.sampled_from(["planar", "spatial"]), k=st.integers(1, 4),
           j=st.integers(1, 4), data=st.data())
    def test_integer_digits_match_fraction_digits_on_piece_boundaries(
            self, kind, k, j, data):
        # m / p^j is an end of a depth-j parameter piece
        arc = reference_arc(kind, 4 if kind == "planar" else 2)
        views = reference_views(kind, arc.depth)
        k = min(k, arc.depth)
        p = 2 * arc.branching - 1
        t = F(data.draw(st.integers(0, p ** j)), p ** j)
        assert arc.evaluate(t, k) == fraction_evaluate(views, t, k)

    @pytest.mark.parametrize("kind,depth", [("planar", 4), ("spatial", 2)])
    def test_integer_digits_match_fraction_digits_at_the_ends(self, kind, depth):
        arc, views = reference_arc(kind, depth), reference_views(kind, depth)
        for k in range(1, depth + 1):
            for t in (0, 1, 0.0, 1.0, F(0), F(1)):
                assert arc.evaluate(t, k) == fraction_evaluate(views, t, k)


#: How ``tampered_rows`` changes one generation's index rows.
ROW_TAMPERINGS = ("honest", "permute", "sibling", "swap")


@st.composite
def tampered_rows(draw):
    """(kind, depth, arc) with one generation's rows tampered: one parent's
    sub-cells permuted, a sub-cell's index replaced by a sibling's, or two
    rows swapped across parents (within one parent when there is only
    one); or the honest arc."""
    kind, depth = draw(st.sampled_from(SUBSUMPTION_ARCS))
    arc = reference_arc(kind, depth)
    how = draw(st.sampled_from(ROW_TAMPERINGS))
    if how == "honest":
        return kind, depth, arc
    q = arc.branching
    g = draw(st.integers(1, depth))
    rows = index_rows(arc, g)
    parents = len(rows) // q
    c = draw(st.integers(0, parents - 1))
    if how == "permute":
        rows[c * q:(c + 1) * q] = rows[c * q:(c + 1) * q][draw(st.permutations(range(q)))]
    else:
        i, j = draw(st.lists(st.integers(0, q - 1), min_size=2, max_size=2, unique=True))
        if how == "sibling":
            rows[c * q + i] = rows[c * q + j]
        else:
            other = draw(st.integers(0, parents - 1).filter(lambda o: o != c or parents == 1))
            a, b = c * q + i, other * q + j
            rows[[a, b]] = rows[[b, a]]
    return kind, depth, with_rows(arc, g, rows)


def index_rows(arc, g):
    """A writable (q^g, d) integer array of the generation-g index rows."""
    return np.array(arc.generation_columns(g)).T.copy()


def with_rows(arc, g, rows):
    """A shallow copy of ``arc`` whose generation-g index rows are ``rows``,
    an (n, d) integer array, stored as the arc stores them: read-only
    columns."""
    tampered = copy.copy(arc)
    tampered._columns = list(arc._columns)
    tampered._columns[g] = tuple(memoryview(array("q", column)).toreadonly()
                                 for column in np.asarray(rows).T.tolist())
    return tampered


class _TamperedLattice:
    """A Cantor set whose generation-2 lattice is ``tamper`` applied to a
    list of the lower ends and the length."""

    def __init__(self, inner, tamper):
        self.inner, self.tamper = inner, tamper

    def lattice(self, k):
        lows, length, den = self.inner.lattice(k)
        return self.tamper(list(lows), length) + (den,) if k == 2 else (lows, length, den)


def _past_parent(lows, length):
    # interval 1 moved one lattice step right: it still ends before
    # interval 2 starts, but no longer inside its parent
    lows[1] += 1
    return lows, length


#: Generation-2 lattices that fail check (a) on their own, by the clause
#: each breaks.
BAD_LATTICES = {
    "order": lambda lows, length: ([lows[i] for i in (1, 0, 2, 3)], length),
    "overlap": lambda lows, length: ([lows[0], lows[0], *lows[2:]], length),
    "nesting": _past_parent,
    "length": lambda lows, length: (lows, 0),
}


def with_base_lattice(arc, tamper):
    """A shallow copy of ``arc`` whose base axis reads its generation-2
    lattice through ``tamper`` (see ``_TamperedLattice``)."""
    tampered = copy.copy(arc)
    tampered._axis_sets = (_TamperedLattice(arc._axis_sets[0], tamper),) + arc._axis_sets[1:]
    return tampered


def swapped_pair_mutant():
    """Planar depth 2 with the base axis's generation-2 intervals 0 and 1
    swapped in the lattice and in the rows: the same cells as the honest
    arc, and only (a) fails."""
    arc = reference_arc("planar", 2)
    rows = index_rows(arc, 2)
    rows[:, 0] = np.choose(np.minimum(rows[:, 0], 2), [1, 0, rows[:, 0]])
    return with_base_lattice(with_rows(arc, 2, rows), BAD_LATTICES["order"])


def _short_of_parent(lows, length):
    # interval 1 moved one lattice step left, still inside its parent
    lows[1] -= 1
    return lows, length


def short_of_parent_mutant():
    """Planar depth 2 with the base axis's generation-2 interval 1 moved one
    lattice step left, still inside its parent: the parent's far corner is
    no longer a depth-2 corner, so the connector leaving it does not glue
    and only (e) fails."""
    return with_base_lattice(reference_arc("planar", 2), _short_of_parent)


def aliased_row_mutant():
    """Planar depth 2 with one generation-2 row's axis-0 index written as its
    negative alias (i - 2^2), which indexes the same interval: only (b)
    fails, and the geometry is the honest one."""
    arc = reference_arc("planar", 2)
    rows = index_rows(arc, 2)
    rows[5, 0] -= 4
    return with_rows(arc, 2, rows)


def crossing_mutant():
    """Spatial depth 1 with the root's sub-cells in the order 0, 1, 2, 5, 4,
    3, 6, 7: each connector clears its siblings, but two of them cross, so
    only (d) fails."""
    arc = reference_arc("spatial", 1)
    rows = index_rows(arc, 1)[[0, 1, 2, 5, 4, 3, 6, 7]]
    return with_rows(arc, 1, rows)


class TestInjectivity:
    def test_figure_build_passes(self, figure_arc):
        for k in (1, 2, 3):
            report = verify_injectivity(figure_arc, k)
            assert report.passed, report

    def test_single_cell_vacuous(self):
        base, product = planar_sets()
        report = verify_injectivity(ArcApproximation(base, product, 1), 1)
        assert report.passed

    def test_depth_starts_at_one(self, figure_arc):
        with pytest.raises(ValueError, match="injectivity depth starts at 1"):
            verify_injectivity(figure_arc, 0)
        with pytest.raises(ValueError, match="generation 5 is not built"):
            verify_injectivity(figure_arc, 5)

    @pytest.mark.parametrize("kind,depth", SUBSUMPTION_ARCS)
    def test_rows_match_the_views_on_honest_arcs(self, kind, depth):
        # the reports agree with the row oracle, each of its checks, and the views
        arc = reference_arc(kind, depth)
        for k in range(1, depth + 1):
            report = verify_injectivity(arc, k)
            assert report.passed and all(class_checks(arc, k).values())
            assert report == row_verify_injectivity(arc, k)
            assert report == view_verify_injectivity(reference_views(kind, depth), k)
            assert verify_containment(arc, k).passed
            assert rows_contain(arc, k) and full_product(arc.generation_columns(k), k)

    @settings(max_examples=300, deadline=None)
    @given(tampered_rows())
    def test_rows_match_the_views_on_tampered_rows(self, tampering):
        # the same clearance ids and traversal pair, (-1, -1) included
        kind, depth, arc = tampering
        assert row_verify_injectivity(arc, depth) == view_verify_injectivity(RowView(arc),
                                                                             depth)

    @settings(max_examples=300, deadline=None)
    @given(tampered_rows())
    def test_class_checks_are_sound_on_tampered_rows(self, tampering):
        # when (a)-(e) pass, the sweep skipped would have found no pair
        kind, depth, arc = tampering
        checks = class_checks(arc, depth)
        calls = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(oracles, "chain_self_intersection",
                          lambda chain: calls.append(chain) or chain_self_intersection(chain))
            row_verify_injectivity(arc, depth)
        if all(checks.values()):
            assert calls == []
            assert chain_self_intersection(arc.traversal_chain(depth)) is None
        else:
            assert len(calls) == 1 or not checks["e"]

    @pytest.mark.parametrize("kind,depth", SUBSUMPTION_ARCS)
    def test_honest_arcs_pass_every_class_check(self, kind, depth, monkeypatch):
        arc = reference_arc(kind, depth)
        monkeypatch.setattr(oracles, "chain_self_intersection", None)  # never swept
        for k in range(1, depth + 1):
            assert all(class_checks(arc, k).values())
            assert row_verify_injectivity(arc, k).traversal_violation is None

    @pytest.mark.parametrize("mutant,failing", [
        (swapped_pair_mutant, "a"), (aliased_row_mutant, "b"), (crossing_mutant, "d"),
        (short_of_parent_mutant, "e")], ids=["a", "b", "d", "e"])
    def test_a_mutant_failing_one_check_is_swept(self, mutant, failing, monkeypatch):
        arc = mutant()
        checks = class_checks(arc, arc.depth)
        assert [name for name, passed in checks.items() if not passed] == [failing]
        calls = []
        monkeypatch.setattr(oracles, "chain_self_intersection",
                            lambda chain: calls.append(chain) or chain_self_intersection(chain))
        report = row_verify_injectivity(arc, arc.depth)
        if failing == "e":  # no glued chain to sweep
            assert (calls, report.traversal_violation) == ([], (-1, -1))
            return
        assert len(calls) == 1
        if failing == "a":  # the same cells as the honest arc
            assert report == verify_injectivity(reference_arc("planar", 2), 2)
        else:
            assert report == view_verify_injectivity(RowView(arc), arc.depth)
        assert report.traversal_violation == ((5, 9) if failing == "d" else None)

    @pytest.mark.parametrize("clause", sorted(BAD_LATTICES))
    def test_each_lattice_clause_is_checked(self, clause):
        arc = with_base_lattice(reference_arc("planar", 2), BAD_LATTICES[clause])
        assert not lattices_nest(arc, 2)
        assert lattices_nest(arc, 1)
        # the constructor checks each generation's lattices before growing it
        base, product = planar_sets()
        tampered = _TamperedLattice(base, BAD_LATTICES[clause])
        assert ArcApproximation(tampered, product, 1).depth == 1
        with pytest.raises(RoutingFailed, match=r"check \(a\) fails at generation 2: "
                                                r"the lattice of axis 0"):
            ArcApproximation(tampered, product, 2)

    def test_a_lattice_short_of_its_parent_fails_glue_in_construction(self):
        base, product = planar_sets()
        tampered = _TamperedLattice(base, _short_of_parent)
        with pytest.raises(RoutingFailed, match=r"check \(e\) fails at generation 2 "
                                                r"\(parent 1\)"):
            ArcApproximation(tampered, product, 2)

    def test_rows_under_a_foreign_parent_fail_the_children_check(self):
        # two parents' blocks of children swapped: every row is still there
        # once, but no row is its parent's child
        arc = reference_arc("spatial", 2)
        rows = index_rows(arc, 2)
        rows[:8], rows[8:16] = rows[8:16].copy(), rows[:8].copy()
        tampered = with_rows(arc, 2, rows)
        assert full_product(tampered.generation_columns(2), 2)
        assert not rows_are_children(tampered, 2)
        assert rows_are_children(tampered, 1)

    def test_corrupted_connector_detected(self):
        views = reference_views("planar", 2)
        # reroute one depth-2 connector straight through its siblings' region
        victim = views.connectors_at(2)[0]
        other = views.connectors_at(2)[1]
        detour_through_other = tuple((a + b) / 2
                                     for a, b in zip(other.source, other.target))
        crossing = [victim.source, detour_through_other, victim.target]
        tampered = copy.copy(views)
        tampered.connectors = list(views.connectors)
        tampered.connectors[victim.id] = Connector(
            victim.id, victim.depth, crossing, victim.parent_cell,
            victim.source_cell, victim.target_cell, victim.param_length)
        report = view_verify_injectivity(tampered, 2)
        assert not report.passed
        assert report.traversal_violation is not None or report.clearance_violations

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_traversal_check_subsumes_pair_scan(self, data):
        # one connector rerouted through a waypoint on another connector or
        # at a lattice point; every pair the all-pairs scan flags must also
        # break the traversal chain
        kind, depth = data.draw(st.sampled_from(SUBSUMPTION_ARCS))
        views = reference_views(kind, depth)
        conns = views.connectors
        victim = conns[data.draw(st.integers(0, len(conns) - 1))]
        if data.draw(st.booleans()):
            index = data.draw(st.integers(0, len(conns) - 2))
            other = conns[index + (index >= victim.id)]
            seg = data.draw(st.integers(0, len(other.vertices) - 2))
            t = F(data.draw(st.integers(0, 16)), 16)
            waypoint = vlerp(other.vertices[seg], other.vertices[seg + 1], t)
        else:
            waypoint = tuple(F(data.draw(st.integers(0, 64)), 64)
                             for _ in range(views.ambient_dimension))
        tampered = copy.copy(views)
        tampered.connectors = list(conns)
        tampered.connectors[victim.id] = Connector(
            victim.id, victim.depth, [victim.source, waypoint, victim.target],
            victim.parent_cell, victim.source_cell, victim.target_cell,
            victim.param_length)
        if pair_scan_violations(tampered, depth):
            assert view_verify_injectivity(tampered, depth).traversal_violation is not None

    @pytest.mark.parametrize("kind,depth", SUBSUMPTION_ARCS)
    def test_clearance_matches_per_connector_loop_on_honest_arcs(self, kind, depth):
        arc = reference_arc(kind, depth)
        assert verify_injectivity(arc, depth).clearance_violations == []
        assert per_connector_clearance(reference_views(kind, depth), depth) == []

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_clearance_matches_per_connector_loop_on_a_moved_vertex(self, data):
        # one vertex of one connector moved onto a face of a sibling cell
        kind, depth = data.draw(st.sampled_from(SUBSUMPTION_ARCS))
        views = reference_views(kind, depth)
        victim = views.connectors[data.draw(st.integers(0, len(views.connectors) - 1))]
        sibling = data.draw(st.sampled_from(views.sub_cells(victim.parent_cell)))
        axis = data.draw(st.integers(0, views.ambient_dimension - 1))
        point = [lo + F(data.draw(st.integers(0, 8)), 8) * (hi - lo)
                 for lo, hi in sibling.box]
        point[axis] = sibling.box[axis][data.draw(st.integers(0, 1))]
        vertices = list(victim.vertices)
        vertices[data.draw(st.integers(0, len(vertices) - 1))] = tuple(point)
        tampered = copy.copy(views)
        tampered.connectors = list(views.connectors)
        tampered.connectors[victim.id] = dataclasses.replace(victim, vertices=vertices)
        assert (view_verify_injectivity(tampered, depth).clearance_violations
                == per_connector_clearance(tampered, depth))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_clearance_matches_per_connector_loop_on_a_copied_connector(self, data):
        # one connector takes the vertices of a sibling connector of another
        # rank: the same geometry, a different verdict
        kind, depth = data.draw(st.sampled_from(SUBSUMPTION_ARCS))
        views = reference_views(kind, depth)
        victim = views.connectors[data.draw(st.integers(0, len(views.connectors) - 1))]
        q = views.branching
        first = victim.parent_cell * (q - 1)
        index = data.draw(st.integers(first, first + q - 3))
        source = views.connectors[index + (index >= victim.id)]
        tampered = copy.copy(views)
        tampered.connectors = list(views.connectors)
        tampered.connectors[victim.id] = dataclasses.replace(
            victim, vertices=list(source.vertices))
        expected = per_connector_clearance(tampered, depth)
        assert victim.id in expected
        assert view_verify_injectivity(tampered, depth).clearance_violations == expected

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_clearance_matches_per_connector_loop_on_a_replaced_cell(self, data):
        # one sibling cell's box moved and resized in steps of a quarter side
        kind, depth = data.draw(st.sampled_from(SUBSUMPTION_ARCS))
        views = reference_views(kind, depth)
        cell = views.cells[data.draw(st.integers(1, len(views.cells) - 1))]
        box = []
        for lo, hi in cell.box:
            side = (hi - lo) / 4
            new_lo = lo + data.draw(st.integers(-4, 4)) * side
            box.append((new_lo, new_lo + data.draw(st.integers(1, 8)) * side))
        tampered = copy.copy(views)
        tampered.cells = list(views.cells)
        tampered.cells[cell.id] = dataclasses.replace(cell, box=tuple(box))
        assert (view_verify_injectivity(tampered, depth).clearance_violations
                == per_connector_clearance(tampered, depth))

    @pytest.mark.parametrize("config,runs", [
        (RunConfig(depth=5), 27), (RunConfig(target_dimension=2.5, depth=3), 126),
        (RunConfig(depth=6), 33), (RunConfig(target_dimension=2.5, depth=4), 210)],
        ids=["planar-5", "spatial-3", "planar-6", "spatial-4"])
    def test_construction_runs_clearance_once_per_class(self, config, runs, monkeypatch):
        import fractarc.geometry as geometry_module
        calls = {"_path_legal": 0, "segment_intersection": 0}
        for module, name in ((arc_module, "_path_legal"),
                             (geometry_module, "segment_intersection")):
            def counting(*args, inner=getattr(module, name), name=name):
                calls[name] += 1
                return inner(*args)
            monkeypatch.setattr(module, name, counting)
        arc = build_model(config)
        classes = {(k, order) for k, order, *_ in parents_with_connectors(RowView(arc))}
        # 9 classes times 3 on planar-5, 18 times 7 on spatial-3
        assert calls["_path_legal"] == len(classes) * (arc.branching - 1) == runs
        assert calls["segment_intersection"] == 0

    @pytest.mark.parametrize("config", [RunConfig(depth=5),
                                        RunConfig(target_dimension=2.5, depth=3)],
                             ids=["planar-5", "spatial-3"])
    def test_injectivity_creates_no_fraction(self, config, monkeypatch):
        arc = build_model(config)
        made = []

        def counting(cls, *args, inner=F.__new__, **kwargs):
            made.append(args)
            return inner(cls, *args, **kwargs)

        monkeypatch.setattr(F, "__new__", counting)
        report = verify_injectivity(arc, arc.depth)
        monkeypatch.undo()
        assert report.passed
        assert made == []

    @settings(max_examples=600, deadline=None)
    @given(clearance_frames())
    # the corner (3/4, 1/2) of the cell of rank s+1 touched mid-segment, and
    # a face of the cell of rank s slid along from its corner
    @example((UNIT_SQUARE, FRAME_BOXES, 0, [(F(1, 2), F(1, 4)), (F(1), F(3, 4))]))
    @example((UNIT_SQUARE, FRAME_BOXES, 0, [(F(1, 4), F(1, 4)), (F(0), F(1, 4))]))
    def test_integer_path_legal_matches_fraction_oracle(self, frame):
        parent, boxes, s, ends = frame
        shape, vertices = integer_frame(parent, boxes, ends)
        assert _path_legal(shape, s, vertices) == fraction_path_legal(ends, boxes, s, parent)

    def test_connector_with_a_waypoint_fails_clearance(self):
        views = reference_views("planar", 2)
        conn = views.connectors_at(1)[0]
        parent = views.cells[conn.parent_cell]
        boxes = [c.box for c in views.sub_cells(parent.id)]
        # the midpoint of the legal segment as a waypoint: the same point set
        midpoint = vlerp(conn.source, conn.target, F(1, 2))
        bent = [conn.source, midpoint, conn.target]
        assert fraction_path_legal(bent, boxes, 0, parent.box)
        shape, vertices = integer_frame(parent.box, boxes, bent)
        assert not _path_legal(shape, 0, vertices)
        tampered = copy.copy(views)
        tampered.connectors = list(views.connectors)
        tampered.connectors[conn.id] = dataclasses.replace(conn, vertices=bent)
        assert view_verify_injectivity(tampered, 2).clearance_violations == [conn.id]

    def test_traversal_chain_glues(self, figure_arc, figure_views):
        chain = figure_arc.traversal_chain(3)
        den = figure_arc.denominator(3)
        assert chain[0] == (0, 0)
        assert chain[-1] == (den, den)
        assert [tuple(F(x, den) for x in p) for p in chain] == figure_views.traversal_chain(3)


class TestContainment:
    def test_every_depth_passes_with_a_shrinking_bound(self, figure_arc):
        reports = [verify_containment(figure_arc, k) for k in range(1, 5)]
        assert all(rep.passed for rep in reports)
        assert [rep.bound for rep in reports] == [figure_arc.cell_diameter(k)
                                                  for k in range(1, 5)]
        assert all(a.bound > b.bound for a, b in zip(reports, reports[1:]))

    def test_sampled_oracle_meets_the_corners(self, figure_arc):
        for words in (("0000", "0000"), ("1111", "1111")):  # the far corner is on the chain
            assert scan_containment(figure_arc, 4, [Address(words)]).max_distance == 0.0

    @settings(max_examples=60, deadline=None)
    @given(config=run_configs(), seed=st.integers(0, 2 ** 32 - 1))
    def test_built_arcs_pass_and_so_does_the_sampled_oracle(self, config, seed):
        arc = build_model(config)
        addresses = sample_addresses(arc, 40, random.Random(seed))
        for k in range(1, arc.depth + 1):
            assert verify_containment(arc, k).passed
            assert scan_containment(arc, k, addresses).passed

    @settings(max_examples=100, deadline=None)
    @given(tampered_rows(), st.integers(0, 2 ** 32 - 1))
    def test_exact_pass_implies_sampled_pass(self, tampering, seed):
        # the row oracle's verdict, on tampered rows too
        kind, depth, arc = tampering
        addresses = sample_addresses(arc, 20, random.Random(seed))
        for k in range(1, depth + 1):
            if rows_contain(arc, k):
                assert scan_containment(arc, k, addresses).passed

    def test_a_row_copied_onto_a_sibling_fails(self):
        arc = reference_arc("spatial", 2)
        rows = index_rows(arc, 2)
        rows[9] = rows[10]  # a sibling's interval indices twice
        tampered = with_rows(arc, 2, rows)
        assert rows_contain(tampered, 1)
        assert not rows_contain(tampered, 2)


class TestModulus:
    def test_vacuous_epsilon(self, figure_arc):
        rep = modulus_of_continuity(figure_arc, 2.0)
        assert rep.vacuous and rep.delta == 1.0

    def test_cutoff_just_above_first_generation(self, figure_arc, figure_views):
        eps = figure_arc.cell_diameter(1) + 0.01
        rep = modulus_of_continuity(figure_arc, eps)
        assert rep.cutoff_depth == 1
        assert rep.delta_prime == pytest.approx(1.0 / (2 * 49))
        lipschitz = max(c.lipschitz for c in figure_views.connectors_at(1))
        assert rep.lipschitz_bound == pytest.approx(lipschitz)
        assert rep.delta == pytest.approx(min(1.0 / 98, eps / (2 * lipschitz)))

    def test_zero_violations_for_sampled_pairs(self, figure_arc):
        rng = random.Random(9)
        for eps in (0.5, 0.25, 0.12):
            rep = modulus_of_continuity(figure_arc, eps)
            assert continuity_violations(figure_arc, eps, rep.delta, 2000, rng) == 0

    def test_epsilon_must_be_positive(self, figure_arc):
        for eps in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError, match="epsilon must be positive"):
                modulus_of_continuity(figure_arc, eps)
        assert modulus_of_continuity(figure_arc, math.inf).vacuous

    def test_needs_depth_beyond_cutoff(self):
        base, product = planar_sets()
        shallow = build_arc(base, product, 1)
        with pytest.raises(GenerationBudgetError):
            modulus_of_continuity(shallow, 0.3)


class TestGeometryExactness:
    def test_all_corners_and_vertices_are_rational(self, figure_arc, figure_views):
        from fractions import Fraction
        for cell in figure_views.cells:
            for lo, hi in cell.box:
                assert type(lo) is Fraction and type(hi) is Fraction
        for conn in figure_views.connectors:
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
        assert len(RowView(arc).connectors) == 2 ** 4 - 1
        assert verify_injectivity(arc, 1).passed

    def test_depth_five_planar_build(self):
        base, product = planar_sets()
        arc = build_arc(base, product, 5)
        assert len(RowView(arc).connectors) == 4 ** 5 - 1
        report = verify_injectivity(arc, 5)
        assert report.passed
        assert report.connector_pairs_checked == (4 ** 5 - 1) * (4 ** 5 - 2) // 2

    def test_harmonic_family_arc(self):
        base = RatioCantorSet(RatioSequence.harmonic())
        arc = build_arc(base, ProductCantor(SelfSimilarCantor(F(2, 5)), 1), 3)
        assert verify_injectivity(arc, 3).passed
        assert verify_containment(arc, 3).passed

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
            ca = np.array(figure_arc.vertex_cloud(k))
            cb = np.array(figure_arc.vertex_cloud(k + 1))
            assert hausdorff(ca, cb) <= figure_arc.cell_diameter(k) + 1e-12

    def test_cloud_is_numpy_unique_of_the_points(self, figure_arc):
        import numpy as np
        spatial = build_model(RunConfig(target_dimension=2.5, depth=3))
        for arc in (figure_arc, spatial):
            views = RowView(arc)
            for k in range(1, arc.depth + 1):
                points = [tuple(float(c) for c in v)
                          for conn in views.cumulative_connectors(k) for v in conn.vertices]
                points += [tuple(float(c) for c in corner)
                           for cell in views.generation_cells(k) for corner in cell.corners()]
                cloud = arc.vertex_cloud(k)
                assert all(type(x) is float for point in cloud for x in point)
                assert cloud == list(map(tuple, np.unique(np.array(points), axis=0).tolist()))

    @settings(max_examples=40, deadline=None)
    @given(config=run_configs())
    def test_cloud_needs_no_connector_ends(self, config):
        import numpy as np
        # every connector end is already a generation-k cell corner
        arc = build_model(config)
        for k in range(1, arc.depth + 1):
            assert np.array_equal(arc.vertex_cloud(k), connector_vertex_cloud(arc, k))


def estimate_matches_the_cloud(arc, window):
    """Whether ``arc_estimate`` admits ``window`` (None: its default); when
    it does, its counts must be the cloud oracle's on the whole vertex
    cloud."""
    try:
        series = arc_estimate(arc, window)
    except ValueError as exc:
        assert "finer than the sample resolution" in str(exc) or "coarse" in str(exc)
        return False
    cloud = np.array(arc.vertex_cloud(arc.depth))
    assert series.counts == tuple(cloud_box_count(cloud, d) for d in series.scales)
    return True


class TestArcCounts:
    """``arc_estimate`` counts on the axes what the cloud oracle counts on
    the whole float vertex cloud."""

    @settings(max_examples=40, deadline=None)
    @given(config=run_configs())
    def test_axes_count_the_vertex_cloud(self, config):
        arc = build_model(config)
        for window in (None, (1, 3), (2, 5), (1, arc.depth)):
            estimate_matches_the_cloud(arc, window)

    @pytest.mark.parametrize("c,depth", [(1 + LOG2_3, 4), (1 + LOG2_3, 6), (1.3, 4),
                                         (2.5, 3), (2.5, 4), (2.2, 3)])
    def test_built_arcs_on_their_windows(self, c, depth):
        arc = build_model(RunConfig(target_dimension=c, depth=depth))
        admitted = [estimate_matches_the_cloud(arc, window)
                    for window in (None, (1, 3), (2, 5), (1, depth))]
        assert admitted[0] and admitted[1]

    def test_rows_in_another_order_count_the_same(self):
        arc = reference_arc("spatial", 2)
        rows = index_rows(arc, 2)
        rows[[3, 12]] = rows[[12, 3]]  # two cells swapped: still the product
        assert arc_estimate(with_rows(arc, 2, rows)) == arc_estimate(arc)


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
    def test_constant_is_length_over_interval(self, figure_views):
        conn = figure_views.connectors_at(1)[1]
        # the long diagonal of the first generation
        assert conn.length == pytest.approx(math.sqrt(0.25 + 1.0))
        assert conn.lipschitz == pytest.approx(conn.length * 7)

    def test_endpoints_of_parametrisation(self, figure_views):
        conn = figure_views.connectors_at(2)[5]
        assert conn.point_at(0.0) == tuple(float(c) for c in conn.source)
        assert conn.point_at(1.0) == tuple(float(c) for c in conn.target)
