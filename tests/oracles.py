"""``Fraction`` reference code for the integer and lattice fast paths.

``fractarc.arc._path_legal`` decides connector clearance on integer offsets.
These are the ``Fraction`` predicates it replaced: slab clipping, point in
box and polyline simplicity, and ``path_legal``, the clearance check they
made up, which judges any polyline.  ``shape_of`` lifts cells with
``Fraction`` corners to the integer shape that ``route_connectors`` takes.

``ObjectArc`` is the grower that the lattice arc replaced: one ``Cell`` per
cell, with ``Fraction`` boxes and string addresses, and one ``Connector``
per connector.  ``RowView`` reads the same objects off a lattice arc's
index rows, as the library's views did.  The ``object_*`` readers and
``fraction_evaluate`` walk either as the library used to: the vertex cloud,
the SVG, ``evaluate``, the containment distances and the counting summary;
``connector_vertex_cloud`` is the vertex cloud as the lattice arc first
made it, with every connector end added to the cell corners;
``reference_model_dict`` is the model object built from their rows, and
``view_verify_injectivity`` the injectivity check on them, which judges a
replaced cell or connector as well as tampered rows, always by sweeping the
traversal chain.  ``scan_containment`` is the sampled containment check
that ``verify_containment``'s proof from the rows replaced: ``Address``es
drawn by ``sample_addresses``, each cell's float near corner
(``near_point``) against the lattice arc's whole vertex cloud.

The row oracle re-decides, from a lattice arc's index rows, the checks that
its constructor decides as it grows (and ``verify_injectivity`` and
``verify_containment`` only report): ``class_checks`` gives the verdict of
each of (a)-(e) of ``fractarc.arc``'s docstring at a depth, from
``lattices_nest`` (on ``Fraction`` intervals), ``rows_are_children``,
``connector_checks`` (once per distinct parent shape) and the arc's glue
check; ``full_product`` is the row check behind containment.
``row_verify_injectivity`` is ``verify_injectivity`` as it ran on the rows:
the class checks, and the traversal sweep when one fails.  Only an arc
whose private rows or lattices a test has tampered with can fail them.

``digit_evaluate`` and ``loop_continuity_violations`` are the per-call
integer digit loop that ``evaluate_many`` batched, and the per-pair
continuity loop that ran it.  ``fraction_uniform_perfectness``,
``fraction_ball_mass`` and ``fraction_boundary_interval_count`` are the
certificates on ``Fraction`` keys that the integer ranks replaced: bisection
in the list of every endpoint, and ``(x -+ r) * den`` as ``Fraction``s.

``generation_intervals``, ``endpoints`` and ``verify_generation_lengths``
read a Cantor set's lattices as ``Fraction`` intervals and check their
nesting; ``lattice_sample`` lifts a list of rational numbers onto the sorted
1-D ``LatticeSample`` that box counting takes, or a list of rational points
onto the integer rows of a ``LatticeRows``, and ``sample_points`` reads
either back.  ``numpy_box_count`` is the vectorised count that the bisection
walk of ``box_count`` replaced: every point's box index in int64, or in
Python ints (an object array) past 63 bits, then the sorted indices'
changes counted.  ``cloud_box_count`` is the multi-axis box count that the
per-axis product replaced: it counts the distinct box rows of a whole
cloud, float rows (the arc's ``vertex_cloud``) or exact ones
(``lattice_sample`` of ``min_corners``).  ``full_scan_net_count`` is the greedy net as
``ball_net_count`` was first written, every net point rescanning the whole
sample.  ``connector_fields`` and ``param_intervals`` are the
schema-v1 index fields of the connectors and the parameter tree, generated
apart from the model writer.

The tests compare the library with all of these where they are cheap to
run.
"""

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product as iter_product
from typing import Optional

import numpy as np

from fractarc.arc import (ArcApproximation, InjectivityReport, _parent_shapes, _path_legal,
                          branch_word, param_rows)
from fractarc.cantor import AnnulusWitness, PerfectnessReport, uniform_perfectness_constant
from fractarc.cli import SCHEMA_VERSION, UnitIntervalModel, _arc_header, encode_rational
from fractarc.dimension import LatticeSample
from fractarc.geometry import chain_self_intersection, lift, segments_meet
from fractarc.measure import BallMassBracket

ZERO = Fraction(0)
ONE = Fraction(1)


def point_in_box(p, box):
    return all(lo <= c <= hi for c, (lo, hi) in zip(p, box))


def segment_box_clip(p, q, box):
    """Parameter range [t0, t1] of the segment p + t(q-p) inside the closed box.

    Returns None when the segment misses the box.  Exact slab clipping.
    """
    t0, t1 = ZERO, ONE
    for c_p, c_q, (lo, hi) in zip(p, q, box):
        d = c_q - c_p
        if d == 0:
            if c_p < lo or c_p > hi:
                return None
            continue
        ta = (lo - c_p) / d
        tb = (hi - c_p) / d
        if ta > tb:
            ta, tb = tb, ta
        if ta > t0:
            t0 = ta
        if tb < t1:
            t1 = tb
        if t0 > t1:
            return None
    return t0, t1


def polyline_is_simple(vertices):
    """Non-self-intersecting: consecutive segments meet only at the shared
    vertex, all other segment pairs are disjoint, no zero-length segments."""
    if any(a == b for a, b in zip(vertices, vertices[1:])):
        return False
    return chain_self_intersection(vertices) is None


def path_legal(vertices, boxes, s, parent_box):
    """Exact legality of a connector polyline joining boxes[s] to
    boxes[s+1]: it stays in the parent, is simple, and touches each closed
    box at most in its own endpoint corner."""
    if any(not point_in_box(v, parent_box) for v in vertices):
        return False
    if not polyline_is_simple(vertices):
        return False
    segs = list(zip(vertices, vertices[1:]))
    last = len(segs) - 1
    for idx, box in enumerate(boxes):
        for seg_i, (a, b) in enumerate(segs):
            clip = segment_box_clip(a, b, box)
            if clip is None:
                continue
            t0, t1 = clip
            if t0 != t1:
                return False
            if seg_i == 0 and idx == s and t0 == 0:
                continue
            if seg_i == last and idx == s + 1 and t0 == 1:
                continue
            return False
    return True


def shape_of(cells, parent_box):
    """The integer shape of ``cells`` in rank order inside ``parent_box``:
    the parent's far corner, then each cell's near and far corner, all minus
    the parent's near corner, over the lcm of every coordinate denominator."""
    points = [tuple(lo for lo, _ in parent_box), tuple(hi for _, hi in parent_box)]
    points += [c for cell in cells for c in (cell.near_corner, cell.far_corner)]
    _, (near, *lifted) = lift(points)
    return tuple(tuple(a - b for a, b in zip(point, near)) for point in lifted)


# -- Fraction views of the lattices, and the schema-v1 index fields ------------


@dataclass(frozen=True)
class CantorInterval:
    """One closed generation interval, with exact rational endpoints."""

    generation: int
    index: int  # 1-based, left to right within the generation
    lower: Fraction
    upper: Fraction

    @property
    def length(self):
        return self.upper - self.lower


def generation_intervals(cantor_set, k):
    """The 2^k generation-k intervals of a Cantor set in increasing order."""
    lows, ln, den = cantor_set.lattice(k)
    return [CantorInterval(k, j + 1, Fraction(a, den), Fraction(a + ln, den))
            for j, a in enumerate(lows)]


def endpoints(cantor_set, k):
    """All 2^(k+1) generation-k interval endpoints, sorted increasing."""
    lows, ln, den = cantor_set.lattice(k)
    return [Fraction(v, den) for a in lows for v in (a, a + ln)]


def verify_generation_lengths(cantor_set, up_to):
    """Every generation up to ``up_to`` has the exact generation length, and
    each of its intervals is an outer child of its parent: even children
    start at the parent's lower end, odd children end at its upper end.
    Runs on the integer lattices as stored."""
    for k in range(up_to + 1):
        lows, ln, den = cantor_set.lattice(k)
        if Fraction(ln, den) != cantor_set.generation_length(k):
            return False
        if k == 0:
            continue
        parents, prev_ln, prev_den = cantor_set.lattice(k - 1)
        lift_by = den // prev_den
        parents = [a * lift_by for a in parents]
        if not (list(lows[0::2]) == parents
                and [a + ln for a in lows[1::2]] == [a + prev_ln * lift_by for a in parents]):
            return False
    return True


@dataclass(frozen=True)
class LatticeRows:
    """Exact points of the unit cube: one integer row of numerators per
    point, over one denominator.  Box counting takes one axis at a time, so
    only the cloud oracle reads these."""

    numerators: np.ndarray
    denominator: int

    def __len__(self) -> int:
        return len(self.numerators)


def lattice_sample(points):
    """Rational numbers in [0, 1] lifted onto one sorted 1-D
    ``LatticeSample``, or rational points (tuples) in the unit cube onto the
    ``LatticeRows`` that ``cloud_box_count`` reads."""
    rows = [tuple(map(Fraction, p)) if isinstance(p, tuple) else (Fraction(p),)
            for p in points]
    if not rows:
        raise ValueError("cannot box-count an empty sample")
    if len({len(row) for row in rows}) > 1:
        raise ValueError("points must share one dimension")
    if any(c < 0 or c > 1 for row in rows for c in row):
        raise ValueError("points must lie in the unit cube")
    den = math.lcm(*{c.denominator for row in rows for c in row})
    nums = [[c.numerator * (den // c.denominator) for c in row] for row in rows]
    if not isinstance(points[0], tuple):
        return LatticeSample(sorted(num for num, in nums), den)
    return LatticeRows(np.array(nums, dtype=np.int64 if den < 2 ** 63 else object), den)


def sample_points(sample):
    """The exact points of a ``LatticeSample`` (Fractions) or of
    ``LatticeRows`` (tuples of them)."""
    if isinstance(sample, LatticeRows):
        return [tuple(Fraction(v, sample.denominator) for v in row)
                for row in sample.numerators.tolist()]
    return [Fraction(num, sample.denominator) for num in sample.numerators]


def numpy_box_count(points, delta):
    """``box_count`` as it was vectorised: every numerator's box index
    ``(num * dd) // (den * dn)`` in int64 when the denominator is below 2^63
    and ``den * max(dd, dn)`` fits, in Python ints (an object array)
    otherwise; each index clipped to the last box, the indices sorted and
    the changes between neighbours counted."""
    delta = Fraction(delta)
    dn, dd = delta.numerator, delta.denominator
    n_boxes = -((-dd) // dn)  # ceil(1/delta)
    den = points.denominator
    nums = np.array(list(points.numerators), dtype=np.int64 if den < 2 ** 63 else object)
    if nums.dtype == np.int64 and den * max(dd, dn) < 2 ** 63:
        idx = nums * dd
        idx //= den * dn
    else:
        idx = nums.astype(object) * dd // (den * dn)
    np.minimum(idx, n_boxes - 1, out=idx)
    idx.sort()
    return int(np.count_nonzero(idx[1:] != idx[:-1])) + 1


def cloud_box_count(points, delta):
    """Grid boxes of side delta meeting a cloud in the unit cube, counted
    on whole rows, as ``box_count`` counted before it counted on axes: a
    float array of rows is floored at ``float(delta)``, ``LatticeRows`` or a
    ``LatticeSample`` by exact floor division; each index is clipped to the
    last box, and the distinct index rows are counted."""
    delta = Fraction(delta)
    n_boxes = math.ceil(1 / delta)
    if isinstance(points, np.ndarray):
        if points.min() < 0.0 or points.max() > 1.0:
            raise ValueError("points must lie in the unit cube")
        idx = np.floor(points.reshape(len(points), -1) / float(delta)).astype(np.int64)
    else:
        nums = (points.numerators.astype(object) if isinstance(points, LatticeRows)
                else np.array(list(points.numerators), dtype=object)).reshape(len(points), -1)
        idx = nums * delta.denominator // (points.denominator * delta.numerator)
    return len({tuple(min(max(i, 0), n_boxes - 1) for i in row) for row in idx.tolist()})


def full_scan_net_count(space, points, r):
    """Oracle: the greedy net with every net point rescanning the whole
    sample, as ``ball_net_count`` was first written."""
    points = np.asarray(points, dtype=float)
    covered = np.zeros(len(points), dtype=bool)
    count = 0
    for i in range(len(points)):
        if covered[i]:
            continue
        count += 1
        covered |= space.within(points, points[i], r)
    return count


def connector_fields(depth, ambient_dimension):
    """Schema-v1 index fields of every connector of a depth-``depth`` arc, in
    id order: connector j of cell c joins its sub-cells of ranks j+1 and j+2
    and carries parameter piece 2j+1 of c."""
    q = 2 ** ambient_dimension
    p = 2 * q - 1
    n = 0
    for k in range(1, depth + 1):
        for _ in range(q ** (k - 1) * (q - 1)):
            c, j = divmod(n, q - 1)
            yield {"id": n, "depth": k, "parent_cell": c, "source_cell": c * q + 1 + j,
                   "target_cell": c * q + 2 + j, "interval": 1 + c * p + 2 * j + 1}
            n += 1


#: The fields of a parameter-tree row, in ``param_rows`` order.
PARAM_FIELDS = ("id", "depth", "index", "lo", "hi", "status", "link", "children")


def param_intervals(depth, ambient_dimension):
    """Schema-v1 rows of the parameter tree of a depth-``depth`` arc, in id
    order: the ``param_rows`` as dicts, children as lists."""
    for row in param_rows(depth, ambient_dimension):
        yield {**dict(zip(PARAM_FIELDS, row)), "children": list(row[-1])}


# -- cells and connectors as objects -------------------------------------------


def box_corners(box):
    corners = [()]
    for lo, hi in box:
        corners = [c + (v,) for c in corners for v in (lo, hi)]
    return corners


@dataclass(frozen=True)
class Cell:
    """One product cell: an axis-aligned box with exact rational corners."""

    id: int
    generation: int
    rank: int  # 1-based position in the parent's distance order
    box: tuple
    parent_id: Optional[int]
    address: tuple  # one branch word per axis

    @property
    def near_corner(self):
        """The unique point of the cell closest to the origin."""
        return tuple(lo for lo, _ in self.box)

    @property
    def far_corner(self):
        """The unique point of the cell farthest from the origin."""
        return tuple(hi for _, hi in self.box)

    def corners(self):
        return box_corners(self.box)


@dataclass
class Connector:
    """Path from one cell's far corner to the next cell's near corner,
    parametrised at constant speed over its used interval.  Built arcs hold
    the straight segment; the clearance check passes no other shape."""

    id: int
    depth: int
    vertices: list
    parent_cell: int
    source_cell: int
    target_cell: int
    param_length: Fraction  # (2^(n+2)-1)^-depth, the length of its used interval
    _cumulative: Optional[list] = None
    _float_vertices: Optional[list] = None

    @property
    def source(self):
        return self.vertices[0]

    @property
    def target(self):
        return self.vertices[-1]

    def _cum_lengths(self):
        if self._cumulative is None:
            floats = [tuple(map(float, v)) for v in self.vertices]
            acc = [0.0]
            for a, b in zip(floats, floats[1:]):
                acc.append(acc[-1] + math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b))))
            self._cumulative, self._float_vertices = acc, floats
        return self._cumulative

    @property
    def length(self):
        return self._cum_lengths()[-1]

    @property
    def lipschitz(self):
        """Path length over parameter length: the constant-speed rate."""
        return self.length / float(self.param_length)

    def point_at(self, frac):
        """Point at the given fraction of the parameter interval (constant
        speed along the whole polyline)."""
        cum = self._cum_lengths()
        target = min(max(frac, 0.0), 1.0) * cum[-1]
        i = min(bisect.bisect_right(cum, target), len(cum) - 1) - 1
        seg = cum[i + 1] - cum[i]
        s = 0.0 if seg == 0.0 else (target - cum[i]) / seg
        a, b = self._float_vertices[i], self._float_vertices[i + 1]
        return tuple(x + s * (y - x) for x, y in zip(a, b))


class _Views:
    """Queries on the ``cells`` and ``connectors`` lists, in id order."""

    def generation_cells(self, k):
        """Cells of generation k in parameter (traversal) order."""
        q = self.branching
        return self.cells[(q ** k - 1) // (q - 1):(q ** (k + 1) - 1) // (q - 1)]

    def sub_cells(self, cell_id):
        """The sub-cells of a cell, in rank order."""
        q = self.branching
        return self.cells[cell_id * q + 1:cell_id * q + q + 1]

    def connectors_at(self, k):
        q = self.branching
        return self.connectors[q ** (k - 1) - 1:q ** k - 1]

    def cumulative_connectors(self, k):
        return self.connectors[:self.branching ** k - 1]

    def traversal_pieces(self, k):
        """Traversal of the depth-k model in parameter order: connectors for
        used intervals, near-to-far diagonals for depth-k cells."""
        if not 1 <= k <= self.depth:
            raise ValueError(f"no depth-{k} traversal of a depth-{self.depth} arc")
        q = self.branching
        pieces = []

        def walk(cell_id, generation):
            for j, cell in enumerate(self.sub_cells(cell_id)):
                if generation + 1 == k:
                    pieces.append(("cell", cell.id, [cell.near_corner, cell.far_corner]))
                else:
                    walk(cell.id, generation + 1)
                if j < q - 1:
                    conn = self.connectors[cell_id * (q - 1) + j]
                    pieces.append(("connector", conn.id, list(conn.vertices)))

        walk(0, 0)
        return pieces

    def traversal_chain(self, k):
        """Glued ``Fraction`` vertex chain of the depth-k traversal."""
        pieces = self.traversal_pieces(k)
        chain = list(pieces[0][2])
        for _, _, verts in pieces[1:]:
            if verts[0] != chain[-1]:
                raise RuntimeError("traversal pieces do not share endpoints")
            chain.extend(verts[1:])
        return chain


class RowView(_Views):
    """The ``Cell`` and ``Connector`` objects of a lattice arc, read off its
    index columns (``generation_columns``) and lattices when the view is made:
    the cells and connectors of every generation up to its depth.  The
    lists are plain attributes, so a test may replace a cell or a
    connector."""

    def __init__(self, arc):
        self.arc = arc
        self.base_set, self.product = arc.base_set, arc.product
        self.ambient_dimension, self.branching = arc.ambient_dimension, arc.branching
        self.depth = arc.depth
        q = self.branching
        axis_sets = (arc.base_set,) + (arc.product.factor,) * arc.copies
        self.cells = []
        self.connectors = []
        for k in range(self.depth + 1):
            intervals = []
            for cantor_set in axis_sets:
                lows, ln, den = cantor_set.lattice(k)
                intervals.append([(Fraction(a, den), Fraction(a + ln, den))
                                  for a in lows])
            words = [branch_word(j, k) for j in range(len(intervals[0]))]
            first = arc.first_id(k)
            parent = arc.first_id(k - 1) if k else None
            rows = list(zip(*arc.generation_columns(k)))
            for i, row in enumerate(rows):
                self.cells.append(Cell(first + i, k, i % q + 1,
                                       tuple(pairs[j] for pairs, j in zip(intervals, row)),
                                       None if parent is None else parent + i // q,
                                       tuple(words[j] for j in row)))
            if k == 0:
                continue
            param_length = Fraction(1, (2 * q - 1) ** k)
            for i, (source, target) in enumerate(zip(rows, rows[1:])):
                if i % q == q - 1:
                    continue  # the last sub-cell of a parent starts no connector
                vertices = [tuple(pairs[j][1] for pairs, j in zip(intervals, source)),
                            tuple(pairs[j][0] for pairs, j in zip(intervals, target))]
                self.connectors.append(Connector(
                    len(self.connectors), k, vertices, parent + i // q,
                    first + i, first + i + 1, param_length))

    def cell_at(self, address):
        """The cell at a branch address, found by descending the rows."""
        words = tuple(getattr(address, "words", address))
        k = len(words[0]) if words else 0
        if (len(words) != self.ambient_dimension or k > self.depth
                or any(len(w) != k or w.strip("01") for w in words)):
            raise KeyError(f"no built cell at address {words}")
        q, position = self.branching, 0
        for g in range(1, k + 1):
            kids = list(zip(*(column[position * q:(position + 1) * q]
                              for column in self.arc.generation_columns(g))))
            position = position * q + kids.index(tuple(int(w[:g], 2) for w in words))
        return self.cells[(q ** k - 1) // (q - 1) + position]

    def cell_diameter(self, k):
        return self.arc.cell_diameter(k)


# -- the object grower ---------------------------------------------------------


def _segment(ordered_cells, s):
    """The connector joining ranks s+1 and s+2: far corner to near corner."""
    return [ordered_cells[s].far_corner, ordered_cells[s + 1].near_corner]


class ObjectArc(_Views):
    """Every cell and connector of a depth-``depth`` arc as objects, grown
    parent by parent: the sub-cells of a parent are ranked by
    (|near corner|^2, near corner) over one common denominator."""

    def __init__(self, base_set, product, depth):
        self.base_set, self.product = base_set, product
        self.copies = product.copies
        self.ambient_dimension = product.copies + 1
        self.branching = q = 2 ** self.ambient_dimension
        self.depth = depth
        root_box = tuple((ZERO, ONE) for _ in range(self.ambient_dimension))
        root = Cell(0, 0, 1, root_box, None, ("",) * self.ambient_dimension)
        self.cells = [root]
        self._cell_index = {root.address: 0}
        for k in range(1, depth + 1):
            lattices = [s.lattice(k) for s in (base_set, product.factor)]
            den = math.lcm(*(axis_den for _, _, axis_den in lattices))
            intervals, lows = [], []
            for axis_lows, ln, axis_den in lattices:
                axis_lows = list(axis_lows)
                intervals.append([(Fraction(a, axis_den), Fraction(a + ln, axis_den))
                                  for a in axis_lows])
                lows.append([a * (den // axis_den) for a in axis_lows])
            intervals = intervals[:1] + intervals[1:] * self.copies
            lows = lows[:1] + lows[1:] * self.copies
            for parent in self.generation_cells(k - 1):
                self._make_sub_cells(parent, intervals, lows)
        self.connectors = []
        for k in range(1, depth + 1):
            param_length = Fraction(1, (2 * q - 1) ** k)
            for parent in self.generation_cells(k - 1):
                sub_cells = self.sub_cells(parent.id)
                for s in range(q - 1):
                    self.connectors.append(Connector(
                        len(self.connectors), k, _segment(sub_cells, s), parent.id,
                        sub_cells[s].id, sub_cells[s + 1].id, param_length))

    def _make_sub_cells(self, parent, intervals, lows):
        """Append the sub-cells of ``parent`` in rank order; ``intervals``
        holds each axis's generation intervals as (lo, hi) pairs and ``lows``
        their lower ends as integers over one denominator, both indexed by
        branch word."""
        first = [2 * int(w, 2) if w else 0 for w in parent.address]
        keyed = []
        for bits in iter_product((0, 1), repeat=len(first)):
            near = tuple(axis[i + b] for axis, i, b in zip(lows, first, bits))
            keyed.append((sum(c * c for c in near), near, bits))
        keyed.sort(key=lambda item: item[:2])
        for rank, (_, _, bits) in enumerate(keyed, start=1):
            box = tuple(axis[i + b] for axis, i, b in zip(intervals, first, bits))
            address = tuple(w + str(b) for w, b in zip(parent.address, bits))
            cell = Cell(len(self.cells), parent.generation + 1, rank, box, parent.id, address)
            self.cells.append(cell)
            self._cell_index[address] = cell.id

    def cell_at(self, address):
        return self.cells[self._cell_index[address.words]]

    def cell_diameter(self, k):
        lengths = ([self.base_set.generation_length(k)]
                   + [self.product.factor.generation_length(k)] * self.copies
                   if k > 0 else [ONE] * self.ambient_dimension)
        return math.sqrt(float(sum((h * h for h in lengths), ZERO)))


# -- readers of the object arc -------------------------------------------------


def object_vertex_cloud(arc, k):
    """Distinct float connector vertices (depths <= k) and generation-k cell
    corners, in lexicographic order."""
    points = [tuple(float(c) for c in v)
              for conn in arc.cumulative_connectors(k) for v in conn.vertices]
    points += [tuple(float(c) for c in corner)
               for cell in arc.generation_cells(k) for corner in cell.corners()]
    return np.unique(np.array(points, dtype=float), axis=0)


def connector_vertex_cloud(arc, k):
    """Distinct float connector ends of the generations up to k and
    generation-k cell corners of a lattice arc, in lexicographic order."""
    points = [p for g in range(1, k + 1) for ends in arc.connector_ends(g) for p in ends]
    ends = arc.interval_ends("float", k)
    for corner in iter_product((0, 1), repeat=arc.ambient_dimension):
        points += zip(*[[pair[b][i] for i in column]
                        for column, pair, b in zip(arc.generation_columns(k), ends, corner)])
    return np.unique(np.array(points, dtype=float), axis=0)


def fraction_evaluate(arc, t, k):
    """The Fraction digit loop and float(Fraction) point_at evaluate used to
    run: the oracle of the integer digits and the float tables."""
    q = arc.branching
    p = 2 * q - 1
    x = Fraction(t)
    cell = 0
    for _ in range(k):
        x *= p
        digit = min(math.floor(x), p - 1)
        if digit == x and digit % 2 == 0 and digit > 0:
            digit -= 1
        x -= digit
        if digit % 2:
            conn = arc.connectors[cell * (q - 1) + digit // 2]
            cum = [0.0]
            for a, b in zip(conn.vertices, conn.vertices[1:]):
                cum.append(cum[-1] + math.sqrt(sum((float(u) - float(v)) ** 2
                                                   for u, v in zip(a, b))))
            target = min(max(float(x), 0.0), 1.0) * cum[-1]
            i = min(bisect.bisect_right(cum, target), len(cum) - 1) - 1
            seg = cum[i + 1] - cum[i]
            s = 0.0 if seg == 0.0 else (target - cum[i]) / seg
            a, b = conn.vertices[i], conn.vertices[i + 1]
            return tuple(float(u) + s * (float(v) - float(u)) for u, v in zip(a, b)), 0.0
        cell = cell * q + 1 + digit // 2
    return (tuple(float(c) for c in arc.cells[cell].near_corner), arc.cell_diameter(k))


def object_containment(arc, k, addresses):
    """(max distance, bound) of the sampled containment check on an object
    arc: each address's cell near corner against the depth-k vertex cloud."""
    cloud = object_vertex_cloud(arc, k)
    worst = 0.0
    for address in addresses:
        z = np.array([float(c) for c in arc.cell_at(address).near_corner])
        worst = max(worst, float(np.min(np.linalg.norm(cloud - z, axis=1))))
    return worst, arc.cell_diameter(k)


@dataclass(frozen=True)
class Address:
    """Branch words, one per coordinate, naming a generation cell.

    Every word has the same length (the generation depth); a single-word
    address names an interval of a one-dimensional set.
    """

    words: tuple[str, ...]

    def __post_init__(self):
        if not self.words:
            raise ValueError("address needs at least one coordinate word")
        depth = len(self.words[0])
        for w in self.words:
            if len(w) != depth:
                raise ValueError("all coordinate words must share one length")
            if any(ch not in "01" for ch in w):
                raise ValueError(f"branch words are over {{0,1}}, got {w!r}")

    @property
    def depth(self) -> int:
        return len(self.words[0])

    @classmethod
    def random(cls, axes: int, depth: int, rng) -> "Address":
        return cls(tuple("".join(rng.choice("01") for _ in range(depth))
                         for _ in range(axes)))


def sample_addresses(arc, count, rng):
    """``count`` random addresses of the arc's deepest generation."""
    return [Address.random(arc.ambient_dimension, arc.depth, rng) for _ in range(count)]


def near_point(arc, address):
    """Float near corner of a lattice arc's cell at ``address``."""
    k = address.depth
    arc._require_depth(k)
    return tuple(lo[int(w, 2) if k else 0]
                 for (lo, _), w in zip(arc.interval_ends("float", k), address.words))


@dataclass
class SampledContainment:
    depth: int
    sample_count: int
    max_distance: float
    bound: float

    @property
    def passed(self) -> bool:
        return self.max_distance <= self.bound + 1e-12


def scan_containment(arc, k, addresses):
    """The sampled containment check that ``verify_containment`` decided by
    before it proved containment from the rows: each address's float near
    corner against every point of ``vertex_cloud(k)``, passing when the
    farthest is within one cell diameter (and a float tolerance)."""
    cloud = np.array(arc.vertex_cloud(k))
    worst = 0.0
    for address in addresses:
        z = np.array(near_point(arc, address))
        worst = max(worst, float(np.min(np.linalg.norm(cloud - z, axis=1))))
    return SampledContainment(k, len(addresses), worst, arc.cell_diameter(k))


def object_render_svg(arc):
    """The SVG of a planar arc: its deepest cells and every connector."""
    size, margin = 760.0, 20.0

    def sx(x):
        return margin + float(x) * size

    def sy(y):
        return margin + (1.0 - float(y)) * size

    def width(generation):
        return max(0.3, 2.4 * (0.62 ** (generation - 1)))

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="0 0 {size + 2 * margin:.0f} {size + 2 * margin:.0f}">',
    ]
    for cell in arc.generation_cells(arc.depth):
        (x0, x1), (y0, y1) = cell.box
        lines.append(
            f'<rect x="{sx(x0):.4f}" y="{sy(y1):.4f}" '
            f'width="{(float(x1) - float(x0)) * size:.4f}" '
            f'height="{(float(y1) - float(y0)) * size:.4f}" '
            f'fill="none" stroke="#222222" stroke-width="{width(arc.depth):.2f}"/>')
    for conn in arc.connectors:
        pts = " ".join(f"{sx(v[0]):.4f},{sy(v[1]):.4f}" for v in conn.vertices)
        lines.append(f'<polyline points="{pts}" fill="none" stroke="#b03030" '
                     f'stroke-width="{width(conn.depth):.2f}"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def object_counting_summary(arc):
    deepest = arc.generation_cells(arc.depth)
    return {
        "kind": "arc",
        "depth": arc.depth,
        "ambient_dimension": arc.ambient_dimension,
        "cells_per_generation": [len(arc.generation_cells(k)) for k in range(arc.depth + 1)],
        "connectors": len(arc.connectors),
        "param_intervals": 1 + (2 * arc.branching - 1) * (len(arc.cells) - len(deepest)),
    }


def point_json(point):
    return [encode_rational(Fraction(c)) for c in point]


def cell_rows(arc):
    """Schema-v1 rows of every cell of a view, in id order: the index
    fields, the branch address and the box."""
    for cell in arc.cells:
        yield {"id": cell.id, "generation": cell.generation, "rank": cell.rank,
               "parent": cell.parent_id, "address": list(cell.address),
               "box": [[encode_rational(lo), encode_rational(hi)] for lo, hi in cell.box]}


def connector_rows(arc):
    """Schema-v1 rows of every connector of a view, in id order: the index
    fields and the vertices."""
    for fields, conn in zip(connector_fields(arc.depth, arc.ambient_dimension),
                            arc.connectors):
        yield {**fields, "vertices": [point_json(v) for v in conn.vertices]}


def reference_model_dict(model, config):
    """The schema-v1 object of a model built row by row from its views (a
    lattice arc is read through ``RowView``): the reference of the canonical
    text."""
    if isinstance(model, UnitIntervalModel):
        return {"schema_version": SCHEMA_VERSION, "kind": "unit_interval",
                "config": config.as_dict()}
    if isinstance(model, ArcApproximation):
        model = RowView(model)
    return {"schema_version": SCHEMA_VERSION, "config": config.as_dict(),
            **_arc_header(model), "cells": list(cell_rows(model)),
            "connectors": list(connector_rows(model)),
            "param_intervals": list(param_intervals(model.depth, model.ambient_dimension))}


# -- injectivity on the views ----------------------------------------------------


def view_verify_injectivity(arc, k):
    """``verify_injectivity`` on a view's cells and connectors, as the
    library ran it: clearance once per translation key, then the
    ``Fraction`` traversal chain."""
    conns = arc.cumulative_connectors(k)
    clearance = view_clearance_violations(arc, conns)
    try:
        traversal_violation = chain_self_intersection(arc.traversal_chain(k))
    except (RuntimeError, ValueError):
        # chain fails to glue or degenerates: report rather than crash
        traversal_violation = (-1, -1)
    return InjectivityReport(k, len(conns) * (len(conns) - 1) // 2, clearance,
                             traversal_violation)


def view_clearance_violations(arc, conns):
    """Ids of the connectors that fail ``_path_legal``, run once per key:
    the connector's rank, its vertices, its sibling boxes and its parent's
    far corner, the last three minus the parent's near corner, over the
    common denominator of every coordinate."""
    parents = sorted({conn.parent_cell for conn in conns})

    def family(c):
        """Near and far corners of parent c, then of each sub-cell in rank order."""
        for cell in (arc.cells[c], *arc.sub_cells(c)):
            yield cell.near_corner
            yield cell.far_corner

    den = math.lcm(*{x.denominator for c in parents for corner in family(c) for x in corner},
                   *{x.denominator for conn in conns for v in conn.vertices for x in v})

    def lifted(point):
        return tuple(x.numerator * (den // x.denominator) for x in point)

    def offsets(points, near):
        return tuple(tuple(a - b for a, b in zip(lifted(v), near)) for v in points)

    parent = None  # the parent whose shape was keyed last
    verdicts = {}
    violations = []
    for conn in conns:
        if conn.parent_cell != parent:
            parent = conn.parent_cell
            near_corner, *corners = family(parent)
            near = lifted(near_corner)
            shape = offsets(corners, near)
        s = conn.source_cell - arc.sub_cells(parent)[0].id
        key = (shape, s, offsets(conn.vertices, near))
        if key not in verdicts:
            verdicts[key] = _path_legal(*key)
        if not verdicts[key]:
            violations.append(conn.id)
    return violations


# -- the checks decided from the rows -------------------------------------------


def class_checks(arc, k):
    """Which of the checks (a)-(e) of ``fractarc.arc``'s docstring pass at
    depth k, decided from the arc's rows and lattices."""
    clearance, crossing, generations = connector_checks(arc, k)
    return {"a": lattices_nest(arc, k), "b": rows_are_children(arc, k),
            "c": not clearance, "d": not crossing, "e": arc._glued(generations)}


def row_verify_injectivity(arc, k):
    """``verify_injectivity`` decided from the rows: when (a)-(e) pass the
    traversal is simple by the nesting lemma; otherwise
    ``chain_self_intersection`` sweeps the traversal and names the first
    pair of segments that meet, and a chain that fails to glue or has a
    zero-length segment is reported as the pair (-1, -1)."""
    clearance, crossing, generations = connector_checks(arc, k)
    traversal_violation = None
    if (clearance or crossing or not lattices_nest(arc, k) or not rows_are_children(arc, k)
            or not arc._glued(generations)):
        try:
            traversal_violation = chain_self_intersection(arc.traversal_chain(k))
        except (RuntimeError, ValueError):
            traversal_violation = (-1, -1)
    connectors = arc.branching ** k - 1
    return InjectivityReport(k, connectors * (connectors - 1) // 2, clearance,
                             traversal_violation)


def connector_checks(arc, k):
    """(c) and (d) on the connectors of generations 1..k: the sorted ids of
    those that fail ``_path_legal``, and whether two connectors of one
    parent meet; with the corners of generations 0..k over
    ``arc.denominator(k)``, which the glue check reads.  Both are decided
    once per distinct parent shape (``_parent_shapes``) and hold for every
    parent with that shape; shapes of different generations differ in the
    parent's size, so one verdict table serves every generation."""
    q = arc.branching
    den = arc.denominator(k)
    verdicts = {}  # shape -> (failing ranks, meet)
    violations = []
    crossing = False
    generations = [arc.corners(0, den)]
    for g in range(1, k + 1):
        first = arc.first_id(g - 1)
        generations.append(arc.corners(g, den))
        for shape, parents in _parent_shapes(*generations[-2:]).items():
            if shape not in verdicts:
                segments = [shape[2 * s + 2:2 * s + 4] for s in range(q - 1)]
                verdicts[shape] = (
                    [s for s, ends in enumerate(segments) if not _path_legal(shape, s, ends)],
                    any(segments_meet(*a, *b) for a, b in combinations(segments, 2)))
            failing, meet = verdicts[shape]
            crossing = crossing or meet
            violations.extend((first + c) * (q - 1) + s for c in parents for s in failing)
    return sorted(violations), crossing, generations


def lattices_nest(arc, k):
    """(a): on each axis's Cantor set and at each generation 1..k, the
    closed intervals, as ``Fraction``s, have positive length, each starts
    after the previous one ends, and each lies inside its parent's."""
    for cantor_set in dict.fromkeys(arc._axis_sets):
        for g in range(1, k + 1):
            up, low = generation_intervals(cantor_set, g - 1), generation_intervals(cantor_set, g)
            if not (len(low) == 2 * len(up) and all(iv.length > 0 for iv in low)
                    and all(a.upper < b.lower for a, b in zip(low, low[1:]))
                    and all(up[j // 2].lower <= iv.lower and iv.upper <= up[j // 2].upper
                            for j, iv in enumerate(low))):
                return False
    return True


def rows_are_children(arc, k):
    """(b): every generation 0..k is the full product (``full_product``),
    and each row of generation g is 2 * its parent's row plus a 0/1 bit per
    axis.  The q distinct rows of one parent are then its q children, once
    each."""
    q = arc.branching
    for g in range(k + 1):
        columns = arc.generation_columns(g)
        if not full_product(columns, g):
            return False
        if g and not all(0 <= i - 2 * up <= 1
                         for column, parents in zip(columns, arc.generation_columns(g - 1))
                         for b in range(q) for i, up in zip(column[b::q], parents)):
            return False
    return True


def full_product(columns, k):
    """Whether the generation-k rows, given as per-axis ``columns``, hold
    every combination of per-axis interval indices, each once: each index
    lies in [0, 2^k) and the q^k row keys, the indices as base-2^k digits,
    are distinct."""
    side = 2 ** k
    n = side ** len(columns)
    if any(len(column) != n or min(column) < 0 or max(column) >= side for column in columns):
        return False
    keys = [0] * n
    for column in columns:
        keys = [key * side + i for key, i in zip(keys, column)]
    return len(set(keys)) == n


def rows_contain(arc, k):
    """The containment verdict from the rows: generations 1..k are each the
    full product."""
    return all(full_product(arc.generation_columns(g), g) for g in range(1, k + 1))


# -- per-call evaluation and the Fraction certificates -------------------------


@lru_cache(maxsize=8)
def _float_segments(arc, g):
    """Float (sources, targets, lengths) lists of the generation-g connectors."""
    sources, targets = arc.connector_ends(g)
    lengths = [math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))
               for a, b in zip(sources, targets)]
    return sources, targets, lengths


def digit_evaluate(arc, t, k):
    """evaluate(t, k) one parameter at a time: the integer digit loop over
    the float connector tables."""
    if not 0 <= t <= 1:
        raise ValueError(f"parameter must lie in [0, 1], got {t}")
    q = arc.branching
    p = 2 * q - 1
    try:
        num, den = t.as_integer_ratio()
    except AttributeError:
        num, den = Fraction(t).as_integer_ratio()
    position = 0
    for g in range(1, k + 1):
        num *= p
        digit = min(num // den, p - 1)
        if digit * den == num and digit % 2 == 0 and digit > 0:
            digit -= 1
        num -= digit * den
        if digit % 2:
            sources, targets, lengths = _float_segments(arc, g)
            i = position * (q - 1) + digit // 2
            a, b, length = sources[i], targets[i], lengths[i]
            s = 0.0 if length == 0.0 else min(max(num / den, 0.0), 1.0) * length / length
            return tuple(x + s * (y - x) for x, y in zip(a, b)), 0.0
        position = position * q + digit // 2
    row = [column[position] for column in arc.generation_columns(k)]
    return (tuple(lo[j] for (lo, _), j in zip(arc.interval_ends("float", k), row)),
            arc.cell_diameter(k))


def loop_continuity_violations(arc, epsilon, delta, pairs, rng):
    """The continuity count with one ``digit_evaluate`` per parameter."""
    violations = 0
    for _ in range(pairs):
        x = rng.random()
        y = x + rng.uniform(-delta, delta)
        y = min(max(y, 0.0), 1.0)
        if abs(x - y) >= delta:
            continue
        px, _ = digit_evaluate(arc, x, arc.depth)
        py, _ = digit_evaluate(arc, y, arc.depth)
        if math.dist(px, py) >= epsilon:
            violations += 1
    return violations


def fraction_uniform_perfectness(cantor_set, samples, depth):
    """verify_uniform_perfectness by bisection in the sorted list of every
    depth-``depth`` endpoint, as Fractions."""
    constant = uniform_perfectness_constant(cantor_set)
    eps = endpoints(cantor_set, depth)
    results = []
    for x, r in samples:
        x = Fraction(x)
        r = Fraction(r)
        if r <= 0:
            raise ValueError(f"radius must be positive, got {r}")
        i = bisect.bisect_left(eps, x)
        if i == len(eps) or eps[i] != x:
            raise ValueError(f"center {x} is not a built generation endpoint")
        if r > max(x, 1 - x):
            results.append(AnnulusWitness(x, r, "vacuous"))
            continue
        inner = r / (4 * constant)
        witness = None
        i = bisect.bisect_left(eps, x + inner)
        if i < len(eps) and eps[i] < x + r:
            witness = eps[i]
        else:
            j = bisect.bisect_right(eps, x - inner) - 1
            if j >= 0 and eps[j] > x - r:
                witness = eps[j]
        if witness is None:
            results.append(AnnulusWitness(x, r, "inconclusive"))
        else:
            results.append(AnnulusWitness(x, r, "witness", witness, abs(witness - x)))
    return PerfectnessReport(constant, depth, results)


def _fraction_rank(lows, den, key, strict):
    """How many lattice numerators are < key (strict) or <= key, for a
    Fraction key."""
    bound = min(max(math.ceil(key) if strict else math.floor(key), -1), den)
    return int(np.searchsorted(lows, bound, side="left" if strict else "right"))


def fraction_ball_mass(measure, x, r, resolution):
    """NaturalMeasure.ball_mass with (x -+ r) * den as Fraction keys."""
    x = Fraction(x)
    r = Fraction(r)
    if r <= 0:
        raise ValueError(f"radius must be positive, got {r}")
    lows, ln, den = measure.base.lattice(resolution)
    key_lo = (x - r) * den
    key_hi = (x + r) * den
    meet = max(0, _fraction_rank(lows, den, key_hi, True)
               - _fraction_rank(lows, den, key_lo - ln, False))
    inside = max(0, _fraction_rank(lows, den, key_hi - ln, True)
                 - _fraction_rank(lows, den, key_lo, False))
    unit = Fraction(1, 2 ** resolution)
    return BallMassBracket(x, r, inside * unit, meet * unit, resolution)


def fraction_boundary_interval_count(measure, x, r):
    """NaturalMeasure.boundary_interval_count with the radius-selected
    generation found by Fraction comparisons and Fraction keys."""
    x = Fraction(x)
    r = Fraction(r)
    k = 0 if r > 1 else next((k for k in range(measure.depth + 1)
                              if measure.base.generation_length(k) < r), None)
    if k is None:
        raise ValueError(f"radius {float(r):.3e} is below the built resolution; deepen the build")
    coarse = max(k - 1, 0)
    lows, ln, den = measure.base.lattice(coarse)
    first = _fraction_rank(lows, den, (x - r) * den - ln, False)
    last = _fraction_rank(lows, den, (x + r) * den, True)
    return coarse, max(0, last - first)
