"""Recursive arc approximations threading a Cantor-set product.

Each generation splits every cell of the product (base set times factor
product) into q = 2^(n+1) sub-cells, orders them by distance from the origin,
and joins consecutive sub-cells by connector polylines: far corner of one to
the near corner of the next.  The parameter interval of a cell is split into
p = 2^(n+2)-1 = 2q-1 equal parts, alternating neglected (recursing into the
sub-cells, in distance order) and used (mapped onto connectors), so the
approximations converge to an injective curve through every point of the
product.

The rule fixes every index by arithmetic, so none is stored:

* cell c has the sub-cells c*q+1 .. c*q+q, in rank order;
* connector j of cell c (0-based, joining ranks j+1 and j+2) has id
  c*(q-1)+j;
* parameter piece i of cell c has id 1+c*p+i (the root interval is 0), and
  a parameter t descends through the base-p digits of t.

Connector legality is verified by exact rational geometry, never assumed:

* a connector stays inside its parent cell,
* it meets each closed sibling cell only at its own endpoint corner on that
  cell (no grazing, no face-sliding),
* it is disjoint from every other connector routed in that parent.

Those three checks, plus the disjointness of closed cells within one
generation, force all connectors of all generations to be pairwise disjoint:
a connector of a deeper generation lives inside its parent cell, which any
shallower connector touches at most in the two corner points that are never
deeper-connector endpoints.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iter_product
from typing import Iterator, Optional, Sequence

import numpy as np

from .cantor import (Address, GenerationBudgetError, ProductCantor,
                     RatioCantorSet)
# boxes_disjoint is unused here, but perfbench/tracing.py wraps arc.boxes_disjoint
from .geometry import (Box, Point, box_corners, box_diameter_sq,
                       boxes_disjoint, chain_self_intersection, norm_sq,
                       point_in_box, polyline_is_simple, polylines_disjoint,
                       segment_box_clip)

DEFAULT_CELL_BUDGET = 2 ** 18

#: Waypoint offsets, as fractions of the inter-cell gap, tried in order when
#: the straight segment fails its legality tests, first as single waypoints,
#: then as axis detours.  All lie within (-3/8, 3/8) so every waypoint stays
#: strictly inside the open gap box.
CLEARANCE_OFFSETS = tuple(
    Fraction(n, d) for n, d in (
        (0, 1), (1, 8), (-1, 8), (1, 4), (-1, 4), (1, 16), (-1, 16),
        (3, 16), (-3, 16), (5, 16), (-5, 16), (1, 32), (-1, 32),
        (3, 32), (-3, 32), (5, 32), (-5, 32), (7, 32), (-7, 32),
    ))


class RoutingFailed(RuntimeError):
    """No candidate path passed the exact legality tests."""


@dataclass(frozen=True)
class Cell:
    """One product cell: an axis-aligned box with exact rational corners."""

    id: int
    generation: int
    rank: int  # 1-based position in the parent's distance order
    box: Box
    parent_id: Optional[int]
    address: tuple[str, ...]  # one branch word per axis

    @property
    def near_corner(self) -> Point:
        """The unique point of the cell closest to the origin."""
        return tuple(lo for lo, _ in self.box)

    @property
    def far_corner(self) -> Point:
        """The unique point of the cell farthest from the origin."""
        return tuple(hi for _, hi in self.box)

    @property
    def distance_sq(self) -> Fraction:
        return norm_sq(self.near_corner)

    @property
    def diameter_sq(self) -> Fraction:
        return box_diameter_sq(self.box)

    def corners(self) -> list[Point]:
        return box_corners(self.box)


def connector_fields(depth: int, ambient_dimension: int) -> Iterator[dict]:
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


def param_intervals(depth: int, ambient_dimension: int) -> Iterator[dict]:
    """Schema-v1 rows of the parameter tree of a depth-``depth`` arc, in id
    order, derived from the depth and the ambient dimension alone (see the
    module docstring).

    Rationals are "numerator/denominator" strings.
    """
    q = 2 ** ambient_dimension
    p = 2 * q - 1

    def ratio(n: int, den: int) -> str:
        g = math.gcd(n, den)
        return f"{n // g}/{den // g}"

    def pieces(cell: int, generation: int) -> list[int]:
        return list(range(1 + cell * p, 1 + (cell + 1) * p)) if generation < depth else []

    yield {"id": 0, "depth": 0, "index": 0, "lo": "0/1", "hi": "1/1",
           "status": "neglected", "link": 0, "children": pieces(0, 0)}
    first = 0   # id of the first cell of generation k-1
    los = [0]   # their intervals' left ends, as numerators over p^(k-1)
    for k in range(1, depth + 1):
        den = p ** k
        next_los = []
        for c, lo in enumerate(los, start=first):
            right = ratio(lo * p, den)
            for index in range(p):
                n = lo * p + index
                left, right = right, ratio(n + 1, den)
                row = {"id": 1 + c * p + index, "depth": k, "index": index,
                       "lo": left, "hi": right}
                if index % 2 == 0:
                    sub = c * q + 1 + index // 2
                    next_los.append(n)
                    row.update(status="neglected", link=sub, children=pieces(sub, k))
                else:
                    row.update(status="used", link=c * (q - 1) + index // 2, children=[])
                yield row
        first, los = first * q + 1, next_los


@dataclass
class Connector:
    """Simple polyline from one cell's far corner to the next cell's near
    corner, parametrised at constant speed over its used interval."""

    id: int
    depth: int
    vertices: list[Point]
    parent_cell: int
    source_cell: int
    target_cell: int
    param_length: Fraction  # (2^(n+2)-1)^-depth, the length of its used interval
    _cumulative: Optional[list[float]] = None

    @property
    def source(self) -> Point:
        return self.vertices[0]

    @property
    def target(self) -> Point:
        return self.vertices[-1]

    def _cum_lengths(self) -> list[float]:
        if self._cumulative is None:
            acc = [0.0]
            for a, b in zip(self.vertices, self.vertices[1:]):
                acc.append(acc[-1] + math.sqrt(sum((float(x) - float(y)) ** 2
                                                   for x, y in zip(a, b))))
            self._cumulative = acc
        return self._cumulative

    @property
    def length(self) -> float:
        return self._cum_lengths()[-1]

    @property
    def lipschitz(self) -> float:
        """Path length over parameter length: the constant-speed rate."""
        return self.length / float(self.param_length)

    def point_at(self, frac: float) -> tuple[float, ...]:
        """Point at the given fraction of the parameter interval (constant
        speed along the whole polyline)."""
        cum = self._cum_lengths()
        target = min(max(frac, 0.0), 1.0) * cum[-1]
        i = min(bisect.bisect_right(cum, target), len(cum) - 1) - 1
        seg = cum[i + 1] - cum[i]
        s = 0.0 if seg == 0.0 else (target - cum[i]) / seg
        a, b = self.vertices[i], self.vertices[i + 1]
        return tuple(float(x) + s * (float(y) - float(x)) for x, y in zip(a, b))


def _gap_box(parent_box: Box, child_lengths: Sequence[Fraction]) -> Box:
    """Open middle gap per axis; no sub-cell meets a point whose every
    coordinate lies in its gap."""
    gaps = []
    for (lo, hi), h in zip(parent_box, child_lengths):
        g_lo, g_hi = lo + h, hi - h
        if not g_lo < g_hi:
            raise ValueError("child intervals leave no middle gap")
        gaps.append((g_lo, g_hi))
    return tuple(gaps)


def _candidate_paths(src: Point, dst: Point, gap: Box) -> Iterator[tuple[Point, ...]]:
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


def _path_legal(vertices: Sequence[Point], cells: Sequence[Cell], s: int,
                parent_box: Box) -> bool:
    """Exact legality of one candidate path joining cells[s] to cells[s+1]:
    stays in the parent, is simple, and touches each closed sub-cell at most
    in its own endpoint corner."""
    if any(not point_in_box(v, parent_box) for v in vertices):
        return False
    if not polyline_is_simple(vertices):
        return False
    segs = list(zip(vertices, vertices[1:]))
    last = len(segs) - 1
    for idx, cell in enumerate(cells):
        for seg_i, (a, b) in enumerate(segs):
            clip = segment_box_clip(a, b, cell.box)
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


def route_connectors(ordered_cells: Sequence[Cell], parent_box: Box, gap: Box
                     ) -> list[list[Point]]:
    """Vertex paths joining consecutive cells in distance order.

    Tries the straight segment first, then gap-waypoint detours from the
    clearance schedule.  Every accepted path passed the exact tests; running
    out of candidates raises RoutingFailed naming the offending pair.
    """
    paths: list[list[Point]] = []
    for s in range(len(ordered_cells) - 1):
        src = ordered_cells[s].far_corner
        dst = ordered_cells[s + 1].near_corner
        chosen = None
        for cand in _candidate_paths(src, dst, gap):
            if not _path_legal(cand, ordered_cells, s, parent_box):
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


class ArcApproximation:
    """Generation-by-generation approximation of the curve through a product
    of a ratio Cantor set with a self-similar product."""

    def __init__(self, base_set: RatioCantorSet, product: ProductCantor,
                 cell_budget: int = DEFAULT_CELL_BUDGET):
        if product.copies < 1:
            raise ValueError("product needs at least one factor axis")
        self.base_set = base_set
        self.product = product
        self.cell_budget = cell_budget
        self.copies = product.copies
        self.ambient_dimension = product.copies + 1
        self.branching = 2 ** self.ambient_dimension  # q sub-cells per cell
        self.depth = 0

        root_box: Box = tuple((Fraction(0), Fraction(1))
                              for _ in range(self.ambient_dimension))
        root = Cell(0, 0, 1, root_box, None, ("",) * self.ambient_dimension)
        self.cells: list[Cell] = [root]
        self.connectors: list[Connector] = []
        self._cell_index: dict[tuple[str, ...], int] = {root.address: 0}

    # -- construction -----------------------------------------------------

    def _child_lengths(self, k: int) -> list[Fraction]:
        base = self.base_set.generation_length(k)
        factor = self.product.factor.generation_length(k)
        return [base] + [factor] * self.copies

    def grow_cells(self, depth: int) -> "ArcApproximation":
        """Cells of every generation up to ``depth``, without connectors.

        A generation-k cell is the product of the axes' generation-k Cantor
        intervals at its address, so each axis's intervals are read once per
        generation.
        """
        # fail fast on the target depth before spending work on shallower
        # ones; 2^e > budget exactly when e reaches the budget's bit length
        if depth * self.ambient_dimension >= self.cell_budget.bit_length():
            raise GenerationBudgetError(
                f"depth {depth} needs 2^{depth * self.ambient_dimension} cells, "
                f"over the budget {self.cell_budget}")
        for k in range(self.depth + 1, depth + 1):
            base, factor = ([(iv.lower, iv.upper) for iv in s.generation_intervals(k)]
                            for s in (self.base_set, self.product.factor))
            intervals = [base] + [factor] * self.copies
            for parent in self.generation_cells(k - 1):
                self._make_sub_cells(parent, intervals)
            self.depth = k
        return self

    def route(self) -> "ArcApproximation":
        """Connectors of every grown generation not routed yet, in id order."""
        for k in range(1, self.depth + 1):
            if len(self.connectors) >= self.branching ** k - 1:
                continue  # routed already
            lengths = self._child_lengths(k)
            param_length = self.param_interval_length(k)
            for parent in self.generation_cells(k - 1):
                sub_cells = self.sub_cells(parent.id)
                gap = _gap_box(parent.box, lengths)
                paths = route_connectors(sub_cells, parent.box, gap)
                for s, path in enumerate(paths):
                    self.connectors.append(Connector(
                        len(self.connectors), k, path, parent.id, sub_cells[s].id,
                        sub_cells[s + 1].id, param_length))
        return self

    def build_to(self, depth: int) -> "ArcApproximation":
        return self.grow_cells(depth).route()

    def _make_sub_cells(self, parent: Cell, intervals: Sequence[Sequence[tuple]]) -> None:
        """Append the sub-cells of ``parent`` in rank order; ``intervals``
        holds each axis's generation intervals as (lo, hi) pairs, indexed by
        branch word."""
        first = [2 * int(w, 2) if w else 0 for w in parent.address]
        keyed = []
        for bits in iter_product((0, 1), repeat=len(first)):
            box = tuple(axis[i + b] for axis, i, b in zip(intervals, first, bits))
            near = tuple(lo for lo, _ in box)
            keyed.append((norm_sq(near), near, bits, box))
        keyed.sort(key=lambda item: (item[0], item[1]))
        cells = []
        for rank, (_, _, bits, box) in enumerate(keyed, start=1):
            address = tuple(w + str(b) for w, b in zip(parent.address, bits))
            cell = Cell(len(self.cells), parent.generation + 1, rank, box,
                        parent.id, address)
            self.cells.append(cell)
            self._cell_index[address] = cell.id
            cells.append(cell)
        # structural invariants of the distance order
        assert cells[0].near_corner == parent.near_corner
        assert cells[-1].far_corner == parent.far_corner

    # -- queries ------------------------------------------------------------

    def generation_cells(self, k: int) -> list[Cell]:
        """Cells of generation k in parameter (traversal) order."""
        self._require_depth(k)
        q = self.branching
        return self.cells[(q ** k - 1) // (q - 1):(q ** (k + 1) - 1) // (q - 1)]

    def sub_cells(self, cell_id: int) -> list[Cell]:
        """The sub-cells of a built cell, in rank order."""
        q = self.branching
        return self.cells[cell_id * q + 1:cell_id * q + q + 1]

    def connectors_at(self, k: int) -> list[Connector]:
        q = self.branching
        return self.connectors[q ** (k - 1) - 1:q ** k - 1]

    def cumulative_connectors(self, k: int) -> list[Connector]:
        return self.connectors[:self.branching ** k - 1]

    def cell_at(self, address: Address | tuple[str, ...]) -> Cell:
        words = address.words if isinstance(address, Address) else tuple(address)
        try:
            return self.cells[self._cell_index[words]]
        except KeyError:
            raise KeyError(f"no built cell at address {words}") from None

    def cell_diameter_sq(self, k: int) -> Fraction:
        """Common squared diameter of every generation-k cell."""
        lengths = self._child_lengths(k) if k > 0 else [Fraction(1)] * self.ambient_dimension
        return sum((h * h for h in lengths), Fraction(0))

    def cell_diameter(self, k: int) -> float:
        return math.sqrt(float(self.cell_diameter_sq(k)))

    def param_interval_length(self, depth: int) -> Fraction:
        """Common length of every depth-``depth`` parameter interval."""
        return Fraction(1, (2 * self.branching - 1) ** depth)

    def _require_depth(self, k: int) -> None:
        if k < 0 or k > self.depth:
            raise ValueError(f"generation {k} is not built (depth {self.depth})")

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, t, k: int) -> tuple[tuple[float, ...], float]:
        """Point of the depth-k model at parameter t, with an error bound.

        Inside a used interval the connector point is returned exactly (error
        0); otherwise the representative is the near corner of the depth-k
        cell the parameter recurses into, with the cell diameter as error.
        The limit curve is never claimed at finite depth.
        """
        if not 0 <= t <= 1:
            raise ValueError(f"parameter must lie in [0, 1], got {t}")
        if k < 1:
            raise ValueError("evaluation depth starts at 1")
        self._require_depth(k)
        q = self.branching
        p = 2 * q - 1
        x = Fraction(t)  # position inside the current cell's interval, scaled to [0, 1]
        cell = 0
        for _ in range(k):
            x *= p
            digit = min(math.floor(x), p - 1)
            if digit == x and digit % 2 == 0 and digit > 0:
                digit -= 1  # on the boundary of two pieces the used one wins
            x -= digit
            if digit % 2:
                return self.connectors[cell * (q - 1) + digit // 2].point_at(float(x)), 0.0
            cell = cell * q + 1 + digit // 2
        return (tuple(float(c) for c in self.cells[cell].near_corner),
                self.cell_diameter(k))

    def traversal_pieces(self, k: int) -> list[tuple[str, int, list[Point]]]:
        """Traversal of the depth-k model in parameter order: connectors for
        used intervals, near-to-far diagonals for depth-k cells."""
        self._require_depth(k)
        if k < 1:
            raise ValueError("traversal depth starts at 1")
        q = self.branching
        pieces: list[tuple[str, int, list[Point]]] = []

        def walk(cell_id: int, generation: int) -> None:
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

    def traversal_chain(self, k: int) -> list[Point]:
        """Glued vertex chain of the depth-k traversal."""
        pieces = self.traversal_pieces(k)
        chain = list(pieces[0][2])
        for _, _, verts in pieces[1:]:
            if verts[0] != chain[-1]:
                raise RuntimeError("traversal pieces do not share endpoints")
            chain.extend(verts[1:])
        return chain

    def vertex_cloud(self, k: int) -> np.ndarray:
        """Float array of connector vertices (depths <= k) plus generation-k
        cell corners: the finite stand-in for the depth-k curve."""
        self._require_depth(k)
        pts: list[tuple[float, ...]] = []
        for conn in self.cumulative_connectors(k):
            pts.extend(tuple(float(c) for c in v) for v in conn.vertices)
        for cell in self.generation_cells(k):
            pts.extend(tuple(float(c) for c in corner) for corner in cell.corners())
        return np.unique(np.array(pts, dtype=float), axis=0)


def build_arc(base_set: RatioCantorSet, product: ProductCantor, depth: int,
              cell_budget: int = DEFAULT_CELL_BUDGET) -> ArcApproximation:
    arc = ArcApproximation(base_set, product, cell_budget)
    return arc.build_to(depth)


# -- verification -----------------------------------------------------------


@dataclass
class InjectivityReport:
    depth: int
    connector_pairs_checked: int  # connector pairs the traversal check decides
    clearance_violations: list[int]
    traversal_violation: Optional[tuple[int, int]]

    @property
    def passed(self) -> bool:
        return not self.clearance_violations and self.traversal_violation is None


def verify_injectivity(arc: ArcApproximation, k: int) -> InjectivityReport:
    """Exact injectivity evidence for the depth-k model.

    (i) every connector passes its clearance tests against its sibling
    cells, which the traversal cannot see, and (ii) the parameter-order
    traversal is a simple polyline.  The traversal holds every cumulative
    connector as a sub-chain and never puts two connectors next to each
    other, so (ii) tests every segment pair of every two connectors for a
    shared point: it also decides that the connectors are pairwise
    disjoint.  Distinct depth-k parameter pieces land in distinct cells by
    the id arithmetic itself.
    """
    conns = arc.cumulative_connectors(k)
    clearance: list[int] = []
    for conn in conns:
        ranked = arc.sub_cells(conn.parent_cell)
        s = conn.source_cell - ranked[0].id
        parent_box = arc.cells[conn.parent_cell].box
        if not _path_legal(conn.vertices, ranked, s, parent_box):
            clearance.append(conn.id)

    try:
        chain = arc.traversal_chain(k)
        traversal_violation = chain_self_intersection(chain)
    except (RuntimeError, ValueError):
        # chain fails to glue or degenerates: report rather than crash
        traversal_violation = (-1, -1)

    pairs = len(conns) * (len(conns) - 1) // 2
    return InjectivityReport(k, pairs, clearance, traversal_violation)


@dataclass
class ContainmentReport:
    depth: int
    sample_count: int
    max_distance: float
    bound: float

    @property
    def passed(self) -> bool:
        return self.max_distance <= self.bound + 1e-12


def verify_containment(arc: ArcApproximation, k: int,
                       addresses: Sequence[Address]) -> ContainmentReport:
    """Every sampled product point lies within one cell diameter of the
    depth-k model's vertex cloud; the bound shrinks with k."""
    cloud = arc.vertex_cloud(k)
    worst = 0.0
    for address in addresses:
        cell = arc.cell_at(address)
        z = np.array([float(c) for c in cell.near_corner])
        dist = float(np.min(np.linalg.norm(cloud - z, axis=1)))
        worst = max(worst, dist)
    return ContainmentReport(k, len(addresses), worst, arc.cell_diameter(k))


def sample_addresses(arc: ArcApproximation, count: int, rng,
                     depth: Optional[int] = None) -> list[Address]:
    depth = arc.depth if depth is None else depth
    return [Address.random(arc.ambient_dimension, depth, rng) for _ in range(count)]


@dataclass
class ModulusReport:
    epsilon: float
    delta: float
    cutoff_depth: int
    delta_prime: float
    lipschitz_bound: float
    vacuous: bool


def modulus_of_continuity(arc: ArcApproximation, epsilon: float) -> ModulusReport:
    """delta such that parameters closer than delta map within epsilon.

    With K the smallest depth whose cell diameter is below epsilon, delta is
    the smaller of half a depth-(K+1) parameter interval and
    epsilon / (2 * max Lipschitz rate of connectors at depths <= K).
    Requires depth K+1 built.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if epsilon >= math.sqrt(arc.ambient_dimension):
        return ModulusReport(epsilon, 1.0, 0, 1.0, 0.0, True)
    cutoff = None
    for k in range(1, arc.depth + 1):
        if arc.cell_diameter(k) < epsilon:
            cutoff = k
            break
    if cutoff is None or cutoff + 1 > arc.depth:
        raise GenerationBudgetError(
            f"modulus at epsilon={epsilon} needs depth "
            f"{(cutoff or arc.depth) + 1}; build deeper")
    delta_prime = float(arc.param_interval_length(cutoff + 1)) / 2.0
    lipschitz = max(c.lipschitz for c in arc.cumulative_connectors(cutoff))
    delta = min(delta_prime, epsilon / (2.0 * lipschitz))
    return ModulusReport(epsilon, delta, cutoff, delta_prime, lipschitz, False)


def continuity_violations(arc: ArcApproximation, epsilon: float, delta: float,
                          pairs: int, rng) -> int:
    """Count sampled parameter pairs with |x - y| < delta whose depth-built
    images end up epsilon or farther apart (expected: zero)."""
    violations = 0
    for _ in range(pairs):
        x = rng.random()
        y = x + rng.uniform(-delta, delta)
        y = min(max(y, 0.0), 1.0)
        if abs(x - y) >= delta:
            continue
        px, _ = arc.evaluate(x, arc.depth)
        py, _ = arc.evaluate(y, arc.depth)
        if math.dist(px, py) >= epsilon:
            violations += 1
    return violations
