"""Recursive arc approximations threading a Cantor-set product.

Each generation splits every cell of the product (base set times factor
product) into q = 2^(n+1) sub-cells, orders them by distance from the origin,
and joins consecutive sub-cells by straight connectors: far corner of one to
the near corner of the next.  The parameter interval of a cell is split into
p = 2^(n+2)-1 = 2q-1 equal parts, alternating neglected (recursing into the
sub-cells, in distance order) and used (mapped onto connectors), so the
approximations converge to an injective curve through every point of the
product.

An arc is built once, to its depth: ``ArcApproximation(base_set, product,
depth)`` (or ``build_arc``) grows and routes every generation up to
``depth`` in one call, and the arc does not change after that.

The rule fixes every index by arithmetic, so none is stored:

* cell c has the sub-cells c*q+1 .. c*q+q, in rank order;
* connector j of cell c (0-based, joining ranks j+1 and j+2) has id
  c*(q-1)+j;
* parameter piece i of cell c has id 1+c*p+i (the root interval is 0), and
  a parameter t descends through the base-p digits of t, computed on the
  integer numerator and denominator of t.  ``evaluate_many`` runs that
  descent once per parameter and ``continuity_violations`` sends its
  sampled pairs through it in batches; ``evaluate`` is the one-parameter
  case, with the same digits and floats.

Storage.  Generation k is d read-only integer columns of q^k entries, one
per axis, in cell-id order (``generation_columns``): each a memoryview of
an ``array('q')``.  Entry i of the column of an axis is the index of cell
i's interval in that axis's ``lattice(k)``: the base set on axis 0, the
factor on the others.  A reader that needs a cell's row zips the columns;
no object is kept per cell.  Everything else is derived from them:

* cell i of generation k has id (q^k-1)/(q-1) + i, rank i mod q + 1, and
  its parent at position i // q of generation k-1;
* its branch word on an axis is the interval index in k binary digits;
* its box is a lattice lookup;
* connector j of a cell runs from the far corner of its sub-cell of rank
  j+1 to the near corner of rank j+2.

The model text, the SVG, the vertex cloud, ``evaluate`` and the modulus of
continuity read only these columns, the per-(axis, generation) tables of
``interval_ends`` ("n/d" strings, and floats made by Python int / int,
correctly rounded as ``float(Fraction)`` is) and the integer corners of
``corners``: every cell corner as numerators over one common denominator,
again one column per axis.

Checks.  An arc is checked once, as it grows: the constructor decides every
check of a generation as it grows it, and the first that fails raises
RoutingFailed naming the check, the generation and the axis or parent.  An
arc that exists has passed them all, so no verdict is kept.  The depth-k
traversal runs through the generation-k cells' near-to-far diagonals in id
order, joined by connectors; the checks are:

(a) nesting: each distinct axis set's ``lattice(k)`` has closed intervals of
    positive length, apart in index order, each inside its parent's interval
    of ``lattice(k-1)`` (``_lattice_nests``);
(c) clearance: a connector is one segment of positive length inside its
    parent cell that meets each closed sibling cell only at its own endpoint
    corner on that cell (no grazing, no face-sliding);
(d) the connectors of one parent are pairwise disjoint;
(e) glue: a parent's first sub-cell holds its near corner and its last
    sub-cell its far corner.

They are checked by exact geometry, not proved for the distance order in
general.  (c)-(e) read a parent's integer shape (``_parent_shapes``): its
far corner, then the near and far corner of each sub-cell in rank order,
all minus its near corner, over one common denominator.  A connector's
vertices are two points of that shape, so equal shapes mean the same
geometry up to a translation, and the predicates are exact and unchanged
under translation: ``route_connectors`` decides them once, on the first
parent of each distinct shape, and the verdict holds for every parent with
that shape.
``_path_legal`` decides (c) by slab clipping in integer (numerator,
denominator) pairs; ``polylines_disjoint`` decides (d) on the integer
points.  (e) holds at every generation, so by induction every connector
glues to the deepest cells: a connector leaves the far corner of a sub-cell,
which is the far corner of that sub-cell's last sub-cell, and so on down to
generation k, and it enters the near corner of the first depth-k descendant
of the next sub-cell in the same way.

Two more facts follow from the growth rule and are argued, not checked:

(b) each parent's rows are its q children, once each, and the rows of every
    generation k hold each combination of axis indices in [0, 2^k) once (the
    full product).  A parent with row i gets the rows 2i + b, one for each of
    the q bit patterns b, in rank order.  Generation 0 is the one row 0.  If
    generation k-1 is the full product, the rows 2i + b lie in [0, 2^k) on
    every axis, and each gives back its i and b (halve, and take the
    remainder), so the q^k rows are distinct: they are the full product.

Containment.  Each coordinate of a point of the product lies in one
generation-k interval of its axis, since the Cantor set is the intersection
of its generations, so the point lies in the product cell with those
indices.  By (b) that cell is a row; its corners are in the vertex cloud, so
the point is within the cell's diameter of one of them.

Injectivity (the nesting lemma).  Give each traversal segment a home: the
generation-k cell of a diagonal, the parent cell of a connector.  By (a) and
(b) the cells nest and the cells of one generation are pairwise disjoint
closed boxes, so two segments whose homes are not nested lie in disjoint
boxes.  If home H1 strictly contains H2, H2 lies in one sub-cell S of H1; by
(c) a connector of H1 meets S at most in its own endpoint corner on S, which
by (e) is a corner of the deepest cell of S next to it in the traversal, and
no other segment homed inside S reaches that corner.  Connectors of one
parent are disjoint by (d).

``verify_injectivity`` and ``verify_containment`` report that guarantee and
read no row.  A model file is rebuilt from its config when it is loaded and
compared byte for byte, so a tampered file is refused before either runs;
only a caller that edits an arc's private state could hand them other rows.
The test oracles re-decide every check from the rows, and sweep the
traversal chain (``traversal_chain``, ``chain_self_intersection``) as the
reference.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, product as iter_product, repeat
from operator import sub
from typing import Iterator, Optional, Sequence

from .cantor import GenerationBudgetError, ProductCantor, RatioCantorSet
from .geometry import polylines_disjoint
# unused here: perfbench/tracing.py wraps arc.boxes_disjoint and
# arc.chain_self_intersection
from .geometry import boxes_disjoint, chain_self_intersection

DEFAULT_CELL_BUDGET = 2 ** 18
_PAIR_BATCH = 1024  # continuity pairs per evaluate_many call

#: (near, far) corners of one generation's cells: per axis, a column of
#: integer numerators over one denominator, in id order.
Corners = tuple[list[list[int]], list[list[int]]]


class RoutingFailed(RuntimeError):
    """A generation failed one of the exact checks (a), (c), (d) or (e) of
    the module docstring."""


def _ratio_text(n: int, den: int) -> str:
    """n / den as the reduced "numerator/denominator" string."""
    g = math.gcd(n, den)
    return f"{n // g}/{den // g}"


#: How ``ArcApproximation.interval_ends`` writes the numerator n over den.
_END_KINDS = {"float": lambda n, den: n / den, "text": _ratio_text}

def param_rows(depth: int, ambient_dimension: int) -> Iterator[tuple]:
    """The rows of the parameter tree of a depth-``depth`` arc in id order,
    as (id, depth, index, lo, hi, status, link, children) tuples, derived
    from the depth and the ambient dimension alone (see the module
    docstring).

    lo and hi are "numerator/denominator" strings, children a range of ids.
    """
    q = 2 ** ambient_dimension
    p = 2 * q - 1

    def pieces(cell: int, generation: int) -> range:
        return range(1 + cell * p, 1 + (cell + 1) * p) if generation < depth else range(0)

    yield 0, 0, 0, "0/1", "1/1", "neglected", 0, pieces(0, 0)
    first = 0   # id of the first cell of generation k-1
    los = [0]   # their intervals' left ends, as numerators over p^(k-1)
    for k in range(1, depth + 1):
        den = p ** k
        next_los = []
        for c, lo in enumerate(los, start=first):
            right = _ratio_text(lo * p, den)
            for index in range(p):
                n = lo * p + index
                left, right = right, _ratio_text(n + 1, den)
                if index % 2 == 0:
                    sub = c * q + 1 + index // 2
                    next_los.append(n)
                    yield (1 + c * p + index, k, index, left, right, "neglected", sub,
                           pieces(sub, k))
                else:
                    yield (1 + c * p + index, k, index, left, right, "used",
                           c * (q - 1) + index // 2, range(0))
        first, los = first * q + 1, next_los


def _path_legal(shape: Sequence[Sequence[int]], s: int,
                vertices: Sequence[Sequence[int]]) -> bool:
    """Exact legality of the connector joining the sub-cells of 0-based
    ranks s and s+1: one segment of positive length, inside the parent, that
    meets each closed sub-cell at most in its own endpoint corner on that
    cell.

    Every point is an integer offset from the parent's near corner: ``shape``
    holds the parent's far corner, then the near and far corners of each
    sub-cell in rank order, and ``vertices`` the connector's vertices.
    """
    if len(vertices) != 2 or vertices[0] == vertices[1]:
        return False
    a, b = vertices
    if not all(0 <= x <= f and 0 <= y <= f for x, y, f in zip(a, b, shape[0])):
        return False
    for rank in range((len(shape) - 1) // 2):
        clip = _clip(a, b, shape[2 * rank + 1], shape[2 * rank + 2])
        if clip is None:
            continue
        (n0, d0), (n1, d1) = clip
        if n0 * d1 != n1 * d0:
            return False  # a piece of positive length inside the cell
        if not ((rank == s and n0 == 0) or (rank == s + 1 and n0 == d0)):
            return False
    return True


def _clip(a: Sequence[int], b: Sequence[int], lo: Sequence[int], hi: Sequence[int]
          ) -> Optional[tuple[tuple[int, int], tuple[int, int]]]:
    """Parameter range [t0, t1] of the segment a + t(b - a), t in [0, 1],
    inside the closed box [lo, hi], or None when it misses the box.

    Slab clipping on integers: each t is a (numerator, denominator > 0) pair,
    compared by cross-multiplication.
    """
    n0, d0, n1, d1 = 0, 1, 1, 1
    for x, y, low, high in zip(a, b, lo, hi):
        d = y - x
        if d == 0:
            if not low <= x <= high:
                return None
            continue
        enter, leave = low - x, high - x
        if d < 0:
            d, enter, leave = -d, x - high, x - low
        if enter * d0 > n0 * d:
            n0, d0 = enter, d
        if leave * d1 < n1 * d:
            n1, d1 = leave, d
        if n0 * d1 > n1 * d0:
            return None
    return (n0, d0), (n1, d1)


def route_connectors(shape: Sequence[Sequence[int]], generation: int, parent_id: int
                     ) -> list[tuple[Sequence[int], Sequence[int]]]:
    """The straight connectors of a parent with integer ``shape`` (see
    ``_parent_shapes``), as (source, target) pairs of shape points, after
    checks (c)-(e) of the module docstring.

    Each connector must pass ``_path_legal`` (c) and miss every earlier
    connector of the parent (``polylines_disjoint``, (d)); the first that
    fails raises RoutingFailed naming the generation, the parent and the
    ranks.  Then the parent must glue (e): its first sub-cell's near corner
    is its own (the origin of the shape), and its last sub-cell's far
    corner is its own.  Since every parent glues, every connector glues to
    the deepest cells, by induction on the generations below it.
    """
    paths: list[tuple[Sequence[int], Sequence[int]]] = []
    for s in range((len(shape) - 1) // 2 - 1):
        # connector s runs from the far corner of rank s to the near corner of s+1
        a, b = shape[2 * s + 2:2 * s + 4]
        if not (_path_legal(shape, s, (a, b))
                and all(polylines_disjoint((a, b), p) for p in paths)):
            raise RoutingFailed(
                f"the straight connector of generation {generation} (parent {parent_id}) "
                f"between cells ranked {s + 1} and {s + 2} is not legal")
        paths.append((a, b))
    if any(shape[1]) or shape[-1] != shape[0]:
        raise RoutingFailed(
            f"check (e) fails at generation {generation} (parent {parent_id}): its "
            f"first and last sub-cells do not hold its near and far corners")
    return paths


def _lattice_nests(upper: tuple, lower: tuple) -> bool:
    """Check (a) of the module docstring on one Cantor set: whether the
    intervals of the lattice ``lower`` (lows, length, denominator, as
    ``lattice(k)`` gives it) have positive length, each starts after the
    previous one ends, and each lies inside its parent's interval in
    ``upper``, ``lattice(k-1)``.  Both are compared over their common
    denominator."""
    (up_lows, up_len, up_den), (lows, length, den) = upper, lower
    common = math.lcm(up_den, den)
    up = [a * (common // up_den) for a in up_lows]
    low = [a * (common // den) for a in lows]
    up_len, length = up_len * (common // up_den), length * (common // den)
    return (length > 0 and len(low) == 2 * len(up)
            and all(b - a > length for a, b in zip(low, low[1:]))
            and all(a >= u for a, u in zip(low[::2], up))
            and all(b + length <= u + up_len for b, u in zip(low[1::2], up)))


def _parent_shapes(cells: Corners, subs: Corners) -> dict[tuple, list[int]]:
    """The distinct shapes of one generation's parents, in the order of
    their first parent, each with the positions of its parents in their
    generation.  ``cells`` and ``subs`` are the (near, far) corners of the
    parents and of their sub-cells (``ArcApproximation.corners``, over one
    denominator), so each generation's corners are made once and passed on.

    A parent's shape is its far corner, then the near and far corner of
    each sub-cell in rank order, all minus its near corner, as a tuple of
    integer points over that denominator; connector s runs between shape
    points 2s+2 and 2s+3.  The offsets are taken axis by axis over whole
    columns, and the parents keyed by their per-axis offsets.
    """
    (near, far), (sub_near, sub_far) = cells, subs
    n = len(near[0])
    q = len(sub_near[0]) // n
    w = 2 * q + 1  # points per shape
    axes = []  # per axis, the w shape coordinates of each parent in turn
    for low, high, sub_low, sub_high in zip(near, far, sub_near, sub_far):
        points = [0] * (n * w)
        points[::w] = high
        for j in range(q):
            points[1 + 2 * j::w] = sub_low[j::q]
            points[2 + 2 * j::w] = sub_high[j::q]
        axes.append(list(map(sub, points, chain.from_iterable(map(repeat, low, repeat(w))))))
    parents: dict[tuple, list[int]] = {}
    for c, key in enumerate(zip(*[zip(*[iter(axis)] * w) for axis in axes])):
        parents.setdefault(key, []).append(c)
    return {tuple(zip(*key)): positions for key, positions in parents.items()}


def _integer_ratio(t) -> tuple[int, int]:
    """(numerator, denominator) of a parameter t in [0, 1]."""
    if not 0 <= t <= 1:
        raise ValueError(f"parameter must lie in [0, 1], got {t}")
    try:
        return t.as_integer_ratio()
    except AttributeError:  # numpy integers, say
        return Fraction(t).as_integer_ratio()


def branch_word(index: int, k: int) -> str:
    """The branch word of interval ``index`` of a generation-k lattice."""
    return format(index, f"0{k}b") if k else ""


class ArcApproximation:
    """Generation-by-generation approximation of the curve through a product
    of a ratio Cantor set with a self-similar product (storage as in the
    module docstring)."""

    def __init__(self, base_set: RatioCantorSet, product: ProductCantor, depth: int):
        """Grow, route and check every generation up to ``depth``, in one
        loop.

        The sub-cells of a parent with interval indices i take intervals
        2i + b on each axis, for the q bit patterns b (axis 0 the high bit).
        They are ranked by (|near corner|^2, near corner), computed exactly:
        each axis's lower ends go over the lattices' common denominator, as
        Python ints.  Within one parent the near corners order as the
        patterns do, so the key is |near corner|^2 * q + pattern.

        Before a generation grows, each distinct axis set's lattice must
        nest in its previous generation (check (a), ``_lattice_nests``).
        Each grown generation is routed at once: ``route_connectors`` checks
        (c)-(e) on the first parent of each distinct shape; the other
        parents with that shape hold the same segments translated (see the
        module docstring).  The connectors themselves stay implicit in the
        columns.  A failed check raises RoutingFailed.
        """
        if product.copies < 1:
            raise ValueError("product needs at least one factor axis")
        if depth < 0:
            raise ValueError("depth must be non-negative")
        self.base_set = base_set
        self.product = product
        self.copies = product.copies
        self.ambient_dimension = d = product.copies + 1
        self.branching = q = 2 ** d  # sub-cells per cell
        self.depth = depth
        # fail fast on the target depth before spending work on shallower
        # ones; 2^e > budget exactly when e reaches the budget's bit length
        if depth * d >= DEFAULT_CELL_BUDGET.bit_length():
            raise GenerationBudgetError(
                f"depth {depth} needs 2^{depth * d} cells, over the budget {DEFAULT_CELL_BUDGET}")
        # the Cantor set each ambient axis reads its intervals from
        self._axis_sets = (base_set,) + (product.factor,) * product.copies
        self._columns = [(memoryview(array("q", [0])).toreadonly(),) * d]
        self._tables: dict[tuple[str, int], list] = {}  # interval_ends
        self._diameters: dict[int, float] = {}
        self._segments: dict[int, tuple] = {}
        # bits[a][b]: the bit of pattern b on axis a
        bits = [[b >> (d - 1 - a) & 1 for b in range(q)] for a in range(d)]
        den = self.denominator(depth)
        cells = self.corners(0, den)
        for k in range(1, depth + 1):
            lattices = [s.lattice(k) for s in self._axis_sets]
            # axis 0 reads the base set and every other axis the one factor
            for axis, s in enumerate(self._axis_sets[:2]):
                if not _lattice_nests(s.lattice(k - 1), lattices[axis]):
                    raise RoutingFailed(
                        f"check (a) fails at generation {k}: the lattice of axis {axis} "
                        f"does not nest in generation {k - 1}")
            lcm = math.lcm(*(axis_den for _, _, axis_den in lattices))
            squares = [[(a * (lcm // axis_den)) ** 2 for a in axis_lows]
                       for axis_lows, _, axis_den in lattices]
            columns = [array("q") for _ in range(d)]
            for row in zip(*self._columns[k - 1]):
                sums = [0]  # |near corner|^2 of each pattern's sub-cell
                for axis, i in zip(squares, row):
                    low, high = axis[2 * i], axis[2 * i + 1]
                    sums = [x + y for x in sums for y in (low, high)]
                keys = [x * q + b for b, x in enumerate(sums)]
                order = sorted(range(q), key=keys.__getitem__)
                for column, i, axis_bits in zip(columns, row, bits):
                    column.extend([2 * i + axis_bits[b] for b in order])
            self._columns.append(tuple(memoryview(column).toreadonly() for column in columns))
            first = self.first_id(k - 1)
            subs = self.corners(k, den)
            for shape, parents in _parent_shapes(cells, subs).items():
                route_connectors(shape, k, first + parents[0])
            cells = subs

    # -- lattice tables --------------------------------------------------------

    def first_id(self, k: int) -> int:
        """Id of the first generation-k cell."""
        return (self.branching ** k - 1) // (self.branching - 1)

    def generation_columns(self, k: int) -> tuple[Sequence[int], ...]:
        """Per axis, the read-only column of the generation-k cells'
        interval indices, in id order; ``zip(*columns)`` gives the rows."""
        self._require_depth(k)
        return self._columns[k]

    def denominator(self, k: int) -> int:
        """The lcm of every axis's lattice denominators up to generation k:
        the common denominator of ``corners`` and ``traversal_chain``."""
        return math.lcm(*(s.lattice(g)[2] for s in self._axis_sets for g in range(k + 1)))

    def corners(self, k: int, den: int) -> Corners:
        """(near, far) corners of the generation-k cells in id order, each a
        list of per-axis columns of integer numerators over ``den``, a
        multiple of every axis's generation-k lattice denominator.  A
        column's entries are shared among the cells with one interval."""
        near, far = [], []
        for s, column in zip(self._axis_sets, self._columns[k]):
            lows, ln, axis_den = s.lattice(k)
            scale = den // axis_den
            low = [a * scale for a in lows]
            high = [a + ln * scale for a in low]
            near.append(list(map(low.__getitem__, column)))
            far.append(list(map(high.__getitem__, column)))
        return near, far

    def interval_ends(self, kind: str, k: int) -> list[tuple[list, list]]:
        """Per axis, the lower and the upper ends of the generation-k
        intervals by interval index, made once per Cantor set and cached:
        "float" (int / int, correctly rounded as float(Fraction) is),
        or "text" (reduced "n/d" strings)."""
        if (kind, k) not in self._tables:
            convert = _END_KINDS[kind]

            def ends(lows, ln, den):
                return [convert(a, den) for a in lows], [convert(a + ln, den) for a in lows]

            base, factor = (ends(*s.lattice(k)) for s in (self.base_set, self.product.factor))
            self._tables[kind, k] = [base] + [factor] * self.copies
        return self._tables[kind, k]

    def axis_ends(self, k: int) -> list[list[float]]:
        """Per axis, the sorted float ends, lower and upper, of the
        generation-k intervals: the rows are the full product (see the
        module docstring), so the vertex cloud is their Cartesian product."""
        return [sorted(lo + hi) for lo, hi in self.interval_ends("float", k)]

    def _float_corners(self, k: int, corner: Sequence[int]) -> Iterator[tuple[float, ...]]:
        """One float corner of each generation-k cell, in id order: on axis
        a, the lower end of the cell's interval where ``corner[a]`` is 0 and
        the upper end where it is 1."""
        return zip(*[list(map(ends[bit].__getitem__, column)) for column, ends, bit
                     in zip(self._columns[k], self.interval_ends("float", k), corner)])

    def connector_ends(self, k: int) -> tuple[list, list]:
        """Float (sources, targets) of the generation-k connectors in id
        order, as lists of points: the far corners of ranks 1..q-1 and the
        near corners of ranks 2..q of every parent."""
        q, d = self.branching, self.ambient_dimension
        sources = [point for i, point in enumerate(self._float_corners(k, (1,) * d))
                   if i % q != q - 1]
        targets = [point for i, point in enumerate(self._float_corners(k, (0,) * d)) if i % q]
        return sources, targets

    def segments(self, k: int) -> tuple[list, list, list[float]]:
        """``connector_ends(k)`` with each connector's float length, made
        once and cached for ``evaluate_many``."""
        if k not in self._segments:
            sources, targets = self.connector_ends(k)
            lengths = [math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))
                       for a, b in zip(sources, targets)]
            self._segments[k] = sources, targets, lengths
        return self._segments[k]

    # -- queries ------------------------------------------------------------

    def cell_diameter_sq(self, k: int) -> Fraction:
        """Common squared diameter of every generation-k cell."""
        return sum((s.generation_length(k) ** 2 for s in self._axis_sets), Fraction(0))

    def cell_diameter(self, k: int) -> float:
        if k not in self._diameters:
            self._diameters[k] = math.sqrt(float(self.cell_diameter_sq(k)))
        return self._diameters[k]

    def _require_depth(self, k: int) -> None:
        if k < 0 or k > self.depth:
            raise ValueError(f"generation {k} is not built (depth {self.depth})")

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, t, k: int) -> tuple[tuple[float, ...], float]:
        """Point of the depth-k model at parameter t, with an error bound:
        the one-parameter case of ``evaluate_many``."""
        points, errors = self.evaluate_many([t], k)
        return points[0], errors[0]

    def evaluate_many(self, ts: Sequence, k: int) -> tuple[list[tuple[float, ...]], list[float]]:
        """Points (float tuples) of the depth-k model at the parameters
        ``ts``, with their error bounds, as two lists.

        Inside a used interval the connector point is returned exactly (error
        0); otherwise the representative is the near corner of the depth-k
        cell the parameter recurses into, with the cell diameter as error.
        The limit curve is never claimed at finite depth.

        Each parameter descends through its base-p digits, one per
        generation, computed on its integer numerator and denominator
        (``_integer_ratio``); every digit is decided exactly.
        """
        if k < 1:
            raise ValueError("evaluation depth starts at 1")
        self._require_depth(k)
        q = self.branching
        p = 2 * q - 1
        # the near corners of the depth-k cells, per axis, and their error
        corners = [(lo, column) for column, (lo, _)
                   in zip(self._columns[k], self.interval_ends("float", k))]
        diameter = self.cell_diameter(k)
        points, errors = [], []
        for t in ts:
            num, den = _integer_ratio(t)
            position = 0  # of the current cell in its generation
            for g in range(1, k + 1):
                # the next base-p digit of num / den, a position in [0, 1]
                # inside the current cell's interval, and the rest
                digit, num = divmod(num * p, den)
                # the end of two pieces belongs to the used one, and 1 to the last piece
                if num == 0 and digit > 0 and (digit % 2 == 0 or digit == p):
                    digit, num = digit - 1, den
                if digit % 2:
                    # connector digit // 2 of the current cell, at num / den of
                    # its length, with Connector.point_at's arithmetic
                    sources, targets, lengths = self.segments(g)
                    i = position * (q - 1) + digit // 2
                    length = lengths[i]
                    s = num / den * length
                    s = s / length if length != 0.0 else 0.0
                    points.append(tuple([x + s * (y - x) for x, y in zip(sources[i], targets[i])]))
                    errors.append(0.0)
                    break
                position = position * q + digit // 2
            else:
                points.append(tuple([lo[column[position]] for lo, column in corners]))
                errors.append(diameter)
        return points, errors

    def traversal_chain(self, k: int) -> list[tuple[int, ...]]:
        """Glued vertex chain of the depth-k traversal, as integer points
        over ``denominator(k)``.

        In parameter order the traversal runs through the generation-k
        cells' near-to-far diagonals, in id order, with one connector
        between two of them.  When every connector glues (``_glued``), the
        chain is the near and far corners of the generation-k cells
        interleaved in id order; otherwise RuntimeError.
        """
        self._require_depth(k)
        if k < 1:
            raise ValueError("traversal depth starts at 1")
        den = self.denominator(k)
        generations = [self.corners(g, den) for g in range(k + 1)]
        if not self._glued(generations):
            raise RuntimeError("traversal pieces do not share endpoints")
        near, far = generations[k]
        return [point for corners in zip(zip(*near), zip(*far)) for point in corners]

    def _glued(self, generations: Sequence[Corners]) -> bool:
        """Whether every connector of generations 1..k-1 meets the depth-k
        traversal's cells at its two ends; ``generations`` holds the corners
        of generations 0..k over one denominator.

        The connector of a generation-g parent joining sub-cells s and s+1
        runs from the far corner of s to the near corner of s+1; it glues
        when those are the far corner of the last generation-k descendant of
        s and the near corner of the first descendant of s+1.  A
        generation-k connector glues by construction.
        """
        q = self.branching
        k = len(generations) - 1
        near, far = generations[k]
        for g in range(1, k):
            span = q ** (k - g)  # generation-k descendants per generation-g cell
            for (cell_near, cell_far), deep_near, deep_far in zip(zip(*generations[g]),
                                                                    near, far):
                last, first = deep_far[span - 1::span], deep_near[::span]
                # sources at ranks 0..q-2, targets at ranks 1..q-1
                if any(cell_far[s::q] != last[s::q] or cell_near[s + 1::q] != first[s + 1::q]
                       for s in range(q - 1)):
                    return False
        return True

    def vertex_cloud(self, k: int) -> list[tuple[float, ...]]:
        """The distinct float corners of the generation-k cells, sorted: the
        finite stand-in for the depth-k curve.  Every connector end of
        generations up to k is among them, since a cell's near and far
        corners are those of its first and last sub-cells (see the
        constructor)."""
        self._require_depth(k)
        points = set()
        for corner in iter_product((0, 1), repeat=self.ambient_dimension):
            points.update(self._float_corners(k, corner))
        return sorted(points)


def build_arc(base_set: RatioCantorSet, product: ProductCantor, depth: int
              ) -> ArcApproximation:
    return ArcApproximation(base_set, product, depth)


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
    """Exact injectivity evidence for the depth-k model (k >= 1).

    The constructor decided checks (a) and (c)-(e) of the module docstring
    on every generation, and (b) follows from the growth rule, so the
    depth-k traversal is a simple polyline by the nesting lemma; the report
    states that and reads no row.  The traversal holds every connector as a
    sub-chain, so ``connector_pairs_checked`` counts every connector pair.
    """
    if k < 1:
        raise ValueError("injectivity depth starts at 1")
    arc._require_depth(k)
    connectors = arc.branching ** k - 1
    return InjectivityReport(k, connectors * (connectors - 1) // 2, [], None)


@dataclass
class ContainmentReport:
    depth: int
    bound: float  # the cell diameter
    passed: bool


def verify_containment(arc: ArcApproximation, k: int) -> ContainmentReport:
    """Every point of the product lies within one generation-k cell
    diameter (``bound``) of the depth-k model's vertex cloud.

    The growth rule makes the rows of every generation the full product of
    axis indices, and containment follows from that (both arguments are in
    the module docstring), so the report passes and reads no row.
    """
    arc._require_depth(k)
    return ContainmentReport(k, arc.cell_diameter(k), True)


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
    if not epsilon > 0:
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
    p = 2 * arc.branching - 1
    delta_prime = 1 / p ** (cutoff + 1) / 2.0
    # Connector.lipschitz of every connector up to the cutoff: its length
    # over its parameter length
    lipschitz = max(length / (1 / p ** k) for k in range(1, cutoff + 1)
                    for length in arc.segments(k)[2])
    delta = min(delta_prime, epsilon / (2.0 * lipschitz))
    return ModulusReport(epsilon, delta, cutoff, delta_prime, lipschitz, False)


def continuity_violations(arc: ArcApproximation, epsilon: float, delta: float,
                          pairs: int, rng) -> int:
    """Count sampled parameter pairs with |x - y| < delta whose depth-built
    images end up epsilon or farther apart (expected: zero).

    The pairs are drawn one by one from ``rng``; each batch of
    ``_PAIR_BATCH`` draws goes through one ``evaluate_many`` call, which
    keeps the lists of parameters and points small.
    """
    violations = 0
    for start in range(0, pairs, _PAIR_BATCH):
        params = []
        for _ in range(min(_PAIR_BATCH, pairs - start)):
            x = rng.random()
            y = x + rng.uniform(-delta, delta)
            y = min(max(y, 0.0), 1.0)
            if abs(x - y) < delta:
                params += (x, y)
        points = arc.evaluate_many(params, arc.depth)[0]
        violations += sum(math.dist(px, py) >= epsilon
                          for px, py in zip(points[::2], points[1::2]))
    return violations
