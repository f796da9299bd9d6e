"""Recursive arc approximations threading a Cantor-set product.

Each generation splits every cell of the product (base set times factor
product) into q = 2^(n+1) sub-cells, orders them by distance from the origin,
and joins consecutive sub-cells by straight connectors: far corner of one to
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
  a parameter t descends through the base-p digits of t, computed on the
  integer numerator and denominator of t.  ``evaluate_many`` runs that
  descent for many parameters at once, on integer arrays, and
  ``continuity_violations`` sends its sampled pairs through it in batches;
  ``evaluate`` is the one-parameter case, with the same digits and floats.

Storage.  Generation k is one read-only integer array of shape (q^k, d), in
cell-id order (``generation_rows``).  Row i holds, per axis, the index of
the cell's interval in that axis's ``lattice(k)``: the base set on axis 0,
the factor on the others.  Everything else is derived from it:

* cell i of generation k has id (q^k-1)/(q-1) + i, rank i mod q + 1, and
  its parent at position i // q of generation k-1;
* its branch word on an axis is the interval index in k binary digits;
* its box is a lattice lookup;
* connector j of a cell runs from the far corner of its sub-cell of rank
  j+1 to the near corner of rank j+2.

The model text, the SVG, the vertex cloud, ``evaluate``, the containment
check, the modulus of continuity and the injectivity check read only these
arrays, the per-(axis, generation) tables of ``interval_ends`` ("n/d"
strings, and floats made by Python int / int, correctly rounded as
``float(Fraction)`` is) and the integer corners of ``corners``: every cell
corner as numerators over one common denominator.

Connector legality is checked by exact geometry, not proved for the
distance order in general:

* a connector is one segment of positive length inside its parent cell,
* it meets each closed sibling cell only at its own endpoint corner on that
  cell (no grazing, no face-sliding),
* it is disjoint from every other connector of that parent.

``route`` decides all three and ``verify_injectivity`` the first two on a
parent's integer shape (``_parent_shapes``): its far corner, then the near
and far corner of each sub-cell in rank order, all minus its near corner,
over one common denominator.  A connector's vertices are two points of that
shape, so equal shapes mean the same geometry up to a translation, and the
predicates are exact and unchanged under translation: one verdict holds for
every parent with that shape.

* ``_path_legal`` decides the first two tests, with slab clipping in
  integer (numerator, denominator) pairs;
* ``polylines_disjoint`` decides the third on the integer points.

``route`` runs ``route_connectors`` on the first parent of each distinct
shape of a generation; an illegal connector raises RoutingFailed.

``verify_injectivity`` does not trust the route: it keys every parent of
the rows by its shape and runs the clearance check once per distinct (shape,
rank) as ``_path_legal``, so a tampered row gets a shape of its own.

Those three checks, plus the disjointness of closed cells within one
generation, force all connectors of all generations to be pairwise disjoint:
a connector of a deeper generation lives inside its parent cell, which any
shallower connector touches at most in the two corner points that are never
deeper-connector endpoints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iter_product
from typing import Iterator, Optional, Sequence

import numpy as np

from .cantor import (Address, GenerationBudgetError, ProductCantor,
                     RatioCantorSet)
from .geometry import chain_self_intersection, polylines_disjoint
# unused here: perfbench/tracing.py wraps arc.boxes_disjoint
from .geometry import boxes_disjoint

DEFAULT_CELL_BUDGET = 2 ** 18
_PAIR_BATCH = 1024  # continuity pairs per evaluate_many descent


class RoutingFailed(RuntimeError):
    """A straight connector failed the exact legality tests."""


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


def _ratio_text(n: int, den: int) -> str:
    """n / den as the reduced "numerator/denominator" string."""
    g = math.gcd(n, den)
    return f"{n // g}/{den // g}"


#: How ``ArcApproximation.interval_ends`` writes the numerator n over den.
_END_KINDS = {"float": lambda n, den: n / den, "text": _ratio_text}

#: The fields of a parameter-tree row, in ``param_rows`` order.
_PARAM_FIELDS = ("id", "depth", "index", "lo", "hi", "status", "link", "children")


def param_rows(depth: int, ambient_dimension: int) -> Iterator[tuple]:
    """The rows of the parameter tree of a depth-``depth`` arc in id order,
    as ``_PARAM_FIELDS`` tuples, derived from the depth and the ambient
    dimension alone (see the module docstring).

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


def param_intervals(depth: int, ambient_dimension: int) -> Iterator[dict]:
    """Schema-v1 rows of the parameter tree of a depth-``depth`` arc, in id
    order: the ``param_rows`` as dicts, children as lists."""
    for row in param_rows(depth, ambient_dimension):
        yield {**dict(zip(_PARAM_FIELDS, row)), "children": list(row[-1])}


def _path_legal(shape: Sequence[Sequence[int]], s: int,
                vertices: Sequence[Sequence[int]]) -> bool:
    """Exact legality of the connector joining the sub-cells of 0-based
    ranks s and s+1: one segment of positive length, inside the parent, that
    meets each closed sub-cell at most in its own endpoint corner on that
    cell.

    Every point is an integer offset from the parent's near corner: ``shape``
    holds the parent's far corner, then the near and far corners of each
    sub-cell in rank order, and ``vertices`` the connector's vertices.
    ``route_connectors`` and the clearance check of ``verify_injectivity``
    both decide here.
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
    ``_parent_shapes``), as (source, target) pairs of shape points.

    Each connector must pass ``_path_legal`` and miss every earlier
    connector of the parent (``polylines_disjoint``); the first that fails
    raises RoutingFailed naming the generation, the parent and the ranks.
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
    return paths


def _parent_shapes(arc: ArcApproximation, generations: range, den: int
                   ) -> Iterator[tuple[int, dict[tuple, list[int]]]]:
    """(g, shapes) for each g of ``generations``: the distinct shapes of the
    generation-(g-1) parents, in the order of their first parent, each with
    the positions of its parents in their generation.

    A parent's shape is its far corner, then the near and far corner of
    each sub-cell in rank order, all minus its near corner, as a tuple of
    integer points over ``den``; connector s runs between shape points 2s+2
    and 2s+3.  The corners of generation g are the parents of g+1.
    """
    q, d = arc.branching, arc.ambient_dimension
    near, far = arc.corners(generations.start - 1, den)
    for g in generations:
        sub_near, sub_far = arc.corners(g, den)
        subs = np.stack([sub_near, sub_far], axis=1).reshape(len(near), 2 * q, d)
        shapes = np.concatenate([far[:, None], subs], axis=1) - near[:, None]
        parents: dict[tuple, list[int]] = {}
        for c, key in enumerate(map(tuple, shapes.reshape(len(near), -1).tolist())):
            parents.setdefault(key, []).append(c)
        yield g, {tuple(key[i:i + d] for i in range(0, len(key), d)): positions
                  for key, positions in parents.items()}
        near, far = sub_near, sub_far


def _integer_ratio(t) -> tuple[int, int]:
    """(numerator, denominator) of a parameter t in [0, 1]."""
    if not 0 <= t <= 1:
        raise ValueError(f"parameter must lie in [0, 1], got {t}")
    try:
        return t.as_integer_ratio()
    except AttributeError:  # numpy integers, say
        return Fraction(t).as_integer_ratio()


def _parameter_ratios(ts: Sequence, p: int) -> Iterator[tuple[np.ndarray, ...]]:
    """(rows, numerators, denominators) of the parameters ``ts``, in two
    groups: int64 where den is a power of two and den * p fits in 63 bits,
    Python ints (dtype object) for the rest.  An int64 num over such a den
    divides as int / int does: correctly rounded.

    A float array is split exactly by ``np.frexp`` into a reduced num /
    2^bits, any other input by ``as_integer_ratio``.
    """
    values = np.asarray(ts)
    if values.dtype == np.float64:
        inside = (values >= 0) & (values <= 1)
        if not inside.all():
            raise ValueError(f"parameter must lie in [0, 1], got {values[~inside][0]}")
        mantissa, exponent = np.frexp(values)
        num = (mantissa * 2.0 ** 53).astype(np.int64)  # t = num / 2^(53 - exponent)
        shift = np.frexp(np.maximum(num & -num, 1))[1] - 1  # num's trailing zero bits
        num >>= shift
        bits = np.where(num == 0, 0, 53 - exponent - shift)
        narrow = bits + p.bit_length() <= 63
        wide = np.flatnonzero(~narrow)
        yield np.flatnonzero(narrow), num[narrow], np.left_shift(np.int64(1), bits[narrow])
        yield wide, num[wide].astype(object), np.array([1 << b for b in bits[wide].tolist()],
                                                       object)
        return
    nums, dens = np.array([_integer_ratio(t) for t in ts], object).reshape(-1, 2).T
    narrow = (dens * p < 2 ** 63) & (dens & (dens - 1) == 0)
    for mask, dtype in ((narrow, np.int64), (~narrow, object)):
        yield np.flatnonzero(mask), nums[mask].astype(dtype), dens[mask].astype(dtype)


def branch_word(index: int, k: int) -> str:
    """The branch word of interval ``index`` of a generation-k lattice."""
    return format(index, f"0{k}b") if k else ""


class ArcApproximation:
    """Generation-by-generation approximation of the curve through a product
    of a ratio Cantor set with a self-similar product (storage as in the
    module docstring)."""

    def __init__(self, base_set: RatioCantorSet, product: ProductCantor):
        if product.copies < 1:
            raise ValueError("product needs at least one factor axis")
        self.base_set = base_set
        self.product = product
        self.copies = product.copies
        self.ambient_dimension = product.copies + 1
        self.branching = 2 ** self.ambient_dimension  # q sub-cells per cell
        self.depth = 0
        self.routed = 0  # generations whose connectors are checked
        # the Cantor set each ambient axis reads its intervals from
        self._axis_sets = (base_set,) + (product.factor,) * product.copies
        rows = np.zeros((1, self.ambient_dimension), dtype=np.int64)
        rows.flags.writeable = False
        self._rows = [rows]
        self._tables: dict[tuple[str, int], list] = {}  # interval_ends
        self._diameters: dict[int, float] = {}
        self._segments: dict[int, tuple] = {}

    # -- construction -----------------------------------------------------

    def _child_lengths(self, k: int) -> list[Fraction]:
        base = self.base_set.generation_length(k)
        factor = self.product.factor.generation_length(k)
        return [base] + [factor] * self.copies

    def grow_cells(self, depth: int) -> "ArcApproximation":
        """Index rows of every generation up to ``depth``, without routing.

        The sub-cells of a parent with interval indices i take intervals
        2i + b on each axis, for the q bit patterns b (axis 0 the high bit).
        They are ranked by (|near corner|^2, near corner), computed exactly:
        each axis's lower ends go over the lattices' common denominator, as
        int64 while the squared sums fit and as Python ints beyond.  Within
        one parent the near corners order as the patterns do, so the key is
        |near corner|^2 * q + pattern.
        """
        # fail fast on the target depth before spending work on shallower
        # ones; 2^e > budget exactly when e reaches the budget's bit length
        if depth * self.ambient_dimension >= DEFAULT_CELL_BUDGET.bit_length():
            raise GenerationBudgetError(
                f"depth {depth} needs 2^{depth * self.ambient_dimension} cells, "
                f"over the budget {DEFAULT_CELL_BUDGET}")
        q, d = self.branching, self.ambient_dimension
        patterns = np.arange(q)
        bits = (patterns[:, None] >> np.arange(d - 1, -1, -1)) & 1
        for k in range(self.depth + 1, depth + 1):
            lattices = [s.lattice(k) for s in self._axis_sets]
            den = math.lcm(*(axis_den for _, _, axis_den in lattices))
            wide = (d * q * den * den).bit_length() > 62
            lows = [(axis_lows.astype(object) if wide else axis_lows) * (den // axis_den)
                    for axis_lows, _, axis_den in lattices]
            kids = 2 * self._rows[k - 1][:, None, :] + bits  # (parents, q, d)
            keys = sum(lows[a][kids[..., a]] ** 2 for a in range(d)) * q + patterns
            order = np.argsort(keys, axis=1)
            # structural invariants of the distance order: the first sub-cell
            # holds the parent's near corner, the last its far corner
            assert (order[:, 0] == 0).all() and (order[:, -1] == q - 1).all()
            rows = np.take_along_axis(kids, order[..., None], axis=1).reshape(-1, d)
            rows.flags.writeable = False
            self._rows.append(rows)
            self.depth = k
        return self

    def route(self) -> "ArcApproximation":
        """Check the connectors of every grown generation not routed yet.

        ``route_connectors`` checks the first parent of each distinct shape
        of a generation; the other parents with that shape hold the same
        segments translated (see the module docstring).  The connectors
        themselves stay implicit in the rows.
        """
        generations = range(self.routed + 1, self.depth + 1)
        for k, shapes in _parent_shapes(self, generations, self.denominator(self.depth)):
            first = self.first_id(k - 1)
            for shape, parents in shapes.items():
                route_connectors(shape, k, first + parents[0])
            self.routed = k
        return self

    def build_to(self, depth: int) -> "ArcApproximation":
        return self.grow_cells(depth).route()

    # -- lattice tables --------------------------------------------------------

    def first_id(self, k: int) -> int:
        """Id of the first generation-k cell."""
        return (self.branching ** k - 1) // (self.branching - 1)

    def generation_rows(self, k: int) -> np.ndarray:
        """Read-only (q^k, d) array of the generation-k cells' per-axis
        interval indices, in id order."""
        self._require_depth(k)
        return self._rows[k]

    def denominator(self, k: int) -> int:
        """The lcm of every axis's lattice denominators up to generation k:
        the common denominator of ``corners`` and ``traversal_chain``."""
        return math.lcm(*(s.lattice(g)[2] for s in self._axis_sets for g in range(k + 1)))

    def corners(self, k: int, den: int) -> tuple[np.ndarray, np.ndarray]:
        """(near, far) corners of the generation-k cells in id order, as
        (q^k, d) arrays of integer numerators over ``den``, a multiple of
        every axis's generation-k lattice denominator: int64 while den fits
        in 62 bits, Python ints (dtype object) beyond."""
        wide = den.bit_length() > 62
        near, far = [], []
        for s, column in zip(self._axis_sets, self._rows[k].T):
            lows, ln, axis_den = s.lattice(k)
            scale = den // axis_den
            low = (lows.astype(object) if wide else lows)[column] * scale
            near.append(low)
            far.append(low + ln * scale)
        return np.stack(near, -1), np.stack(far, -1)

    def interval_ends(self, kind: str, k: int) -> list[tuple[list, list]]:
        """Per axis, the lower and the upper ends of the generation-k
        intervals by interval index, made once per Cantor set and cached:
        "float" (int / int, correctly rounded as float(Fraction) is),
        or "text" (reduced "n/d" strings)."""
        if (kind, k) not in self._tables:
            convert = _END_KINDS[kind]

            def ends(lows, ln, den):
                lows = lows.tolist()
                return [convert(a, den) for a in lows], [convert(a + ln, den) for a in lows]

            base, factor = (ends(*s.lattice(k)) for s in (self.base_set, self.product.factor))
            self._tables[kind, k] = [base] + [factor] * self.copies
        return self._tables[kind, k]

    def connector_ends(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Float (sources, targets) of the generation-k connectors in id
        order: the far corners of ranks 1..q-1 and the near corners of ranks
        2..q of every parent."""
        q, d = self.branching, self.ambient_dimension
        rows = self._rows[k].reshape(-1, q, d)
        ends = self.interval_ends("float", k)
        sources = np.stack([np.array(hi)[rows[:, :-1, a]] for a, (_, hi) in enumerate(ends)], -1)
        targets = np.stack([np.array(lo)[rows[:, 1:, a]] for a, (lo, _) in enumerate(ends)], -1)
        return sources.reshape(-1, d), targets.reshape(-1, d)

    def segments(self, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``connector_ends(k)`` with each connector's float length, made
        once and cached for ``evaluate_many``."""
        if k not in self._segments:
            sources, targets = self.connector_ends(k)
            lengths = [math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))
                       for a, b in zip(sources.tolist(), targets.tolist())]
            self._segments[k] = sources, targets, np.array(lengths)
        return self._segments[k]

    # -- queries ------------------------------------------------------------

    def near_point(self, address: Address) -> tuple[float, ...]:
        """Float near corner of the built cell at ``address``."""
        k = address.depth
        self._require_depth(k)
        return tuple(lo[int(w, 2) if k else 0]
                     for (lo, _), w in zip(self.interval_ends("float", k), address.words))

    def cell_diameter_sq(self, k: int) -> Fraction:
        """Common squared diameter of every generation-k cell."""
        lengths = self._child_lengths(k) if k > 0 else [Fraction(1)] * self.ambient_dimension
        return sum((h * h for h in lengths), Fraction(0))

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
        the one-parameter case of ``evaluate_many``.

        Each call is a whole digit descent (about 0.13 ms), so a loop over
        many parameters should pass them to ``evaluate_many`` at once."""
        points, errors = self.evaluate_many([t], k)
        return tuple(points[0].tolist()), float(errors[0])

    def evaluate_many(self, ts: Sequence, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Points (an (n, d) float array) of the depth-k model at the
        parameters ``ts``, with their error bounds.

        Inside a used interval the connector point is returned exactly (error
        0); otherwise the representative is the near corner of the depth-k
        cell the parameter recurses into, with the cell diameter as error.
        The limit curve is never claimed at finite depth.

        All parameters descend together through their base-p digits, computed
        on each t's integer numerator and denominator (``_parameter_ratios``,
        ``_descend``); every digit is decided exactly.
        """
        if k < 1:
            raise ValueError("evaluation depth starts at 1")
        self._require_depth(k)
        points = np.empty((len(ts), self.ambient_dimension))
        errors = np.zeros(len(ts))
        for rows, num, den in _parameter_ratios(ts, 2 * self.branching - 1):
            if len(rows):
                self._descend(k, rows, num, den, points, errors)
        return points, errors

    def _descend(self, k: int, rows: np.ndarray, num: np.ndarray, den: np.ndarray,
                 points: np.ndarray, errors: np.ndarray) -> None:
        """Write the points and errors of the parameters num / den, one
        digit per generation, into ``points[rows]`` and ``errors[rows]``."""
        q = self.branching
        p = 2 * q - 1
        position = np.zeros(len(rows), np.int64)  # of the current cell in its generation
        for g in range(1, k + 1):
            # the next base-p digit of num / den, a position in [0, 1] inside
            # the current cell's interval, and the rest
            num = num * p
            digit, num = num // den, num % den
            # the end of two pieces belongs to the used one, and 1 to the last piece
            back = (num == 0) & (digit > 0) & ((digit % 2 == 0) | (digit == p))
            digit = (digit - back).astype(np.int64)
            num = np.where(back, den, num)
            used = digit % 2 == 1
            if used.any():
                # connector digit // 2 of the current cell, at num / den of its
                # length, with Connector.point_at's arithmetic
                sources, targets, lengths = self.segments(g)
                i = position[used] * (q - 1) + digit[used] // 2
                length = lengths[i]
                s = (num[used] / den[used]).astype(float) * length  # num <= den
                s = np.divide(s, length, out=np.zeros_like(s), where=length != 0.0)
                a, b = sources[i], targets[i]
                points[rows[used]] = a + s[:, None] * (b - a)
                rows, num, den, position, digit = (
                    v[~used] for v in (rows, num, den, position, digit))
                if not len(rows):
                    return
            position = position * q + digit // 2
        cells = self._rows[k][position]
        points[rows] = np.stack([np.array(lo)[cells[:, a]] for a, (lo, _)
                                 in enumerate(self.interval_ends("float", k))], -1)
        errors[rows] = self.cell_diameter(k)

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
        near, far = self.corners(k, den)
        if not self._glued(k, den, near, far):
            raise RuntimeError("traversal pieces do not share endpoints")
        chain = np.stack([near, far], axis=1).reshape(-1, self.ambient_dimension)
        return list(map(tuple, chain.tolist()))

    def _glued(self, k: int, den: int, near: np.ndarray, far: np.ndarray) -> bool:
        """Whether every connector of generations 1..k-1 meets the depth-k
        traversal's cells (``near`` and ``far``, the generation-k corners
        over ``den``) at its two ends.

        The connector of a generation-g parent joining sub-cells s and s+1
        runs from the far corner of s to the near corner of s+1; it glues
        when those are the far corner of the last generation-k descendant of
        s and the near corner of the first descendant of s+1.  A
        generation-k connector glues by construction.
        """
        q = self.branching
        for g in range(1, k):
            span = q ** (k - g)  # generation-k descendants per generation-g cell
            cell_near, cell_far = self.corners(g, den)
            rank = np.arange(len(cell_near)) % q
            sources = (cell_far != far[span - 1::span]).any(axis=1) & (rank < q - 1)
            targets = (cell_near != near[::span]).any(axis=1) & (rank > 0)
            if sources.any() or targets.any():
                return False
        return True

    def vertex_cloud(self, k: int) -> np.ndarray:
        """Float array of the generation-k cell corners: the finite stand-in
        for the depth-k curve.  Every connector end of generations up to k
        is among them, since a cell's near and far corners are those of its
        first and last sub-cells (``grow_cells``)."""
        self._require_depth(k)
        rows = self._rows[k]
        columns = [(np.array(lo)[rows[:, a]], np.array(hi)[rows[:, a]])
                   for a, (lo, hi) in enumerate(self.interval_ends("float", k))]
        pts = np.concatenate([np.stack([column[b] for column, b in zip(columns, corner)], -1)
                              for corner in iter_product((0, 1), repeat=self.ambient_dimension)])
        # np.unique(pts, axis=0): the distinct rows in lexicographic order
        pts = pts[np.lexsort(pts.T[::-1])]
        fresh = np.ones(len(pts), dtype=bool)
        fresh[1:] = (pts[1:] != pts[:-1]).any(axis=1)
        return pts[fresh]


def build_arc(base_set: RatioCantorSet, product: ProductCantor, depth: int
              ) -> ArcApproximation:
    return ArcApproximation(base_set, product).build_to(depth)


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

    (i) runs ``_path_legal`` once per translation key: the check is exact
    and unchanged under translation, so one verdict holds for every
    connector whose rank and parent shape are the same (see the module
    docstring).  Planar-5 has 1023 connectors but 27 keys.  (ii) runs
    ``chain_self_intersection`` on ``traversal_chain``; a chain that fails
    to glue or has a zero-length segment is reported as the pair (-1, -1).
    Both read the index rows as integer corners; no ``Fraction`` is made.
    """
    arc._require_depth(k)
    clearance = _clearance_violations(arc, k)
    try:
        traversal_violation = chain_self_intersection(arc.traversal_chain(k))
    except (RuntimeError, ValueError):
        # chain fails to glue or degenerates: report rather than crash
        traversal_violation = (-1, -1)
    connectors = arc.branching ** k - 1
    return InjectivityReport(k, connectors * (connectors - 1) // 2, clearance,
                             traversal_violation)


def _clearance_violations(arc: ArcApproximation, k: int) -> list[int]:
    """Ids of the connectors of generations 1..k that fail ``_path_legal``,
    run once per distinct (parent shape, rank) (see ``verify_injectivity``).

    Shapes of different generations differ in the parent's size, so one
    verdict table serves every generation.
    """
    q, den = arc.branching, arc.denominator(k)
    verdicts: dict[tuple, list[int]] = {}  # shape -> the ranks that fail
    violations: list[int] = []
    for g, shapes in _parent_shapes(arc, range(1, k + 1), den):
        first = arc.first_id(g - 1)
        for shape, parents in shapes.items():
            if shape not in verdicts:
                verdicts[shape] = [s for s in range(q - 1)
                                   if not _path_legal(shape, s, shape[2 * s + 2:2 * s + 4])]
            violations.extend((first + c) * (q - 1) + s for c in parents for s in verdicts[shape])
    return sorted(violations)


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
        z = np.array(arc.near_point(address))
        dist = float(np.min(np.linalg.norm(cloud - z, axis=1)))
        worst = max(worst, dist)
    return ContainmentReport(k, len(addresses), worst, arc.cell_diameter(k))


def sample_addresses(arc: ArcApproximation, count: int, rng) -> list[Address]:
    return [Address.random(arc.ambient_dimension, arc.depth, rng) for _ in range(count)]


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
    p = 2 * arc.branching - 1
    delta_prime = 1 / p ** (cutoff + 1) / 2.0
    # Connector.lipschitz of every connector up to the cutoff: its length
    # over its parameter length
    lipschitz = max(length / (1 / p ** k) for k in range(1, cutoff + 1)
                    for length in arc.segments(k)[2].tolist())
    delta = min(delta_prime, epsilon / (2.0 * lipschitz))
    return ModulusReport(epsilon, delta, cutoff, delta_prime, lipschitz, False)


def continuity_violations(arc: ArcApproximation, epsilon: float, delta: float,
                          pairs: int, rng) -> int:
    """Count sampled parameter pairs with |x - y| < delta whose depth-built
    images end up epsilon or farther apart (expected: zero).

    The pairs are drawn one by one from ``rng``; each batch of
    ``_PAIR_BATCH`` draws goes through one ``evaluate_many`` descent, which
    keeps the temporaries small.
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
        points = arc.evaluate_many(params, arc.depth)[0].tolist()
        violations += sum(math.dist(px, py) >= epsilon
                          for px, py in zip(points[::2], points[1::2]))
    return violations
