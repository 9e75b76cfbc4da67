"""Numeric evaluation of an expansion on phase-space grids.

A field is sum_l hbar^(2l) F_l, where the per-order fields F_l do not depend
on hbar.  Point and grid evaluation form the F_l by one routine and weight
them by one helper, so grid values are bit-identical to pointwise calls.
The one grid fill forms the F_l a block at a time at the grid's distinct
rows and p^2: order_grids weights them into the field at one hbar, which
stays at those rows (WignerField), and order_moments integrates them and
their products, which give the field's integrals at any number of hbar.
Exact ring elements become floats in one batched kernel (cell_values), bit
for bit each element's own Horner sum.  Cells are grouped by seed-derivative
order; each derivative is formed once per block of points (a grid's at its
distinct rows and distinct p^2), and each order's polynomial in H
multiplying it is evaluated by Horner's rule to limit cancellation.  The
same routine gives the H-derivatives of any series terms at points
(term_derivatives).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from operator import add

import numpy as np

from .series import WignerSeries, write_json

# Most points a grid may hold (2001 x 2001), which bounds a field's arrays.
MAX_GRID_POINTS = 2001 * 2001

# Points per block of the per-order fill and of an integral's p sums.  An
# array of one block's points (64 KB) stays below glibc's default 128 KB
# mmap threshold, so malloc takes it from the heap and the next block reuses
# it, while numpy's per-call overhead stays amortised.  Unblocked, the
# temporaries of a 287 x 401 field were mapped in afresh by malloc, about
# 420 page faults per p integral: 1.5 ms against 0.8 ms in blocks on a
# 2-vCPU VM.  The fill's arrays of many rows (the orders of a block and its
# scratch) are made once per fill, and a seed table is one array per block,
# so after its first blocks a fill faults in no new memory.
BLOCK_POINTS = 1 << 13

# Most group values (groups x points) in cell_values' working array, so
# that a chunk's arrays stay at 128 KB, below the mmap threshold as well:
# the sweep-L10 read-out (286 cells at 401 points) took 490 minor faults in
# these chunks against 1,366 in chunks of 1 MB.  A goldstone L=20 read-out
# at 1001 points, with no faults either way once warm, is 10% slower.
READOUT_VALUES = 1 << 14


class NormalizationError(RuntimeError):
    """Grid integral of the field is non-positive or not finite."""


class HbarOverflowError(ValueError):
    """The weight hbar^(2l) of an order l exceeds the float range."""

    def __init__(self, hbar: float, l: int):
        super().__init__(f"hbar = {hbar:g}: the order-{l} weight hbar^{2 * l} "
                         f"exceeds the float range")


def axis_points(a: float, b: float, n: int) -> np.ndarray:
    """n points from a to b on the step (b - a) / (n - 1), placed
    symmetrically about the centre of the range: the k-th is
    (a/2 + b/2) + (k - (n - 1)/2) (b - a) / (n - 1), divided last, and the
    ends are a and b.  GridSpec keeps (n - 1)/2 (b - a) finite.

    On a range symmetric about 0 the axis is bitwise antisymmetric, so V(q)
    of an even potential, p^2 and every even cell coefficient agree in every
    bit at mirrored points, and the grid fill merges them.  On the default
    axis every point is the correctly rounded a + k (b - a)/(n - 1), where
    np.linspace's are up to 133 ulp off."""
    x = (a / 2 + b / 2) + (np.arange(n) - (n - 1) / 2) * (b - a) / (n - 1)
    x[[0, -1]] = a, b
    return x


def _unit_trapezoid(n: int) -> np.ndarray:
    """The trapezoid weights of n points in units of their step: the one
    rule of every grid integral, which takes the steps once at the end."""
    w = np.ones(n)
    w[[0, -1]] = 0.5
    return w


@dataclass(frozen=True)
class GridSpec:
    """Uniform rectangular grid on phase space."""

    q_min: float
    q_max: float
    n_q: int
    p_min: float
    p_max: float
    n_p: int

    def __post_init__(self):
        bounds = (self.q_min, self.q_max, self.p_min, self.p_max)
        if not all(math.isfinite(b) for b in bounds):
            raise ValueError("grid bounds must be finite")
        if not (self.q_min < self.q_max and self.p_min < self.p_max):
            raise ValueError("grid bounds must satisfy min < max")
        if self.n_q < 2 or self.n_p < 2:
            raise ValueError("grids need at least 2 points per axis")
        for name, a, b, n in (("q", self.q_min, self.q_max, self.n_q),
                              ("p", self.p_min, self.p_max, self.n_p)):
            if not math.isfinite((b - a) * ((n - 1) / 2)):
                raise ValueError(f"the {name} axis' width times (n - 1)/2 "
                                 f"exceeds the float range")
        if self.n_q * self.n_p > MAX_GRID_POINTS:
            raise ValueError(f"a {self.n_q}x{self.n_p} grid exceeds "
                             f"{MAX_GRID_POINTS} points")

    def q_axis(self) -> np.ndarray:
        return axis_points(self.q_min, self.q_max, self.n_q)

    def p_axis(self) -> np.ndarray:
        return axis_points(self.p_min, self.p_max, self.n_p)

    def steps(self) -> tuple[float, float]:
        """The uniform steps (max - min) / (n - 1) of the q and p axes."""
        return ((self.q_max - self.q_min) / (self.n_q - 1),
                (self.p_max - self.p_min) / (self.n_p - 1))

    def p_sums(self, values: np.ndarray) -> np.ndarray:
        """Unit trapezoid sum over p of each row of values, a block of rows
        at a time; each row is summed alone, so its bits do not depend on
        the blocking or on the other rows."""
        w = _unit_trapezoid(self.n_p)
        step = max(1, BLOCK_POINTS // self.n_p)
        return np.concatenate([(values[start:start + step] * w).sum(axis=1)
                               for start in range(0, len(values), step)])

    def q_sums(self, values: np.ndarray) -> np.ndarray:
        """Unit trapezoid sum over q along values' first axis, the grid
        rows: numpy adds a grid's columns down the rows in grid order, each
        column alone, and a 1-D array pairwise."""
        w = _unit_trapezoid(self.n_q)
        return (values * w.reshape((-1,) + (1,) * (values.ndim - 1))).sum(axis=0)

    def integral(self, values: np.ndarray, rows: np.ndarray) -> float:
        """Double trapezoid integral of a field on this grid whose grid row i
        is values[rows[i]]; a caller holding the full grid passes the
        identity map.  Each row is summed over p once, so the result has
        the bits of the integral of the gathered grid."""
        h_q, h_p = self.steps()
        return float(self.q_sums(self.p_sums(values)[rows])) * (h_q * h_p)

    def to_json_dict(self) -> dict:
        return {"q_min": self.q_min, "q_max": self.q_max, "n_q": self.n_q,
                "p_min": self.p_min, "p_max": self.p_max, "n_p": self.n_p}


DEFAULT_GRID = GridSpec(-4.0, 4.0, 401, -4.0, 4.0, 401)


def cell_values(elems, x) -> np.ndarray:
    """out[i] = elems[i] at x, of shape (len(elems),) + x.shape, bit for bit
    each element's own sum: per (trig, k) group of RingElem._float_groups,
    Horner's rule from 0.0 over its coefficients, times sin(k x) or
    cos(k x), the groups added from 0.0 in their order.

    Elements go a chunk at a time, at most READOUT_VALUES group values per
    chunk (one element at least), and each chunk's groups take one Horner
    pass."""
    x = np.asarray(x, dtype=float)
    points = x.ravel()
    out = np.zeros((len(elems), points.size))
    groups = [e._float_groups() for e in elems]
    per_chunk = max(1, READOUT_VALUES // max(points.size, 1))
    start = 0
    while start < len(elems):
        stop, rows = start + 1, len(groups[start])
        while stop < len(elems) and rows + len(groups[stop]) <= per_chunk:
            rows += len(groups[stop])
            stop += 1
        _read_chunk(groups[start:stop], points, out[start:stop])
        start = stop
    return out.reshape((len(elems),) + x.shape)


def _read_chunk(groups, x, out) -> None:
    """out[i] += the value at the points x of the element whose float groups
    are groups[i], out starting at zero.

    The groups' rows are sorted longest first, their coefficients padded at
    the top, so the rows under way at each Horner step are a prefix: a row
    starts at 0.0 and joins at its top coefficient, as val = 0.0;
    val = val * x + c does.  One sin or cos row serves each distinct
    (trig, k), and each element's groups are added rank by rank, its first
    to the zero row."""
    rows = sorted(((i, rank, t, k, coeffs) for i, elem in enumerate(groups)
                   for rank, (t, k, coeffs) in enumerate(elem)),
                  key=lambda row: -len(row[4]))
    if not rows:
        return
    width = len(rows[0][4])
    coeff = np.array([[0.0] * (width - len(c)) + c for *_, c in rows])
    val = np.zeros((len(rows), x.size))
    active = 0
    for step in range(width):
        while active < len(rows) and len(rows[active][4]) >= width - step:
            active += 1
        v = val[:active]
        v *= x
        v += coeff[:active, step, None]
    waves: dict = {}
    trig = [(n, waves.setdefault((t, k), len(waves)))
            for n, (_, _, t, k, _) in enumerate(rows) if t is not None]
    if trig:
        table = np.empty((len(waves), x.size))
        for (t, k), w in waves.items():
            table[w] = np.sin(k * x) if t == "sin" else np.cos(k * x)
        trig_rows, trig_waves = zip(*trig)
        val[list(trig_rows)] *= table[list(trig_waves)]
    cells = np.array([i for i, *_ in rows])
    ranks = np.array([rank for _, rank, *_ in rows])
    for rank in range(ranks.max() + 1):
        mine = np.flatnonzero(ranks == rank)
        out[cells[mine]] += val[mine]


def _cells_by_j(terms, x):
    """{j: [(l, [c_{l,m,j}(x) or None for m = 0..max m])]} over the cells of
    terms, read out in one cell_values pass; each value is a row of one array."""
    cells = [term.cells() for term in terms]
    values = iter(cell_values([c for term in cells for _, c in term], x))
    by_j: dict[int, list] = {}
    for l, term in enumerate(cells):
        polys: dict[int, dict] = {}
        for (m, j), _ in term:
            polys.setdefault(j, {})[m] = next(values)
        for j, by_m in polys.items():
            by_j.setdefault(j, []).append(
                (l, [by_m.get(m) for m in range(max(by_m) + 1)]))
    return by_j


def _block_orders(out, work, by_j, rows, seed, h) -> None:
    """out[l, r] = d^r F_l/dH^r over out's first two axes, with
    F_l = sum_(m,j) c_{l,m,j} H^m f0^(j)(H), at the energies h of one block;
    rows selects the block from by_j's coefficients, and work holds two
    scratch arrays of h's shape.

    One seed-derivative table serves the block.  By the Leibniz rule
    d^r/dH^r [P f0^(j)] = sum_i C(r,i) P^(i) f0^(j+r-i), so each derivative
    goes into every order that uses it; each P^(i) is summed by Horner's
    rule in work[0], and each product is formed in work[1].
    """
    r_max = out.shape[1] - 1
    out.fill(0.0)
    horner, product = work
    table = seed.derivative_table(h, max(by_j, default=0) + r_max)
    for j in sorted(by_j):
        for l, coeffs in by_j[j]:
            coeffs = [None if c is None else c[rows] for c in coeffs]
            for i in range(min(r_max, len(coeffs) - 1) + 1):
                if i:   # the coefficients of P^(i) from those of P^(i-1)
                    coeffs = [None if c is None else m * c
                              for m, c in enumerate(coeffs[1:], 1)]
                val = coeffs[-1]    # a view of the cell's values if alone
                if len(coeffs) > 1:
                    val = np.multiply(val, h, out=horner)
                    for n, c in enumerate(coeffs[-2::-1]):
                        if n:
                            val *= h
                        if c is not None:
                            val += c
                for r in range(i, r_max + 1):
                    w = math.comb(r, i)
                    if w == 1:
                        np.multiply(val, table[j + r - i], out=product)
                    else:
                        np.multiply(w, val, out=product)
                        product *= table[j + r - i]
                    out[l, r] += product


def term_derivatives(terms, seed, x, h, r_max: int = 0) -> np.ndarray:
    """out[l, r] = d^r f/dH^r for f = terms[l] and r <= r_max at the points
    (x, h), x broadcastable to h; one seed-derivative table serves them all."""
    by_j = _cells_by_j(terms, x)
    h = np.asarray(h, dtype=float)
    out = np.empty((len(terms), r_max + 1) + h.shape)
    _block_orders(out, np.empty((2,) + h.shape), by_j, ..., seed, h)
    return out


def _distinct_bits(*columns):
    """(first, inverse) over the rows of the float columns, two rows being
    equal when all their bits are: row first[g] stands for group g, and row i
    lies in group inverse[i].  0.0 and -0.0 stay apart."""
    bits = [np.ravel(c).view(np.uint64) for c in columns]
    order = np.lexsort(bits)   # stable, so each group starts at its first row
    new = np.zeros(order.size, dtype=bool)
    new[0] = True
    for b in bits:
        b = b[order]
        new[1:] |= b[1:] != b[:-1]
    inverse = np.empty_like(order)
    inverse[order] = np.cumsum(new) - 1
    return order[new], inverse


def _grid_fill(series: WignerSeries, seed, grid: GridSpec):
    """(rows, cols, sizes, blocks): blocks yields (block, orders) for each
    block of distinct rows, orders[l] holding F_l there at every distinct
    column, in one buffer that the next block refills; rows and cols map
    grid rows and columns to the distinct ones, and sizes[l] is max |F_l|
    over the blocks so far.

    A grid value is sum c_{l,m,j}(q) H^m f0^(j)(H) with H = p^2/2 + V(q),
    filled elementwise, so rows with the same bits of V(q) and of every cell
    coefficient, and columns with the same bits of p^2, hold the same bits
    of every F_l: they are filled at the first of each such row and column.
    """
    q = grid.q_axis()
    p2 = grid.p_axis() ** 2
    p_first, cols = _distinct_bits(p2)
    v = series.potential.evaluate(q)
    by_j = _cells_by_j(series.terms, q)
    q_first, rows = _distinct_bits(v, *(c for cells in by_j.values()
                                         for _, coeffs in cells
                                         for c in coeffs if c is not None))
    by_j = {j: [(l, [None if c is None else c[q_first, None] for c in coeffs])
                for l, coeffs in cells] for j, cells in by_j.items()}
    h = 0.5 * p2[p_first] + v[q_first, None]
    sizes = np.zeros(len(series.terms))

    def blocks():
        step = max(1, BLOCK_POINTS // p_first.size)
        # one orders buffer and one scratch serve every block, so the blocks
        # after the first fault in no new pages for them
        orders = np.empty((len(series.terms), 1, step, p_first.size))
        work = np.empty((2, step, p_first.size))
        for start in range(0, q_first.size, step):
            block = slice(start, start + step)
            n = min(step, q_first.size - start)
            _block_orders(orders[:, :, :n], work[:, :n], by_j, block, seed, h[block])
            filled = orders[:, 0, :n]
            np.maximum(sizes, np.maximum(filled.max(axis=(1, 2)),
                                         -filled.min(axis=(1, 2))), out=sizes)
            yield block, filled

    return rows, cols, sizes, blocks()


@dataclass(frozen=True, eq=False)
class OrderGrids:
    """The field at hbar on a grid, held at its distinct rows and columns:
    its value at grid point (i, k) is values[rows[i], cols[k]].  sizes[l] is
    max |F_l| on the grid."""

    values: np.ndarray
    sizes: np.ndarray
    hbar: float
    rows: np.ndarray
    cols: np.ndarray
    grid: GridSpec


def order_grids(series: WignerSeries, seed, grid: GridSpec, hbar: float) -> OrderGrids:
    """The field sum_l hbar^(2l) F_l on the grid, and max |F_l| per order,
    from one fill weighted a block at a time; the weights are formed first."""
    weights = hbar_weights(hbar, range(len(series.terms)))
    rows, cols, sizes, blocks = _grid_fill(series, seed, grid)
    values = np.empty((rows.max() + 1, cols.max() + 1))
    for block, filled in blocks:
        _weighted_sum(filled, weights, out=values[block])
    return OrderGrids(values, sizes, hbar, rows, cols, grid)


@dataclass(frozen=True, eq=False)
class OrderMoments:
    """gram[l, l'] * unit^2 is the grid integral of F_l F_l', mass[l] * unit
    that of F_l, and sizes[l] max |F_l|; the power of two unit keeps the
    moments in the float range."""

    gram: np.ndarray
    mass: np.ndarray
    unit: float
    sizes: np.ndarray

    def integrals(self, hbar: float) -> tuple[float, float]:
        """(integral of f, integral of f^2) / (unit, unit^2) for the field
        f = sum_l hbar^(2l) F_l, skipping orders of zero weight as
        _weighted_sum does; NormalizationError unless the integral of f is
        finite and positive."""
        weights = hbar_weights(hbar, range(len(self.mass)))
        kept = [l for l, w in enumerate(weights) if w != 0.0]
        w = np.array(weights)[kept]
        with np.errstate(invalid="ignore", over="ignore"):
            total = float(w @ self.mass[kept])
            second = float(w @ self.gram[np.ix_(kept, kept)] @ w)
        if not (math.isfinite(total * self.unit) and total > 0):
            raise NormalizationError(f"field integral {total * self.unit!r} "
                                     f"is not normalizable")
        return total, second


def _two_sum(a, b):
    """(a + b, its rounding error), the error exact: Knuth's TwoSum."""
    s = a + b
    z = s - a
    return s, (a - (s - z)) + (b - z)


def _pairwise_sums(x):
    """(s, e): the row sums s of x, added pairwise, and the sum e of every
    addition's TwoSum error, so that s + e is about as accurate as a sum in
    twice the precision (Sum2 of Ogita, Rump and Oishi, SIAM J. Sci.
    Comput. 26, 2005)."""
    err = np.zeros(len(x))
    while x.shape[1] > 1:
        half = x.shape[1] // 2
        s, e = _two_sum(x[:, :half], x[:, half:2 * half])
        err += e.sum(axis=1)
        x = np.concatenate([s, x[:, 2 * half:]], axis=1)
    return x[:, 0], err


def order_moments(series: WignerSeries, seed, grid: GridSpec) -> OrderMoments:
    """The moments of the per-order fields on the grid from one fill, which
    give the field's integrals at any number of hbar.  Each distinct row
    and column carries the summed trapezoid weights, in units of its axis'
    step, of the grid rows and columns that map to it: 1/2, 1 and their
    sums, powers of two on a symmetric axis, so that each weighted value is
    exact.  A block's orders are scaled in place by 1/unit, which follows
    the largest |F_l| so far, and weighted into one buffer per fill, whose
    products with them add to gram and whose row sums to mass, with the
    rounding errors of every addition added back; both take the steps'
    product once, at the end."""
    rows, cols, sizes, blocks = _grid_fill(series, seed, grid)
    w_q, w_p = (np.bincount(m, _unit_trapezoid(m.size)) for m in (rows, cols))
    gram = np.zeros((len(sizes),) * 2)
    mass, low = np.zeros(len(sizes)), np.zeros(len(sizes))
    scale, buffer = -1022, None     # unit = 2^scale and 1/unit stay normal
    for block, filled in blocks:
        orders = filled.reshape(len(sizes), -1)
        if buffer is None:      # the first block is the largest
            buffer = np.empty_like(orders)
        weighted = buffer[:, :orders.shape[1]]
        with np.errstate(invalid="ignore", over="ignore"):
            top = min(max(int(np.frexp(sizes.max())[1]), scale), 1023)
            gram *= 2.0 ** (2 * (scale - top))
            mass *= 2.0 ** (scale - top)
            low *= 2.0 ** (scale - top)
            scale = top
            np.ldexp(orders, -scale, out=orders)
            np.multiply(orders, (w_q[block, None] * w_p).ravel(), out=weighted)
            part, err = _pairwise_sums(weighted)
            mass, e = _two_sum(mass, part)
            low += e + err
            gram += weighted @ orders.T
    h_q, h_p = grid.steps()
    with np.errstate(invalid="ignore", over="ignore"):
        # an error that is not finite is that of a sum that is not
        mass = np.where(np.isfinite(low), mass + low, mass) * (h_q * h_p)
        gram *= h_q * h_p
    return OrderMoments(gram, mass, math.ldexp(1.0, scale), sizes)


def hbar_weights(hbar: float, orders) -> list:
    """[hbar^(2l) for l in orders]; ValueError unless hbar is finite and
    nonnegative, HbarOverflowError for the first l whose weight overflows."""
    hbar = float(hbar)    # a numpy float overflows to inf without raising
    if not 0 <= hbar < math.inf:
        raise ValueError("hbar must be finite and nonnegative")
    weights = []
    try:
        for l in orders:
            weights.append(hbar ** (2 * l))
    except OverflowError:
        raise HbarOverflowError(hbar, l) from None
    return weights


def _weighted_sum(orders, weights, out=None):
    """sum_l weights[l] * orders[l], into out if given; later zero weights
    are skipped, so hbar = 0 gives F_0 exactly even where a higher order
    is not finite."""
    total = np.multiply(orders[0], weights[0], out=out)
    for weight, order in zip(weights[1:], orders[1:]):
        if weight != 0.0:
            total += weight * order
    return total


def eval_points(series: WignerSeries, seed, hbar: float, q, p) -> np.ndarray:
    """Wigner-function values at arrays of phase-space points (elementwise)."""
    weights = hbar_weights(hbar, range(len(series.terms)))
    q, p = np.broadcast_arrays(np.asarray(q, dtype=float), np.asarray(p, dtype=float))
    shape = q.shape
    q, p = q.ravel(), p.ravel()
    h = 0.5 * p ** 2 + series.potential.evaluate(q)
    values = np.empty(q.size)
    for start in range(0, q.size, BLOCK_POINTS):
        rows = slice(start, start + BLOCK_POINTS)
        block = term_derivatives(series.terms, seed, q[rows], h[rows])
        _weighted_sum(block[:, 0], weights, out=values[rows])
    return values.reshape(shape)


def eval_point(series: WignerSeries, seed, hbar: float, q: float, p: float) -> float:
    """Wigner-function value at one phase-space point."""
    return float(eval_points(series, seed, hbar, np.float64(q), np.float64(p)))


@dataclass(frozen=True, eq=False)
class WignerField:
    """Evaluated Wigner function on a grid, with its normalization: the
    field's numbers only, with no labels of the run that made it.

    The field is held at its distinct rows: grid row i holds
    row_values[rows[i]], and every held row is some grid row's; a field of
    the full grid has the identity map.  eval_field holds the rows of its
    order_grids fill.  Normalization, Q, P_q, the minimum and maximum and
    field.csv work on the held rows; ``values`` gathers the full grid once,
    which diagnostics.diagnose reads for P_p, summed down the grid rows in
    their order, and the negativity scan, whose first minimum depends on it.
    """

    grid: GridSpec
    hbar: float
    row_values: np.ndarray
    rows: np.ndarray
    norm_constant: float
    normalized: bool

    @cached_property
    def values(self) -> np.ndarray:
        """The full (n_q, n_p) grid, gathered on the first read and kept;
        read-only, so that it cannot drift from row_values."""
        out = np.take(self.row_values, self.rows, axis=0)
        out.flags.writeable = False
        return out

    def q_axis(self) -> np.ndarray:
        return self.grid.q_axis()

    def p_axis(self) -> np.ndarray:
        return self.grid.p_axis()


def eval_field(series: WignerSeries, seed, hbar: float, grid: GridSpec,
               normalize: bool = True, orders=None) -> WignerField:
    """Dense evaluation on the grid, optionally normalized to unit integral;
    NormalizationError when the grid integral is not finite, or, to be
    normalized, not positive.

    The field is that of order_grids(series, seed, grid, hbar), gathered to
    every column and held at the distinct rows of the fill, with their row
    map.  ``orders`` takes that fill when the caller already has it; orders
    of another grid or hbar are a ValueError.  The field holds no labels of
    the run; write_field_sidecar takes them.
    """
    if orders is None:
        orders = order_grids(series, seed, grid, hbar)
    elif (orders.grid, orders.hbar) != (grid, hbar):
        raise ValueError(f"orders were built on {orders.grid} at hbar = "
                         f"{orders.hbar!r}, not on {grid} at hbar = {hbar!r}")
    # np.take, not a slice: a C-ordered copy, whose p sums have the
    # bits of the gathered grid's rows
    values = np.take(orders.values, orders.cols, axis=1)
    norm = grid.integral(values, orders.rows)
    if not np.isfinite(norm) or (normalize and norm <= 0):
        raise NormalizationError(f"field integral {norm!r} is not normalizable")
    if normalize:
        values /= norm
    return WignerField(grid, hbar, values, orders.rows, norm, normalize)


def write_field_csv(field: WignerField, path) -> None:
    """Row-major q,p,f rows with round-trip float formatting.

    Each held row of the field is formatted once, at its distinct values,
    and its text is kept until the last grid row that maps to it.  Values
    are told apart by their bits, so 0.0 and -0.0 keep their own text.
    """
    p_cols = [f",{v!r}," for v in field.p_axis().tolist()]
    rows = field.rows.tolist()
    last = {g: i for i, g in enumerate(rows)}
    held = {}
    with open(path, "w") as fh:
        fh.write("q,p,f\n")
        for i, (qi, g) in enumerate(zip(map(repr, field.q_axis().tolist()), rows)):
            body = held.pop(g, None)
            if body is None:
                keys, inverse = np.unique(field.row_values[g].view(np.uint64),
                                          return_inverse=True)
                texts = list(map(repr, keys.view(np.float64).tolist()))
                # the row's lines without their q, one string: a third of
                # the memory of a list of line strings while it is held
                body = "\n".join(map(add, p_cols,
                                     map(texts.__getitem__, inverse.tolist())))
            if last[g] > i:
                held[g] = body
            fh.write(qi + body.replace("\n", "\n" + qi) + "\n")


def write_field_sidecar(field: WignerField, path, seed_spec: str,
                        meta: dict) -> None:
    """field.json: the grid, hbar, normalization, seed_spec and the held
    rows' minimum and maximum, then the entries of meta in their order."""
    write_json(path, {
        "grid": field.grid.to_json_dict(),
        "hbar": field.hbar,
        "normalized": field.normalized,
        "norm_constant": field.norm_constant,
        "seed": seed_spec,
        "min_f": float(field.row_values.min()),
        "max_f": float(field.row_values.max()),
        **meta,
    })
