"""Binary P6 pixmap rendering of attractors.

Two modes: ``cylinders`` fills the depth-n images of a seed polygon,
``chaos`` plots chaos-game sample points.  The pixel path is plain float
arithmetic plus floor rounding, so identical inputs give bit-identical
images; P6 needs no image library and hashes cleanly in golden tests.
Both modes paint with one scatter in drawing order (polygons in word order,
orbit points in time order) in which the last write to a pixel wins.  The
scanline fill runs every (polygon, pixel row) pair at once, and a polygon
that crosses no pixel-row centre paints the pixel under its vertex mean, so
cylinders below a pixel stay visible.
"""

from __future__ import annotations

import functools
from array import array
from typing import Optional, Tuple

from ._numpy import np
from ._record import record
from .errors import UnsupportedDepth
from .ifs import BernoulliWeights, IfsSystem, Polygon, rng
from .linalg2 import mul4

CYLINDER_WORD_CAP = 200_000
PAIR_BLOCK = 1 << 16  # (polygon, pixel row) pairs scanned at once
PIXEL_BLOCK = 1 << 20  # pixel writes expanded at once
VIEWPORT_PAD = 0.05  # share of the box width added on each side by default
CHAOS_BURN_IN = 100  # chaos-game steps drawn before the first plotted point

# per-first-symbol fill colors, cycled when the alphabet is larger
PALETTE = (
    (31, 119, 180),
    (255, 127, 14),
    (44, 160, 44),
    (214, 39, 40),
    (148, 103, 189),
    (140, 86, 75),
    (227, 119, 194),
    (127, 127, 127),
)
BACKGROUND = (255, 255, 255)
SIZES = (16, 8192)  # least and greatest raster width and height


@record
class RenderSpec:
    """Raster geometry and drawing mode."""

    width: int = 512
    height: int = 512
    viewport: Tuple[float, float, float, float] = (0.0, 0.0, 1.0, 1.0)  # x0 y0 x1 y1
    mode: str = "cylinders"
    depth: int = 5  # cylinders mode
    count: int = 100_000  # chaos mode
    seed: int = 0

    def __post_init__(self):
        lo, hi = SIZES
        if not (lo <= self.width <= hi and lo <= self.height <= hi):
            raise ValueError(f"width and height must lie in [{lo}, {hi}]")
        x0, y0, x1, y1 = self.viewport
        if not (x1 > x0 and y1 > y0):
            raise ValueError("viewport must be non-degenerate")
        if self.mode not in ("cylinders", "chaos"):
            raise ValueError("mode must be 'cylinders' or 'chaos'")
        if self.mode == "chaos" and self.count < 1:
            raise ValueError("chaos mode needs count >= 1")


def default_viewport(polygon: Optional[Polygon], sys: IfsSystem):
    if polygon is not None:
        x0, y0, x1, y1 = polygon.bounding_box()
    else:
        r = sys.bounding_radius
        x0, y0, x1, y1 = -r, -r, r, r
    dx, dy = (x1 - x0) * VIEWPORT_PAD, (y1 - y0) * VIEWPORT_PAD
    return (x0 - dx, y0 - dy, x1 + dx, y1 + dy)


def _pixel_grid(spec: RenderSpec):
    img = np.empty((spec.height, spec.width, 3), dtype=np.uint8)
    img[:, :] = BACKGROUND
    return img


def _paint_runs(img, row, start, stop, color) -> None:
    """Paint the pixel runs img[row[k], start[k]..stop[k]] = PALETTE[color[k]]
    as if one after another, so a later run wins wherever runs overlap.

    The runs are expanded to flat pixel indices PIXEL_BLOCK at a time; within
    a block np.unique on the reversed indices picks each pixel's last write,
    so the result never depends on the order numpy applies duplicate
    fancy-index assignments in.
    """
    flat_img = img.reshape(-1, 3)
    palette = np.array(PALETTE, dtype=np.uint8)
    length = stop - start + 1
    for block, flat in _expand_blocks(length, row * img.shape[1] + start, PIXEL_BLOCK):
        colors = np.repeat(color[block], length[block])
        _, rev_first = np.unique(flat[::-1], return_index=True)
        last = len(flat) - 1 - rev_first
        flat_img[flat[last]] = palette[colors[last]]


def _expand_blocks(length, first, budget):
    """Split items with ``length[k]`` consecutive integers from ``first[k]``
    into blocks of whole items holding at most ``budget`` integers (or one
    item); yield each block's item slice and its integers, in order."""
    ends = np.cumsum(length)
    lo = 0
    while lo < len(length):
        base = ends[lo] - length[lo]
        hi = max(lo + 1, int(np.searchsorted(ends, base + budget, side="right")))
        n = length[lo:hi]
        block = slice(lo, hi)
        yield block, np.repeat(first[block] - (ends[block] - n - base), n) + np.arange(
            ends[hi - 1] - base
        )
        lo = hi


def _cylinder_maps(sys: IfsSystem, depth: int):
    """Entry columns (a11, a12, a21, a22, tx, ty) of the float maps f_w for
    every depth-n word, in lexicographic word order.

    Level k+1 composes each f_i, the slowest digit, after every level-k map
    g: the linear parts with mul4 and the translation as A_i t_g + t_i, in
    the operation order of AffineMap.compose.  This is compose_word's
    right-to-left fold on the float maps f.to_float(), so each map is
    bit-identical to that fold, at about N/(N-1) compositions per word.
    """
    maps = level = sys.columns
    for _ in range(depth - 1):
        a11, a12, a21, a22, tx, ty = (c[:, None] for c in maps)
        gx, gy = level[4], level[5]
        level = tuple(np.ravel(c) for c in mul4((a11, a12, a21, a22), level[:4])
                      + (a11 * gx + a12 * gy + tx, a21 * gx + a22 * gy + ty))
    return level


def _cylinder_vertices(sys: IfsSystem, polygon: Polygon, depth: int):
    """Vertex arrays (x, y), one row per depth-n word in word order, of the
    float images f_w(polygon), ordered as Polygon orders them: reversed where
    the shoelace sum, taken left to right, is negative."""
    vx, vy = np.array(polygon.to_float().vertices).T
    a11, a12, a21, a22, tx, ty = (c[:, None] for c in _cylinder_maps(sys, depth))
    xs = a11 * vx + a12 * vy + tx
    ys = a21 * vx + a22 * vy + ty
    xs_b, ys_b = np.roll(xs, -1, axis=1), np.roll(ys, -1, axis=1)
    area2 = xs[:, 0] * ys_b[:, 0] - xs_b[:, 0] * ys[:, 0]
    for k in range(1, len(vx)):
        area2 = area2 + (xs[:, k] * ys_b[:, k] - xs_b[:, k] * ys[:, k])
    flip = (area2 < 0)[:, None]
    return np.where(flip, xs[:, ::-1], xs), np.where(flip, ys[:, ::-1], ys)


def _scanline_runs(spec: RenderSpec, cols, rows):
    """Scanline fill of convex polygons, one per row of the pixel-coordinate
    arrays ``cols`` and ``rows``, for every (polygon, pixel row) pair at once.

    Returns (polygon, row, first column, last column) of each painted run,
    in polygon order.  Per pair it evaluates the float expressions of the
    scalar scanline fill: the crossings of the row centre with the edges,
    the pixel centres between the outermost crossings, or, for a sliver
    thinner than a pixel, the column under its centre.  A polygon left
    without a run (one that crosses no pixel-row centre, say) paints the
    pixel under its vertex mean, the vertices summed in order, when that
    pixel lies in the raster, so a sub-pixel cylinder does not vanish.

    The vertices are held as one contiguous array each (``vc``, ``vr``), so
    every minimum, maximum and count over a polygon's vertices or edges is an
    elementwise chain over them; min, max and integer sums are exact, in any
    order.
    """
    w, h = spec.width, spec.height
    vc, vr = np.ascontiguousarray(cols.T), np.ascontiguousarray(rows.T)
    n = len(vc)
    r_lo = np.maximum(0.0, np.floor(functools.reduce(np.minimum, vr)))
    r_hi = np.minimum(h - 1.0, np.ceil(functools.reduce(np.maximum, vr)))
    n_rows = np.maximum(r_hi - r_lo + 1.0, 0.0).astype(np.int64)
    r_lo = np.where(n_rows > 0, r_lo, 0.0).astype(np.int64)
    out = []
    for block, row in _expand_blocks(n_rows, r_lo, PAIR_BLOCK):
        poly = np.repeat(np.arange(block.start, block.stop), n_rows[block])
        yc = row + 0.5
        pc, pr = vc[:, poly], vr[:, poly]
        crosses, xs = [], []
        for k in range(n):  # the edge from vertex k to vertex k + 1
            ra, rb, ca, cb = pr[k], pr[(k + 1) % n], pc[k], pc[(k + 1) % n]
            crosses.append(((ra <= yc) & (yc < rb)) | ((rb <= yc) & (yc < ra)))
            with np.errstate(divide="ignore", invalid="ignore"):
                xs.append(ca + (yc - ra) / (rb - ra) * (cb - ca))
        x_lo = functools.reduce(np.minimum, (np.where(c, x, np.inf) for c, x in zip(crosses, xs)))
        x_hi = functools.reduce(np.maximum, (np.where(c, x, -np.inf) for c, x in zip(crosses, xs)))
        filled = sum(crosses, np.zeros(len(poly), dtype=np.intp)) >= 2
        c_lo = np.maximum(0.0, np.floor(x_lo + 0.5))
        c_hi = np.minimum(w - 1.0, np.floor(x_hi - 0.5))
        wide = filled & (c_hi >= c_lo)
        with np.errstate(invalid="ignore"):
            centre = np.floor((x_lo + x_hi) / 2)
            thin = filled & ~wide & (x_hi - x_lo > 0) & (centre >= 0) & (centre < w)
        keep = wide | thin
        first = np.where(wide, c_lo, centre)[keep].astype(np.int64)
        last = np.where(wide, c_hi, centre)[keep].astype(np.int64)
        out.append((poly[keep], row[keep], first, last))
    runs = tuple(np.concatenate(parts) for parts in zip(*out))
    bare = np.ones(vc.shape[1], dtype=bool)
    bare[runs[0]] = False
    mc, mr = sum(vc) / n, sum(vr) / n  # the vertex means, summed in vertex order
    dot = np.flatnonzero(bare & (mc >= 0) & (mc < w) & (mr >= 0) & (mr < h))
    if len(dot) == 0:
        return runs
    c, r = np.floor(mc[dot]).astype(np.int64), np.floor(mr[dot]).astype(np.int64)
    runs = tuple(map(np.concatenate, zip(runs, (dot, r, c, c))))
    order = np.argsort(runs[0], kind="stable")  # back into polygon order
    return tuple(a[order] for a in runs)


def _fill_polygons(img, spec: RenderSpec, xs, ys, color) -> None:
    """Fill convex polygons, one per row of the plane-coordinate vertex
    arrays ``xs`` and ``ys``, with PALETTE[color[k]], later rows winning."""
    x0, y0, x1, y1 = spec.viewport
    cols = (xs - x0) / (x1 - x0) * spec.width
    rows = (y1 - ys) / (y1 - y0) * spec.height
    poly, row, first, last = _scanline_runs(spec, cols, rows)
    _paint_runs(img, row, first, last, color[poly])


def render_cylinders(
    sys: IfsSystem, spec: RenderSpec, polygon: Optional[Polygon] = None
) -> np.ndarray:
    """Fill the depth-n images of the seed polygon, colored by first symbol.

    The seed polygon is validated once; its images under the invertible
    maps are convex, so they are kept as vertex arrays (reversed where their
    shoelace area is negative, as Polygon orders them) and a float sliver
    that rounds to zero area is still drawn instead of rejected.  An image
    that crosses no pixel-row centre paints the pixel under its vertex mean.
    """
    if spec.depth < 1:
        raise ValueError("cylinders mode needs depth >= 1")
    if sys.n ** spec.depth > CYLINDER_WORD_CAP:
        raise UnsupportedDepth(
            f"{sys.n}^{spec.depth} cylinder polygons exceed cap {CYLINDER_WORD_CAP}"
        )
    if polygon is None:
        r = sys.bounding_radius
        polygon = Polygon(((-r, -r), (r, -r), (r, r), (-r, r)))
    xs, ys = _cylinder_vertices(sys, polygon, spec.depth)
    first_symbol = np.arange(len(xs)) // sys.n ** (spec.depth - 1)
    img = _pixel_grid(spec)
    _fill_polygons(img, spec, xs, ys, first_symbol % len(PALETTE))
    return img


def render_chaos(
    sys: IfsSystem,
    spec: RenderSpec,
    weights: Optional[BernoulliWeights] = None,
) -> np.ndarray:
    """Chaos game: iterate randomly chosen maps and plot the orbit.

    The orbit runs on Python floats (the same IEEE operations as on numpy
    scalars); pixels are computed and painted after the loop, a later point
    winning a shared pixel.
    """
    if weights is None:
        weights = BernoulliWeights.uniform(sys.n)
    syms = weights.draw(rng(spec.seed), spec.count + CHAOS_BURN_IN)
    steps = list(zip(*(c.tolist() for c in sys.columns)))
    px, py = (float(c) for c in sys.maps[0].fixed_point())
    xs, ys = array("d"), array("d")  # 8 bytes per coordinate, not a boxed float
    for s in syms.tolist():
        a11, a12, a21, a22, tx, ty = steps[s]
        px, py = a11 * px + a12 * py + tx, a21 * px + a22 * py + ty
        xs.append(px)
        ys.append(py)
    x0, y0, x1, y1 = spec.viewport
    w, h = spec.width, spec.height
    col = (np.frombuffer(xs)[CHAOS_BURN_IN:] - x0) / (x1 - x0) * w
    row = (y1 - np.frombuffer(ys)[CHAOS_BURN_IN:]) / (y1 - y0) * h
    # int() truncates toward zero, so 0 <= int(v) < n exactly when -1 < v < n
    inside = (col > -1) & (col < w) & (row > -1) & (row < h)
    col = col[inside].astype(np.int64)
    img = _pixel_grid(spec)
    _paint_runs(img, row[inside].astype(np.int64), col, col,
                syms[CHAOS_BURN_IN:][inside] % len(PALETTE))
    return img


def write_p6(path: str, img: np.ndarray) -> None:
    h, w, _ = img.shape
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(img.tobytes())


def render_to_file(
    sys: IfsSystem,
    spec: RenderSpec,
    path: str,
    polygon: Optional[Polygon] = None,
    weights: Optional[BernoulliWeights] = None,
) -> None:
    if spec.mode == "cylinders":
        img = render_cylinders(sys, spec, polygon=polygon)
    else:
        img = render_chaos(sys, spec, weights=weights)
    write_p6(path, img)
