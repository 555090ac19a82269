"""The batched raster kernels against scalar references.

The scanline fill is checked against the per-polygon scalar fill in
conftest, the cylinder maps against compose_word, the cylinder image against
the per-word Polygon pipeline, and the chaos game against an orbit iterated
on numpy scalars; every comparison is bit for bit.
"""

import math
from itertools import product

import numpy as np
import pytest

from conftest import fill_convex_oracle

from affdim import render
from affdim.errors import NonConvexPolygon
from affdim.ifs import AffineMap, BernoulliWeights, IfsSystem, Polygon, compose_word, rng
from affdim.library import get_example
from affdim.linalg2 import Mat2
from affdim.render import PALETTE, RenderSpec, render_chaos, render_cylinders

SPEC = RenderSpec(width=64, height=48, viewport=(0.0, 0.0, 1.0, 1.0))


def _batched(spec, xs, ys):
    img = render._pixel_grid(spec)
    render._fill_polygons(img, spec, xs, ys, np.arange(len(xs)) % len(PALETTE))
    return img


def _scalar(spec, xs, ys):
    img = render._pixel_grid(spec)
    for k, (px, py) in enumerate(zip(xs.tolist(), ys.tolist())):
        fill_convex_oracle(img, spec, list(zip(px, py)), PALETTE[k % len(PALETTE)])
    return img


def _random_polygons(gen, count, n_vertices, kind):
    """Convex polygons in counterclockwise order around random centres, some
    reaching past the viewport [0, 1]^2; ``kind`` shapes them further."""
    t = np.sort(gen.uniform(0.0, 2 * math.pi, size=(count, n_vertices)), axis=1)
    radius = np.exp(gen.uniform(math.log(1e-3), math.log(0.6), size=(count, 1)))
    squash = 1e-7 if kind == "sliver" else 1.0
    u, v = radius * np.cos(t), radius * squash * np.sin(t)
    turn = gen.uniform(0.0, 2 * math.pi, size=(count, 1))
    cx, cy = gen.uniform(-0.3, 1.3, size=(2, count, 1))
    xs = cx + u * np.cos(turn) - v * np.sin(turn)
    ys = cy + u * np.sin(turn) + v * np.cos(turn)
    if kind == "reflected":  # clockwise vertex order
        xs = 1.0 - xs
    return xs, ys


@pytest.mark.parametrize("kind", ["plain", "reflected", "sliver"])
@pytest.mark.parametrize("n_vertices", [3, 4, 7])
def test_fill_matches_scalar_oracle(kind, n_vertices):
    gen = np.random.default_rng(100 * n_vertices + len(kind))
    xs, ys = _random_polygons(gen, 300, n_vertices, kind)
    assert np.array_equal(_batched(SPEC, xs, ys), _scalar(SPEC, xs, ys))


def test_fill_horizontal_edges_on_pixel_centres():
    """Rectangles and triangles whose horizontal edges lie exactly on row
    centres and whose sides lie on column boundaries and centres, so every
    half-open crossing rule and floor tie is exercised."""
    gen = np.random.default_rng(5)
    w, h = SPEC.width, SPEC.height
    r0, r1 = np.sort(gen.integers(-3, h + 3, size=(2, 200)), axis=0)
    c0, c1 = np.sort(gen.integers(-3, w + 3, size=(2, 200)), axis=0) / 2
    c0, c1 = c0 / (w / 2), (c1 + 0.5) / (w / 2)
    y_top, y_bot = 1 - (r0 + 0.5) / h, 1 - (r1 + 0.5) / h
    rect_x = np.stack([c0, c1, c1, c0], axis=1)
    rect_y = np.stack([y_bot, y_bot, y_top, y_top], axis=1)
    assert np.array_equal(_batched(SPEC, rect_x, rect_y), _scalar(SPEC, rect_x, rect_y))
    tri_x, tri_y = rect_x[:, :3], rect_y[:, :3]
    assert np.array_equal(_batched(SPEC, tri_x, tri_y), _scalar(SPEC, tri_x, tri_y))


def test_fill_in_small_blocks(monkeypatch):
    """Block boundaries fall inside the (polygon, row) pairs and the pixel
    runs; blocks are painted in order, so the image does not change."""
    gen = np.random.default_rng(8)
    xs, ys = _random_polygons(gen, 120, 5, "plain")
    want = _scalar(SPEC, xs, ys)
    monkeypatch.setattr(render, "PAIR_BLOCK", 7)
    monkeypatch.setattr(render, "PIXEL_BLOCK", 13)
    assert np.array_equal(_batched(SPEC, xs, ys), want)


def test_sub_pixel_polygons_paint_their_vertex_mean_in_word_order():
    """Triangles that cross no pixel-row centre paint the pixel under their
    vertex mean, merged with the runs in polygon order: a dot drawn over a
    square wins, a square drawn over a dot covers it, and a dot whose pixel
    lies outside the raster paints nothing."""
    def tiny(col, row):  # a triangle inside pixel (row, col), clear of its centre row
        return [col + 0.2, col + 0.3, col + 0.25], [row + 0.1, row + 0.1, row + 0.3]

    def box(c0, c1, r0, r1):
        return [c0, c1, c1, c0], [r1, r1, r0, r0]

    shapes = [box(4, 40, 4, 40), tiny(10, 12), tiny(50, 20), box(45, 60, 15, 25), tiny(70, 20)]
    cols = np.array([c + [c[-1]] * (4 - len(c)) for c, _ in shapes])
    rows = np.array([r + [r[-1]] * (4 - len(r)) for _, r in shapes])
    xs, ys = cols / SPEC.width, 1.0 - rows / SPEC.height
    got = _batched(SPEC, xs, ys)
    assert np.array_equal(got, _scalar(SPEC, xs, ys))
    assert tuple(got[12, 10]) == PALETTE[1]
    assert tuple(got[20, 50]) == PALETTE[3]
    assert not (got == PALETTE[2]).all(axis=2).any()
    assert not (got == PALETTE[4]).all(axis=2).any()


def test_paint_runs_last_write_wins(monkeypatch):
    img = np.zeros((2, 10, 3), dtype=np.uint8)
    row = np.array([0, 0, 0, 1, 1])
    start = np.array([0, 3, 5, 2, 2])
    stop = np.array([9, 6, 5, 8, 2])
    color = np.array([1, 2, 3, 4, 5])
    want = img.copy()
    for r, a, b, c in zip(row, start, stop, color):
        want[r, a : b + 1] = PALETTE[c]
    for block in (render.PIXEL_BLOCK, 3):
        monkeypatch.setattr(render, "PIXEL_BLOCK", block)
        got = img.copy()
        render._paint_runs(got, row, start, stop, color)
        assert np.array_equal(got, want)


def _words(n, depth):
    return list(product(range(1, n + 1), repeat=depth))


def _float_compose(sysm, w):
    """compose_word's right-to-left fold, on the float maps: the reference
    the cylinder kernel reproduces bit for bit."""
    maps = [f.to_float() for f in sysm.maps]
    out = maps[w[-1] - 1]
    for s in reversed(w[:-1]):
        out = maps[s - 1].compose(out)
    return out


@pytest.mark.parametrize("name, params, depth", [
    ("sec44", {}, 4), ("hl-demo", {}, 5), ("phi-c", {"c": "1/4"}, 3), ("sec44", {}, 8),
])
def test_cylinder_maps_equal_compose_word(name, params, depth):
    sysm = get_example(name, params).system
    want = [f.linear.entries() + f.translation
            for f in (_float_compose(sysm, w) for w in _words(sysm.n, depth))]
    columns = render._cylinder_maps(sysm, depth)
    assert list(zip(*(c.tolist() for c in columns))) == want


def _reflecting_system():
    """Two maps with negative determinant and one with positive, so images
    of the seed polygon come in both orientations."""
    return IfsSystem((
        AffineMap(Mat2(-0.4, 0.1, 0.05, 0.3), (0.5, 0.1)),
        AffineMap(Mat2(0.35, 0.0, 0.1, -0.3), (0.2, 0.6)),
        AffineMap(Mat2(0.3, -0.1, 0.0, 0.3), (0.6, 0.6)),
    ))


@pytest.mark.parametrize("case", ["sec44", "phi-c", "reflecting"])
def test_cylinders_match_polygon_pipeline(case):
    """Each image polygon built as a Polygon (which orders its vertices
    counterclockwise) and filled by the scalar oracle, in word order."""
    if case == "reflecting":
        sysm, poly = _reflecting_system(), None
        spec = RenderSpec(width=96, height=80, viewport=(-0.2, -0.1, 1.3, 1.2), depth=3)
    else:
        parsed = get_example(case, {"c": "1/4"} if case == "phi-c" else {})
        sysm, poly = parsed.system, parsed.polygon
        spec = RenderSpec(width=96, height=80, viewport=render.default_viewport(poly, sysm),
                          depth=3)
    seed = poly.to_float() if poly is not None else Polygon(
        ((-0.5, -0.5), (1.5, -0.5), (1.5, 1.5), (-0.5, 1.5)))
    float_sys = IfsSystem(tuple(f.to_float() for f in sysm.maps))
    want = render._pixel_grid(spec)
    for w in _words(sysm.n, spec.depth):
        image = seed.transform(compose_word(float_sys, w))
        fill_convex_oracle(want, spec, image.vertices, PALETTE[(w[0] - 1) % len(PALETTE)])
    assert np.array_equal(render_cylinders(sysm, spec, polygon=seed), want)


@pytest.mark.parametrize("case", ["sec44", "phi-c", "reflecting"])
def test_cylinder_vertices_are_polygon_vertices(case):
    """The vertex arrays equal the vertices of each image built as a
    Polygon, whose counterclockwise order fixes the edge direction of every
    crossing the fill interpolates."""
    if case == "reflecting":
        sysm = _reflecting_system()
        seed = Polygon(((-0.5, -0.5), (1.5, -0.5), (1.5, 1.5), (-0.5, 1.5)))
    else:
        parsed = get_example(case, {"c": "1/4"} if case == "phi-c" else {})
        sysm, seed = parsed.system, parsed.polygon
    want = [seed.to_float().transform(_float_compose(sysm, w)).vertices
            for w in _words(sysm.n, 3)]
    xs, ys = render._cylinder_vertices(sysm, seed, 3)
    assert [tuple(zip(x, y)) for x, y in zip(xs.tolist(), ys.tolist())] == want
    if case == "reflecting":
        assert 0 < sum(v[1][0] > v[0][0] for v in want) < len(want)  # both orientations


def test_deep_cylinders_draw_float_slivers():
    """At depth 9 the float images of hl-demo's square are slivers whose
    shoelace rounds to zero or shows a reflex corner, so no Polygon can be
    built from them; they are filled as Polygon would order them."""
    parsed = get_example("hl-demo", {})
    square = parsed.polygon.to_float().vertices
    float_sys = IfsSystem(tuple(f.to_float() for f in parsed.system.maps))
    # zoom in on the cylinder of 1^9 (about 1e-9 long and 1e-17 thin)
    corners = [compose_word(float_sys, (1,) * 9).apply(v) for v in square]
    xs, ys = [v[0] for v in corners], [v[1] for v in corners]
    dx, dy = max(xs) - min(xs), max(ys) - min(ys)
    spec = RenderSpec(width=128, height=128, depth=9,
                      viewport=(min(xs) - dx, min(ys) - dy, max(xs) + dx, max(ys) + dy))
    want = render._pixel_grid(spec)
    for w in _words(2, 9):
        f = compose_word(float_sys, w)
        verts = [f.apply(v) for v in square]
        area2 = sum(a[0] * b[1] - b[0] * a[1] for a, b in zip(verts, verts[1:] + verts[:1]))
        if area2 < 0:
            verts.reverse()
        fill_convex_oracle(want, spec, verts, PALETTE[w[0] - 1])
    got = render_cylinders(parsed.system, spec, polygon=parsed.polygon)
    assert (got != 255).any(axis=2).sum() > 20
    assert np.array_equal(got, want)
    with pytest.raises(NonConvexPolygon):  # the per-image Polygon route fails here
        for w in _words(2, 9):
            Polygon(square).transform(compose_word(float_sys, w))


def test_deep_cylinders_below_a_pixel_still_paint():
    """At depth 8 every cylinder of hl-demo's square crosses no pixel-row
    centre of the default raster; each paints the pixel under its vertex
    mean instead of nothing."""
    parsed = get_example("hl-demo", {})
    spec = RenderSpec(depth=8, viewport=render.default_viewport(parsed.polygon, parsed.system))
    img = render_cylinders(parsed.system, spec, polygon=parsed.polygon)
    assert (img != 255).any(axis=2).sum() >= 1


def _chaos_oracle(sysm, spec, weights, burn_in=100):
    """The chaos game iterated on numpy scalars, painted point by point."""
    syms = rng(spec.seed).choice(sysm.n, size=spec.count + burn_in, p=weights.as_array)
    img = render._pixel_grid(spec)
    x0, y0, x1, y1 = spec.viewport
    a11, a12, a21, a22, tx, ty = sysm.columns
    px, py = (float(c) for c in sysm.maps[0].fixed_point())
    for k, s in enumerate(syms):
        px, py = (a11[s] * px + a12[s] * py + tx[s],
                  a21[s] * px + a22[s] * py + ty[s])
        if k < burn_in:
            continue
        col = int((px - x0) / (x1 - x0) * spec.width)
        row = int((y1 - py) / (y1 - y0) * spec.height)
        if 0 <= col < spec.width and 0 <= row < spec.height:
            img[row, col] = PALETTE[int(s) % len(PALETTE)]
    return img


@pytest.mark.parametrize("name, params, viewport, weights", [
    ("phi-c", {"c": "1/4"}, (0.0, 0.0, 1.0, 1.0), None),
    ("sec44", {}, (0.2, -0.3, 0.8, 0.9), (0.5, 0.3, 0.2)),  # attractor crosses the edges
    ("hl-demo", {}, (-0.05, -0.05, 1.05, 1.05), None),
])
def test_chaos_matches_scalar_orbit(name, params, viewport, weights):
    sysm = get_example(name, params).system
    w = BernoulliWeights(weights) if weights else BernoulliWeights.uniform(sysm.n)
    spec = RenderSpec(width=40, height=30, viewport=viewport, mode="chaos",
                      count=5000, seed=11)
    assert np.array_equal(render_chaos(sysm, spec, weights=w), _chaos_oracle(sysm, spec, w))


def test_chaos_last_point_wins_shared_pixel():
    """Both maps contract into the same pixel with different colors, so
    every plotted point lands on one pixel; the last one drawn colors it."""
    sysm = IfsSystem((
        AffineMap(Mat2(0.01, 0.0, 0.0, 0.01), (0.5, 0.5)),
        AffineMap(Mat2(0.01, 0.0, 0.0, 0.01), (0.501, 0.5)),
    ))
    spec = RenderSpec(width=16, height=16, mode="chaos", count=500, seed=4)
    img = render_chaos(sysm, spec)
    syms = BernoulliWeights.uniform(2).draw(rng(spec.seed), spec.count + 100)
    colored = np.argwhere((img != 255).any(axis=2))
    assert len(colored) == 1
    assert tuple(img[tuple(colored[0])]) == PALETTE[syms[-1]]
    assert len(set(syms[100:].tolist())) == 2  # both colors were written there
