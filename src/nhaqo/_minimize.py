"""Scalar minimization helpers: golden-section refinement over grid scans."""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0


def uniform_grid(n: int) -> np.ndarray:
    """n points on [0, 1] computed as i/(n-1), so coarser grids share points bitwise."""
    if n < 2:
        raise ValueError("grid needs at least 2 points")
    return np.arange(n) / (n - 1)


def golden_section(
    f: Callable[[float], float],
    a: float,
    b: float,
    xtol: float = 1e-10,
    max_iter: int = 300,
) -> tuple[float, float]:
    """Minimum of a unimodal function on [a, b]; returns (x, f(x)).

    Tracks the best point ever evaluated, so cusp-shaped minima (such as a
    gap closing like sqrt|s - s0|) are located reliably as well.
    """
    fa, fb = f(a), f(b)
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    pts = [(fa, a), (fb, b), (fc, c), (fd, d)]
    best_f, best_x = min(pts, key=lambda t: t[0])
    it = 0
    while (b - a) > xtol and it < max_iter:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
            if fc < best_f:
                best_f, best_x = fc, c
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
            if fd < best_f:
                best_f, best_x = fd, d
        it += 1
    mid = 0.5 * (a + b)
    fm = f(mid)
    if fm < best_f:
        best_f, best_x = fm, mid
    return float(best_x), float(best_f)


def local_minima_indices(values: Sequence[float]) -> list[int]:
    """Indices of grid-local minima, boundaries included, plateaus deduplicated."""
    n = len(values)
    out: list[int] = []
    for i in range(n):
        left = values[i - 1] if i > 0 else np.inf
        right = values[i + 1] if i < n - 1 else np.inf
        if values[i] <= left and values[i] <= right:
            if out and out[-1] == i - 1 and values[i] == values[i - 1]:
                continue  # plateau: keep the first point only
            out.append(i)
    return out


def refine_minimum(
    f: Callable[[float], float],
    xs: Sequence[float],
    values: Sequence[float],
    i: int,
    xtol: float = 1e-10,
) -> tuple[float, float]:
    """Polish grid minimum ``i`` by golden-section search over its bracket."""
    n = len(xs)
    lo = xs[i - 1] if i > 0 else xs[i]
    hi = xs[i + 1] if i < n - 1 else xs[i]
    if lo == hi:
        return float(xs[i]), float(values[i])
    x, v = golden_section(f, float(lo), float(hi), xtol=xtol)
    if values[i] < v:
        return float(xs[i]), float(values[i])
    return x, v


def polished_minima(
    f: Callable[[float], float],
    xs: Sequence[float],
    values: Sequence[float],
    xtol: float,
) -> list[tuple[float, float]]:
    """Every grid-local minimum of ``values`` polished, ascending by value (ties keep grid order)."""
    cands = [refine_minimum(f, xs, values, i, xtol=xtol) for i in local_minima_indices(values)]
    cands.sort(key=lambda c: c[1])
    return cands


def minimize_on_grid(
    f: Callable[[float], float],
    xs: Sequence[float],
    xtol: float = 1e-10,
) -> tuple[float, float]:
    """Global scan over ``xs`` followed by golden-section refinement."""
    return polished_minima(f, xs, [f(float(x)) for x in xs], xtol)[0]
