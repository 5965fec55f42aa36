"""Scalar minimization over grid scans: each grid-local minimum polished by Brent's method."""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

#: absolute part of the polishing tolerance
XTOL = 1e-14
_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0
_SQRT_EPS = float(np.sqrt(np.finfo(float).eps))


def uniform_grid(n: int) -> np.ndarray:
    """n points on [0, 1] computed as i/(n-1), so coarser grids share points bitwise."""
    if n < 2:
        raise ValueError("grid needs at least 2 points")
    return np.arange(n) / (n - 1)


def brent(
    f: Callable[[float], float],
    a: float,
    b: float,
    x: float,
    fx: float,
) -> tuple[float, float]:
    """Minimum of f on [a, b] by Brent's method, from a point x in [a, b] with known f(x).

    Parabolic interpolation through the three best points, with a golden-section
    step where the parabola leaves the bracket or fails to halve the step before
    last (Brent, *Algorithms for Minimization without Derivatives*, 1973, ch. 5).
    Stops when the bracket is within ``sqrt(eps) * |x| + XTOL / 3`` of x, or
    after 100 evaluations; x is always the best point evaluated, returned as
    (x, f(x)).
    """
    w = v = x
    fw = fv = fx
    d = e = 0.0
    for _ in range(100):
        m = 0.5 * (a + b)
        tol = _SQRT_EPS * abs(x) + XTOL / 3.0
        if abs(x - m) <= 2.0 * tol - 0.5 * (b - a):
            break
        p = q = 0.0
        if abs(e) > tol:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            p, q = (-p, q) if q > 0 else (p, -q)
        if abs(p) < abs(0.5 * q * e) and q * (a - x) < p < q * (b - x):
            e, d = d, p / q
            if (x + d) - a < 2.0 * tol or b - (x + d) < 2.0 * tol:
                d = tol if x < m else -tol
        else:
            e = (a if x >= m else b) - x
            d = (1.0 - _INVPHI) * e
        u = x + (d if abs(d) >= tol else np.copysign(tol, d))
        fu = f(u)
        if fu <= fx:
            a, b = (a, x) if u < x else (x, b)
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            a, b = (u, b) if u < x else (a, u)
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
    return float(x), float(fx)


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


def polished_minima(
    f: Callable[[float], float],
    xs: Sequence[float],
    values: Sequence[float],
) -> list[tuple[float, float]]:
    """Every grid-local minimum of ``values`` polished, ascending by value (ties keep grid order).

    Minimum ``i`` is polished by :func:`brent` over [x_{i-1}, x_{i+1}] from the grid point.
    """
    last = len(xs) - 1
    cands = [
        brent(f, float(xs[max(i - 1, 0)]), float(xs[min(i + 1, last)]), float(xs[i]), float(values[i]))
        for i in local_minima_indices(values)
    ]
    cands.sort(key=lambda c: c[1])
    return cands
