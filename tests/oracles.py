"""Independent reference implementations used to generate and check expected
values. Deliberately naive: linear scans, per-pixel loops, two-pass means.
None of these share code with the package under test."""

import math


def argmin_nearest(grid, center):
    """Exhaustive linear scan over all bands; first minimum wins."""
    best_j = 0
    best_d = abs(grid[0] - center)
    for j in range(1, len(grid)):
        d = abs(grid[j] - center)
        if d < best_d:
            best_j, best_d = j, d
    return best_j, best_d


def interp_column(table_grid, table_col, wavelength):
    """Piecewise-linear interpolation, zero outside the tabulated range."""
    if wavelength < table_grid[0] or wavelength > table_grid[-1]:
        return 0.0
    for i in range(len(table_grid) - 1):
        x0, x1 = table_grid[i], table_grid[i + 1]
        if x0 <= wavelength <= x1:
            if wavelength == x0:
                return table_col[i]
            if wavelength == x1:
                return table_col[i + 1]
            t = (wavelength - x0) / (x1 - x0)
            return table_col[i] * (1 - t) + table_col[i + 1] * t
    return table_col[-1]


def normalized_weight_column(grid, table_grid, table_col):
    """Evaluate-then-normalize: sample the tabulated response at each input
    band center, then divide by the sum."""
    raw = [interp_column(table_grid, table_col, lam) for lam in grid]
    s = sum(raw)
    if s == 0.0:
        raise ZeroDivisionError("empty support")
    return [r / s for r in raw]


def resample_pixel(spectrum, columns):
    """Plain per-band weighted sums for one pixel; columns is a list of K
    weight columns of length C."""
    return [sum(spectrum[j] * col[j] for j in range(len(spectrum))) for col in columns]


def resample_cube_loops(data, weights):
    """Unvectorized triple loop over H, W, K with an inner dot product.

    data: nested lists H×W×C; weights: C×K nested lists.
    """
    h = len(data)
    w = len(data[0])
    c = len(data[0][0])
    k = len(weights[0])
    out = [[[0.0] * k for _ in range(w)] for _ in range(h)]
    for i in range(h):
        for j in range(w):
            for b in range(k):
                acc = 0.0
                for m in range(c):
                    acc += data[i][j][m] * weights[m][b]
                out[i][j][b] = acc
    return out


def confusion_tally(pred, truth, n_classes, ignore_value):
    """Per-pixel tally into a nested-list matrix. Returns (counts, ignored),
    or None when a kept truth label or a kept prediction is outside
    [0, n_classes)."""
    counts = [[0] * n_classes for _ in range(n_classes)]
    ignored = 0
    for prow, trow in zip(pred, truth):
        for p, t in zip(prow, trow):
            if t == ignore_value:
                ignored += 1
            elif 0 <= t < n_classes and 0 <= p < n_classes:
                counts[t][p] += 1
            else:
                return None
    return counts, ignored


def two_pass_baseline(columns):
    """Mean, then average squared deviation, one column at a time."""
    out = []
    for col in columns:
        mean = sum(col) / len(col)
        out.append(sum((v - mean) ** 2 for v in col) / len(col))
    return out


def gaussian_line(lam, continuum, center, depth, fwhm):
    return continuum - depth * math.exp(-4.0 * math.log(2.0) * ((lam - center) / fwhm) ** 2)
