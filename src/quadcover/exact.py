"""Exact linear algebra over Z for small matrices.

Everything here works on lists of Python ints, so results are certified
rather than sampled: Smith normal form with its unimodular transforms,
and solvability of integer linear systems.
"""

from __future__ import annotations


def _identity(k):
    return [[1 if i == j else 0 for j in range(k)] for i in range(k)]


def _swap_rows(m, i, j):
    m[i], m[j] = m[j], m[i]


def _swap_cols(m, i, j):
    for row in m:
        row[i], row[j] = row[j], row[i]


def _add_row(m, dst, src, c):
    m[dst] = [x + c * y for x, y in zip(m[dst], m[src])]


def _add_col(m, dst, src, c):
    for row in m:
        row[dst] += c * row[src]


def _scale_row(m, i, c):
    m[i] = [c * x for x in m[i]]


def smith_normal_form(a):
    """Smith normal form of an integer matrix.

    Returns (d, u, v) with u*a*v = d, where u and v are unimodular and d
    is diagonal with d[0][0] | d[1][1] | ... and nonnegative entries.
    """
    rows = len(a)
    cols = len(a[0]) if rows else 0
    d = [[int(x) for x in row] for row in a]
    u = _identity(rows)
    v = _identity(cols)

    def pivot_search(t):
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                if d[i][j] and (best is None or abs(d[i][j]) < abs(d[best[0]][best[1]])):
                    best = (i, j)
        return best

    t = 0
    while True:
        pos = pivot_search(t)
        if pos is None:
            break
        i, j = pos
        if i != t:
            _swap_rows(d, t, i)
            _swap_rows(u, t, i)
        if j != t:
            _swap_cols(d, t, j)
            _swap_cols(v, t, j)
        dirty = False
        for i in range(t + 1, rows):
            if d[i][t]:
                q = d[i][t] // d[t][t]
                _add_row(d, i, t, -q)
                _add_row(u, i, t, -q)
                if d[i][t]:
                    dirty = True
        for j in range(t + 1, cols):
            if d[t][j]:
                q = d[t][j] // d[t][t]
                _add_col(d, j, t, -q)
                _add_col(v, j, t, -q)
                if d[t][j]:
                    dirty = True
        if dirty:
            continue
        # pivot now divides its row and column; enforce divisibility of
        # the remaining block by folding a bad row into the pivot row
        bad = None
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if d[i][j] % d[t][t]:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            _add_row(d, t, bad, 1)
            _add_row(u, t, bad, 1)
            continue
        t += 1

    for i in range(min(rows, cols)):
        if d[i][i] < 0:
            _scale_row(d, i, -1)
            _scale_row(u, i, -1)
    return d, u, v


def invariant_factors(a) -> tuple[int, ...]:
    """Nonzero diagonal entries of the Smith normal form, in order."""
    d, _, _ = smith_normal_form(a)
    k = min(len(d), len(d[0]) if d else 0)
    return tuple(d[i][i] for i in range(k) if d[i][i])


def in_image(a, b) -> bool:
    """Whether the integer vector b lies in the image of the integer
    matrix a (columns as generators), i.e. a*x = b is solvable over Z."""
    d, u, _ = smith_normal_form(a)
    c = [sum(u[i][j] * b[j] for j in range(len(b))) for i in range(len(u))]
    cols = len(a[0]) if a else 0
    for i, ci in enumerate(c):
        di = d[i][i] if i < min(len(d), cols) else 0
        if di == 0:
            if ci != 0:
                return False
        elif ci % di:
            return False
    return True
