"""Exact linear algebra over Z for small matrices.

Everything here works on lists of Python ints, so results are certified
rather than sampled: invariant factors, and membership in a column lattice.
"""

from __future__ import annotations


def invariant_factors(a) -> tuple[int, ...]:
    """Nonzero diagonal entries of the Smith normal form, in order: the
    positive d1 | ... | dk with coker(a) = Z^(rows - k) + Z/d1 + ... + Z/dk.

    Eliminates without transforms: an entry of least absolute value reduces
    its row and column until no remainder is left; a row with an entry it
    does not divide is then added to the pivot row, else |pivot| is the next
    factor and its row and column are deleted.
    """
    m = [[int(x) for x in row] for row in a]
    factors = []
    while any(any(row) for row in m):
        _, i, j = min((abs(x), i, j) for i, row in enumerate(m) for j, x in enumerate(row) if x)
        pivot_row, p = m[i], m[i][j]
        for k, row in enumerate(m):
            if k != i and row[j]:
                q = row[j] // p
                m[k] = [x - q * y for x, y in zip(row, pivot_row)]
        for col, x in enumerate(pivot_row):
            if col != j and x:
                q = x // p
                for row in m:
                    row[col] -= q * row[j]
        if any(row[j] for row in m if row is not pivot_row) or sum(map(bool, pivot_row)) > 1:
            continue
        bad = next((row for row in m if any(x % p for x in row)), None)
        if bad is not None:
            m[i] = [x + y for x, y in zip(pivot_row, bad)]
            continue
        factors.append(abs(p))
        del m[i]
        for row in m:
            del row[j]
    return tuple(factors)


def in_image(a, b) -> bool:
    """Whether b, an integer vector or an integer matrix of columns, lies
    in the image of the integer matrix a (columns as generators), i.e.
    a*x = b is solvable over Z.

    Appending the columns of b maps coker(a) onto coker([a | b]), and the
    kernel is generated by their classes.  A finitely generated abelian
    group is isomorphic to no proper quotient of itself, so b lies in the
    image exactly when the two matrices have the same invariant factors.
    """
    columns = [row if isinstance(row, (list, tuple)) else [row] for row in b]
    return invariant_factors(a) == invariant_factors([[*r, *x] for r, x in zip(a, columns, strict=True)])
