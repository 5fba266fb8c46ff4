"""Exact arithmetic over Z/nZ: scalars, 2-vectors, and small matrices.

The default modulus is 5.  Scalars are plain Python ints reduced to the
fixed representative system {0, ..., n-1}; 2-vectors are pairs of such
ints.  Matrices are immutable, hashable wrappers around small numpy
arrays, suitable as elements of multiplicative closures.
"""

from __future__ import annotations

from math import isqrt

import numpy as np

Vec2 = tuple[int, int]

DEFAULT_MODULUS = 5


def is_prime(k) -> bool:
    return k >= 2 and all(k % d for d in range(2, isqrt(k) + 1))


def require_prime(n):
    """n itself when it is a prime below 2^31, a bound that keeps trial
    division short; no table of the package admits n above 1930."""
    if n >= 1 << 31:
        raise ValueError(f"modulus {n} is not below 2^31")
    if not is_prime(n):
        raise ValueError(f"modulus {n} is not prime")
    return n


def gl2_order(n=DEFAULT_MODULUS) -> int:
    """Order of GL(2, Z/n), n prime: (n^2 - 1)(n^2 - n)."""
    require_prime(n)
    return (n * n - 1) * (n * n - n)


def reduce_vec(v, n=DEFAULT_MODULUS) -> Vec2:
    return (v[0] % n, v[1] % n)


def is_integer(x) -> bool:
    """Whether x, of any type (6.0, Fraction(12, 2), Decimal("6")), equals an integer."""
    try:
        return x == int(x)
    except (ValueError, OverflowError):  # int() of NaN or of an infinity
        return False


def reduce_rows(rows, n=DEFAULT_MODULUS) -> np.ndarray:
    """Rows as residues below n, the range check of every reader of rows:
    an integer array keeps its dtype when that holds n, anything else
    becomes int64 (OverflowError beyond it, ValueError at a residue that
    is_integer refuses).  A negative residue reads as a huge unsigned one,
    so one max bounds both sides; out-of-range rows are reduced in a copy."""
    kept = isinstance(rows, np.ndarray) and rows.dtype.kind in "iu"
    if not kept or n >= 1 << (8 * rows.itemsize - 1):
        given = np.asarray(rows)
        if given.dtype.kind not in "iu":
            # each residue as given, not rounded to a common dtype: an int among floats stays exact
            values = (given if rows is given else np.asarray(rows, dtype=object)).ravel()
            if bad := [x for x in values if not is_integer(x)]:
                raise ValueError(f"residue {bad[0]!s} is not an integer")
            given = np.fromiter(map(int, values), dtype=np.int64, count=values.size).reshape(given.shape)
        rows = given if given.dtype == np.int64 else np.asarray(rows, dtype=np.int64)
    if rows.size and rows.view(f"u{rows.itemsize}").max() >= n:
        rows = rows % n
    return rows


def frozen(array) -> np.ndarray:
    """array itself, made read-only with every array it is a view of, as
    every array a cached table holds is."""
    base = array
    while isinstance(base, np.ndarray):
        base.flags.writeable = False
        base = base.base
    return array


def vectors(n=DEFAULT_MODULUS) -> tuple[Vec2, ...]:
    """All of (Z/n)^2 in lexicographic order."""
    return tuple((x, y) for x in range(n) for y in range(n))


def nonzero_vectors(n=DEFAULT_MODULUS) -> tuple[Vec2, ...]:
    return tuple(v for v in vectors(n) if v != (0, 0))


class Mat:
    """Immutable, hashable k x k matrix over Z/n, n <= 32767, its entries
    read through reduce_rows and kept as int16: * is the product mod n and
    apply_rows acts on rows, all the closure and orbit machinery needs."""

    __slots__ = ("array", "n", "_key")

    def __init__(self, entries, n=DEFAULT_MODULUS):
        if n > 32767:
            raise ValueError(f"modulus {n} is above 32767, the int16 entry bound")
        a = reduce_rows(entries, n)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        self.array = frozen(a.astype(np.int16))
        self.n = n
        self._key = (n, a.shape[0], self.array.tobytes())

    @classmethod
    def identity(cls, k, n=DEFAULT_MODULUS):
        return cls(np.eye(k, dtype=np.int16), n)

    @classmethod
    def block_diagonal(cls, block, copies, n=DEFAULT_MODULUS):
        return cls(np.kron(np.eye(copies, dtype=np.int64), np.asarray(block, dtype=np.int64)), n)

    @property
    def size(self):
        return self.array.shape[0]

    def __mul__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        if other.n != self.n:
            raise ValueError("modulus mismatch")
        return Mat(self.array.astype(np.int64) @ other.array, self.n)

    def apply_rows(self, rows):
        """Apply to every row of an (N, k) array; returns an (N, k) array."""
        return reduce_rows(rows, self.n).astype(np.int64, copy=False) @ self.array.T % self.n

    def det(self) -> int:
        if self.size != 2:
            raise ValueError("det is only provided for 2x2 matrices")
        (a, b), (c, d) = self.array.tolist()
        return (a * d - b * c) % self.n

    def __eq__(self, other):
        return isinstance(other, Mat) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        rows = ",".join("[" + " ".join(str(int(x)) for x in r) + "]" for r in self.array)
        return f"Mat({rows} mod {self.n})"


def gl2_array(n=DEFAULT_MODULUS) -> np.ndarray:
    """All invertible 2x2 matrices over Z/n (n prime) as a (k, 2, 2) array,
    lexicographic in the entries (a, b, c, d); k = gl2_order(n)."""
    require_prime(n)
    a, b, c, d = np.indices((n, n, n, n)).reshape(4, -1)
    keep = (a * d - b * c) % n != 0
    return np.stack([a, b, c, d], axis=1)[keep].reshape(-1, 2, 2)


def gl2_enumerate(n=DEFAULT_MODULUS) -> list[Mat]:
    """All invertible 2x2 matrices over Z/n (n prime), each exactly once."""
    return [Mat(m, n) for m in gl2_array(n)]


def inverses(n) -> np.ndarray:
    """The inverse of each residue mod n, n prime, as an int64 array; 0 reads 0."""
    require_prime(n)
    return np.array([pow(v, -1, n) if v else 0 for v in range(n)])


def primitive_root(n) -> int:
    """Smallest generator of the multiplicative group of Z/n, n prime: the
    least g with n - 1 distinct powers."""
    require_prime(n)
    return next(g for g in range(1, n) if len({pow(g, k, n) for k in range(1, n)}) == n - 1)


def gl2_generators(n=DEFAULT_MODULUS) -> tuple[Mat, ...]:
    """A small generating set of GL(2, Z/n): a scaling by a primitive
    root, a transvection, and the coordinate swap."""
    r = primitive_root(n)
    gens = [Mat([[r, 0], [0, 1]], n), Mat([[1, 1], [0, 1]], n), Mat([[0, 1], [1, 0]], n)]
    return tuple(dict.fromkeys(gens))
