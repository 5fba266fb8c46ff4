"""Reference values for the modulus-5 quadrangle cover classification.

These are the published constants the pipeline is expected to reproduce:
the verify mode of the command line compares freshly computed results
against this table and fails on any drift.  Divisor classes are stored
as (h, e0, e1, e2, e3) coordinate tuples.
"""

ADMISSIBLE_COUNT = 201600

ORBIT_SIZES = (28800, 57600, 57600, 57600)  # as a multiset

S5_ORDER = 120
GL2_ORDER = 480
GROUP_ORDER = 57600

HOMOLOGY_RANK = 5
HOMOLOGY_TORSION = ()

# The four standard orbit representatives, 12 residues each.
REFERENCE_TUPLES = {
    "U1": (1, 0, 1, 0, 0, 1, 2, 1, 2, 1, 4, 2),
    "U2": (1, 0, 1, 0, 0, 1, 2, 1, 4, 2, 2, 1),
    "U3": (1, 0, 1, 0, 0, 1, 4, 1, 3, 2, 1, 1),
    "U4": (1, 0, 1, 0, 0, 1, 1, 1, 0, 3, 2, 0),
}

INVARIANTS = {
    "U1": {"k2": 45, "chi": 5, "pg": 6, "q": 2},
    "U2": {"k2": 45, "chi": 5, "pg": 6, "q": 2},
    "U3": {"k2": 45, "chi": 5, "pg": 4, "q": 0},
    "U4": {"k2": 45, "chi": 5, "pg": 6, "q": 2},
}

# Every ramification curve: self-intersection, K.R, genus.
RAM_CURVE = (-1, 3, 2)

# Character sheaf classes of the regular cover U3, keyed by (a, b).
SHEAF_TABLE_U3 = {
    (0, 0): (0, 0, 0, 0, 0),
    (1, 0): (2, 0, -1, -1, -1),
    (2, 0): (2, 0, -1, -1, 0),
    (3, 0): (3, -1, -2, -1, -1),
    (4, 0): (3, -1, -2, -1, 0),
    (0, 1): (1, 0, 0, 0, 0),
    (1, 1): (1, 0, 0, 0, 0),
    (2, 1): (3, -1, -1, -1, -1),
    (3, 1): (3, -1, -1, -2, -1),
    (4, 1): (3, -1, -1, -1, -1),
    (0, 2): (2, 0, -1, 0, -1),
    (1, 2): (2, 0, -1, -1, -1),
    (2, 2): (2, -1, -1, -1, 0),
    (3, 2): (3, -1, -1, -1, -1),
    (4, 2): (3, -2, -1, -1, -1),
    (0, 3): (2, 0, 0, -1, -1),
    (1, 3): (3, -1, -1, -1, -1),
    (2, 3): (2, -1, 0, 0, -1),
    (3, 3): (2, -1, 0, 0, 0),
    (4, 3): (4, -2, -1, -2, -2),
    (0, 4): (3, 0, -1, -1, -2),
    (1, 4): (2, -1, 0, 0, -1),
    (2, 4): (3, -1, -1, -1, -2),
    (3, 4): (3, -2, -1, -1, -1),
    (4, 4): (3, -2, -1, -1, 0),
}

# Branch residue rows (delta1..3, lambda1..3, mu0..3) of U3 for the four
# characters carrying canonical sections.
COEFF_ROWS_U3 = {
    (1, 3): (1, 1, 3, 2, 4, 4, 0, 4, 2, 4),
    (2, 1): (2, 2, 1, 4, 3, 3, 0, 3, 4, 3),
    (3, 2): (3, 3, 2, 4, 3, 0, 3, 1, 2, 4),
    (4, 1): (4, 4, 1, 2, 4, 0, 4, 3, 1, 2),
}

# Canonical system of U3: monomial exponents per character, the fixed
# part, and the resolved base points (pairs are configuration indices).
CANONICAL_U3 = {
    "basis": {
        (1, 3): (3, 3, 1, 2, 0, 0, 4, 0, 2, 0),
        (2, 1): (2, 2, 3, 0, 1, 1, 4, 1, 0, 1),
        (3, 2): (1, 1, 2, 0, 1, 4, 1, 3, 2, 0),
        (4, 1): (0, 0, 3, 2, 0, 4, 0, 1, 3, 2),
    },
    "fixed_part": (0, 0, 1, 0, 0, 0, 0, 0, 0, 0),
    "base_points": {
        (0, 3): (1, 1),
        (0, 7): (1, 1, 1),
        (1, 8): (2, 1, 1),
        (2, 6): (2, 1, 1),
        (5, 8): (1, 1),
    },
    "moving_selfint": 38,
    "type_square_sum": 19,
    "degree_product": 19,
}

COVER_RELATION_COUNT = 300
