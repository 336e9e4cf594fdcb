"""Reference answers the benchmark checks against.

Nothing here imports autbound: the numbers are the paper's printed values
or classical closed forms, so a wrong program cannot agree with them by
construction.
"""

from __future__ import annotations

import math
from fractions import Fraction

# Order triples (|G|, scalar subgroup order, projective image order) of the
# paper's exceptional examples.
EXAMPLE_TRIPLES = {
    "ex-1-4": (672, 4, 168),
    "ex-1-6": (2160, 6, 360),
    "ex-1-6-2": (1296, 6, 216),
    "ex-2-4": (7680, 4, 1920),
    "ex-2-6": (41472, 6, 6912),
    "ex-2-12": (1036800, 12, 86400),
    "ex-4-6": (39191040, 6, 6531840),
    "ex-4-12": (2239488000, 12, 186624000),
}

# Primitive groups outside the eight examples: Sp4(3) and the double covers
# 2.A7 and 2.S6 in dimension 4 have centre {+-1}; PSp4(3) in dimension 5 has
# trivial centre.
GROUP_TRIPLES = {
    "sp4-3": (51840, 2, 25920),
    "psp4-3": (25920, 1, 25920),
    "two-a7": (5040, 2, 2520),
    "two-s6": (1440, 2, 720),
    "binary-icosahedral": (120, 2, 60),
}

# Image of the three-block permutation action of ex-4-12 (all of S3).
EX_4_12_BLOCK_IMAGE = 6

# Smallest semi-invariant degrees printed by the paper.
SEMIINVARIANT_DEGREES = {
    "binary-icosahedral": 12,
    "binary-octahedral": 6,
    "binary-tetrahedral": 4,
    "icosahedral-rotation": 2,
    "klein-quartic-group": 4,
    "valentiner-group": 6,
    "hessian-sextic-group": 6,
    "two-s6": 8,
}

# Klein's Molien series as (numerator {degree: coeff}, denominator degrees):
# the series is numerator / prod (1 - t^d).
MOLIEN_CLOSED_FORMS = {
    "Q8": ({0: 1, 6: 1}, (4, 4)),
    "binary-tetrahedral": ({0: 1, 12: 1}, (6, 8)),
    "binary-octahedral": ({0: 1, 18: 1}, (8, 12)),
    "binary-icosahedral": ({0: 1, 30: 1}, (12, 20)),
    "icosahedral-rotation": ({0: 1, 15: 1}, (2, 6, 10)),
    # Klein's simple group of order 168 in SL3: invariants of degree 4, 6, 14, 21
    "klein-168": ({0: 1, 21: 1}, (4, 6, 14)),
    # Valentiner group 3.A6 x {+-1}: even invariants of degree 6, 12, 30
    "valentiner-group": ({0: 1}, (6, 12, 30)),
}

# Upper bounds Xi(N) on [G : Z(G)] for primitive G in GL_N at the
# exceptional dimensions; (N+1)! elsewhere and 1 for N = 1.
XI_EXCEPTIONAL = {
    2: 60, 3: 360, 4: 25920, 5: 25920, 6: 6531840,
    7: 1451520, 8: 348364800, 9: 4199040, 12: 448345497600,
}

# Table 2: (N, partition, largest exceptional degree, printed ratio
# B(pi, 3) / B((1^N), 3) to three significant figures).
TABLE2 = [
    (2, '(2)', 30, '10.0'), (3, '(3)', 7, '6.66'), (3, '(2,1)', 10, '3.33'), (4, '(4)', 10, '40.0'),
    (4, '(3,1)', 3, '1.67'), (4, '(2^2)', 17, '33.3'), (4, '(2,1^2)', 5, '1.67'), (5, '(5)', 3, '2.67'),
    (5, '(4,1)', 6, '8.00'), (5, '(3,2)', 5, '6.67'), (5, '(2^2,1)', 7, '6.67'), (5, '(2,1^3)', 3, '1.00'),
    (6, '(6)', 6, '37.3'), (6, '(4,2)', 6, '26.7'), (6, '(4,1^2)', 4, '2.67'), (6, '(3^2)', 4, '4.45'),
    (6, '(3,2,1)', 3, '1.11'), (6, '(2^3)', 12, '66.7'), (6, '(2^2,1^2)', 4, '2.22'), (7, '(6,1)', 4, '5.33'),
    (7, '(5,2)', 3, '1.27'), (7, '(4,3)', 4, '7.62'), (7, '(4,2,1)', 4, '3.81'), (7, '(4,1^3)', 3, '1.14'),
    (7, '(3,2^2)', 4, '6.35'), (7, '(2^3,1)', 6, '9.53'), (8, '(8)', 3, '3.95'), (8, '(6,2)', 4, '13.3'),
    (8, '(6,1^2)', 3, '1.33'), (8, '(4^2)', 5, '45.7'), (8, '(4,2^2)', 5, '19.0'), (8, '(3^2,2)', 3, '1.59'),
    (8, '(2^4)', 9, '95.2'), (8, '(2^3,1^2)', 4, '2.38'), (9, '(6,3)', 3, '2.96'), (9, '(6,2,1)', 3, '1.48'),
    (9, '(4^2,1)', 3, '5.08'), (9, '(4,3,2)', 3, '2.12'), (9, '(4,2^2,1)', 3, '2.12'), (9, '(3^3)', 3, '1.06'),
    (9, '(3,2^3)', 4, '5.29'), (9, '(2^4,1)', 5, '10.6'), (10, '(6,4)', 3, '7.11'), (10, '(6,2^2)', 3, '5.93'),
    (10, '(4^2,2)', 4, '10.2'), (10, '(4^2,1^2)', 3, '1.02'), (10, '(4,2^3)', 4, '12.7'), (10, '(2^5)', 7, '106'),
    (10, '(2^4,1^2)', 3, '2.12'), (11, '(4^2,3)', 3, '1.85'), (11, '(4,2^3,1)', 3, '1.15'), (11, '(3,2^4)', 3, '3.85'),
    (11, '(2^5,1)', 4, '9.62'), (12, '(6^2)', 3, '3.02'), (12, '(6,4,2)', 3, '1.08'), (12, '(6,2^3)', 3, '2.70'),
    (12, '(4^3)', 3, '11.1'), (12, '(4^2,2^2)', 3, '3.08'), (12, '(4,2^4)', 4, '7.70'), (12, '(2^6)', 6, '96.2'),
    (12, '(2^5,1^2)', 3, '1.60'), (13, '(3,2^5)', 3, '2.47'), (13, '(2^6,1)', 4, '7.40'), (14, '(6,2^4)', 3, '1.18'),
    (14, '(4^3,2)', 3, '1.22'), (14, '(4^2,2^3)', 3, '1.01'), (14, '(4,2^5)', 3, '4.23'), (14, '(2^7)', 5, '74.0'),
    (14, '(2^6,1^2)', 3, '1.06'), (15, '(3,2^6)', 3, '1.41'), (15, '(2^7,1)', 3, '4.93'), (16, '(4,2^6)', 3, '2.11'),
    (16, '(2^8)', 4, '49.3'), (17, '(2^8,1)', 3, '2.90'), (18, '(2^9)', 4, '29.0'), (19, '(2^9,1)', 3, '1.53'),
    (20, '(2^10)', 3, '15.3'), (22, '(2^11)', 3, '7.27'), (24, '(2^12)', 3, '3.16'), (26, '(2^13)', 3, '1.27'),
]


def xi(n: int) -> int:
    if n == 1:
        return 1
    return XI_EXCEPTIONAL.get(n, math.factorial(n + 1))


def bound(blocks, d: int) -> int:
    """B(pi, d): product of multiplicity factorials, Xi of each block, d^r."""
    out = d ** len(blocks)
    for b in set(blocks):
        out *= math.factorial(blocks.count(b))
    for b in blocks:
        out *= xi(b)
    return out


def fermat_triple(nvars: int, d: int) -> tuple[int, int, int]:
    """Coordinate permutations and d-th root scalings: N! d^N elements,
    scalars mu_d."""
    order = math.factorial(nvars) * d**nvars
    return order, d, order // d


def partition_counts(n_max: int) -> list[int]:
    """p(0..n_max) by Euler's pentagonal number recurrence."""
    p = [1] + [0] * n_max
    for n in range(1, n_max + 1):
        total, k = 0, 1
        while True:
            g1 = k * (3 * k - 1) // 2
            if g1 > n:
                break
            sign = 1 if k % 2 else -1
            total += sign * p[n - g1]
            g2 = k * (3 * k + 1) // 2
            if g2 <= n:
                total += sign * p[n - g2]
            k += 1
        p[n] = total
    return p


def molien_series(name: str, max_degree: int) -> tuple[int, ...]:
    """Power-series expansion of a closed form to degree max_degree."""
    numerator, degrees = MOLIEN_CLOSED_FORMS[name]
    coeffs = [0] * (max_degree + 1)
    for k, c in numerator.items():
        if k <= max_degree:
            coeffs[k] += c
    for d in degrees:  # multiply by 1 / (1 - t^d)
        for k in range(d, max_degree + 1):
            coeffs[k] += coeffs[k - d]
    return tuple(coeffs)


def printed_ratio_matches(computed: str, printed: str) -> bool:
    """Within one unit in the last printed digit (the paper truncates some
    ratios and rounds others)."""
    def scaled(s):
        head, _, tail = s.partition(".")
        return int(head + tail), len(tail)

    a, da = scaled(computed)
    b, db = scaled(printed)
    common = max(da, db)
    return abs(a * 10 ** (common - da) - b * 10 ** (common - db)) <= 10 ** (common - min(da, db))


def exact_det(rows) -> int:
    """Integer determinant by Gaussian elimination over the rationals."""
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a)
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            return 0
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        for r in range(col + 1, n):
            f = a[r][col] / a[col][col]
            a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return int(det)
