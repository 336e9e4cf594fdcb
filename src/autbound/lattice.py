"""Integer lattice computations behind the diagonal-stabilizer bound.

A diagonal matrix diag(c_0, ..., c_{N-1}) fixes f exactly when every
exponent row m of f satisfies prod c_j^(m_j) = 1, so the stabilizer is the
character group of Z^N modulo the row lattice of the exponent matrix;
when that matrix has full column rank the quotient is finite and its
structure is read off the Smith normal form.
"""

from __future__ import annotations

from dataclasses import dataclass

from .poly import HomogPoly, smoothness_necessary

__all__ = [
    "smith_normal_form",
    "DiagonalStabilizer",
    "RankDeficientError",
    "diagonal_stabilizer",
    "MinorReport",
    "exponent_minor_bound",
    "block_scalar_stabilizer",
]


class RankDeficientError(ValueError):
    """Exponent matrix has rank below the variable count, so the stabilizer
    is not finite; the smoothness precondition must have failed."""


def smith_normal_form(rows: list[list[int]]) -> list[int]:
    """Diagonal of the Smith normal form of an integer matrix.

    Returns min(nrows, ncols) entries d_1 | d_2 | ... (possibly zero).
    """
    a = [list(map(int, row)) for row in rows]
    if not a:
        return []
    nr, nc = len(a), len(a[0])
    diag = []
    top = 0
    while top < min(nr, nc):
        # find smallest nonzero pivot in the remaining block
        piv = None
        for i in range(top, nr):
            for j in range(top, nc):
                if a[i][j] and (piv is None or abs(a[i][j]) < abs(a[piv[0]][piv[1]])):
                    piv = (i, j)
        if piv is None:
            break
        i, j = piv
        a[top], a[i] = a[i], a[top]
        for row in a:
            row[top], row[j] = row[j], row[top]
        dirty = False
        p = a[top][top]
        for i in range(top + 1, nr):
            if a[i][top]:
                q = a[i][top] // p
                a[i] = [x - q * y for x, y in zip(a[i], a[top])]
                if a[i][top]:
                    dirty = True
        for j in range(top + 1, nc):
            if a[top][j]:
                q = a[top][j] // p
                for row in a:
                    row[j] -= q * row[top]
                if a[top][j]:
                    dirty = True
        if dirty:
            continue
        # pivot must divide every remaining entry; otherwise mix a row in
        offender = None
        for i in range(top + 1, nr):
            for j in range(top + 1, nc):
                if a[i][j] % p:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            a[top] = [x + y for x, y in zip(a[top], a[offender])]
            continue
        diag.append(abs(p))
        top += 1
    while len(diag) < min(nr, nc):
        diag.append(0)
    return diag


@dataclass(frozen=True)
class DiagonalStabilizer:
    order: int
    elementary_divisors: tuple[int, ...]


def _exponent_rows(f: HomogPoly) -> list[list[int]]:
    return [list(e) for e in f.monomials()]


def diagonal_stabilizer(f: HomogPoly) -> DiagonalStabilizer:
    """The finite group of diagonal matrices fixing f: the torsion group
    Z^N / (exponent row lattice), via Smith normal form."""
    report = smoothness_necessary(f)
    if not report.ok:
        raise RankDeficientError("smoothness-necessary monomials are missing")
    diag = smith_normal_form(_exponent_rows(f))
    if len(diag) < f.nvars or any(d == 0 for d in diag):
        raise RankDeficientError("exponent matrix is rank deficient")
    order = 1
    for d in diag:
        order *= d
    return DiagonalStabilizer(order=order, elementary_divisors=tuple(diag))


@dataclass(frozen=True)
class MinorReport:
    rows: tuple  # one exponent tuple per variable
    determinant: int
    bound: int  # d^N
    ok: bool


def _det_int(rows: list[list[int]]) -> int:
    """Integer determinant by fraction-free Bareiss elimination."""
    a = [list(map(int, r)) for r in rows]
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def exponent_minor_bound(f: HomogPoly) -> MinorReport:
    """The square minor built from each variable's special monomial.

    Row j is the witness x_j^d if present, otherwise the x_j^(d-1) x_k
    witness with the smallest k.  The determinant must lie in (0, d^N].
    """
    report = smoothness_necessary(f)
    if not report.ok:
        missing = [j for j in range(f.nvars) if report.witness(j) is None]
        raise RankDeficientError(f"no witness monomial for variables {missing}")
    rows = [list(report.witness(j)) for j in range(f.nvars)]
    det = _det_int(rows)
    bound = f.degree**f.nvars
    return MinorReport(
        rows=tuple(tuple(r) for r in rows),
        determinant=det,
        bound=bound,
        ok=0 < det <= bound,
    )


def block_scalar_stabilizer(f: HomogPoly, blocks: list[list[int]]) -> DiagonalStabilizer:
    """Stabilizer of f inside the block scalar matrices of the given
    decomposition.

    A block scalar matrix scales each monomial of f on its own, so it fixes
    f exactly when it fixes every monomial, and the stabilizer depends only
    on the collapsed exponent support: the monomials of f with each block's
    exponents summed.  That support, with coefficient 1 on each collapsed
    monomial, goes through the diagonal machinery; nothing can cancel.
    """
    if sorted(j for b in blocks for j in b) != list(range(f.nvars)):
        raise ValueError("blocks must partition the variables")
    support = {tuple(sum(expo[j] for j in block) for block in blocks) for expo in f.terms}
    return diagonal_stabilizer(HomogPoly(len(blocks), f.degree, dict.fromkeys(support, 1)))
