"""Square matrices over cyclotomic fields, plus flat mod-p matrix helpers.

All entries of a CycloMatrix live at one common conductor, so equality and
hashing reduce to comparing coefficient tuples; that is the canonical key
the group-closure hash sets use.
"""

from __future__ import annotations

import math

from .cyclo import Cyc, QQ, ReductionMap, reduce_mod

__all__ = ["CycloMatrix", "identity_mod", "mat_mul_mod", "charpoly_mod", "mat_inv_mod", "mat_vec_mod"]


def _as_cyc(x) -> Cyc:
    if isinstance(x, Cyc):
        return x
    return Cyc.from_rational(QQ(x))


class CycloMatrix:
    __slots__ = ("n", "m", "rows")

    def __init__(self, rows, conductor: int | None = None):
        rows = [[_as_cyc(x) for x in row] for row in rows]
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise ValueError("matrix must be square")
        m = conductor or 1
        for row in rows:
            for x in row:
                m = m * x.m // math.gcd(m, x.m)
        self.n = n
        self.m = m
        self.rows = tuple(tuple(x.to_conductor(m) for x in row) for row in rows)

    @staticmethod
    def identity(n: int, conductor: int = 1) -> "CycloMatrix":
        one = Cyc.one(conductor)
        zero = Cyc.zero(conductor)
        return CycloMatrix([[one if i == j else zero for j in range(n)] for i in range(n)])

    @staticmethod
    def scalar(n: int, value: Cyc) -> "CycloMatrix":
        zero = Cyc.zero(value.m)
        return CycloMatrix([[value if i == j else zero for j in range(n)] for i in range(n)])

    def to_conductor(self, big_m: int) -> "CycloMatrix":
        if big_m == self.m:
            return self
        return CycloMatrix([[x.to_conductor(big_m) for x in row] for row in self.rows], conductor=big_m)

    def key(self):
        """Canonical hashable key (valid among matrices at equal conductor)."""
        return tuple(x.c for row in self.rows for x in row)

    def __eq__(self, other):
        if not isinstance(other, CycloMatrix):
            return NotImplemented
        if self.n != other.n:
            return False
        m = self.m * other.m // math.gcd(self.m, other.m)
        return self.to_conductor(m).key() == other.to_conductor(m).key()

    __hash__ = None

    def __matmul__(self, other: "CycloMatrix") -> "CycloMatrix":
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        m = self.m * other.m // math.gcd(self.m, other.m)
        a = self.to_conductor(m).rows
        b = other.to_conductor(m).rows
        n = self.n
        bt = tuple(tuple(b[k][j] for k in range(n)) for j in range(n))
        out = []
        for i in range(n):
            arow = a[i]
            orow = []
            for j in range(n):
                bcol = bt[j]
                acc = arow[0] * bcol[0]
                for k in range(1, n):
                    acc = acc + arow[k] * bcol[k]
                orow.append(acc)
            out.append(orow)
        return CycloMatrix(out, conductor=m)

    def __mul__(self, scalar) -> "CycloMatrix":
        s = _as_cyc(scalar)
        return CycloMatrix([[x * s for x in row] for row in self.rows])

    __rmul__ = __mul__

    def __neg__(self):
        return CycloMatrix([[-x for x in row] for row in self.rows], conductor=self.m)

    def trace(self) -> Cyc:
        t = self.rows[0][0]
        for i in range(1, self.n):
            t = t + self.rows[i][i]
        return t

    def is_scalar(self) -> bool:
        d = self.rows[0][0]
        for i in range(self.n):
            for j in range(self.n):
                x = self.rows[i][j]
                if i == j:
                    if not x == d:
                        return False
                elif not x.is_zero():
                    return False
        return True

    def is_identity(self) -> bool:
        return self.is_scalar() and self.rows[0][0] == Cyc.one(self.m)

    def det(self) -> Cyc:
        """Exact determinant by fraction-free-enough Gaussian elimination."""
        n = self.n
        a = [list(row) for row in self.rows]
        det = Cyc.one(self.m)
        for col in range(n):
            piv = None
            for r in range(col, n):
                if not a[r][col].is_zero():
                    piv = r
                    break
            if piv is None:
                return Cyc.zero(self.m)
            if piv != col:
                a[col], a[piv] = a[piv], a[col]
                det = -det
            pivot = a[col][col]
            det = det * pivot
            inv = pivot.inverse()
            for r in range(col + 1, n):
                f = a[r][col]
                if not f.is_zero():
                    f = f * inv
                    a[r] = [x - f * y for x, y in zip(a[r], a[col])]
        return det

    def inverse(self) -> "CycloMatrix":
        n = self.n
        a = [list(row) + [Cyc.one(self.m) if i == j else Cyc.zero(self.m) for j in range(n)] for i, row in enumerate(self.rows)]
        for col in range(n):
            piv = None
            for r in range(col, n):
                if not a[r][col].is_zero():
                    piv = r
                    break
            if piv is None:
                raise ZeroDivisionError("singular matrix")
            a[col], a[piv] = a[piv], a[col]
            inv = a[col][col].inverse()
            a[col] = [x * inv for x in a[col]]
            for r in range(n):
                if r != col and not a[r][col].is_zero():
                    f = a[r][col]
                    a[r] = [x - f * y for x, y in zip(a[r], a[col])]
        return CycloMatrix([row[n:] for row in a], conductor=self.m)

    def charpoly(self) -> list[Cyc]:
        """Coefficients of det(tI - M), ascending in t, monic."""
        n = self.n
        one = Cyc.one(self.m)
        coeffs_desc = [one]  # c_n, c_{n-1}, ..., c_0
        mk = self
        for k in range(1, n + 1):
            ck = -(mk.trace() * QQ(1, k))
            coeffs_desc.append(ck)
            if k < n:
                mk = self @ (mk + CycloMatrix.scalar(n, ck).to_conductor(mk.m))
        return list(reversed(coeffs_desc))

    def __add__(self, other: "CycloMatrix") -> "CycloMatrix":
        m = self.m * other.m // math.gcd(self.m, other.m)
        a = self.to_conductor(m).rows
        b = other.to_conductor(m).rows
        return CycloMatrix([[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)], conductor=m)

    def __pow__(self, k: int) -> "CycloMatrix":
        if k < 0:
            return self.inverse() ** (-k)
        result = CycloMatrix.identity(self.n, self.m)
        base = self
        while k:
            if k & 1:
                result = result @ base
            k >>= 1
            if k:
                base = base @ base
        return result

    def reduce(self, rmap: ReductionMap) -> tuple[int, ...]:
        """Flat row-major image in F_p."""
        return tuple(reduce_mod(x, rmap) for row in self.rows for x in row)

    def entries(self):
        return self.rows

    def __repr__(self):
        return f"CycloMatrix({self.n}x{self.n}, conductor={self.m})"


# -- flat mod-p matrices (row-major int tuples) --------------------------


def identity_mod(n: int) -> tuple[int, ...]:
    return tuple(1 if i == j else 0 for i in range(n) for j in range(n))


def mat_mul_mod(a, b, n: int, p: int) -> tuple[int, ...]:
    out = []
    rng = range(n)
    for i in rng:
        arow = a[i * n : (i + 1) * n]
        for j in rng:
            s = 0
            for k in rng:
                s += arow[k] * b[k * n + j]
            out.append(s % p)
    return tuple(out)


def charpoly_mod(a, n: int, p: int) -> tuple[int, ...]:
    """det(tI - A) mod p by Faddeev-LeVerrier, monic, descending in t.

    Read in the same order, the coefficients ascend in t for det(I - tA).
    The recurrence divides by 1..n, so p must exceed n.
    """
    diag = range(0, n * n, n + 1)
    coeffs = [1]
    am = a  # A M_k, where M_1 = I and M_{k+1} = A M_k + c_{n-k} I
    mk = identity_mod(n)
    for k in range(1, n):
        c = -sum(am[i] for i in diag) * pow(k, p - 2, p) % p  # c_{n-k} = -tr(A M_k) / k
        coeffs.append(c)
        mk = list(am)
        for i in diag:
            mk[i] += c
        if k < n - 1:
            am = mat_mul_mod(a, mk, n, p)
    # c_0 reads only the trace of A M_n, which needs no full product
    trace = sum(a[i * n + j] * mk[j * n + i] for i in range(n) for j in range(n))
    coeffs.append(-trace * pow(n, p - 2, p) % p)
    return tuple(coeffs)


def mat_vec_mod(a, v, n: int, p: int) -> tuple[int, ...]:
    return tuple(sum(a[i * n + k] * v[k] for k in range(n)) % p for i in range(n))


def mat_inv_mod(a, n: int, p: int) -> tuple[int, ...]:
    aug = [[a[i * n + j] for j in range(n)] + [1 if i == j else 0 for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] % p), None)
        if piv is None:
            raise ZeroDivisionError("singular matrix mod p")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = pow(aug[col][col], p - 2, p)
        aug[col] = [(x * inv) % p for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [(x - f * y) % p for x, y in zip(aug[r], aug[col])]
    return tuple(aug[i][n + j] for i in range(n) for j in range(n))
