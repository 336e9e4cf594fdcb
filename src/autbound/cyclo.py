"""Exact arithmetic in cyclotomic fields Q(zeta_m), plus reduction to prime fields.

Elements are represented by their coordinate vector in the power basis
1, z, ..., z^(phi(m)-1) of Q(zeta_m) modulo the m-th cyclotomic polynomial.
This representation is canonical: two elements at the same conductor are
equal iff their coefficient tuples are equal, which is what the group
closure hash sets downstream rely on.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

try:
    from gmpy2 import mpq as QQ
except ImportError:  # pragma: no cover
    from fractions import Fraction as QQ

__all__ = [
    "QQ",
    "Cyc",
    "ReductionMap",
    "NonInvertibleDenominator",
    "PrimeSearchExhausted",
    "euler_phi",
    "cyclotomic_polynomial",
    "zeta",
    "rational",
    "find_reduction_prime",
    "reduce_mod",
    "parse_literal",
    "format_literal",
]

_ZERO = QQ(0)
_ONE = QQ(1)
_RAT_TYPES = (int, type(QQ(1)))


class NonInvertibleDenominator(ValueError):
    """A denominator is divisible by the reduction prime."""


class PrimeSearchExhausted(RuntimeError):
    """No usable reduction prime found below the configured search cap."""


def euler_phi(m: int) -> int:
    if m < 1:
        raise ValueError("conductor must be positive")
    result = m
    n = m
    p = 2
    while p * p <= n:
        if n % p == 0:
            while n % p == 0:
                n //= p
            result -= result // p
        p += 1
    if n > 1:
        result -= result // n
    return result


def _poly_divide_exact(num: list[int], den: list[int]) -> list[int]:
    """Exact division of integer polynomials (ascending coefficients)."""
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for i in range(len(out) - 1, -1, -1):
        c = num[i + len(den) - 1]
        if c % den[-1] != 0:
            raise ArithmeticError("non-exact polynomial division")
        q = c // den[-1]
        out[i] = q
        for j, d in enumerate(den):
            num[i + j] -= q * d
    if any(num):
        raise ArithmeticError("non-exact polynomial division")
    return out


def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_m, ascending, monic."""
    return _field(m).phi_poly


def _poly_deg(p) -> int:
    for i in range(len(p) - 1, -1, -1):
        if p[i]:
            return i
    return -1


def _poly_trim(p):
    d = _poly_deg(p)
    return list(p[: d + 1])


def _poly_sub(a, b):
    n = max(len(a), len(b))
    out = [_ZERO] * n
    for i, x in enumerate(a):
        out[i] = out[i] + x
    for i, x in enumerate(b):
        out[i] = out[i] - x
    return _poly_trim(out)


def _poly_mul(a, b):
    if not a or not b:
        return []
    out = [_ZERO] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] = out[i + j] + x * y
    return _poly_trim(out)


def _poly_divmod(a, b):
    """Quotient and remainder of rational-coefficient polynomials."""
    a = list(a)
    db = _poly_deg(b)
    da = _poly_deg(a)
    if da < db:
        return [], _poly_trim(a)
    q = [_ZERO] * (da - db + 1)
    inv_lead = 1 / QQ(b[db])
    for i in range(da - db, -1, -1):
        c = a[i + db] * inv_lead
        if c:
            q[i] = c
            for j in range(db + 1):
                a[i + j] -= c * b[j]
    return q, _poly_trim(a)


class _Field:
    """Cached per-conductor data: Phi_m and power-reduction rows.

    pow_rows[k] is the coefficient vector of z^k reduced mod Phi_m, for
    0 <= k <= max(2*phi-2, m).  The range covers both products of two
    reduced elements and embeddings from divisor conductors.
    """

    __slots__ = ("m", "phi", "phi_poly", "pow_rows")

    def __init__(self, m: int):
        self.m = m
        self.phi = euler_phi(m)
        poly = [-1] + [0] * (m - 1) + [1]  # x^m - 1
        for d in range(1, m):
            if m % d == 0:
                poly = _poly_divide_exact(poly, list(_field(d).phi_poly))
        self.phi_poly = tuple(poly)
        phi = self.phi
        limit = max(2 * phi - 2, m)
        rows: list[tuple[int, ...]] = []
        for k in range(phi):
            rows.append(tuple(1 if i == k else 0 for i in range(phi)))
        for k in range(phi, limit + 1):
            prev = rows[k - 1]
            top = prev[phi - 1]
            row = [0] * phi
            for i in range(1, phi):
                row[i] = prev[i - 1]
            if top:
                for i in range(phi):
                    row[i] -= top * poly[i]
            rows.append(tuple(row))
        self.pow_rows = rows


_FIELD_CACHE: dict[int, _Field] = {}


def _field(m: int) -> _Field:
    f = _FIELD_CACHE.get(m)
    if f is None:
        f = _Field(m)
        _FIELD_CACHE[m] = f
    return f


class Cyc:
    """An element of Q(zeta_m) in the canonical power basis.

    Immutable; all operations are pure.  Mixed-conductor arithmetic lifts
    both operands to the lcm of their conductors.
    """

    __slots__ = ("m", "c")
    __hash__ = None  # keyed externally via .c at a fixed common conductor

    def __init__(self, m: int, coeffs):
        self.m = m
        self.c = tuple(coeffs)
        if len(self.c) != _field(m).phi:
            raise ValueError("coefficient vector has wrong length")

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(m: int = 1) -> "Cyc":
        return Cyc(m, [_ZERO] * _field(m).phi)

    @staticmethod
    def one(m: int = 1) -> "Cyc":
        return Cyc(m, [_ONE] + [_ZERO] * (_field(m).phi - 1))

    @staticmethod
    def from_rational(q, m: int = 1) -> "Cyc":
        q = QQ(q)
        return Cyc(m, [q] + [_ZERO] * (_field(m).phi - 1))

    @staticmethod
    def root_of_unity(m: int, k: int = 1) -> "Cyc":
        """zeta_m^k."""
        F = _field(m)
        row = F.pow_rows[k % m]
        return Cyc(m, [QQ(x) for x in row])

    # -- structure ----------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.c)

    def is_rational(self) -> bool:
        return not any(self.c[1:])

    def rational_value(self):
        if not self.is_rational():
            raise ValueError("not a rational element")
        return self.c[0]

    def to_conductor(self, big_m: int) -> "Cyc":
        """Embed into Q(zeta_M) for m | M via zeta_m = zeta_M^(M/m)."""
        if big_m == self.m:
            return self
        if big_m % self.m != 0:
            raise ValueError("target conductor must be a multiple")
        F = _field(big_m)
        step = big_m // self.m
        out = [_ZERO] * F.phi
        for k, ck in enumerate(self.c):
            if ck:
                row = F.pow_rows[k * step]
                for i, r in enumerate(row):
                    if r:
                        out[i] = out[i] + ck * r
        return Cyc(big_m, out)

    def try_conductor(self, small_m: int) -> "Cyc | None":
        """Rewrite at a divisor conductor, or None if not in that subfield."""
        if small_m == self.m:
            return self
        if self.m % small_m != 0:
            raise ValueError("target conductor must divide the current one")
        phi_s = _field(small_m).phi
        basis = [Cyc.root_of_unity(small_m, k).to_conductor(self.m).c for k in range(phi_s)]
        # Solve sum_j x_j basis[j] = self.c by Gaussian elimination.
        rows = [[basis[j][i] for j in range(phi_s)] + [self.c[i]] for i in range(len(self.c))]
        ncols = phi_s
        pivot_row = 0
        pivots = []
        for col in range(ncols):
            sel = None
            for r in range(pivot_row, len(rows)):
                if rows[r][col]:
                    sel = r
                    break
            if sel is None:
                continue
            rows[pivot_row], rows[sel] = rows[sel], rows[pivot_row]
            pr = rows[pivot_row]
            inv = 1 / QQ(pr[col])
            rows[pivot_row] = pr = [x * inv for x in pr]
            for r in range(len(rows)):
                if r != pivot_row and rows[r][col]:
                    f = rows[r][col]
                    rows[r] = [a - f * b for a, b in zip(rows[r], pr)]
            pivots.append(col)
            pivot_row += 1
        for r in range(pivot_row, len(rows)):
            if rows[r][ncols]:
                return None
        sol = [_ZERO] * ncols
        for i, col in enumerate(pivots):
            sol[col] = rows[i][ncols]
        return Cyc(small_m, sol)

    # -- arithmetic ---------------------------------------------------

    def _common(self, other: "Cyc"):
        if self.m == other.m:
            return self, other
        m = self.m * other.m // math.gcd(self.m, other.m)
        return self.to_conductor(m), other.to_conductor(m)

    def __eq__(self, other):
        if isinstance(other, _RAT_TYPES):
            other = Cyc.from_rational(other)
        if not isinstance(other, Cyc):
            return NotImplemented
        a, b = self._common(other)
        return a.c == b.c

    def __add__(self, other):
        if isinstance(other, _RAT_TYPES):
            other = Cyc.from_rational(other)
        a, b = self._common(other)
        return Cyc(a.m, [x + y for x, y in zip(a.c, b.c)])

    __radd__ = __add__

    def __neg__(self):
        return Cyc(self.m, [-x for x in self.c])

    def __sub__(self, other):
        if isinstance(other, _RAT_TYPES):
            other = Cyc.from_rational(other)
        a, b = self._common(other)
        return Cyc(a.m, [x - y for x, y in zip(a.c, b.c)])

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, _RAT_TYPES):
            q = QQ(other)
            return Cyc(self.m, [x * q for x in self.c])
        a, b = self._common(other)
        F = _field(a.m)
        phi = F.phi
        conv = [_ZERO] * (2 * phi - 1)
        for i, ai in enumerate(a.c):
            if ai:
                bc = b.c
                for j in range(phi):
                    bj = bc[j]
                    if bj:
                        conv[i + j] = conv[i + j] + ai * bj
        out = conv[:phi]
        rows = F.pow_rows
        for k in range(phi, 2 * phi - 1):
            ck = conv[k]
            if ck:
                row = rows[k]
                for i in range(phi):
                    r = row[i]
                    if r:
                        out[i] = out[i] + ck * r
        return Cyc(a.m, out)

    __rmul__ = __mul__

    def inverse(self) -> "Cyc":
        """Multiplicative inverse via extended Euclid mod Phi_m."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic element")
        if self.is_rational():
            return Cyc.from_rational(1 / QQ(self.c[0]), self.m)
        F = _field(self.m)
        r0 = [QQ(x) for x in F.phi_poly]
        r1 = _poly_trim(list(self.c))
        s0, s1 = [], [_ONE]
        while _poly_deg(r1) > 0:
            q, r = _poly_divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
        if _poly_deg(r1) != 0:
            raise ZeroDivisionError("element is a zero divisor (should not happen mod Phi_m)")
        lead = r1[0]
        phi = F.phi
        inv = [_ZERO] * phi
        for k, x in enumerate(s1):
            if x:
                q = x / lead
                if k < phi:
                    inv[k] = inv[k] + q
                else:
                    row = F.pow_rows[k]
                    for i, r in enumerate(row):
                        if r:
                            inv[i] = inv[i] + q * r
        return Cyc(self.m, inv)

    def __truediv__(self, other):
        if isinstance(other, _RAT_TYPES):
            q = QQ(other)
            if q == 0:
                raise ZeroDivisionError
            return Cyc(self.m, [x / q for x in self.c])
        if not isinstance(other, Cyc):
            return NotImplemented
        return self * other.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        result = Cyc.one(self.m)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def conjugate(self) -> "Cyc":
        """Complex conjugate: zeta -> zeta^(m-1)."""
        F = _field(self.m)
        out = [_ZERO] * F.phi
        for k, ck in enumerate(self.c):
            if ck:
                row = F.pow_rows[(self.m - k) % self.m]
                for i, r in enumerate(row):
                    if r:
                        out[i] = out[i] + ck * r
        return Cyc(self.m, out)

    def __repr__(self):
        return f"Cyc({self.m}, {format_literal(self)!r})"


def zeta(m: int, k: int = 1) -> Cyc:
    return Cyc.root_of_unity(m, k)


def rational(q, m: int = 1) -> Cyc:
    return Cyc.from_rational(q, m)


# -- literal syntax ----------------------------------------------------
#
# A sum of terms `c*z^k` where c is a rational a/b and z denotes zeta_m
# for a file-level conductor m, e.g. "1/2*z^0 + -1/2*z^15".

_TERM_RE = re.compile(r"^(-?\d+(?:/\d+)?)\*z\^(\d+)$")


def parse_literal(text: str, m: int) -> Cyc:
    out = Cyc.zero(m)
    for raw in text.split("+"):
        term = raw.strip()
        if not term:
            continue
        match = _TERM_RE.match(term)
        if not match:
            raise ValueError(f"bad cyclotomic literal term: {term!r}")
        coeff = QQ(match.group(1))
        k = int(match.group(2))
        out = out + Cyc.root_of_unity(m, k) * coeff
    return out


def format_literal(a: Cyc) -> str:
    parts = []
    for k, ck in enumerate(a.c):
        if ck:
            parts.append(f"{ck}*z^{k}")
    if not parts:
        return "0*z^0"
    return " + ".join(parts)


# -- reduction to prime fields -----------------------------------------


@dataclass(frozen=True)
class ReductionMap:
    """Ring homomorphism Q(zeta_m) -> F_p sending zeta_m to a fixed root
    of exact multiplicative order m (requires p = 1 mod m)."""

    conductor: int
    prime: int
    root: int


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_factors(n: int) -> list[int]:
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def _order_m_root(p: int, m: int) -> int | None:
    """An element of F_p of exact order m, or None."""
    if (p - 1) % m != 0:
        return None
    qs = _prime_factors(m)
    for a in range(2, p):
        r = pow(a, (p - 1) // m, p)
        if r == 1 and m > 1:
            continue
        if all(pow(r, m // q, p) != 1 for q in qs):
            return r
    return None


def find_reduction_prime(m: int, lower_bound: int = 2, search_cap: int | None = None) -> ReductionMap:
    """Smallest prime p >= lower_bound with p = 1 (mod m), plus a verified
    order-m root.  Terminates by Dirichlet; the cap, by default 10^8 or
    twice lower_bound if that is larger, aborts with a diagnostic."""
    if m < 1:
        raise ValueError("conductor must be positive")
    if search_cap is None:
        search_cap = max(10**8, 2 * lower_bound)
    p = max(lower_bound, 2)
    if m > 1:
        # align to 1 mod m
        if p % m != 1:
            p += (1 - p) % m
        if p < lower_bound:
            p += m
    while p <= search_cap:
        if p >= lower_bound and is_prime(p):
            root = 1 if m == 1 else _order_m_root(p, m)
            if root is not None:
                return ReductionMap(conductor=m, prime=p, root=root)
        p += m if m > 1 else 1
    raise PrimeSearchExhausted(f"no prime p = 1 mod {m} with p >= {lower_bound} below {search_cap}")


def reduce_mod(a: Cyc, rmap: ReductionMap) -> int:
    """Image of a in F_p.  Requires conductor(a) | rmap.conductor and
    denominators of a coprime to p."""
    if rmap.conductor % a.m != 0:
        raise ValueError("element conductor must divide the map conductor")
    p = rmap.prime
    base = pow(rmap.root, rmap.conductor // a.m, p)
    total = 0
    zk = 1
    for ck in a.c:
        if ck:
            num = int(ck.numerator) % p
            den = int(ck.denominator) % p
            if den == 0:
                raise NonInvertibleDenominator(f"denominator divisible by {p}")
            total = (total + num * pow(den, p - 2, p) % p * zk) % p
        zk = zk * base % p
    return total
