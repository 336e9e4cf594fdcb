"""Partition bound calculus for linear automorphism groups of hypersurfaces.

B(pi, d) multiplies the factorials of the block-size multiplicities, the
per-block primitive-subgroup index bounds Xi(dim), and d^r (r = number of
blocks).  A partition pi != (1^N) is exceptional when B(pi, 3) >= B((1^N), 3);
exactly 80 exist, all with N <= 26.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .cyclo import QQ

__all__ = [
    "XI_EXCEPTIONS",
    "xi",
    "Partition",
    "bound_B",
    "fermat_bound",
    "NotExceptionalError",
    "max_exceptional_degree",
    "ExceptionalRow",
    "enumerate_exceptional",
    "HighDimReport",
    "verify_no_exceptional",
    "partitions_of",
    "render_ratio",
    "ratio_strings_match",
]

# Upper bounds on [G : Z(G)] over primitive subgroups of GL_N(C) at the
# nine exceptional dimensions; (N+1)! elsewhere, and 1 in dimension 1.
XI_EXCEPTIONS = {
    2: 60,
    3: 360,
    4: 25920,
    5: 25920,
    6: 6531840,
    7: 1451520,
    8: 348364800,
    9: 4199040,
    12: 448345497600,
}


@lru_cache(maxsize=None)
def xi(n: int) -> int:
    if n < 1:
        raise ValueError("dimension must be positive")
    if n == 1:
        return 1
    return XI_EXCEPTIONS.get(n, math.factorial(n + 1))


class Partition:
    """A partition of N: non-increasing positive block sizes."""

    __slots__ = ("blocks",)

    def __init__(self, blocks):
        blocks = tuple(sorted((int(b) for b in blocks), reverse=True))
        if not blocks or blocks[-1] < 1:
            raise ValueError("blocks must be positive integers")
        self.blocks = blocks

    @property
    def n(self) -> int:
        return sum(self.blocks)

    @property
    def r(self) -> int:
        return len(self.blocks)

    def multiplicities(self) -> dict[int, int]:
        mu: dict[int, int] = {}
        for b in self.blocks:
            mu[b] = mu.get(b, 0) + 1
        return mu

    def is_fermat(self) -> bool:
        return self.blocks[0] == 1

    def concat(self, other: "Partition") -> "Partition":
        return Partition(self.blocks + other.blocks)

    def __eq__(self, other):
        return isinstance(other, Partition) and self.blocks == other.blocks

    def __hash__(self):
        return hash(self.blocks)

    def __repr__(self):
        return f"Partition({self.blocks})"

    def __str__(self):
        mu = self.multiplicities()
        parts = []
        for b in sorted(mu, reverse=True):
            parts.append(str(b) if mu[b] == 1 else f"{b}^{mu[b]}")
        return "(" + ",".join(parts) + ")"

    @staticmethod
    def parse(text: str) -> "Partition":
        """Accepts '4,2,1' or '(2^3,1)' style."""
        text = text.strip().strip("()")
        blocks: list[int] = []
        for piece in text.split(","):
            piece = piece.strip()
            if not piece:
                continue
            if "^" in piece:
                base, exp = piece.split("^")
                blocks.extend([int(base)] * int(exp))
            else:
                blocks.append(int(piece))
        return Partition(blocks)


def bound_B(pi: Partition, d: int) -> int:
    """mu_1! ... mu_N! * prod Xi(block) * d^r, exactly."""
    if d < 3:
        raise ValueError("degree must be at least 3")
    out = 1
    for count in pi.multiplicities().values():
        out *= math.factorial(count)
    for b in pi.blocks:
        out *= xi(b)
    return out * d ** pi.r


def fermat_bound(n: int, d: int) -> int:
    """B((1^N), d) = N! d^N, attained by the Fermat equation's group."""
    return math.factorial(n) * d**n


class NotExceptionalError(ValueError):
    """B(pi, 3) < B((1^N), 3), so no exceptional degree exists."""


def _int_nth_root(x: int, k: int) -> int:
    """floor(x^(1/k)) for x >= 0, k >= 1."""
    if x < 0:
        raise ValueError
    if x in (0, 1) or k == 1:
        return x
    r = int(round(x ** (1.0 / k)))
    while r**k > x:
        r -= 1
    while (r + 1) ** k <= x:
        r += 1
    return r


def max_exceptional_degree(pi: Partition) -> int:
    """Largest d >= 3 with B(pi, d) >= B((1^N), d).

    Finite because r < N makes the ratio strictly decreasing in d; the
    closed form d^(N-r) <= C is checked against the linear scan over d in
    the tests.
    """
    if pi.is_fermat():
        raise ValueError("the all-ones partition is excluded by definition")
    n = pi.n
    if bound_B(pi, 3) < fermat_bound(n, 3):
        raise NotExceptionalError(f"{pi} is not exceptional")
    # B(pi,d) >= B((1^N),d)  <=>  d^(N-r) <= c_num / c_den
    k = n - pi.r
    c_num = bound_B(pi, 3) // 3**pi.r
    c_den = math.factorial(n)
    closed = _int_nth_root(c_num // c_den, k)
    while (closed + 1) ** k * c_den <= c_num:
        closed += 1
    while closed**k * c_den > c_num:
        closed -= 1
    return closed


def partitions_of(n: int, max_part: int | None = None):
    """All partitions of n in descending lexicographic order, as tuples."""
    if max_part is None:
        max_part = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in partitions_of(n - first, first):
            yield (first,) + rest


@dataclass(frozen=True)
class ExceptionalRow:
    index: int
    n: int
    partition: Partition
    max_d: int
    ratio: object  # exact rational B(pi,3)/B((1^N),3)
    ratio_str: str


def enumerate_exceptional(n_min: int = 2, n_max: int = 26) -> list[ExceptionalRow]:
    """All exceptional partitions with n_min <= N <= n_max, ordered by N
    ascending then by partition in descending lexicographic order."""
    if not 2 <= n_min <= n_max:
        raise ValueError("need 2 <= n_min <= n_max")
    rows: list[ExceptionalRow] = []
    index = 0
    for n in range(n_min, n_max + 1):
        base = fermat_bound(n, 3)
        for blocks in partitions_of(n):
            if blocks[0] == 1:
                continue
            pi = Partition(blocks)
            b = bound_B(pi, 3)
            if b >= base:
                index += 1
                ratio = QQ(b, base)
                rows.append(
                    ExceptionalRow(
                        index=index,
                        n=n,
                        partition=pi,
                        max_d=max_exceptional_degree(pi),
                        ratio=ratio,
                        ratio_str=render_ratio(ratio),
                    )
                )
    return rows


@dataclass(frozen=True)
class HighDimReport:
    n: int
    ok: bool
    best_partition: Partition
    best_ratio: object  # exact rational, < 1 iff ok
    best_ratio_str: str
    partitions_checked: int


def verify_no_exceptional(n: int) -> HighDimReport:
    """Witness that B(pi, 3) < B((1^N), 3) for every pi != (1^N) of N >= 27.

    The d = 3 check suffices for all d >= 3: the ratio only shrinks as d
    grows because every pi != (1^N) has fewer than N blocks.
    """
    if n < 27:
        raise ValueError("defined for N >= 27 only (exceptional rows exist below)")
    base = fermat_bound(n, 3)
    best_pi = None
    best_num = -1
    best_den = 1
    count = 0
    for blocks in partitions_of(n):
        if blocks[0] == 1:
            continue
        count += 1
        pi_b = _bound_from_blocks(blocks)
        # track max of pi_b / base without constructing rationals
        if pi_b * best_den > best_num * base:
            best_num, best_den = pi_b, base
            best_pi = blocks
    ratio = QQ(best_num, best_den)
    return HighDimReport(
        n=n,
        ok=best_num < base,
        best_partition=Partition(best_pi),
        best_ratio=ratio,
        best_ratio_str=render_ratio(ratio),
        partitions_checked=count,
    )


def _bound_from_blocks(blocks: tuple[int, ...]) -> int:
    out = 3 ** len(blocks)
    run = 0
    prev = 0
    for b in blocks:
        out *= xi(b)
        if b == prev:
            run += 1
            out *= run
        else:
            prev, run = b, 1
    return out


# -- ratio rendering -----------------------------------------------------


def render_ratio(q) -> str:
    """Three-significant-figure decimal rendering of a positive rational,
    round-half-even."""
    num, den = int(q.numerator), int(q.denominator)
    if num <= 0:
        raise ValueError("ratio must be positive")
    digits = len(str(num // den)) if num >= den else 1
    decimals = max(0, 3 - digits)
    scale = 10**decimals
    whole, rem = divmod(num * scale, den)
    if 2 * rem > den or (2 * rem == den and whole % 2 == 1):
        whole += 1
    text = str(whole)
    if decimals == 0:
        return text
    text = text.rjust(decimals + 1, "0")
    return f"{text[:-decimals]}.{text[-decimals:]}"


def ratio_strings_match(a: str, b: str) -> bool:
    """Equal within one unit in the last displayed digit, covering both
    truncated and rounded renderings."""

    def scaled(s: str) -> tuple[int, int]:
        if "." in s:
            head, tail = s.split(".")
            return int(head + tail), len(tail)
        return int(s), 0

    av, ad = scaled(a)
    bv, bd = scaled(b)
    common = max(ad, bd)
    av *= 10 ** (common - ad)
    bv *= 10 ** (common - bd)
    return abs(av - bv) <= 10 ** (common - min(ad, bd))
