"""Registry of the exceptional hypersurfaces, the Fermat family, and the
small primitive groups used by the invariant-degree checks.

Square roots are entered as explicit cyclotomic expressions (Gauss sums),
never floating point: sqrt(-7) lives in the 7th cyclotomic field, sqrt(5)
in the 5th, i*sqrt(3) in the 3rd.  Each record carries the expected order
data for its group; the verification pipeline recomputes everything.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

from .bounds import Partition
from .cyclo import Cyc, QQ, format_literal, parse_literal, rational, zeta
from .groups import GeneratedGroup
from .matrix import CycloMatrix
from .poly import HomogPoly

__all__ = [
    "ExampleRecord",
    "PrimitiveGroupRecord",
    "example_ids",
    "get_example",
    "fermat_record",
    "get_record",
    "primitive_group_ids",
    "get_primitive_group",
    "group_to_json",
    "group_from_json",
    "load_group_file",
    "load_polynomial_file",
    "external_data_dir",
    "MAINTHM_BOUNDS",
]

# The six (n, d) pairs with a non-generic sharp bound on the projective
# linear automorphism group, and those bounds.
MAINTHM_BOUNDS = {
    (1, 4): 168,
    (1, 6): 360,
    (2, 6): 6912,
    (2, 12): 86400,
    (4, 6): 6531840,
    (4, 12): 186624000,
}


# -- exact square roots as Gauss sums -------------------------------------


def sqrt_minus7() -> Cyc:
    """Quadratic Gauss sum in Q(zeta_7); squares to -7."""
    qr = {1, 2, 4}
    out = Cyc.zero(7)
    for a in range(1, 7):
        out = out + (zeta(7, a) if a in qr else -zeta(7, a))
    return out


def sqrt5() -> Cyc:
    """Quadratic Gauss sum in Q(zeta_5); squares to 5."""
    return zeta(5) - zeta(5, 2) - zeta(5, 3) + zeta(5, 4)


def i_sqrt3() -> Cyc:
    """1 + 2*zeta_3 squares to -3."""
    return rational(1) + zeta(3) * 2


def golden_ratio() -> Cyc:
    """tau = (1 + sqrt 5)/2 = 1 + zeta_5 + zeta_5^4."""
    return rational(1) + zeta(5) + zeta(5, 4)


# -- matrix builders -------------------------------------------------------


def _mat(m: int, rows) -> CycloMatrix:
    def conv(x):
        if isinstance(x, Cyc):
            return x.to_conductor(m)
        return rational(QQ(x), m)

    return CycloMatrix([[conv(x) for x in row] for row in rows], conductor=m)


def perm_matrix(perm, m: int = 1) -> CycloMatrix:
    n = len(perm)
    return _mat(m, [[1 if perm[j] == i else 0 for j in range(n)] for i in range(n)])


def diag_matrix(entries, m: int | None = None) -> CycloMatrix:
    entries = [e if isinstance(e, Cyc) else rational(QQ(e)) for e in entries]
    mm = m or 1
    for e in entries:
        mm = mm * e.m // math.gcd(mm, e.m)
    n = len(entries)
    z = Cyc.zero(mm)
    return _mat(mm, [[entries[i].to_conductor(mm) if i == j else z for j in range(n)] for i in range(n)])


def block_diag(mats, m: int) -> CycloMatrix:
    n = sum(a.n for a in mats)
    z = Cyc.zero(m)
    rows = []
    offset = 0
    for a in mats:
        am = a.to_conductor(m)
        for r in range(a.n):
            row = [z] * n
            for c in range(a.n):
                row[offset + c] = am.rows[r][c]
            rows.append(row)
        offset += a.n
    return CycloMatrix(rows, conductor=m)


def block_swap(block: int, i: int, j: int, r: int, m: int) -> CycloMatrix:
    """Permutation of r consecutive blocks of equal size, swapping i and j."""
    perm = list(range(r))
    perm[i], perm[j] = perm[j], perm[i]
    return block_perm(perm, block, m)


def block_perm(perm, block: int, m: int) -> CycloMatrix:
    n = block * len(perm)
    entries = [[0] * n for _ in range(n)]
    for j, i in enumerate(perm):
        for k in range(block):
            entries[i * block + k][j * block + k] = 1
    return _mat(m, entries)


# -- records ---------------------------------------------------------------


@dataclass(frozen=True)
class ExampleRecord:
    id: str
    n: int
    d: int
    group: GeneratedGroup
    polynomial: HomogPoly | None
    expected_linf: int
    expected_scalar: int
    expected_linx: int
    partition: Partition
    block_sizes: tuple[int, ...] | None
    expected_block_image: int | None
    tier: int
    invariance_check: str  # "direct" or "dimension"
    notes: str

    def __post_init__(self):
        if self.expected_linf != self.expected_scalar * self.expected_linx:
            raise ValueError("expected orders are inconsistent")
        if self.polynomial is not None:
            if self.polynomial.degree != self.d or self.polynomial.nvars != self.n + 2:
                raise ValueError("polynomial shape does not match (n, d)")


@dataclass(frozen=True)
class PrimitiveGroupRecord:
    id: str
    group: GeneratedGroup
    expected_order: int
    expected_semiinvariant_degree: int
    profile: str  # "core" or "extended"
    notes: str = ""


# -- the eight exceptional examples ---------------------------------------


@lru_cache(maxsize=None)
def _ex_1_4() -> ExampleRecord:
    m = 28
    e = zeta(28, 4)  # primitive 7th root
    i = zeta(28, 7)
    alpha = sqrt_minus7().to_conductor(m).inverse()
    a, b, c = e - e**6, e**2 - e**5, e**4 - e**3
    m1 = diag_matrix([i * e**4, i * e**2, i * e], m)
    m2 = perm_matrix((1, 2, 0), m)
    m3 = _mat(m, [[alpha * a, alpha * b, alpha * c],
                  [alpha * b, alpha * c, alpha * a],
                  [alpha * c, alpha * a, alpha * b]])
    f = HomogPoly(3, 4, {(3, 1, 0): 1, (0, 3, 1): 1, (1, 0, 3): 1})
    return ExampleRecord(
        id="ex-1-4", n=1, d=4,
        group=GeneratedGroup([m1, m2, m3], name="ex-1-4"),
        polynomial=f,
        expected_linf=672, expected_scalar=4, expected_linx=168,
        partition=Partition([3]), block_sizes=None, expected_block_image=None,
        tier=1, invariance_check="direct",
        notes="Klein quartic curve; projective group PSL(2,7) (unverified label)",
    )


@lru_cache(maxsize=None)
def _ex_1_6() -> ExampleRecord:
    m = 15
    w = zeta(15, 5)  # primitive cube root
    tau = golden_ratio().to_conductor(m)
    tau_inv = (zeta(5) + zeta(5, 4)).to_conductor(m)
    half = QQ(1, 2)
    m1 = diag_matrix([1, -1, 1], m)
    m2 = perm_matrix((1, 2, 0), m)
    m3 = _mat(m, [[1, 0, 0], [0, 0, w**2], [0, -w, 0]])
    # The published first row (1, tau, 1/tau)/2 is not orthogonal to the
    # other two and generates an infinite group; the unique orthogonal
    # sign-permutation repair closest to print swaps the last two entries:
    # (1, 1/tau, -tau)/2.  Rows two and three are as printed.
    m4 = _mat(m, [
        [rational(half), tau_inv * half, -tau * half],
        [tau_inv * half, tau * half, rational(half)],
        [tau * half, rational(-half), tau_inv * half],
    ])
    f = HomogPoly(3, 6, {
        (3, 3, 0): 10, (5, 0, 1): 9, (0, 5, 1): 9,
        (2, 2, 2): -45, (1, 1, 4): -135, (0, 0, 6): 27,
    })
    return ExampleRecord(
        id="ex-1-6", n=1, d=6,
        group=GeneratedGroup([m1, m2, m3, m4], name="ex-1-6"),
        polynomial=f,
        expected_linf=2160, expected_scalar=6, expected_linx=360,
        partition=Partition([3]), block_sizes=None, expected_block_image=None,
        tier=1, invariance_check="dimension",
        notes="Wiman sextic curve; generators are in different coordinates "
        "than the printed equation, so invariance is checked via the "
        "one-dimensional degree-6 invariant space; projective group A6",
    )


@lru_cache(maxsize=None)
def _ex_1_6_2() -> ExampleRecord:
    m = 6
    w = zeta(6, 2)
    eps = zeta(6)
    s = i_sqrt3().to_conductor(m).inverse()
    m1 = diag_matrix([rational(1), w, w**2], m)
    m2 = perm_matrix((1, 2, 0), m)
    m3 = _mat(m, [[s, s, s], [s, s * w, s * w**2], [s, s * w**2, s * w]])
    m4 = diag_matrix([eps, eps, eps**5], m)
    f = HomogPoly(3, 6, {
        (6, 0, 0): 1, (0, 6, 0): 1, (0, 0, 6): 1,
        (3, 3, 0): -10, (3, 0, 3): -10, (0, 3, 3): -10,
    })
    return ExampleRecord(
        id="ex-1-6-2", n=1, d=6,
        group=GeneratedGroup([m1, m2, m3, m4], name="ex-1-6-2"),
        polynomial=f,
        expected_linf=1296, expected_scalar=6, expected_linx=216,
        partition=Partition([3]), block_sizes=None, expected_block_image=None,
        tier=1, invariance_check="direct",
        notes="sextic curve with the Hessian group of order 216 as "
        "projective automorphisms (unverified label)",
    )


@lru_cache(maxsize=None)
def _ex_2_4() -> ExampleRecord:
    m = 4
    i = zeta(4)
    h = (rational(1) + i) * QQ(1, 2)
    z = Cyc.zero(m)
    m1 = perm_matrix((2, 3, 0, 1), m)
    m2 = perm_matrix((1, 0, 3, 2), m)
    m3 = diag_matrix([1, -1, -1, 1], m)
    m4 = diag_matrix([1, 1, -1, -1], m)
    # Rows 3 and 4 carry an extra factor -i relative to the published
    # matrix; with the published rows the quartic is not fixed (four cross
    # terms change sign) while the rephased generator fixes it and still
    # generates a group of order 7680 with scalar subgroup mu_4.
    m5 = _mat(m, [[-i * h, z, z, i * h],
                  [z, h, h, z],
                  [-i * h, z, z, -i * h],
                  [z, -h, h, z]])
    m6 = diag_matrix([1, 1, 1, -1], m)
    terms = {}
    for j in range(4):
        terms[tuple(4 if k == j else 0 for k in range(4))] = 1
    for a in range(4):
        for b in range(a + 1, 4):
            terms[tuple(2 if k in (a, b) else 0 for k in range(4))] = -6
    f = HomogPoly(4, 4, terms)
    return ExampleRecord(
        id="ex-2-4", n=2, d=4,
        group=GeneratedGroup([m1, m2, m3, m4, m5, m6], name="ex-2-4"),
        polynomial=f,
        expected_linf=7680, expected_scalar=4, expected_linx=1920,
        partition=Partition([4]), block_sizes=None, expected_block_image=None,
        tier=1, invariance_check="direct",
        notes="quartic K3 surface; projective group is an extension of S5 "
        "by an elementary abelian 2-group (unverified label)",
    )


def _ex_2_6_blocks() -> list[CycloMatrix]:
    m = 24
    i = zeta(24, 6)
    e = zeta(24)
    h = QQ(1, 2)
    b1 = _mat(m, [[(rational(1) + i) * h, (rational(1) + i) * h],
                  [(rational(-1) + i) * h, (rational(1) - i) * h]])
    b2 = _mat(m, [[0, 1], [-1, 0]])
    b3 = diag_matrix([e, e**19], m)
    return [b1, b2, b3]


@lru_cache(maxsize=None)
def _ex_2_6() -> ExampleRecord:
    m = 24
    blocks = _ex_2_6_blocks()
    gens = [block_diag([a, b], m) for a in blocks for b in blocks]
    gens.append(block_perm((1, 0), 2, m))
    f = HomogPoly(4, 6, {(5, 1, 0, 0): 1, (1, 5, 0, 0): -1,
                         (0, 0, 5, 1): 1, (0, 0, 1, 5): -1})
    return ExampleRecord(
        id="ex-2-6", n=2, d=6,
        group=GeneratedGroup(gens, name="ex-2-6"),
        polynomial=f,
        expected_linf=41472, expected_scalar=6, expected_linx=6912,
        partition=Partition([2, 2]), block_sizes=(2, 2), expected_block_image=2,
        tier=1, invariance_check="direct",
        notes="sextic surface; block pieces generate a central extension "
        "of S4 by mu_6, wreathed with S2 (unverified label)",
    )


def _ex_2_12_blocks() -> list[CycloMatrix]:
    m = 60
    z = zeta(60)
    e = zeta(60, 12)  # primitive 5th root
    inv_sqrt5 = (sqrt5() * QQ(1, 5)).to_conductor(m)
    w1 = diag_matrix([z, z**49], m)
    w2 = _mat(m, [[inv_sqrt5 * (-e + e**4), inv_sqrt5 * (e**2 - e**3)],
                  [inv_sqrt5 * (e**2 - e**3), inv_sqrt5 * (e - e**4)]])
    return [w1, w2]


def _dodecic_block_terms(nblocks: int) -> dict:
    terms = {}
    nv = 2 * nblocks
    for b in range(nblocks):
        lo = 2 * b

        def expo(e0, e1):
            out = [0] * nv
            out[lo], out[lo + 1] = e0, e1
            return tuple(out)

        terms[expo(11, 1)] = 1
        terms[expo(6, 6)] = 11
        terms[expo(1, 11)] = -1
    return terms


@lru_cache(maxsize=None)
def _ex_2_12() -> ExampleRecord:
    m = 60
    w1, w2 = _ex_2_12_blocks()
    gens = [block_diag([a, b], m) for a in (w1, w2) for b in (w1, w2)]
    gens.append(block_perm((1, 0), 2, m))
    f = HomogPoly(4, 12, _dodecic_block_terms(2))
    return ExampleRecord(
        id="ex-2-12", n=2, d=12,
        group=GeneratedGroup(gens, name="ex-2-12"),
        polynomial=f,
        expected_linf=1036800, expected_scalar=12, expected_linx=86400,
        partition=Partition([2, 2]), block_sizes=(2, 2), expected_block_image=2,
        tier=1, invariance_check="direct",
        notes="dodecic surface; block pieces generate a central extension "
        "of A5 by mu_12, wreathed with S2 (unverified label)",
    )


@lru_cache(maxsize=None)
def _ex_4_6() -> ExampleRecord:
    m = 3
    w = zeta(3)
    m1 = perm_matrix((1, 0, 2, 3, 4, 5), m)
    m2 = perm_matrix((1, 2, 3, 4, 5, 0), m)
    m3 = diag_matrix([w, w**2, 1, 1, 1, 1], m)
    third = QQ(1, 3)
    m4 = _mat(m, [[(1 if i == j else 0) - third for j in range(6)] for i in range(6)])
    terms = {}
    for j in range(6):
        terms[tuple(6 if k == j else 0 for k in range(6))] = 1
    for a in range(6):
        for b in range(a + 1, 6):
            terms[tuple(3 if k in (a, b) else 0 for k in range(6))] = -10
    terms[(1, 1, 1, 1, 1, 1)] = -180
    f = HomogPoly(6, 6, terms)
    return ExampleRecord(
        id="ex-4-6", n=4, d=6,
        group=GeneratedGroup([m1, m2, m3, m4], name="ex-4-6"),
        polynomial=f,
        expected_linf=39191040, expected_scalar=6, expected_linx=6531840,
        partition=Partition([6]), block_sizes=None, expected_block_image=None,
        tier=2, invariance_check="direct",
        notes="sextic fourfold with invariant first computed by Todd; the "
        "transposition, the 6-cycle and the order-3 diagonal generate all "
        "permutation and determinant-1 cube-root diagonal matrices",
    )


@lru_cache(maxsize=None)
def _ex_4_12() -> ExampleRecord:
    m = 60
    w1, w2 = _ex_2_12_blocks()
    gens = [block_diag([a, b, c], m) for a in (w1, w2) for b in (w1, w2) for c in (w1, w2)]
    gens.append(block_perm((1, 0, 2), 2, m))
    gens.append(block_perm((1, 2, 0), 2, m))
    f = HomogPoly(6, 12, _dodecic_block_terms(3))
    return ExampleRecord(
        id="ex-4-12", n=4, d=12,
        group=GeneratedGroup(gens, name="ex-4-12"),
        polynomial=f,
        expected_linf=2239488000, expected_scalar=12, expected_linx=186624000,
        partition=Partition([2, 2, 2]), block_sizes=(2, 2, 2), expected_block_image=6,
        tier=3, invariance_check="direct",
        notes="dodecic fourfold; block pieces generate a central extension "
        "of A5 by mu_12, wreathed with S3 (unverified label)",
    )


_EXAMPLES = {
    "ex-1-4": _ex_1_4,
    "ex-1-6": _ex_1_6,
    "ex-1-6-2": _ex_1_6_2,
    "ex-2-4": _ex_2_4,
    "ex-2-6": _ex_2_6,
    "ex-2-12": _ex_2_12,
    "ex-4-6": _ex_4_6,
    "ex-4-12": _ex_4_12,
}


def example_ids() -> list[str]:
    return list(_EXAMPLES)


def get_example(example_id: str) -> ExampleRecord:
    try:
        return _EXAMPLES[example_id]()
    except KeyError:
        raise KeyError(f"unknown example id {example_id!r}; known: {', '.join(_EXAMPLES)}") from None


def fermat_record(n: int, d: int) -> ExampleRecord:
    """The Fermat hypersurface of dimension n and degree d."""
    if n < 1 or d < 3:
        raise ValueError("need n >= 1 and d >= 3")
    nv = n + 2
    m = d
    gens = [
        diag_matrix([zeta(d)] + [rational(1)] * (nv - 1), m),
        perm_matrix(tuple([1, 0] + list(range(2, nv))), m),
        perm_matrix(tuple(list(range(1, nv)) + [0]), m),
    ]
    f = HomogPoly(nv, d, {tuple(d if k == j else 0 for k in range(nv)): 1 for j in range(nv)})
    order = math.factorial(nv) * d**nv
    return ExampleRecord(
        id=f"fermat-{n}-{d}", n=n, d=d,
        group=GeneratedGroup(gens, name=f"fermat-{n}-{d}"),
        polynomial=f,
        expected_linf=order, expected_scalar=d, expected_linx=order // d,
        partition=Partition([1] * nv), block_sizes=None, expected_block_image=None,
        tier=1, invariance_check="direct",
        notes="Fermat hypersurface: coordinate d-th root scalings and all "
        "coordinate permutations",
    )


def get_record(record_id: str) -> ExampleRecord:
    """A catalog example by id, or a Fermat record by "fermat-n-d"."""
    if record_id.startswith("fermat-"):
        _, n, d = record_id.split("-")
        return fermat_record(int(n), int(d))
    return get_example(record_id)


# -- small primitive groups for the invariant-degree suite -----------------


@lru_cache(maxsize=None)
def binary_icosahedral() -> GeneratedGroup:
    """Preimage of the icosahedral rotation group in the unit quaternions;
    order 120."""
    e = zeta(5)
    inv_sqrt5 = sqrt5().inverse()
    g1 = diag_matrix([e, e**4], 5)
    g2 = _mat(5, [[inv_sqrt5 * (-e + e**4), inv_sqrt5 * (e**2 - e**3)],
                  [inv_sqrt5 * (e**2 - e**3), inv_sqrt5 * (e - e**4)]])
    return GeneratedGroup([g1, g2], name="binary-icosahedral")


@lru_cache(maxsize=None)
def binary_tetrahedral() -> GeneratedGroup:
    """Unit quaternions covering the tetrahedral rotations; order 24."""
    i = zeta(4)
    h = QQ(1, 2)
    q_i = diag_matrix([i, -i], 4)
    q_j = _mat(4, [[0, 1], [-1, 0]])
    omega = _mat(4, [[(rational(1) + i) * h, (rational(1) + i) * h],
                     [(rational(-1) + i) * h, (rational(1) - i) * h]])
    return GeneratedGroup([q_i, q_j, omega], name="binary-tetrahedral")


@lru_cache(maxsize=None)
def binary_octahedral() -> GeneratedGroup:
    """Binary tetrahedral extended by the 8th root (1+i)/sqrt2; order 48."""
    tetra = binary_tetrahedral()
    e8 = diag_matrix([zeta(8), zeta(8, 7)], 8)
    return GeneratedGroup(tetra.generators + [e8], name="binary-octahedral")


@lru_cache(maxsize=None)
def quaternion_group() -> GeneratedGroup:
    i = zeta(4)
    return GeneratedGroup([diag_matrix([i, -i], 4), _mat(4, [[0, 1], [-1, 0]])], name="Q8")


@lru_cache(maxsize=None)
def icosahedral_rotation() -> GeneratedGroup:
    """The rotation group of the icosahedron in SO(3); order 60.

    Generated by the coordinate 3-cycle and a 5-fold rotation written in
    the golden-ratio coordinates."""
    m = 5
    tau = golden_ratio()
    tau_inv = zeta(5) + zeta(5, 4)
    h = QQ(1, 2)
    r3 = perm_matrix((1, 2, 0), m)
    r5 = _mat(m, [[tau_inv * h, -tau * h, rational(h)],
                  [tau * h, rational(h), tau_inv * h],
                  [rational(-h), tau_inv * h, tau * h]])
    return GeneratedGroup([r3, r5], name="icosahedral-rotation")


@lru_cache(maxsize=None)
def _core_primitive_groups() -> dict[str, PrimitiveGroupRecord]:
    records = [
        PrimitiveGroupRecord("binary-icosahedral", binary_icosahedral(), 120, 12, "core",
                             "perfect, so semi-invariants are invariants"),
        PrimitiveGroupRecord("binary-octahedral", binary_octahedral(), 48, 6, "core",
                             "derived subgroup is the binary tetrahedral group"),
        PrimitiveGroupRecord("binary-tetrahedral", binary_tetrahedral(), 24, 4, "core",
                             "derived subgroup is the quaternion group"),
        PrimitiveGroupRecord("icosahedral-rotation", icosahedral_rotation(), 60, 2, "core",
                             "real orthogonal, so the quadratic form is invariant"),
        PrimitiveGroupRecord("klein-quartic-group", get_example("ex-1-4").group, 672, 4, "core",
                             "next semi-invariant degree is 6"),
        PrimitiveGroupRecord("valentiner-group", get_example("ex-1-6").group, 2160, 6, "core",
                             "unique degree-6 invariant up to scale"),
        PrimitiveGroupRecord("hessian-sextic-group", get_example("ex-1-6-2").group, 1296, 6, "core"),
    ]
    return {r.id: r for r in records}


_EXTERNAL_GROUPS = {
    # file stem -> (expected order, expected smallest semi-invariant degree)
    "sp4-3": ("sp4_3_dim4", 51840, 12),
    "psp4-3": ("psp4_3_dim5", 25920, 4),
    "two-a7": ("two_a7_dim4", 5040, 8),
    "two-s6": ("two_s6_dim4", 1440, 8),
}

def external_data_dir() -> Path:
    return Path(__file__).parent / "data" / "external"


def primitive_group_ids(profile: str = "core") -> list[str]:
    ids = list(_core_primitive_groups())
    if profile == "extended":
        ids += [k for k, (stem, _, _) in _EXTERNAL_GROUPS.items()
                if (external_data_dir() / f"{stem}.json").exists()]
    return ids


def get_primitive_group(group_id: str) -> PrimitiveGroupRecord:
    core = _core_primitive_groups()
    if group_id in core:
        return core[group_id]
    if group_id in _EXTERNAL_GROUPS:
        stem, order, degree = _EXTERNAL_GROUPS[group_id]
        path = external_data_dir() / f"{stem}.json"
        if not path.exists():
            raise FileNotFoundError(
                f"external generator file {path.name} is not installed; "
                "run tools/build_external_data.py to create it"
            )
        group = load_group_file(path)
        return PrimitiveGroupRecord(group_id, group, order, degree, "extended",
                                    "externally constructed generator file")
    raise KeyError(f"unknown primitive group id {group_id!r}")


# -- group file format -----------------------------------------------------


def group_to_json(group: GeneratedGroup, note: str | None = None) -> dict:
    data = {
        "conductor": group.conductor,
        "dimension": group.dimension,
        "generators": [
            [[format_literal(x) for x in row] for row in g.rows] for g in group.generators
        ],
    }
    if note:
        data["note"] = note
    return data


def group_from_json(data: dict) -> GeneratedGroup:
    m = int(data["conductor"])
    n = int(data["dimension"])
    gens = []
    for rows in data["generators"]:
        if len(rows) != n or any(len(r) != n for r in rows):
            raise ValueError("generator has wrong shape")
        gens.append(CycloMatrix([[parse_literal(x, m) for x in row] for row in rows], conductor=m))
    return GeneratedGroup(gens, name=str(data.get("note", "")))


def load_group_file(path) -> GeneratedGroup:
    with open(path) as fh:
        return group_from_json(json.load(fh))


def load_polynomial_file(path) -> HomogPoly:
    with open(path) as fh:
        return HomogPoly.from_json(json.load(fh))
