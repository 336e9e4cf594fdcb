#!/usr/bin/env python3
"""Build the external generator files under src/autbound/data/external/.

Nothing here is copied from tables: every group is constructed exactly.

* sp4_3_dim4 / psp4_3_dim5: the two constituents of the rank-2 symplectic
  group over F_3 acting on functions on F_3^2 (Schroedinger model).  The
  model operators are only defined up to scalars, so the construction
  passes to iterated commutator normal closures, where scalars cancel;
  the derived tower lands on the perfect group itself.  The odd-function
  constituent (dim 4) is faithful of order 51840; the even one (dim 5)
  kills -I and has order 25920.

* two_s6_dim4: seeded random 2-generator subgroup search inside the dim-4
  group above for a subgroup of order 1440 containing -I.  Any such
  subgroup is the preimage of a maximal S6 downstairs (there are no
  order-1440 subgroups there), the degree-8 case of the classification.

* two_a7_dim4: spin double cover of the alternating group A7 acting on
  the sum-zero sublattice of Z^7.  Rotations factor into reflections
  (Cartan-Dieudonne); the products of the mirror vectors inside the
  64-dimensional rational Clifford algebra realize the double cover
  exactly, after rational spinor-norm normalization (the spinor norm is
  trivial on a perfect rotation group).  A rank-1 idempotent built from
  the volume element and an order-3 lift cuts out the 4-dimensional
  half-spin representation over the 21st cyclotomic field.
"""

from __future__ import annotations

import json
import random
import sys
import time
from functools import lru_cache
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from autbound.catalog import external_data_dir, group_to_json
from autbound.cyclo import Cyc, QQ, rational, zeta
from autbound.groups import (
    CapExceeded,
    GeneratedGroup,
    _encode,
    _modp_closure,
    closure_order,
)
from autbound.matrix import CycloMatrix


# ---------------------------------------------------------------------------
# Oscillator-model construction of the rank-2 symplectic group over F_3
# ---------------------------------------------------------------------------

POINTS = [(a, b) for a in range(3) for b in range(3)]
IDX = {p: i for i, p in enumerate(POINTS)}


def _op_point_perm(amap) -> list[list[Cyc]]:
    """Operator delta_x -> delta_{A x} as a 9x9 matrix."""
    z = Cyc.zero(3)
    one = Cyc.one(3)
    mat = [[z] * 9 for _ in range(9)]
    for x in POINTS:
        mat[IDX[amap(x)]][IDX[x]] = one
    return mat


def _op_quadratic_phase(s11, s12, s22) -> list[list[Cyc]]:
    """Operator delta_x -> zeta_3^(x^T S x) delta_x for symmetric S."""
    z = Cyc.zero(3)
    mat = [[z] * 9 for _ in range(9)]
    for x in POINTS:
        q = (s11 * x[0] * x[0] + 2 * s12 * x[0] * x[1] + s22 * x[1] * x[1]) % 3
        mat[IDX[x]][IDX[x]] = zeta(3, q)
    return mat


def _op_fourier() -> list[list[Cyc]]:
    """Operator delta_y -> sum_x zeta_3^(x.y) delta_x (unnormalized)."""
    return [[zeta(3, (x[0] * y[0] + x[1] * y[1]) % 3) for y in POINTS] for x in POINTS]


def _parity_bases():
    odd, even = [], []
    z = Cyc.zero(3)
    one = Cyc.one(3)
    even.append([one if i == IDX[(0, 0)] else z for i in range(9)])
    seen = set()
    for x in POINTS:
        if x == (0, 0) or x in seen:
            continue
        mx = ((-x[0]) % 3, (-x[1]) % 3)
        seen.add(mx)
        vec_o = [z] * 9
        vec_o[IDX[x]] = one
        vec_o[IDX[mx]] = -one
        odd.append(vec_o)
        vec_e = [z] * 9
        vec_e[IDX[x]] = one
        vec_e[IDX[mx]] = one
        even.append(vec_e)
    return odd, even


def _restrict(op9, basis9) -> CycloMatrix:
    """Matrix of op9 on span(basis9); op9 must preserve the span.

    Each basis vector has a support point no other basis vector of the
    same parity uses, so coordinates are read off by evaluation there."""
    leads = []
    for b in basis9:
        lead = next(i for i in range(9) if not b[i].is_zero())
        leads.append((lead, b[lead]))
    out_cols = []
    for b in basis9:
        image = []
        for i in range(9):
            acc = Cyc.zero(3)
            for j in range(9):
                if not b[j].is_zero() and not op9[i][j].is_zero():
                    acc = acc + op9[i][j] * b[j]
            image.append(acc)
        out_cols.append([image[lead] * lead_val.inverse() for lead, lead_val in leads])
    n = len(basis9)
    return CycloMatrix([[out_cols[j][i] for j in range(n)] for i in range(n)], conductor=3)


class _Pair:
    """An element tracked simultaneously in the dim-4 and dim-5 pieces."""

    __slots__ = ("odd", "even")

    def __init__(self, odd, even):
        self.odd = odd
        self.even = even

    def __matmul__(self, other):
        return _Pair(self.odd @ other.odd, self.even @ other.even)

    def inverse(self):
        return _Pair(self.odd.inverse(), self.even.inverse())


def build_weil_pairs() -> list[_Pair]:
    odd_basis, even_basis = _parity_bases()
    ops9 = [
        _op_point_perm(lambda x: ((x[0] + x[1]) % 3, x[1])),
        _op_point_perm(lambda x: ((2 * x[0]) % 3, x[1])),
        _op_point_perm(lambda x: (x[1], x[0])),
        _op_quadratic_phase(1, 0, 0),
        _op_quadratic_phase(0, 0, 1),
        _op_quadratic_phase(0, 1, 0),
        _op_fourier(),
    ]
    return [_Pair(_restrict(op, odd_basis), _restrict(op, even_basis)) for op in ops9]


def derived_pair_closure(pairs: list[_Pair], cap: int = 200_000) -> list[_Pair]:
    """Normal closure of pairwise commutators, tracked on pairs.

    Membership runs on mod-p images of the odd (faithful) component at two
    primes; the model's scalar ambiguities cancel inside commutators and
    conjugations."""
    group = GeneratedGroup([p.odd for p in pairs])
    maps = group.reduction_maps(2)
    seeds: list[_Pair] = []
    for i, a in enumerate(pairs):
        for b in pairs[i + 1 :]:
            c = a.inverse() @ b.inverse() @ a @ b
            if not c.odd.is_identity():
                seeds.append(c)
    inverses = [p.inverse() for p in pairs]
    while True:
        closures = [
            _modp_closure([s.odd.reduce(rmap) for s in seeds], 4, rmap.prime, cap, False, False)[4]
            for rmap in maps
        ]
        if len(closures[0]) != len(closures[1]):
            raise RuntimeError("prime disagreement in derived closure")
        new = []
        for s in seeds:
            for g, ginv in zip(pairs, inverses):
                conj = ginv @ s @ g
                member = all(
                    _encode(conj.odd.reduce(rmap), rmap.prime) in closure
                    for rmap, closure in zip(maps, closures)
                )
                if not member:
                    new.append(conj)
        if not new:
            return seeds
        seeds = seeds + new


def shrink_generators(gens: list[_Pair], order: int, seed: int = 11) -> list[_Pair]:
    """Seeded search for two or three elements with the same closure order."""
    group = GeneratedGroup([p.odd for p in gens])
    rmap = group.reduction_maps(1)[0]
    rng = random.Random(seed)

    def closure_size(sub: list[_Pair]) -> int:
        red = [s.odd.reduce(rmap) for s in sub]
        try:
            return _modp_closure(red, 4, rmap.prime, order + 8, False, False)[0]
        except CapExceeded:
            return -1

    for size in (2, 3):
        for _ in range(300):
            sub = rng.sample(gens, min(size, len(gens)))
            if closure_size(sub) == order:
                return sub
    return gens


def build_sp4_psp4(out_dir: Path) -> list[_Pair]:
    print("building the rank-2 symplectic group over F_3 ...", flush=True)
    pairs = build_weil_pairs()
    gens = derived_pair_closure(pairs)
    summary = closure_order(GeneratedGroup([p.odd for p in gens]), max_elements=400_000)
    print("  derived closure:", summary.triple(), flush=True)
    rounds = 0
    while summary.scalar_order > 2 and rounds < 3:
        gens = derived_pair_closure(gens)
        summary = closure_order(GeneratedGroup([p.odd for p in gens]), max_elements=400_000)
        rounds += 1
        print("  derived again:", summary.triple(), flush=True)
    if summary.triple() != (51840, 2, 25920):
        raise RuntimeError(f"unexpected dim-4 group: {summary}")
    gens = shrink_generators(gens, 51840)
    print(f"  generator count after shrink: {len(gens)}", flush=True)
    odd_group = GeneratedGroup([p.odd for p in gens], name="sp4_3_dim4")
    even_group = GeneratedGroup([p.even for p in gens], name="psp4_3_dim5")
    odd_summary = closure_order(odd_group, max_elements=60_000)
    if odd_summary.triple() != (51840, 2, 25920):
        raise RuntimeError(f"dim-4 check failed: {odd_summary}")
    even_summary = closure_order(even_group, max_elements=30_000)
    if even_summary.triple() != (25920, 1, 25920):
        raise RuntimeError(f"dim-5 check failed: {even_summary}")
    _write(out_dir / "sp4_3_dim4.json", odd_group,
           "order-51840 perfect subgroup of GL_4 over the 3rd cyclotomic "
           "field; odd constituent of the F_3 oscillator model, "
           "commutator-normalized")
    _write(out_dir / "psp4_3_dim5.json", even_group,
           "simple group of order 25920 in GL_5; even constituent of the "
           "F_3 oscillator model")
    return gens


def build_two_s6(out_dir: Path, sp4_pairs: list[_Pair]) -> None:
    print("searching for the order-1440 subgroup ...", flush=True)
    group = GeneratedGroup([p.odd for p in sp4_pairs])
    maps = group.reduction_maps(2)
    rng = random.Random(20240817)
    pool = list(sp4_pairs) * 3

    def rand_pair() -> _Pair:
        i, j = rng.randrange(len(pool)), rng.randrange(len(pool))
        if i != j:
            pool[i] = pool[i] @ pool[j]
        return pool[i]

    for _ in range(60):
        rand_pair()
    t0 = time.time()
    attempt = 0
    while True:
        attempt += 1
        a, b = rand_pair(), rand_pair()
        try:
            # order and scalar count at both primes, stopping at the first miss
            found = all(
                _modp_closure([a.odd.reduce(r), b.odd.reduce(r)], 4, r.prime, 1500, False, False)[:2]
                == (1440, 2)
                for r in maps
            )
        except CapExceeded:
            continue
        if not found:
            continue
        print(f"  found after {attempt} attempts ({time.time() - t0:.1f}s)", flush=True)
        sub = GeneratedGroup([a.odd, b.odd], name="two_s6_dim4")
        summary = closure_order(sub, max_elements=2000)
        if summary.triple() != (1440, 2, 720):
            raise RuntimeError(f"subgroup check failed: {summary}")
        _write(out_dir / "two_s6_dim4.json", sub,
               "order-1440 subgroup of the dim-4 group (preimage of a "
               "maximal S6); found by seeded random subgroup search")
        return


# ---------------------------------------------------------------------------
# Clifford-algebra construction of the double cover of A7
# ---------------------------------------------------------------------------

N7 = 6
GRAM = [[1 + (1 if i == j else 0) for j in range(N7)] for i in range(N7)]


def _perm_matrix_on_sumzero(perm: dict[int, int]) -> list[list[QQ]]:
    """Action of a permutation of {1..7} on the basis f_i = e_i - e_7."""
    cols = []
    for i in range(1, 8):
        if i == 7:
            continue
        si, s7 = perm[i], perm[7]
        col = [QQ(0)] * N7
        if si != 7:
            col[si - 1] += 1
        if s7 != 7:
            col[s7 - 1] -= 1
        cols.append(col)
    return [[cols[j][i] for j in range(N7)] for i in range(N7)]


def _bilinear(u, v) -> QQ:
    total = QQ(0)
    for i, ui in enumerate(u):
        if ui:
            row = GRAM[i]
            for j, vj in enumerate(v):
                if vj:
                    total += ui * vj * row[j]
    return total


def _reflect(v, x):
    factor = 2 * _bilinear(v, x) / _bilinear(v, v)
    return [xi - factor * vi for xi, vi in zip(x, v)]


def _reflection_factors(mat) -> list[list[QQ]]:
    """Cartan-Dieudonne over Q: mirrors composing (in list order) to mat.

    The form is positive definite, so g(x) - x is never isotropic."""
    current = [list(map(QQ, col)) for col in zip(*mat)]  # images of basis vectors
    target = [[QQ(1) if i == j else QQ(0) for i in range(N7)] for j in range(N7)]
    mirrors = []
    for step in range(N7):
        col, want = current[step], target[step]
        if col == want:
            continue
        v = [a - b for a, b in zip(col, want)]
        mirrors.append(v)
        current = [_reflect(v, c) for c in current]
    if current != target:
        raise RuntimeError("reflection decomposition failed")
    return mirrors


@lru_cache(maxsize=None)
def _mono_times_gen(mono: int, j: int) -> tuple[tuple[int, QQ], ...]:
    """e_mono * f_j as rational combinations of basis monomials.

    Straightening uses f_t f_j = 2 B(t,j) - f_j f_t and f_j^2 = B(j,j)."""
    if mono == 0:
        return ((1 << j, QQ(1)),)
    t = mono.bit_length() - 1
    rest = mono & ~(1 << t)
    if t < j:
        return ((mono | (1 << j), QQ(1)),)
    if t == j:
        return ((rest, QQ(GRAM[j][j])),)
    out = []
    if GRAM[t][j]:
        out.append((rest, QQ(2 * GRAM[t][j])))
    for mask, c in _mono_times_gen(rest, j):
        out.append((mask | (1 << t), -c))
    return tuple(out)


def _mul_by_monomial(a: dict, bw: int) -> dict:
    """a * e_bw, coefficients of any ring (QQ or Cyc)."""
    cur = dict(a)
    for j in range(N7):
        if bw >> j & 1:
            nxt = {}
            for aw, ac in cur.items():
                for w, c in _mono_times_gen(aw, j):
                    term = ac * c
                    prev = nxt.get(w)
                    nxt[w] = term if prev is None else prev + term
            cur = {w: c for w, c in nxt.items() if c}
    return cur


def cl_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for bw, bc in b.items():
        for w, c in _mul_by_monomial(a, bw).items():
            term = c * bc
            prev = out.get(w)
            out[w] = term if prev is None else prev + term
    return {w: c for w, c in out.items() if c}


def _vector_to_clifford(v) -> dict:
    return {1 << i: QQ(c) for i, c in enumerate(v) if c}


def _reversal(a: dict) -> dict:
    """Reversal anti-automorphism.  The basis is not B-orthogonal, so the
    reversed monomial is recomputed as a descending product of generators
    rather than sign-flipped."""
    out: dict = {}
    for w, c in a.items():
        cur = {0: QQ(1)}
        for j in range(N7 - 1, -1, -1):
            if w >> j & 1:
                nxt: dict = {}
                for aw, ac in cur.items():
                    for w2, c2 in _mono_times_gen(aw, j):
                        term = ac * c2
                        prev = nxt.get(w2)
                        nxt[w2] = term if prev is None else prev + term
                cur = {k2: v for k2, v in nxt.items() if v}
        for w2, c2 in cur.items():
            term = c * c2
            prev = out.get(w2)
            out[w2] = term if prev is None else prev + term
    return {w2: c2 for w2, c2 in out.items() if c2}


def _rational_sqrt(q) -> QQ:
    from math import isqrt

    num, den = int(q.numerator), int(q.denominator)
    rn, rd = isqrt(num), isqrt(den)
    if rn * rn != num or rd * rd != den:
        raise ValueError(f"{q} is not a rational square")
    return QQ(rn, rd)


def spin_lift(mat) -> dict:
    """Even Clifford element implementing the rotation, spinor norm 1."""
    mirrors = _reflection_factors(mat)
    if len(mirrors) % 2:
        raise RuntimeError("rotation needs an even number of reflections")
    s = {0: QQ(1)}
    for v in mirrors:
        s = cl_mul(s, _vector_to_clifford(v))
    norm = cl_mul(s, _reversal(s))
    if set(norm) != {0}:
        raise RuntimeError("spinor norm is not scalar")
    q = _rational_sqrt(norm[0])
    return {w: c / q for w, c in s.items()}


def build_two_a7(out_dir: Path) -> None:
    print("building the double cover of A7 via the even Clifford algebra ...", flush=True)
    seven_cycle = {i: (i % 7) + 1 for i in range(1, 8)}
    three_cycle = {1: 2, 2: 3, 3: 1, **{i: i for i in range(4, 8)}}
    mats = [_perm_matrix_on_sumzero(p) for p in (seven_cycle, three_cycle)]
    lifts = [spin_lift(m) for m in mats]

    # volume element z with z^2 = -7, from a B-orthogonal basis
    ortho = []
    for j in range(N7):
        w = [QQ(1) if i == j else QQ(0) for i in range(N7)]
        for u in ortho:
            f = _bilinear(w, u) / _bilinear(u, u)
            w = [a - f * b for a, b in zip(w, u)]
        ortho.append(w)
    vol = {0: QQ(1)}
    for w in ortho:
        vol = cl_mul(vol, _vector_to_clifford(w))
    vol_sq = cl_mul(vol, vol)
    if set(vol_sq) != {0} or vol_sq[0] >= 0:
        raise RuntimeError("volume element did not square to a negative scalar")
    q = _rational_sqrt(vol_sq[0] / QQ(-7))
    z_alg = {w: c / q for w, c in vol.items()}
    if cl_mul(z_alg, z_alg) != {0: QQ(-7)}:
        raise RuntimeError("central element does not square to -7")

    # scalars move to the 21st cyclotomic field
    K = 21
    qr7 = {1, 2, 4}
    sqrt_m7 = Cyc.zero(7)
    for a in range(1, 7):
        sqrt_m7 = sqrt_m7 + (zeta(7, a) if a in qr7 else -zeta(7, a))
    sqrt_m7 = sqrt_m7.to_conductor(K)
    w3 = zeta(21, 7)

    def to_k(a: dict) -> dict:
        return {w: rational(c, K) for w, c in a.items()}

    def k_clean(a: dict) -> dict:
        return {w: c for w, c in a.items() if not c.is_zero()}

    def kmul(a: dict, b: dict) -> dict:
        out: dict = {}
        for bw, bc in b.items():
            for w, c in _mul_by_monomial(a, bw).items():
                term = c * bc
                prev = out.get(w)
                out[w] = term if prev is None else prev + term
        return k_clean(out)

    def kadd(a: dict, b: dict) -> dict:
        out = dict(a)
        for w, c in b.items():
            prev = out.get(w)
            out[w] = c if prev is None else prev + c
        return k_clean(out)

    def kscale(a: dict, c: Cyc) -> dict:
        return k_clean({w: x * c for w, x in a.items()})

    def keq(a: dict, b: dict) -> bool:
        return not kadd(a, kscale(b, rational(-1, K)))

    one_k = {0: rational(1, K)}
    pi_plus = kscale(kadd(one_k, kscale(to_k(z_alg), sqrt_m7.inverse())), rational(QQ(1, 2), K))
    if not keq(kmul(pi_plus, pi_plus), pi_plus):
        raise RuntimeError("central projection is not idempotent")

    s1, s2 = (to_k(lift) for lift in lifts)
    # order-7 normalization of the 7-cycle lift; its eigenvalues on the
    # half-spin piece are four distinct 7th roots, so one character
    # projection has rank 1 (the 3-cycle has paired eigenvalues: rank 2)
    u = s1
    upow = dict(u)
    for _ in range(6):
        upow = kmul(upow, u)
    if keq(upow, kscale(one_k, rational(-1, K))):
        u = kscale(u, rational(-1, K))
    elif not keq(upow, one_k):
        raise RuntimeError("7-cycle lift does not have order dividing 14")
    u_powers = [one_k]
    for _ in range(6):
        u_powers.append(kmul(u_powers[-1], u))

    even_masks = [w for w in range(64) if bin(w).count("1") % 2 == 0]
    pos = {w: i for i, w in enumerate(even_masks)}

    def as_vec(a: dict):
        vec = [Cyc.zero(K)] * len(even_masks)
        for w, c in a.items():
            vec[pos[w]] = c
        return vec

    def row_reduce(vectors):
        rows = []
        for v in vectors:
            v = list(v)
            for piv, row in rows:
                if not v[piv].is_zero():
                    f = v[piv] * row[piv].inverse()
                    v = [x - f * y for x, y in zip(v, row)]
            piv = next((i for i, x in enumerate(v) if not x.is_zero()), None)
            if piv is not None:
                rows.append((piv, v))
        return rows

    z7 = zeta(21, 3)
    chosen = None
    for a in range(7):
        proj = {}
        for k in range(7):
            proj = kadd(proj, kscale(u_powers[k], z7 ** ((-a * k) % 7) * QQ(1, 7)))
        e = kmul(pi_plus, proj)
        if not e:
            continue
        if not keq(kmul(e, e), e):
            raise RuntimeError("character projection is not idempotent")
        rows = row_reduce([as_vec(kmul({w: rational(1, K)}, e)) for w in even_masks])
        print(f"  character a={a}: left ideal dimension {len(rows)}", flush=True)
        if len(rows) == 4:
            chosen = rows
            break
    if chosen is None:
        raise RuntimeError("no rank-1 character projection found")
    rows = chosen

    def coords(vec):
        out = []
        v = list(vec)
        for piv, row in rows:
            c = v[piv] * row[piv].inverse()
            out.append(c)
            if not c.is_zero():
                v = [x - c * y for x, y in zip(v, row)]
        if any(not x.is_zero() for x in v):
            raise RuntimeError("image left the ideal")
        return out

    row_elts = [
        {even_masks[i]: row[i] for i in range(len(row)) if not row[i].is_zero()}
        for _, row in rows
    ]
    gens4 = []
    for s in (s1, s2):
        cols = [coords(as_vec(kmul(s, w_elt))) for w_elt in row_elts]
        gens4.append(CycloMatrix([[cols[j][i] for j in range(4)] for i in range(4)], conductor=K))

    group = GeneratedGroup(gens4, name="two_a7_dim4")
    summary = closure_order(group, max_elements=12_000)
    print("  closure:", summary.triple(), flush=True)
    if summary.triple() != (5040, 2, 2520):
        raise RuntimeError(f"double-cover check failed: {summary}")
    _write(out_dir / "two_a7_dim4.json", group,
           "double cover of the alternating group on 7 letters in GL_4 over "
           "the 21st cyclotomic field; half-spin piece of the Clifford lift "
           "of the sum-zero permutation action")


def _write(path: Path, group: GeneratedGroup, note: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(group_to_json(group, note), fh, indent=1)
    print(f"  wrote {path}", flush=True)


def main() -> None:
    out_dir = external_data_dir()
    targets = set(sys.argv[1:]) or {"sp4", "two-s6", "two-a7"}
    pairs = None
    if targets & {"sp4", "two-s6"}:
        pairs = build_sp4_psp4(out_dir)
    if "two-s6" in targets:
        build_two_s6(out_dir, pairs)
    if "two-a7" in targets:
        build_two_a7(out_dir)
    print("done.")


if __name__ == "__main__":
    main()
