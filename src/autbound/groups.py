"""Finite matrix groups over cyclotomic fields, presented by generators.

Order computation is tiered: full closure enumeration (exact entries or
mod-p images) for groups within the element cap, and a base-and-strong-
generating-set chain over points of F_p^N beyond it.

Mod-p results are accepted only under the two-prime protocol: the kernel
of reduction at a place over p is a p-group, so if the image orders at two
different primes agree, both reductions are injective and the common value
is the exact order.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .cyclo import Cyc, NonInvertibleDenominator, ReductionMap, find_reduction_prime
from .matrix import CycloMatrix, identity_mod, mat_inv_mod, mat_mul_mod, mat_vec_mod

__all__ = [
    "CapExceeded",
    "FaithfulnessSuspect",
    "NonFiniteOrderError",
    "GroupSummary",
    "GeneratedGroup",
    "closure_order",
    "schreier_sims_order",
    "group_order",
    "derived_subgroup",
    "exact_elements",
    "modp_elements",
    "row_orbit",
    "spans_matrix_algebra",
    "block_permutation_image",
]

TIER1_CAP = 2_000_000
# Peak memory of a two-prime `closure_order` per enumerated element, rounded
# up from the tracemalloc peak over the closure divided by the order on the
# catalog groups (Python 3.11): 124 B (fermat-2-5) to 237 B (psp4-3), with
# 196 B on ex-2-4 and 224 B on ex-2-6.
CLOSURE_BYTES_PER_ELEMENT = 240


class CapExceeded(RuntimeError):
    """Element count exceeded the configured enumeration cap."""


class FaithfulnessSuspect(RuntimeError):
    """Two reduction primes disagree; the mod-p result cannot be trusted."""


class NonFiniteOrderError(RuntimeError):
    """A generator has no finite multiplicative order below the cap."""


@dataclass(frozen=True)
class GroupSummary:
    order: int
    scalar_order: int
    pgl_order: int
    center_order: int | None
    tier: str
    primes: tuple[int, ...] = ()

    def triple(self) -> tuple[int, int, int]:
        return (self.order, self.scalar_order, self.pgl_order)


class GeneratedGroup:
    """Immutable generator presentation; all generators share one conductor."""

    def __init__(self, generators, name: str = "", max_elements: int = TIER1_CAP):
        gens = list(generators)
        if not gens:
            raise ValueError("need at least one generator")
        n = gens[0].n
        if any(g.n != n for g in gens):
            raise ValueError("generators must share a dimension")
        m = 1
        for g in gens:
            m = m * g.m // math.gcd(m, g.m)
        self.generators = [g.to_conductor(m) for g in gens]
        self.dimension = n
        self.conductor = m
        self.name = name
        self.max_elements = max_elements

    def reduction_maps(self, count: int = 2, lower_bound: int = 3) -> list[ReductionMap]:
        """The first `count` usable reduction primes (denominators invertible).

        p = 2 is excluded: -I and I collide there, so reduction could never
        be injective on a group containing -I."""
        maps: list[ReductionMap] = []
        lb = max(lower_bound, 3)
        while len(maps) < count:
            rmap = find_reduction_prime(self.conductor, lb)
            lb = rmap.prime + 1
            try:
                for g in self.generators:
                    g.reduce(rmap)
            except NonInvertibleDenominator:
                continue
            maps.append(rmap)
        return maps

    def reduced_generators(self, rmap: ReductionMap) -> list[tuple[int, ...]]:
        return [g.reduce(rmap) for g in self.generators]

    def validate(self, order_cap: int = 10**6) -> None:
        """Check generator invertibility and finite multiplicative order."""
        rmap = self.reduction_maps(1)[0]
        n, p = self.dimension, rmap.prime
        ident = identity_mod(n)
        for g in self.generators:
            if g.det().is_zero():
                raise ValueError("generator is singular")
            gp = g.reduce(rmap)
            acc = gp
            order = 1
            while acc != ident:
                acc = mat_mul_mod(acc, gp, n, p)
                order += 1
                if order > order_cap:
                    raise NonFiniteOrderError("generator order exceeds cap mod p")
            if not (g**order).is_identity():
                raise NonFiniteOrderError("generator has infinite multiplicative order")


# -- closure enumeration -------------------------------------------------


def _encode(mat: tuple[int, ...], p: int) -> bytes:
    """Packed key of a mod-p matrix: each entry in the fewest bytes that hold p - 1."""
    if p < 256:
        return bytes(mat)
    width = (p.bit_length() + 7) // 8
    return b"".join(x.to_bytes(width, "big") for x in mat)


def _modp_bfs(gen_mats, n: int, p: int, cap: int, seen: set):
    """The BFS over the group generated by mod-p matrices.

    Yields (element, parent index, generator index) once per element,
    identity first as (identity, -1, -1); an element's index is its place
    in the stream, and it equals its parent times that generator.  Only
    frontier tuples stay in memory; `seen` receives the packed key of every
    element, for membership tests by `_encode`.
    """
    ident = identity_mod(n)
    seen.add(_encode(ident, p))
    yield ident, -1, -1
    frontier = [ident]
    frontier_idx = [0]
    count = 1
    while frontier:
        next_frontier = []
        next_idx = []
        for a_idx, a in zip(frontier_idx, frontier):
            for gi, g in enumerate(gen_mats):
                prod = mat_mul_mod(a, g, n, p)
                key = _encode(prod, p)
                if key not in seen:
                    if count >= cap:
                        raise CapExceeded(f"closure exceeded {cap} elements")
                    seen.add(key)
                    yield prod, a_idx, gi
                    next_frontier.append(prod)
                    next_idx.append(count)
                    count += 1
        frontier = next_frontier
        frontier_idx = next_idx


def modp_elements(group: GeneratedGroup, rmap: ReductionMap):
    """Every element of the group's image mod rmap.prime, each yielded once
    as a flat row-major tuple, up to the group's element cap.  Nothing but
    the BFS frontier and its key set is held, so a caller that folds the
    stream keeps memory at that."""
    gen_mats = group.reduced_generators(rmap)
    for mat, _, _ in _modp_bfs(gen_mats, group.dimension, rmap.prime, group.max_elements, set()):
        yield mat


def _modp_closure(gen_mats, n: int, p: int, cap: int, want_center: bool):
    """Counts over the mod-p BFS.

    Returns (order, scalar_count, center_count, keys), where `keys` is the
    packed key set of the group, for membership tests by `_encode`.
    """
    seen: set = set()
    count = scalar_count = center_count = 0
    diag_idx = set(i * n + i for i in range(n))
    off_idx = [i for i in range(n * n) if i not in diag_idx]
    for prod, _, _ in _modp_bfs(gen_mats, n, p, cap, seen):
        count += 1
        d = prod[0]
        if all(prod[i] == 0 for i in off_idx) and all(prod[i] == d for i in diag_idx):
            scalar_count += 1
            center_count += 1
        elif want_center and all(
            mat_mul_mod(prod, g2, n, p) == mat_mul_mod(g2, prod, n, p) for g2 in gen_mats
        ):
            center_count += 1
    return count, scalar_count, (center_count if want_center else None), seen


def row_orbit(group: GeneratedGroup, rows, max_elements: int | None = None) -> list[tuple]:
    """The orbit of the rows `rows` of the identity under right
    multiplication by the group: every distinct tuple of those rows of a
    group element, each a tuple of Cyc at the group's conductor, in BFS
    order from the identity's.

    Exact arithmetic and exact coefficient keys throughout, so no
    injectivity argument is needed.  One sparse row-times-generator
    product per orbit point, row and generator; raises CapExceeded past
    the element cap.  The orbit of all n rows is the group itself.
    """
    cap = max_elements or group.max_elements
    n, m = group.dimension, group.conductor
    zero, one = Cyc.zero(m), Cyc.one(m)
    # generator rows as (column, entry) pairs over the nonzero entries
    sparse = [[[(j, x) for j, x in enumerate(row) if not x.is_zero()] for row in g.rows]
              for g in group.generators]

    def times(vec, g):
        out = [None] * n
        for k, a in enumerate(vec):
            if a.is_zero():
                continue
            for j, x in g[k]:
                prev = out[j]
                out[j] = a * x if prev is None else prev + a * x
        return tuple(zero if x is None else x for x in out)

    start = tuple(tuple(one if j == i else zero for j in range(n)) for i in rows)
    orbit = [start]
    seen = {tuple(x.c for vec in start for x in vec)}
    frontier = [start]
    while frontier:
        next_frontier = []
        for point in frontier:
            for g in sparse:
                image = tuple(times(vec, g) for vec in point)
                key = tuple(x.c for vec in image for x in vec)
                if key not in seen:
                    if len(orbit) >= cap:
                        raise CapExceeded(f"row orbit exceeded {cap} elements")
                    seen.add(key)
                    orbit.append(image)
                    next_frontier.append(image)
        frontier = next_frontier
    return orbit


def closure_order(
    group: GeneratedGroup,
    max_elements: int | None = None,
    strategy: str = "modp",
    want_center: bool = False,
    maps: list[ReductionMap] | None = None,
) -> GroupSummary:
    """Exact group order by full enumeration.

    strategy "modp" (default) enumerates images at two reduction primes and
    accepts on agreement; "exact" enumerates cyclotomic matrices directly.
    want_center costs two extra products per element and generator, so ask
    for it on small groups only.
    """
    cap = max_elements or group.max_elements
    n = group.dimension
    if strategy == "exact":
        # the orbit of all n rows is the group itself
        elems = [CycloMatrix(rows, conductor=group.conductor)
                 for rows in row_orbit(group, range(n), cap)]
        order = len(elems)
        scalar = sum(1 for e in elems if e.is_scalar())
        center = None
        if want_center:
            gens = group.generators
            center = sum(1 for e in elems if all(e @ g == g @ e for g in gens))
        return GroupSummary(order, scalar, order // scalar, center, tier="closure-exact")
    maps = maps or group.reduction_maps(2)
    results = []
    for rmap in maps:
        gen_mats = group.reduced_generators(rmap)
        # slice at once, so the key set of one prime is freed before the next
        got = _modp_closure(gen_mats, n, rmap.prime, cap, want_center)[:3]
        results.append(got)
    if results[0] != results[1]:
        raise FaithfulnessSuspect(
            f"orders at p={maps[0].prime} and p={maps[1].prime} disagree: {results}"
        )
    order, scalar, center = results[0]
    if order % scalar != 0:
        raise FaithfulnessSuspect("scalar subgroup order does not divide the group order")
    return GroupSummary(
        order, scalar, order // scalar, center, tier="closure-modp", primes=tuple(m.prime for m in maps)
    )


def exact_elements(group: GeneratedGroup, max_elements: int | None = None) -> list[CycloMatrix]:
    """All elements as exact matrices, via the mod-p BFS tree.

    One exact product per element; distinctness of the reconstructed
    elements holds whenever reduction is injective, which the tier-1
    two-prime checks certify for catalog groups.
    """
    cap = max_elements or group.max_elements
    rmap = group.reduction_maps(1)[0]
    gen_mats = group.reduced_generators(rmap)
    n = group.dimension
    elems = []
    for _, parent, gi in _modp_bfs(gen_mats, n, rmap.prime, cap, set()):
        if parent < 0:
            elems.append(CycloMatrix.identity(n, group.conductor))
        else:
            elems.append(elems[parent] @ group.generators[gi])
    return elems


# -- Schreier-Sims over points of F_p^N ----------------------------------
#
# Base points are projective lines [v] where possible (small orbits), but a
# chain of projective points alone cannot separate diagonal matrices, so
# plain vectors also serve as points; the greedy selector takes whichever
# candidate has the smallest orbit estimate.


def _normalize_proj(v: tuple[int, ...], p: int) -> tuple[int, ...]:
    for x in v:
        if x:
            if x == 1:
                return v
            inv = pow(x, p - 2, p)
            return tuple((y * inv) % p for y in v)
    raise ValueError("zero vector has no projective class")


class _Chain:
    """Stabilizer chain: base points, strong generators, transversals."""

    def __init__(self, n: int, p: int):
        self.n = n
        self.p = p
        self.base: list[tuple[tuple[int, ...], str]] = []
        self.strong: list[tuple[int, ...]] = []
        self.level_gens: list[list[tuple[int, ...]]] = []
        self.transversals: list[dict] = []
        self.ident = identity_mod(n)

    def order(self) -> int:
        out = 1
        for t in self.transversals:
            out *= len(t)
        return out

    def _apply_pt(self, mat, point, kind):
        img = mat_vec_mod(mat, point, self.n, self.p)
        return _normalize_proj(img, self.p) if kind == "proj" else img

    def _fixes_prefix(self, mat, level: int) -> bool:
        return all(self._apply_pt(mat, pt, kind) == pt for pt, kind in self.base[:level])

    def _rebuild_level(self, i: int) -> None:
        self.level_gens[i] = [s for s in self.strong if self._fixes_prefix(s, i)]
        point, kind = self.base[i]
        trans = {point: (self.ident, self.ident)}
        self.transversals[i] = trans
        self._close_orbit(i, list(trans))

    def _close_orbit(self, i: int, frontier: list) -> None:
        n, p = self.n, self.p
        point, kind = self.base[i]
        trans = self.transversals[i]
        gens = self.level_gens[i]
        while frontier:
            new = []
            for pt in frontier:
                t, _ = trans[pt]
                for g in gens:
                    img = self._apply_pt(g, pt, kind)
                    if img not in trans:
                        # column action: witness for g(pt) is g*t, so that
                        # (g*t)(base) = g(t(base)) = img
                        tg = mat_mul_mod(g, t, n, p)
                        trans[img] = (tg, mat_inv_mod(tg, n, p))
                        new.append(img)
            frontier = new

    def _extend_level(self, i: int, s) -> None:
        """Incrementally grow level i's orbit after adding generator s."""
        self.level_gens[i].append(s)
        n, p = self.n, self.p
        point, kind = self.base[i]
        trans = self.transversals[i]
        frontier = []
        for pt in list(trans):
            t, _ = trans[pt]
            img = self._apply_pt(s, pt, kind)
            if img not in trans:
                tg = mat_mul_mod(s, t, n, p)
                trans[img] = (tg, mat_inv_mod(tg, n, p))
                frontier.append(img)
        self._close_orbit(i, frontier)

    def _choose_base_point(self, mat) -> tuple[tuple[int, ...], str]:
        """A point moved by mat, which must not be the identity.
        Standard-basis projective points come first (block-structured
        groups give them small orbits), then basis vectors; ties are broken
        by the cyclic-orbit length under mat.  A non-identity matrix moves
        some basis vector, so the second tier always yields a point."""
        n = self.n
        basis = [tuple(1 if i == j else 0 for j in range(n)) for i in range(n)]
        for kind in ("proj", "affine"):
            best = None
            best_len = None
            for pt in basis:
                if self._apply_pt(mat, pt, kind) == pt:
                    continue
                cur = pt
                length = 0
                while length < 512:
                    cur = self._apply_pt(mat, cur, kind)
                    length += 1
                    if cur == pt:
                        break
                if best_len is None or length < best_len:
                    best, best_len = (pt, kind), length
            if best is not None:
                return best

    def sift(self, mat, start: int = 0):
        """Returns (None, depth) if mat factors through the chain from
        level `start` on, else (residue, level) at the first failing level."""
        n, p = self.n, self.p
        for i in range(start, len(self.base)):
            img = self._apply_pt(mat, *self.base[i])
            entry = self.transversals[i].get(img)
            if entry is None:
                return mat, i
            mat = mat_mul_mod(entry[1], mat, n, p)
        if mat == self.ident:
            return None, len(self.base)
        return mat, len(self.base)

    def add_strong(self, mat, level: int) -> None:
        self.strong.append(mat)
        if level == len(self.base):
            self.base.append(self._choose_base_point(mat))
            self.level_gens.append([])
            self.transversals.append({})
            self._rebuild_level(level)
            level -= 1
        else:
            self._extend_level(level, mat)
            level -= 1
        for i in range(level, -1, -1):
            self._extend_level(i, mat)

    def contains(self, mat) -> bool:
        return self.sift(mat)[0] is None


def _random_stream(gens, n, p, seed, slots: int = 12, burn: int = 60):
    """Product-replacement random element stream."""
    rng = random.Random(seed)
    pool = list(gens)
    while len(pool) < slots:
        pool.append(gens[len(pool) % len(gens)])
    acc = identity_mod(n)
    step = 0
    while True:
        i, j = rng.randrange(slots), rng.randrange(slots)
        if i != j:
            pool[i] = mat_mul_mod(pool[i], pool[j], n, p)
        acc = mat_mul_mod(acc, pool[i], n, p)
        step += 1
        if step > burn:
            yield acc


def _verify_chain(chain: _Chain) -> None:
    """Deterministic pass: every Schreier generator at every level must
    sift to the identity through the deeper chain.  Failures are added as
    strong generators and the pass restarts."""
    n, p = chain.n, chain.p
    i = len(chain.base) - 1
    while i >= 0:
        clean = True
        trans = chain.transversals[i]
        gens = chain.level_gens[i]
        point, kind = chain.base[i]
        for pt, (t, _tinv) in list(trans.items()):
            for g in gens:
                img = chain._apply_pt(g, pt, kind)
                entry = trans.get(img)
                assert entry is not None, "transversal not closed under its own generators"
                schreier = mat_mul_mod(entry[1], mat_mul_mod(g, t, n, p), n, p)
                if schreier == chain.ident:
                    continue
                residue, drop = chain.sift(schreier, start=i + 1)
                if residue is None:
                    continue
                chain.add_strong(residue, drop)
                clean = False
                break
            if not clean:
                break
        if clean:
            i -= 1
        else:
            i = len(chain.base) - 1


def _bsgs_chain(gen_mats, n: int, p: int, seed: int) -> _Chain:
    chain = _Chain(n, p)
    for g in gen_mats:
        residue, level = chain.sift(g)
        if residue is not None:
            chain.add_strong(residue, level)
    stream = _random_stream(gen_mats, n, p, seed + 1)
    misses = 0
    while misses < 24:
        residue, level = chain.sift(next(stream))
        if residue is None:
            misses += 1
        else:
            misses = 0
            chain.add_strong(residue, level)
    _verify_chain(chain)
    return chain


def _scalar_order_bsgs(chain: _Chain) -> int:
    n, p = chain.n, chain.p
    count = 0
    for c in range(1, p):
        mat = tuple(c if i % (n + 1) == 0 else 0 for i in range(n * n))
        if chain.contains(mat):
            count += 1
    return count


def schreier_sims_order(
    group: GeneratedGroup,
    maps: list[ReductionMap] | None = None,
    seed: int = 2024,
) -> GroupSummary:
    """Order via randomized BSGS with deterministic Schreier verification,
    accepted under two-prime agreement."""
    n = group.dimension
    maps = maps or group.reduction_maps(2)
    results = []
    for rmap in maps:
        gen_mats = group.reduced_generators(rmap)
        chain = _bsgs_chain(gen_mats, n, rmap.prime, seed)
        results.append((chain.order(), _scalar_order_bsgs(chain)))
    if len(set(results)) != 1:
        raise FaithfulnessSuspect(
            f"BSGS orders disagree across primes {[m.prime for m in maps]}: {results}"
        )
    order, scalar = results[0]
    if order % scalar != 0:
        raise FaithfulnessSuspect("scalar subgroup order does not divide the group order")
    return GroupSummary(
        order, scalar, order // scalar, None, tier="schreier-sims", primes=tuple(m.prime for m in maps)
    )


def group_order(
    group: GeneratedGroup,
    max_elements: int | None = None,
    maps: list[ReductionMap] | None = None,
    seed: int = 2024,
) -> GroupSummary:
    """Closure first; escalate to Schreier-Sims when the cap is exceeded."""
    try:
        return closure_order(group, max_elements=max_elements, maps=maps)
    except CapExceeded:
        return schreier_sims_order(group, maps=maps, seed=seed)


# -- derived subgroup -----------------------------------------------------


def derived_subgroup(group: GeneratedGroup, max_elements: int | None = None) -> GeneratedGroup:
    """Generators of the normal closure of all generator commutators.

    The conjugation-stability loop runs on mod-p images at two primes
    (membership certified by agreement); only the returned generators are
    exact matrices.  The returned group keeps the element cap.
    """
    cap = max_elements or group.max_elements
    gens = group.generators
    n, m = group.dimension, group.conductor
    ident = CycloMatrix.identity(n, m)
    seeds: list[CycloMatrix] = []
    for i, a in enumerate(gens):
        for b in gens[i + 1 :]:
            c = a.inverse() @ b.inverse() @ a @ b
            if not c.is_identity():
                seeds.append(c)
    if not seeds:
        return GeneratedGroup([ident], name=f"derived({group.name})", max_elements=cap)
    maps = group.reduction_maps(2)
    gen_invs = [g.inverse() for g in gens]
    while True:
        closures = [
            _modp_closure([s.reduce(rmap) for s in seeds], n, rmap.prime, cap, False)[3]
            for rmap in maps
        ]
        if len(closures[0]) != len(closures[1]):
            raise FaithfulnessSuspect("derived-subgroup closures disagree across primes")
        new = []
        for s in seeds:
            for g, ginv in zip(gens, gen_invs):
                conj = (ginv @ s @ g).to_conductor(m)
                member = all(
                    _encode(conj.reduce(rmap), rmap.prime) in closure
                    for rmap, closure in zip(maps, closures)
                )
                if not member:
                    new.append(conj)
        if not new:
            return GeneratedGroup(seeds, name=f"derived({group.name})", max_elements=cap)
        seeds = seeds + new


# -- structural helpers ---------------------------------------------------


def spans_matrix_algebra(gens: list[CycloMatrix]) -> bool:
    """Burnside test: the words in the generators span all of End(V) iff
    the representation is irreducible."""
    group = GeneratedGroup(gens)
    n, m, gens = group.dimension, group.conductor, group.generators
    basis: list[tuple[int, list]] = []

    def reduce_against(v):
        v = list(v)
        for pivot_idx, row in basis:
            if not v[pivot_idx].is_zero():
                f = v[pivot_idx] * row[pivot_idx].inverse()
                v = [a - f * b for a, b in zip(v, row)]
        for i, x in enumerate(v):
            if not x.is_zero():
                return i, v
        return None, v

    pending = [CycloMatrix.identity(n, m)] + list(gens)
    while pending and len(basis) < n * n:
        mat = pending.pop()
        vec = [x for row in mat.rows for x in row]
        idx, v = reduce_against(vec)
        if idx is not None:
            basis.append((idx, v))
            for g in gens:
                pending.append(mat @ g)
    return len(basis) == n * n


def block_permutation_image(group: GeneratedGroup, block_sizes: list[int]) -> set[tuple[int, ...]]:
    """Permutations of the given consecutive blocks induced by the group.

    Each generator must map each block onto exactly one block; returns the
    closure of the generator images inside the symmetric group.
    """
    bounds = []
    start = 0
    for size in block_sizes:
        bounds.append((start, start + size))
        start += size
    if start != group.dimension:
        raise ValueError("block sizes must sum to the dimension")
    r = len(bounds)
    perms = []
    for g in group.generators:
        perm = []
        for bi, (r0, r1) in enumerate(bounds):
            target = None
            for bj, (c0, c1) in enumerate(bounds):
                nonzero = any(
                    not g.rows[i][j].is_zero() for i in range(r0, r1) for j in range(c0, c1)
                )
                if nonzero:
                    if target is not None:
                        raise ValueError("generator does not permute the blocks")
                    target = bj
            perm.append(target)
        if sorted(perm) != list(range(r)):
            raise ValueError("generator does not permute the blocks")
        perms.append(tuple(perm))
    seen = {tuple(range(r))}
    frontier = list(seen)
    while frontier:
        new = []
        for a in frontier:
            for b in perms:
                c = tuple(b[a[i]] for i in range(r))
                if c not in seen:
                    seen.add(c)
                    new.append(c)
        frontier = new
    return seen
