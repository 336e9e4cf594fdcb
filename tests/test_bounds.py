import math
import random

import pytest

from autbound.bounds import (
    NotExceptionalError,
    Partition,
    bound_B,
    enumerate_exceptional,
    fermat_bound,
    max_exceptional_degree,
    partitions_of,
    ratio_strings_match,
    render_ratio,
    verify_no_exceptional,
    xi,
)
from autbound.cyclo import QQ

from table2_expected import TABLE2


def test_xi_table():
    assert xi(1) == 1
    assert xi(2) == 60
    assert xi(3) == 360
    assert xi(4) == 25920
    assert xi(5) == 25920
    assert xi(6) == 6531840
    assert xi(7) == 1451520
    assert xi(8) == 348364800
    assert xi(9) == 4199040
    assert xi(12) == 448345497600
    for n in (10, 11, 13, 14, 20):
        assert xi(n) == math.factorial(n + 1)
    assert xi(10) == 39916800


def test_partition_basics():
    pi = Partition([1, 2, 2, 4])
    assert pi.blocks == (4, 2, 2, 1)
    assert pi.n == 9 and pi.r == 4
    assert pi.multiplicities() == {4: 1, 2: 2, 1: 1}
    assert str(pi) == "(4,2^2,1)"
    assert Partition.parse("(4,2^2,1)") == pi
    assert Partition.parse("4,2,2,1") == pi
    with pytest.raises(ValueError):
        Partition([])
    with pytest.raises(ValueError):
        Partition([0, 1])


def test_bound_B_examples():
    assert bound_B(Partition([2]), 3) == 180
    assert fermat_bound(2, 3) == 18
    assert QQ(180, 18) == 10
    for n in (2, 3, 5, 8):
        for d in (3, 4, 7):
            assert bound_B(Partition([1] * n), d) == math.factorial(n) * d**n
    assert bound_B(Partition([2, 1, 1, 1]), 3) == 29160
    assert fermat_bound(5, 3) == 29160


def test_bound_B_order_independence():
    rng = random.Random(5)
    for _ in range(50):
        blocks = [rng.randint(1, 6) for _ in range(rng.randint(1, 6))]
        d = rng.randint(3, 9)
        assert bound_B(Partition(blocks), d) == bound_B(Partition(reversed(sorted(blocks))), d)


def test_max_exceptional_degree_examples():
    assert max_exceptional_degree(Partition([2])) == 30
    assert max_exceptional_degree(Partition([2, 2, 2])) == 12
    with pytest.raises(ValueError):
        max_exceptional_degree(Partition([1, 1, 1]))
    with pytest.raises(NotExceptionalError):
        max_exceptional_degree(Partition([2, 1, 1, 1, 1]))  # N=6 variant is not exceptional


def test_max_exceptional_degree_matches_linear_scan():
    rows = enumerate_exceptional(2, 26)
    assert len(rows) == 80
    for row in rows:
        pi, n = row.partition, row.n
        d = 3
        while bound_B(pi, d + 1) >= fermat_bound(n, d + 1):
            d += 1
        assert max_exceptional_degree(pi) == row.max_d == d, pi


def test_partitions_descending_lex():
    got = list(partitions_of(5))
    assert got == [(5,), (4, 1), (3, 2), (3, 1, 1), (2, 2, 1), (2, 1, 1, 1), (1, 1, 1, 1, 1)]
    assert len(list(partitions_of(12))) == 77


def test_enumerate_exceptional_counts():
    rows = enumerate_exceptional(2, 26)
    assert len(rows) == 80
    by_n5 = [r for r in rows if r.n == 5]
    assert [str(r.partition) for r in by_n5] == ["(5)", "(4,1)", "(3,2)", "(2^2,1)", "(2,1^3)"]
    assert [r.index for r in by_n5] == [8, 9, 10, 11, 12]
    last = rows[-1]
    assert last.n == 26 and str(last.partition) == "(2^13)" and last.max_d == 3


def test_table2_exact_match():
    rows = enumerate_exceptional(2, 26)
    assert len(rows) == len(TABLE2)
    for row, (idx, n, part, max_d, ratio) in zip(rows, TABLE2):
        assert row.index == idx
        assert row.n == n
        assert row.partition == Partition.parse(part)
        assert row.max_d == max_d
        assert ratio_strings_match(row.ratio_str, ratio), (idx, row.ratio_str, ratio)


def test_exceptional_row_witness():
    for row in enumerate_exceptional(2, 26):
        n = row.n
        assert bound_B(row.partition, row.max_d) >= fermat_bound(n, row.max_d)
        assert bound_B(row.partition, row.max_d + 1) < fermat_bound(n, row.max_d + 1)


def test_verify_no_exceptional():
    report = verify_no_exceptional(27)
    assert report.ok and report.best_ratio < 1
    assert verify_no_exceptional(30).ok
    with pytest.raises(ValueError):
        verify_no_exceptional(26)


def test_concatenation_inequality():
    rng = random.Random(123)
    for _ in range(120):
        a = Partition([rng.randint(1, 7) for _ in range(rng.randint(1, 5))])
        b = Partition([rng.randint(1, 7) for _ in range(rng.randint(1, 5))])
        d = rng.randint(3, 8)
        lhs = bound_B(a, d) * bound_B(b, d)
        rhs = bound_B(a.concat(b), d)
        assert lhs <= rhs
        if set(a.blocks).isdisjoint(b.blocks):
            assert lhs == rhs


def test_render_ratio():
    assert render_ratio(QQ(10)) == "10.0"
    assert render_ratio(QQ(1)) == "1.00"
    assert render_ratio(QQ(1080, 162)) == "6.67"
    assert render_ratio(QQ(2332800, 524880)) == "4.44"
    assert render_ratio(QQ(1067, 10)) == "107"
    assert render_ratio(QQ(952, 10)) == "95.2"


def test_ratio_strings_match():
    assert ratio_strings_match("6.67", "6.66")
    assert ratio_strings_match("4.44", "4.45")
    assert ratio_strings_match("106", "107")
    assert not ratio_strings_match("6.67", "6.64")
    assert not ratio_strings_match("10.0", "12.0")
    assert ratio_strings_match("106", "106")
