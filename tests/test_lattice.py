from fractions import Fraction

import pytest

from torcrys.lattice import EvenRankError, RootSystem, Weight


def test_even_rank_rejected():
    with pytest.raises(EvenRankError):
        RootSystem(4)
    with pytest.raises(ValueError):
        RootSystem(1)


def test_cartan_matrix_cyclic():
    rs = RootSystem(5)
    for i in rs.nodes:
        assert rs.cartan(i, i) == 2
        assert rs.cartan(i, i + 1) == -1
        assert rs.cartan(i + 1, i) == -1
        assert rs.cartan(i, i + 2) == 0
    assert rs.cartan(0, 5) == -1  # wrap-around edge


def test_parity_alternates_on_edges():
    for parity in (0, 1):
        rs = RootSystem(3, parity=parity)
        for i in rs.nodes:
            assert rs.s(i) + rs.s(rs.mod(i + 1)) == 1


def test_root_coordinates_n3():
    rs = RootSystem(3)
    a0 = rs.alpha(0)
    assert a0.h == (2, -1, 0, -1) and a0.delta == 1
    a1 = rs.alpha(1)
    assert a1.h == (-1, 2, -1, 0) and a1.delta == 0


def test_delta_is_sum_of_roots():
    for n in (3, 5, 7):
        rs = RootSystem(n)
        total = rs.zero_weight()
        for i in rs.nodes:
            total = total + rs.alpha(i)
        assert total == rs.delta_weight()
        assert total.level() == 0


def test_fundamental_and_varpi():
    rs = RootSystem(3)
    w = rs.varpi(1)
    assert w.h == (-1, 1, 0, 0)
    assert w.level() == 0
    lam2 = rs.fundamental(2)
    assert lam2.pair(2) == 1 and sum(lam2.h) == 1
    for ell in range(1, 4):
        assert rs.varpi(ell).level() == 0


def test_reflections():
    rs = RootSystem(3)
    w = rs.varpi(1)
    assert rs.reflect(w, 1) == w - rs.alpha(1)
    assert rs.reflect(rs.delta_weight(), 2) == rs.delta_weight()
    lam = Weight((1, -2, 0, 3), Fraction(1, 2))
    for i in rs.nodes:
        assert rs.reflect(rs.reflect(lam, i), i) == lam


def test_distance_function():
    rs = RootSystem(7)
    assert [rs.d(ell) for ell in range(1, 8)] == [1, 2, 3, 4, 3, 2, 1]
    rs3 = RootSystem(3)
    assert [rs3.d(ell) for ell in range(1, 4)] == [1, 2, 1]


def _closed_form_cartan(n, i, j):
    d = (i - j) % (n + 1)
    return 2 if d == 0 else -1 if d in (1, n) else 0


@pytest.mark.parametrize("n", [3, 5, 7])
def test_cartan_and_alpha_tables_match_closed_form(n):
    rs = RootSystem(n)
    span = range(-(n + 1), 2 * (n + 1) + 1)
    for i in span:
        for j in span:
            assert rs.cartan(i, j) == _closed_form_cartan(n, i, j), (i, j)
        a = rs.alpha(i)
        assert a.h == tuple(_closed_form_cartan(n, j, i) for j in range(n + 1))
        assert a.delta == (1 if i % (n + 1) == 0 else 0)
        assert type(a.delta) is int


def _sample_weights(n, seed):
    import random
    rng = random.Random(seed)
    deltas = [0, 1, -3, Fraction(1, 2), Fraction(-5, 3), Fraction(7, 2)]
    return [Weight(tuple(rng.randint(-4, 4) for _ in range(n + 1)),
                   rng.choice(deltas)) for _ in range(12)]


@pytest.mark.parametrize("n", [3, 5])
def test_weight_arithmetic_matches_constructor(n):
    ws = _sample_weights(n, n)
    for a in ws:
        for b in ws:
            for got, h, d in (
                    (a + b, [x + y for x, y in zip(a.h, b.h)], a.delta + b.delta),
                    (a - b, [x - y for x, y in zip(a.h, b.h)], a.delta - b.delta)):
                want = Weight(tuple(h), d)
                assert got == want and hash(got) == hash(want)
                assert type(got.delta) is type(want.delta)
                assert str(got) == str(want)
        for c in (-2, 0, 3):
            want = Weight(tuple(c * x for x in a.h), c * a.delta)
            got = a.scaled(c)
            assert got == want and hash(got) == hash(want)
            assert type(got.delta) is type(want.delta)
        neg = -a
        want = Weight(tuple(-x for x in a.h), -a.delta)
        assert neg == want and hash(neg) == hash(want)
        assert type(neg.delta) is type(want.delta)


def test_delta_normal_form():
    h = (1, 0, -1, 0)
    two = Weight(h, Fraction(2))
    assert two == Weight(h, 2) and hash(two) == hash(Weight(h, 2))
    assert str(two) == str(Weight(h, 2)) == "(1,0,-1,0;2d)"
    assert type(two.delta) is int
    half = Weight(h, Fraction(1, 2))
    assert type(half.delta) is Fraction and half.delta == Fraction(1, 2)
    assert str(half) == "(1,0,-1,0;1/2d)"
    # a sum of non-integral deltas that is integral comes back as an int
    whole = half + half
    assert type(whole.delta) is int and whole == Weight((2, 0, -2, 0), 1)
    assert type(half.scaled(2).delta) is int
    assert type((half - Weight(h, Fraction(3, 2))).delta) is int
