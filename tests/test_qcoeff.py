import ast
import random
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

import pytest

import torcrys
from torcrys.qcoeff import (ONE, CycloElem, ExpansionError, LaurentPoly,
                            QSeries, RQ_ONE, RationalQ, SpecializationError,
                            _poly_gcd, cyclotomic, eval_cyclotomic, qbinom,
                            qint, series_log, series_of_rational)

Q = LaurentPoly.q_power
INT = LaurentPoly.from_int


# independent long-division oracle over Q coefficients
def divide_exactly(num: dict, den: dict) -> dict:
    num = {k: Fraction(c) for k, c in num.items() if c}
    den = {k: Fraction(c) for k, c in den.items() if c}
    quot = {}
    while num:
        dn, dd = max(num), max(den)
        f = num[dn] / den[dd]
        quot[dn - dd] = f
        for k, c in den.items():
            e = dn - dd + k
            s = num.get(e, 0) - f * c
            if s:
                num[e] = s
            else:
                num.pop(e, None)
    return quot


def test_qint_trivial():
    assert qint(0).is_zero()
    assert qint(2) == LaurentPoly({1: 1, -1: 1})
    assert qint(-3) == -qint(3)


def test_qint_3_against_division_oracle():
    expected = divide_exactly({3: 1, -3: -1}, {1: 1, -1: -1})
    assert {k: Fraction(c) for k, c in qint(3).terms.items()} == expected
    assert qint(3) == LaurentPoly({2: 1, 0: 1, -2: 1})


def test_qbinom_small():
    assert qbinom(2, 1) == qint(2)
    assert qbinom(3, 0) == INT(1)


def test_qbinom_4_2_against_product_oracle():
    # direct product/divide oracle
    def mul(a, b):
        out = {}
        for i, c in a.items():
            for j, d in b.items():
                out[i + j] = out.get(i + j, 0) + c * d
        return {k: v for k, v in out.items() if v}

    prod = mul(dict(qint(4).terms), dict(qint(3).terms))
    den = mul(dict(qint(2).terms), dict(qint(1).terms))
    quot = divide_exactly(prod, den)
    assert {k: Fraction(c) for k, c in qbinom(4, 2).terms.items()} == quot
    assert qbinom(4, 2) == LaurentPoly({4: 1, 2: 1, 0: 2, -2: 1, -4: 1})


def test_qbinom_symmetry_and_classical_limit():
    from math import comb
    for m in range(9):
        for k in range(m + 1):
            b = qbinom(m, k)
            assert b == qbinom(m, m - k)
            assert b.eval_at_one() == comb(m, k)


def test_qbinom_range_error():
    with pytest.raises(ValueError):
        qbinom(3, 4)
    with pytest.raises(ValueError):
        qbinom(3, -1)


def test_series_of_rational_geometric():
    one = RQ_ONE
    s = series_of_rational({0: one}, {0: one, 1: -one}, 1, 3)
    assert [str(c) for c in s.coeffs] == ["1", "1", "1", "1"]


def test_series_of_rational_constant():
    c = RationalQ(Q(2))
    s = series_of_rational({0: c}, {0: RQ_ONE}, 1, 4)
    assert s.coeff(0) == c
    assert all(s.coeff(k).is_zero() for k in range(1, 5))


def test_series_of_rational_example_against_long_multiplication():
    # (1 - q^-1 z)/(1 - q z): multiply out (1 - q^-1 z) * sum (qz)^k
    num = {0: RQ_ONE, 1: -RationalQ.q_power(-1)}
    den = {0: RQ_ONE, 1: -RationalQ.q_power(1)}
    s = series_of_rational(num, den, 1, 2)
    assert s.coeff(0) == RQ_ONE
    assert s.coeff(1) == RationalQ(LaurentPoly({1: 1, -1: -1}))
    assert s.coeff(2) == RationalQ(LaurentPoly({2: 1, 0: -1}))


def test_series_of_rational_requires_invertible_term():
    with pytest.raises(ExpansionError):
        series_of_rational({0: RQ_ONE}, {1: RQ_ONE}, 1, 2)


def test_series_log_examples():
    one = QSeries(1, [RQ_ONE], 3)
    assert all(c.is_zero() for c in series_log(one).coeffs)
    s = series_of_rational({0: RQ_ONE}, {0: RQ_ONE, 1: -RationalQ.q_power(1)}, 1, 4)
    lg = series_log(s)
    for m in range(1, 5):
        assert lg.coeff(m) == RationalQ(Q(m), INT(m))
    # (1 - q^-1 z)/(1 - q z): log coefficients (q^m - q^-m)/m
    num = {0: RQ_ONE, 1: -RationalQ.q_power(-1)}
    den = {0: RQ_ONE, 1: -RationalQ.q_power(1)}
    lg = series_log(series_of_rational(num, den, 1, 4))
    for m in range(1, 5):
        assert lg.coeff(m) == RationalQ(LaurentPoly({m: 1, -m: -1}), INT(m))


def test_series_log_requires_unit_constant():
    s = QSeries(1, [RationalQ.q_power(1)], 2)
    with pytest.raises(ValueError):
        series_log(s)


def test_cyclotomic_basics():
    assert cyclotomic(1) == LaurentPoly({1: 1, 0: -1})
    assert cyclotomic(4) == LaurentPoly({2: 1, 0: 1})
    assert cyclotomic(8) == LaurentPoly({4: 1, 0: 1})
    # product over divisors reconstructs q^12 - 1
    prod = LaurentPoly({0: 1})
    for d in (1, 2, 3, 4, 6, 12):
        prod = prod * cyclotomic(d)
    assert prod == LaurentPoly({12: 1, 0: -1})


def test_eval_cyclotomic_examples():
    # q^2 = -1 mod Phi_4
    v = eval_cyclotomic(RationalQ.q_power(2), 4)
    assert v == CycloElem.from_fraction(4, Fraction(-1))
    # [2]_q vanishes at a primitive 4th root
    assert eval_cyclotomic(RationalQ(qint(2)), 4).is_zero()
    # 1/(q - q^-1) is well defined at a primitive cube root
    inv = eval_cyclotomic(RationalQ(INT(1), LaurentPoly({1: 1, -1: -1})), 3)
    back = inv * CycloElem.from_laurent(3, LaurentPoly({1: 1, -1: -1}))
    assert back == CycloElem.one(3)


def test_eval_cyclotomic_vanishing_denominator():
    with pytest.raises(SpecializationError):
        eval_cyclotomic(RationalQ(INT(1), qint(2)), 4)


def test_cyclo_field_ops():
    a = CycloElem.q_power(8, 3)
    assert a * a.inv() == CycloElem.one(8)
    z = CycloElem.q_power(8, 1)
    assert z.to_complex().real == pytest.approx(2 ** -0.5)


# Fraction-coefficient reference for Q[q]/(Phi_N): dense lists of
# Fractions indexed by the powers q^0..q^{deg-1}
CYCLO_ORDERS = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 15, 16, 24)


def ref_reduce(cs, N):
    phi = cyclotomic(N).terms
    deg = max(phi)
    cs = [Fraction(c) for c in cs] + [Fraction(0)] * deg
    for e in range(len(cs) - 1, deg - 1, -1):
        f = cs[e] / phi[deg]
        for k, c in phi.items():
            cs[e - deg + k] -= f * c
    return cs[:deg]


def ref_mul(a, b, N):
    conv = [Fraction(0)] * (len(a) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            conv[i + j] += x * y
    return ref_reduce(conv, N)


def ref_inv(a, N):
    """Solve a * y = 1 by Gauss-Jordan elimination on the matrix of
    multiplication by a."""
    deg = len(a)
    cols = [ref_mul(a, [Fraction(int(k == j)) for k in range(deg)], N)
            for j in range(deg)]
    rows = [[cols[j][i] for j in range(deg)] + [Fraction(int(i == 0))]
            for i in range(deg)]
    for c in range(deg):
        p = next(r for r in range(c, deg) if rows[r][c])
        rows[c], rows[p] = rows[p], rows[c]
        rows[c] = [v / rows[c][c] for v in rows[c]]
        for r in range(deg):
            if r != c and rows[r][c]:
                f = rows[r][c]
                rows[r] = [v - f * w for v, w in zip(rows[r], rows[c])]
    return [row[deg] for row in rows]


def ref_of(x):
    return [Fraction(c, x.den) for c in x.nums]


def assert_lowest_terms(x):
    assert x.den > 0 and gcd(x.den, *x.nums) == 1


@pytest.mark.parametrize("N", CYCLO_ORDERS)
def test_cyclo_elem_agrees_with_fraction_reference(N):
    rng = random.Random(1000 + N)
    deg = cyclotomic(N).degree()

    def draw():
        return [Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                if rng.random() < 0.8 else Fraction(0)
                for _ in range(rng.randint(0, N + 2))]

    for _ in range(40):
        ca, cb = draw(), draw()
        a, b = CycloElem(N, ca), CycloElem(N, cb)
        ra, rb = ref_reduce(ca, N), ref_reduce(cb, N)
        f = Fraction(rng.randint(-5, 5), rng.randint(1, 6))
        k = rng.randint(-2 * N, 2 * N)
        rq = ref_reduce([Fraction(0)] * (k % N) + [Fraction(1)], N)
        results = [
            (a, ra), (b, rb),
            (a + b, [x + y for x, y in zip(ra, rb)]),
            (a - b, [x - y for x, y in zip(ra, rb)]),
            (-a, [-x for x in ra]),
            (a * b, ref_mul(ra, rb, N)),
            (a.scale(f), [f * x for x in ra]),
            (a.mul_qpow(k), ref_mul(ra, rq, N)),
        ]
        if any(rb):
            rb_inv = ref_inv(rb, N)
            results.append((b.inv(), rb_inv))
            results.append((a / b, ref_mul(ra, rb_inv, N)))
        else:
            with pytest.raises(SpecializationError):
                b.inv()
        for got, want in results:
            assert len(got.nums) == deg
            assert ref_of(got) == want
            assert_lowest_terms(got)
            assert got.is_zero() == (not any(want))


@pytest.mark.parametrize("N", CYCLO_ORDERS)
def test_cyclo_elem_equal_values_are_structurally_equal(N):
    half = CycloElem.from_fraction(N, Fraction(1, 2))
    routes = [CycloElem.one(N), half * CycloElem.from_fraction(N, 2),
              half.scale(2), half + half, CycloElem(N, [Fraction(4, 4)]),
              CycloElem.q_power(N, N), CycloElem.q_power(N, -N)]
    for k in range(-N, 2 * N):
        routes += [CycloElem.q_power(N, k) * CycloElem.q_power(N, -k),
                   CycloElem.from_laurent(N, LaurentPoly({k: 2})) * half
                   * CycloElem.q_power(N, -k)]
        powers = [CycloElem.from_laurent(N, Q(k)), CycloElem.q_power(N, k),
                  CycloElem.q_power(N, k + N), CycloElem.q_power(N, k - N),
                  CycloElem(N, [0] * (k % N) + [1]),
                  CycloElem(N, [0] * (k % N + N) + [Fraction(3, 3)])]
        thirds = [CycloElem.q_power(N, k).scale(Fraction(1, 3)),
                  CycloElem.from_fraction(N, Fraction(1, 3))
                  * CycloElem.q_power(N, k + N),
                  CycloElem(N, [0] * (k % N) + [Fraction(2, 6)])]
        for same, den in ((powers, 1), (thirds, 3)):
            assert len(set(same)) == 1
            assert len({hash(x) for x in same}) == 1
            for x in same:
                assert x.den == den and x.nums == same[0].nums
    expected = CycloElem.from_laurent(N, Q(0))
    for x in routes + [expected]:
        assert_lowest_terms(x)
        assert x == expected and hash(x) == hash(expected)
        assert x.nums == expected.nums and x.den == 1
    # for N > 1 the N-th roots of unity sum to zero
    third = CycloElem(N, [Fraction(1, 3)] * N)
    zeros = [CycloElem.zero(N), half - half, half.scale(0),
             third - third if N == 1 else third]
    assert len(set(zeros)) == 1
    assert all(z.is_zero() and z.den == 1 for z in zeros)


@pytest.mark.parametrize("N", CYCLO_ORDERS)
def test_eval_cyclotomic_monomial_denominator(N):
    """A denominator c*q^k is divided out without a field inverse; the
    image must equal num * den^-1 computed through CycloElem.inv."""
    nums = [LaurentPoly({0: 1}), LaurentPoly({3: 2, -1: -5, 0: 1}),
            LaurentPoly({-4: 7, 2 * N + 1: 3}), LaurentPoly({1: 1, -1: -1})]
    for num in nums:
        for k in (-N - 1, -2, -1, 0, 1, 3, N, 2 * N + 1):
            for c in (1, 2, 3, 6):
                for sign in (1, -1):
                    den = LaurentPoly({k: sign * c})
                    want = (CycloElem.from_laurent(N, num)
                            * CycloElem.from_laurent(N, den).inv())
                    got = eval_cyclotomic(RationalQ(num, den), N)
                    assert got == want
                    assert_lowest_terms(got)


def test_rationalq_canonical_string():
    r = RationalQ(LaurentPoly({2: 1, 0: 1}), Q(1))
    assert str(r) == "(q^2+1)/(q)"
    r2 = RationalQ(LaurentPoly({3: 2, 1: 2}), LaurentPoly({2: 2}))
    # reduces to (q^2+1)/(q)
    assert r2 == r
    assert str(r2) == "(q^2+1)/(q)"
    assert str(RationalQ(INT(0), Q(5))) == "0"


def test_rationalq_sign_convention():
    r = RationalQ(INT(1), LaurentPoly({1: -1})).canonical()
    assert r.den.lowest_coeff() > 0
    assert str(r) == "(-1)/(q)"


def test_divexact_error():
    # (q^2+1)/(q+q^-1) = q is exact in the Laurent ring
    assert LaurentPoly({2: 1, 0: 1}).divexact(qint(2)) == Q(1)
    with pytest.raises(ValueError):
        LaurentPoly({2: 1, 0: 2}).divexact(qint(2))


# Fraction-coefficient Euclid reference for Z[q^+-1]: polynomials as
# {exponent: coefficient} dicts shifted to valuation 0
def ref_divmod(num: dict, den: dict):
    rem = {k: Fraction(c) for k, c in num.items() if c}
    den = {k: Fraction(c) for k, c in den.items() if c}
    dd = max(den)
    quot = {}
    while rem and max(rem) >= dd:
        dr = max(rem)
        f = rem[dr] / den[dd]
        quot[dr - dd] = f
        for k, c in den.items():
            rem[dr - dd + k] = rem.get(dr - dd + k, 0) - f * c
        rem = {k: c for k, c in rem.items() if c}
    return quot, rem


def ref_lowered(p: LaurentPoly) -> dict:
    v = p.valuation()
    return {k - v: c for k, c in p.terms.items()}


def ref_divexact(a: LaurentPoly, b: LaurentPoly):
    """a / b as a LaurentPoly, or None when it is not one with integer
    coefficients."""
    quot, rem = ref_divmod(ref_lowered(a), ref_lowered(b))
    if rem or any(c.denominator != 1 for c in quot.values()):
        return None
    shift = a.valuation() - b.valuation()
    return LaurentPoly({k + shift: int(c) for k, c in quot.items()})


def ref_gcd(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Euclid over Q, made primitive over Z with a positive leading
    coefficient, times the gcd of the contents."""
    fa, fb = ref_lowered(a), ref_lowered(b)
    while fb:
        fa, fb = fb, ref_divmod(fa, fb)[1]
    den = lcm(*(Fraction(c).denominator for c in fa.values()))
    ints = {k: int(c * den) for k, c in fa.items()}
    unit = gcd(*ints.values()) * (1 if ints[max(ints)] > 0 else -1)
    cont = gcd(a.content(), b.content())
    return LaurentPoly({k: c // unit * cont for k, c in ints.items()})


def test_gcd_divexact_and_canonical_agree_with_fraction_euclid():
    rng = random.Random(30)

    def draw(degree, scale):
        low = rng.randint(-3, 3)
        terms = {low + k: rng.randint(-6, 6) for k in range(degree + 1)}
        p = LaurentPoly(terms)
        return p.scale(scale) if not p.is_zero() else INT(scale)

    refused = exact = 0
    for _ in range(2000):
        f = draw(rng.randint(0, 3), rng.choice((1, 1, 2, -3, 6)))
        g = draw(rng.randint(0, 4), rng.choice((1, 1, 1, 2, -5)))
        h = draw(rng.randint(0, 4), rng.choice((1, 1, 1, 3, -2)))
        a, b = f * g, f * h
        got = _poly_gcd(a, b)
        assert got == ref_gcd(a, b)
        assert got.valuation() == 0 and got.terms[got.degree()] > 0
        assert got.content() == gcd(a.content(), b.content())
        for num, den in ((a, b), (b, a), (a, f), (a, g), (g, h), (a, got),
                         (a, f.scale(2)), (a, got * h)):
            want = ref_divexact(num, den)
            if want is None:
                refused += 1
                with pytest.raises(ValueError):
                    num.divexact(den)
            else:
                exact += 1
                assert num.divexact(den) == want
        c = RationalQ(a, b).canonical()
        num, den = ref_divexact(a, got), ref_divexact(b, got)
        if den.lowest_coeff() < 0:
            num, den = -num, -den
        shift = min(num.valuation(), den.valuation())
        assert (c.num, c.den) == (num.shifted(-shift), den.shifted(-shift))
    assert refused > 5000 and exact > 5000
    with pytest.raises(ZeroDivisionError):
        ONE.divexact(LaurentPoly())


def test_clear_denominators_keys_associates_once():
    # 1/(1-q) + 1/(q-1) + q/(q^2-q): the three denominators differ by the
    # units -1 and -q, so they clear over the single factor 1 - q
    one_minus_q = LaurentPoly({0: 1, 1: -1})
    values = [RationalQ(LaurentPoly.from_int(1), one_minus_q),
              RationalQ(LaurentPoly.from_int(1), -one_minus_q),
              RationalQ(LaurentPoly.q_power(1), LaurentPoly({2: 1, 1: -1}))]
    den, nums = RationalQ.clear_denominators(values)
    assert den == one_minus_q
    assert nums == [((0, 1),), ((0, -1),), ((0, -1),)]
    for v, num in zip(values, nums):
        assert RationalQ(LaurentPoly(dict(num)), den) == v


def test_clear_denominators_unit_fast_path_matches_general_path():
    # values over ONE itself take the fast path; the same values over an
    # equal copy of ONE take the general one, as does a mixed list with
    # one real denominator, and all three clear to the same values
    polys = [LaurentPoly(), LaurentPoly.q_power(-3),
             LaurentPoly({0: 2, 5: -1}), -qint(3), LaurentPoly.from_int(1)]
    fast = [RationalQ(p) for p in polys]
    assert all(v.den is ONE for v in fast)
    general = [RationalQ(p, LaurentPoly({0: 1})) for p in polys]
    assert all(v.den is not ONE for v in general)
    assert (RationalQ.clear_denominators(fast)
            == RationalQ.clear_denominators(general)
            == (ONE, [tuple(p.terms.items()) for p in polys]))
    real = RationalQ(LaurentPoly.q_power(2), LaurentPoly({0: 1, 1: -1}))
    mixed = fast[:2] + [real] + fast[2:]
    den, nums = RationalQ.clear_denominators(mixed)
    assert (den, nums) == RationalQ.clear_denominators(
        general[:2] + [real] + general[2:])
    assert den == LaurentPoly({0: 1, 1: -1})
    for v, num in zip(mixed, nums):
        assert RationalQ(LaurentPoly(dict(num)), den) == v


def _scoped(tree, scope=()):
    """(qualified name of the enclosing def or class, node) for every
    node below tree."""
    for child in ast.iter_child_nodes(tree):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
            inner = scope + (child.name,)
        yield ".".join(inner), child
        yield from _scoped(child, inner)


def test_no_floats_on_the_verification_path():
    """Float and complex literals, the names float, complex and round,
    and any cmath import occur only in the display cross-check of
    `--float-check`: `CycloElem.to_complex` and `cli.cmd_unity`; math
    is imported only for gcd, lcm and comb.  Not caught: true division
    of two ints (a / b), which makes a float without naming one."""
    floaty = set()
    math_names = set()
    for path in sorted(Path(torcrys.__file__).parent.glob("*.py")):
        for scope, node in _scoped(ast.parse(path.read_text())):
            where = (path.name, scope)
            if isinstance(node, ast.Constant) and isinstance(
                    node.value, (float, complex)):
                floaty.add(where)
            elif isinstance(node, ast.Name) and node.id in (
                    "float", "complex", "round"):
                floaty.add(where)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "cmath":
                        floaty.add(where)
                    elif alias.name == "math":
                        math_names.add("*")
            elif isinstance(node, ast.ImportFrom):
                if node.module == "cmath":
                    floaty.add(where)
                elif node.module == "math":
                    math_names.update(alias.name for alias in node.names)
    assert floaty == {("qcoeff.py", "CycloElem.to_complex"),
                      ("cli.py", "cmd_unity")}
    assert math_names <= {"gcd", "lcm", "comb"}


def test_no_private_name_crosses_a_module():
    """No torcrys module imports a private name (one with a leading
    underscore) from another: what two modules share is public."""
    crossing = []
    for path in sorted(Path(torcrys.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").startswith("torcrys")):
                crossing += [(path.name, node.module, alias.name)
                             for alias in node.names
                             if alias.name.startswith("_")]
    assert crossing == []
