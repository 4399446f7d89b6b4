import copy
import pickle
from fractions import Fraction

import pytest

from torcrys.lattice import RootSystem, Weight
from torcrys.monomial import (Monomial, ParityError, ValidationError,
                              a_monomial, from_variables, gamma,
                              identity_monomial, monomial_from_json,
                              monomial_from_json_str, monomial_to_json,
                              monomial_to_json_str, phi_exponents, tau,
                              twist_phi, twist_psi, xi_drop, xi_keep)


def rs1():
    return RootSystem.for_fundamental(3, 1)


def M0(rs):
    return from_variables(rs, [(1, 0, 1), (0, 1, -1)], rs.varpi(1))


def test_make_valid_and_identity():
    rs = rs1()
    m = M0(rs)
    assert m.u(1, 0) == 1 and m.u(0, 1) == -1
    e = identity_monomial(rs)
    assert e.is_identity()
    assert (m * e) == m


def test_make_rejects_bad_weight():
    rs = RootSystem.for_fundamental(3, 1)
    # a bad declaration (the wrong parity class fails first)
    with pytest.raises((ValidationError, ParityError)):
        Monomial.make(rs, {(1, 1): 1}, rs.fundamental(0))
    # pure column-sum violation
    with pytest.raises(ValidationError):
        Monomial.make(rs, {(1, 0): 1}, rs.fundamental(0))


def test_make_rejects_bad_parity():
    rs = RootSystem.for_fundamental(3, 1)  # s_1 = 0
    with pytest.raises(ParityError):
        Monomial.make(rs, {(1, 1): 1}, rs.fundamental(1))


def test_group_structure():
    rs = rs1()
    m = M0(rs)
    assert (m * m.inverse()).is_identity()


def test_mul_cancellation_along_crystal_chain():
    # M0 * A_{1,1}^{-1} must be the second node of the rank-3 chain
    rs = rs1()
    m = M0(rs) * a_monomial(rs, 1, 1).inverse()
    assert str(m) == "Y(1,2)^-1*Y(2,1)"
    assert m.weight == rs.varpi(1) - rs.alpha(1)


def test_a_monomial_formula_and_wraparound():
    rs = rs1()
    a = a_monomial(rs, 1, 1)
    assert dict(a.exps) == {(1, 0): 1, (1, 2): 1, (0, 1): -1, (2, 1): -1}
    assert a.weight == rs.alpha(1)
    a0 = a_monomial(RootSystem(3, parity=0), 0, 1)
    assert dict(a0.exps) == {(0, 0): 1, (0, 2): 1, (3, 1): -1, (1, 1): -1}
    assert a0.weight.delta == 1
    assert (a * a.inverse()).is_identity()


def test_a_monomial_parity_error():
    with pytest.raises(ParityError):
        a_monomial(rs1(), 1, 0)


def test_xi_maps():
    rs = RootSystem.for_fundamental(3, 2)
    m = from_variables(rs, [(1, 1, 1), (2, 2, -1), (3, 1, 1), (0, 2, -1)],
                       Weight((-1, 1, -1, 1), Fraction(0)))
    keep = xi_keep(rs, m, 1)
    assert dict(keep.exps) == {(1, 1): 1}
    assert keep.weight.h == (0, 1, 0, 0)
    drop = xi_drop(rs, m, 0)
    assert (0, 2) not in dict(drop.exps)
    assert drop.weight.h == (0, 1, -1, 1)
    e = identity_monomial(rs)
    assert xi_keep(rs, e, 2).is_identity()
    # Xi^0 of the anchor is the single fundamental variable
    M = from_variables(rs, [(2, 0, 1), (0, 2, -1)], rs.varpi(2))
    assert str(xi_drop(rs, M, 0)) == "Y(2,0)"


def test_tau():
    rs = rs1()
    m = M0(rs)
    t = tau(rs, m, 4, -rs.delta_weight())
    assert dict(t.exps) == {(1, 4): 1, (0, 5): -1}
    assert t.weight.delta == -1
    assert tau(rs, m, 0, rs.zero_weight()) == m
    with pytest.raises(ParityError):
        tau(rs, m, 3, rs.zero_weight())
    with pytest.raises(ValidationError):
        tau(rs, m, 2, rs.alpha(1))
    # tau_{2,-delta}(M_0) = M_1 for ell = r+1
    rs2 = RootSystem.for_fundamental(3, 2)
    M = from_variables(rs2, [(2, 0, 1), (0, 2, -1)], rs2.varpi(2))
    M1 = tau(rs2, M, 2, -rs2.delta_weight())
    assert dict(M1.exps) == {(2, 2): 1, (0, 4): -1}


def test_twist_phi():
    rs = rs1()
    m = M0(rs)
    exps, h = twist_phi(rs, m)
    assert exps == {(2, 1): 1, (1, 2): -1}
    assert h == (0, -1, 1, 0)
    # wraparound of the top row
    exps2 = phi_exponents(rs, {(3, 2): 1})
    assert exps2 == {(0, 3): 1}
    # phi^{n+1} at the exponent level is the shift by n+1
    cur = m.exp_dict()
    for _ in range(4):
        cur = phi_exponents(rs, cur)
    assert cur == {(i, l + 4): u for (i, l), u in m.exps}


def test_twist_psi():
    rs = rs1()
    y10 = from_variables(rs, [(1, 0, 1)], rs.fundamental(1))
    img = twist_psi(rs, y10)
    assert dict(img.exps) == {(3, 0): 1}
    assert img.weight == rs.fundamental(3)
    m = M0(rs)
    assert twist_psi(rs, twist_psi(rs, m)) == m
    flipped = twist_psi(rs, m)
    assert dict(flipped.exps) == {(3, 0): 1, (0, 1): -1}
    assert flipped.weight == rs.varpi(3)


def test_gamma():
    rs = RootSystem(3, parity=0)   # s_1 = 1, so odd spectral indices in row 1
    y = from_variables(rs, [(1, 5, 1)], rs.fundamental(1) + rs.delta_weight())
    g = gamma(rs, y, 4)
    assert dict(g.exps) == {(1, 1): 1}
    rs2 = RootSystem(3, parity=1)  # s_1 = 0
    two = from_variables(rs2, [(1, 4, 1), (1, 0, 1)],
                         Weight((0, 2, 0, 0), Fraction(0)))
    g2 = gamma(rs2, two, 4)
    assert dict(g2.exps) == {(1, 0): 2}
    with pytest.raises(ParityError):
        gamma(rs, y, 5)


def test_json_round_trip():
    rs = rs1()
    m = tau(rs, M0(rs), -6, rs.delta_weight().scaled(2))
    data = monomial_to_json(m)
    assert data["exp"] == sorted(data["exp"])
    assert monomial_from_json(data) == m
    assert monomial_from_json_str(monomial_to_json_str(m)) == m


def test_hash_equal_across_constructors():
    rs = rs1()
    m = M0(rs)
    a = a_monomial(rs, 1, 1)
    built = [
        Monomial.make(rs, {(0, 1): -1, (1, 0): 1}, rs.varpi(1)),
        from_variables(rs, [(1, 0, 1), (0, 1, -1)], rs.varpi(1)),
        (m * a) * a.inverse(),
        identity_monomial(rs) * m,
        monomial_from_json(monomial_to_json(m)),
    ]
    for x in built:
        assert x == m and x is not m
        assert hash(x) == hash(m) == hash((x.exps, x.weight))
        assert hash(x) == hash(x)
    assert len({m, *built}) == 1


def test_hash_survives_copy_and_pickle():
    rs = rs1()
    half = Weight((0,) * 4, Fraction(1, 2))
    for m in (M0(rs), tau(rs, M0(rs), 4, half)):
        fresh = [copy.copy(m), pickle.loads(pickle.dumps(m))]
        want = hash((m.exps, m.weight))
        assert hash(m) == want
        for x in fresh + [copy.copy(m), pickle.loads(pickle.dumps(m))]:
            assert x == m and hash(x) == want and x in {m}
