"""Gauss values, coordinatization and least coset values.

Derived expectations come from independent routes: direct expansion for
the product rule, exhaustive coefficient enumeration for coset minima,
and reconstruction for coordinate systems.
"""

from fractions import Fraction

import pytest

from tensornorm import (Magnitude, Polynomial, SplitMix64, closure,
                        coordinatize, gauss_value, min_coset_value,
                        parse_field_setup)
from tensornorm.function_fields import ExtensionDescriptor, TowerElem
from tensornorm.generators import gen_tower_elem
from tensornorm.parsing import parse_tower_elem

from conftest import (brute_min_coset, enumerate_level, oracle_gauss_value,
                      oracle_monomial_value, scenario)


@pytest.fixture(scope="module")
def kside(setup2):
    return setup2.left


def _elem(desc, text):
    return parse_tower_elem(text, desc)


def reconstruct(cs, row):
    """The element with coordinates ``row`` in ``cs``: the sum of row[j]
    times atom j, over the common denominator."""
    cfg = cs.descriptor.config
    n = cs.descriptor.nvars
    gen = cfg.generator(cs.coeff_level)
    num = Polynomial.zero(cfg, n)
    for (exps, gpow), c in zip(cs.basis, row):
        if not c.is_zero:
            num = num + Polynomial.monomial(cfg, n, exps, c * gen**gpow)
    return TowerElem.from_polys(cs.descriptor, num, cs.denominator)


def test_gauss_value_examples(kside):
    cfg = kside.config
    f = Polynomial.constant(cfg, 1, 1) + Polynomial.variable(cfg, 1, 0)
    assert gauss_value(f, kside) == Magnitude.pos(0)
    t = Polynomial.variable(cfg, 1, 0)
    assert gauss_value(t * t + t**3, kside) == Magnitude.pos(-2)
    assert gauss_value(Polynomial.zero(cfg, 1), kside) == Magnitude.zero()


def test_value_examples(kside):
    assert _elem(kside, "1 / t").value() == Magnitude.pos(1)
    assert _elem(kside, "t / (1 + t)").value() == Magnitude.pos(-1)
    # the same element two ways: with and without the removable factor
    a = _elem(kside, "(t + t^2) / (1 + t)")
    b = _elem(kside, "t")
    assert a == b
    assert a.value() == Magnitude.pos(-1)


def test_value_product_rule_against_expansion(kside):
    rng = SplitMix64(77)
    sc = scenario()
    for _ in range(20):
        x = gen_tower_elem(kside, sc, rng)
        y = gen_tower_elem(kside, sc, rng)
        # direct expansion route: no fraction reduction involved
        direct = gauss_value(x.num * y.num, kside) * \
            gauss_value(x.den * y.den, kside) ** -1
        assert (x * y).value() == direct
        assert (x * y).value() == x.value() * y.value()


def test_value_ultrametric(kside):
    rng = SplitMix64(78)
    sc = scenario()
    for _ in range(100):
        x = gen_tower_elem(kside, sc, rng)
        y = gen_tower_elem(kside, sc, rng)
        s = (x + y).value()
        bound = max(x.value(), y.value())
        assert s <= bound
        if x.value() != y.value():
            assert s == bound


def test_value_zero_iff_zero(kside):
    assert TowerElem.zero(kside).value().is_zero
    assert not _elem(kside, "t^3").value().is_zero


def test_positive_exponent_magnitudes(cfg2):
    desc = ExtensionDescriptor("K", [("s", Magnitude.pos(Fraction(1, 2)))], cfg2)
    f = _elem(desc, "s^2 + s^3")
    assert f.value() == Magnitude.pos(Fraction(3, 2))  # largest power wins now


def test_integer_weights_examples(cfg2):
    desc = ExtensionDescriptor("L", [("u", Magnitude.pos(Fraction(-3, 7))),
                                     ("v", Magnitude.pos(Fraction(1, 2)))], cfg2)
    assert desc.scale == 14 and desc.weights == (-6, 7)
    assert desc.weight((2, 1)) == -5  # u^2 v has the value 2^(-5/14)
    assert _elem(desc, "u^2 * v / (1 + u)").value() == Magnitude.pos(Fraction(-5, 14))


@pytest.mark.parametrize("base", ["closure", "1"])
@pytest.mark.parametrize("k_vars, l_vars", [("t:-1 s:-1/2", "u:-1 v:1/3"),
                                            ("t:2/5", "u:-3/7 v:1/2")],
                         ids=["denominators-2-3", "denominators-5-14"])
def test_integer_grades_match_fraction_values(base, k_vars, l_vars):
    # atom grades, their order, Gauss values and element values against
    # monomial values summed as Fractions
    setup = parse_field_setup(f"p 2\nlevels 4\nbase {base}\nK {k_vars}\nL {l_vars}\n")
    level = None if base == "closure" else 1
    rng = SplitMix64(82)
    sc = scenario(max_degree=4)
    for desc in (setup.left, setup.right):
        for _ in range(15):
            xs = [gen_tower_elem(desc, sc, rng) for _ in range(3)]
            for x in xs:
                for poly in (x.num, x.den):
                    assert gauss_value(poly, desc) == oracle_gauss_value(poly, desc)
                expected = oracle_gauss_value(x.num, desc) * \
                    oracle_gauss_value(x.den, desc) ** -1
                assert x.value() == expected
            cs = coordinatize(xs, base_level=level)
            grades = cs.atom_grades()
            assert sorted(j for atoms in grades.values() for j in atoms) == \
                list(range(len(cs.basis)))
            values = []
            for w in sorted(grades):
                found = {oracle_monomial_value(desc, cs.basis[j][0]) for j in grades[w]}
                assert found == {Magnitude.pos(Fraction(w, desc.scale))}
                values.extend(found)
            assert values == sorted(set(values))  # weights order atoms as values do


def test_coordinatize_examples(kside):
    one = _elem(kside, "1")
    t = _elem(kside, "t")
    cs = coordinatize([one, t])
    assert cs.denominator.is_constant
    assert [b[0] for b in cs.basis] == [(0,), (1,)]
    cfg = kside.config
    assert cs.matrix == [[cfg.one(), cfg.zero()], [cfg.zero(), cfg.one()]]

    a = _elem(kside, "1 / (1 + t)")
    b = _elem(kside, "t / (1 + t)")
    cs = coordinatize([a, b])
    assert [b_[0] for b_ in cs.basis] == [(0,), (1,)]
    assert cs.matrix == [[cfg.one(), cfg.zero()], [cfg.zero(), cfg.one()]]
    t_poly = Polynomial.variable(cfg, 1, 0)
    assert cs.denominator == t_poly + Polynomial.constant(cfg, 1, 1)

    c = _elem(kside, "1 / t")
    d = _elem(kside, "1 / (1 + t)")
    cs = coordinatize([c, d])
    assert cs.denominator == t_poly * (t_poly + 1)
    assert [b_[0] for b_ in cs.basis] == [(0,), (1,)]
    assert cs.matrix == [[cfg.one(), cfg.one()], [cfg.zero(), cfg.one()]]


def test_coordinatize_round_trip(kside, setup2_base1):
    rng = SplitMix64(79)
    sc = scenario()
    for base in (None, 1, 2):
        desc = kside if base is None else setup2_base1.left
        for _ in range(40):
            xs = [gen_tower_elem(desc, sc, rng) for _ in range(1 + rng.below(3))]
            cs = coordinatize(xs, base_level=base)
            for x, row in zip(xs, cs.matrix):
                assert reconstruct(cs, row) == x
            if base is not None:
                for row in cs.matrix:
                    for entry in row:
                        assert base % entry.level == 0  # entries lie in the base


def test_coordinates_over_gf_p_solve_no_system(monkeypatch):
    # over GF(p) a coefficient's coordinates are the digits of its code
    setup = parse_field_setup("p 3\nlevels 4\nbase 1\nK t:-1 s:1/2\nL u:-1\n")
    desc = setup.left
    rng = SplitMix64(80)
    sc = scenario(p=3)

    def refuse(self, rhs):
        raise AssertionError("a linear system was solved")

    monkeypatch.setattr(closure._ModPSolver, "solve", refuse)
    levels = set()
    for _ in range(20):
        xs = [gen_tower_elem(desc, sc, rng) for _ in range(3)]
        cs = coordinatize(xs, base_level=1)
        levels.add(cs.coeff_level)
        for x, row in zip(xs, cs.matrix):
            assert reconstruct(cs, row) == x
    assert 4 in levels


def test_min_coset_examples(kside):
    one = _elem(kside, "1")
    t = _elem(kside, "t")
    u, coeffs = min_coset_value(_elem(kside, "1 + t"), [one])
    assert u == t
    assert list(coeffs) == [kside.config.one()]
    assert u.value() == Magnitude.pos(-1)

    u, coeffs = min_coset_value(t, [_elem(kside, "t^2")])
    assert u == t
    assert all(c.is_zero for c in coeffs)

    u, coeffs = min_coset_value(_elem(kside, "1 + t"), [])
    assert u == _elem(kside, "1 + t") and coeffs == ()


def test_min_coset_brute_force_small(kside, setup3):
    # exhaustive optimality: spans of dimension <= 2, coefficients over
    # fields of order <= 4
    for side, levels in ((kside, (1, 2)), (setup3.left, (1,))):
        cfg = side.config
        rng = SplitMix64(80)
        sc = scenario(p=cfg.p, max_degree=3)
        for level in levels:
            coeffs = enumerate_level(cfg, level)
            for _ in range(12):
                x = gen_tower_elem(side, sc, rng)
                span = [gen_tower_elem(side, sc, rng)
                        for _ in range(1 + rng.below(2))]
                u, _ = min_coset_value(x, span)
                assert u.value() <= brute_min_coset(x, span, coeffs)


def test_min_coset_base_level_restricts_coefficients(setup2_base1):
    # over the prime-field base, only prime-field combinations compete
    side = setup2_base1.left
    cfg = side.config
    w = cfg.generator(2)
    x = TowerElem.constant(side, w) + _elem(side, "t")
    span = [TowerElem.one(side)]
    u, coeffs = min_coset_value(x, span, base_level=1)
    # no prime-field multiple of 1 cancels the constant w
    assert u.value() == Magnitude.pos(0)
    assert brute_min_coset(x, span, enumerate_level(cfg, 1)) == Magnitude.pos(0)
    # over the closure the constant cancels and only t survives
    u_cl, _ = min_coset_value(x, span, base_level=None)
    assert u_cl.value() == Magnitude.pos(-1)


def test_min_coset_random_never_beaten(kside):
    rng = SplitMix64(81)
    sc = scenario(max_degree=4)
    cfg = kside.config
    x = gen_tower_elem(kside, sc, rng)
    span = [gen_tower_elem(kside, sc, rng) for _ in range(3)]
    u, _ = min_coset_value(x, span)
    target = u.value()
    for _ in range(500):
        cand = x
        for s in span:
            c = cfg.random_element(rng, rng.choice(cfg.levels))
            if not c.is_zero:
                cand = cand + s.scaled(c)
        assert cand.value() >= target


def test_min_coset_zero_when_in_span(kside):
    t = _elem(kside, "t")
    u, coeffs = min_coset_value(t, [t])
    assert u.is_zero
    assert u.value().is_zero


def test_min_coset_merged_grades(cfg2):
    # two variables sharing one magnitude: grades merge and the sweep still
    # finds the minimum (brute-force checked)
    desc = ExtensionDescriptor(
        "K", [("a", Magnitude.pos(-1)), ("b", Magnitude.pos(-1))], cfg2)
    a = TowerElem.variable(desc, "a")
    b = TowerElem.variable(desc, "b")
    x = a + b
    u, _ = min_coset_value(x, [b])
    assert u.value() == Magnitude.pos(-1)
    assert u.value() == brute_min_coset(x, [b], enumerate_level(cfg2, 2))
    # here the combination cancels everything
    u2, _ = min_coset_value(x, [a + b])
    assert u2.is_zero


def test_min_coset_tie_break_prefers_zero_coeffs(cfg2):
    # both a and a + (a + b) attain the least value; the contract demands
    # the zero coefficient vector whenever x itself already attains it
    desc = ExtensionDescriptor(
        "K", [("a", Magnitude.pos(-1)), ("b", Magnitude.pos(-1))], cfg2)
    a = TowerElem.variable(desc, "a")
    b = TowerElem.variable(desc, "b")
    u, coeffs = min_coset_value(a, [a + b])
    assert all(c.is_zero for c in coeffs)
    assert u == a
