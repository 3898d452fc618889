"""Ring operations, reduction, the exact norm and its certificates.

Representation searches (random rewrites that provably preserve the
element) serve as the falsification oracle for the computed infimum.
"""

from fractions import Fraction

import pytest

from tensornorm import (InstanceInvalidError, Magnitude, SplitMix64, TensorElem,
                        eliminate_dependent, is_zero, orthogonalize_left,
                        parse_field_setup, pure_decompose, tensor_norm,
                        value_estimate_check)
from tensornorm.generators import gen_tensor_elem, random_rewrite
from tensornorm.parsing import parse_tower_elem
from tensornorm.tensor import coefficient_matrix

from conftest import (brute_min_coset, enumerate_level, oracle_gauss_value,
                      oracle_monomial_value, oracle_product, oracle_sum, scenario)


def _z(setup, text):
    return setup.parse_element(text)


def _k(setup, text):
    return parse_tower_elem(text, setup.left)


def _l(setup, text):
    return parse_tower_elem(text, setup.right)


# -- ring operations ---------------------------------------------------------

def test_add_zero_and_characteristic(setup2):
    z = _z(setup2, "t (x) u")
    zero = TensorElem.zero(setup2.left, setup2.right)
    assert (z + zero).terms == z.terms
    assert is_zero(_z(setup2, "t (x) u + t (x) u"))
    assert tensor_norm(_z(setup2, "t (x) 1 + 1 (x) u")) == Magnitude.pos(-1)


def test_mul_identity_and_single_terms(setup2):
    z = _z(setup2, "t (x) 1 + 1 (x) u")
    one = _z(setup2, "1 (x) 1")
    assert is_zero(z * one - z)
    prod = _z(setup2, "t (x) 1") * _z(setup2, "1 (x) u")
    assert is_zero(prod - _z(setup2, "t (x) u"))
    sq = z * z
    assert is_zero(sq - _z(setup2, "t^2 (x) 1 + 1 (x) u^2"))  # cross terms cancel


def test_mul_term_count_bound(setup2):
    z = _z(setup2, "t (x) 1 + 1 (x) u")
    w = _z(setup2, "t (x) u + t^2 (x) u^2 + 1 (x) 1")
    assert len((z * w).terms) <= len(z.terms) * len(w.terms)


def test_side_and_base_mismatch(setup2, setup2_base1):
    z = _z(setup2, "t (x) u")
    w = _z(setup2_base1, "t (x) u")
    with pytest.raises(ValueError):
        z + w
    with pytest.raises(ValueError):
        z * w


# -- eliminate_dependent -------------------------------------------------------

def test_eliminate_folds_equal_right_factors(setup2):
    z = _z(setup2, "(1 + t) (x) u + 1 (x) u")
    out = eliminate_dependent(z)
    assert len(out.terms) == 1
    assert out.terms[0][0] == _k(setup2, "t")
    assert out.terms[0][1] == _l(setup2, "u")


def test_eliminate_keeps_independent(setup2):
    z = _z(setup2, "t (x) 1 + 1 (x) u")
    assert eliminate_dependent(z).terms == z.terms


def test_eliminate_doubled_term_odd_characteristic(setup3):
    x = _k(setup3, "t + 2")
    y = _l(setup3, "u^2")
    z = TensorElem(setup3.left, setup3.right, [(x, y), (x, y)])
    out = eliminate_dependent(z)
    assert len(out.terms) == 1
    assert out.terms[0][0] == x.scaled(2)
    assert out.terms[0][1] == y
    assert is_zero(out - z)


def test_eliminate_preserves_element(setup2):
    rng = SplitMix64(91)
    sc = scenario()
    for _ in range(30):
        z = gen_tensor_elem(setup2, sc, rng)
        assert is_zero(eliminate_dependent(z) - z)


# -- orthogonalize_left ----------------------------------------------------------

def test_orthogonalize_examples(setup2):
    # already orthogonal: t in an empty coset, 1 minimal against span(t)
    z = _z(setup2, "t (x) 1 + 1 (x) u")
    rep = orthogonalize_left(z)
    assert rep.term_values() == ((Magnitude.pos(-1), Magnitude.pos(0)),
                                 (Magnitude.pos(0), Magnitude.pos(-1)))
    assert is_zero(rep.to_tensor() - z)

    rep = orthogonalize_left(TensorElem.zero(setup2.left, setup2.right))
    assert rep.terms == () and rep.norm.is_zero


def test_orthogonalize_left_sweep_compensates(setup2):
    z = _z(setup2, "(1 + t) (x) u + 1 (x) u^2")
    rep = orthogonalize_left(z)
    # representation equality is the certificate that compensation worked
    assert is_zero(rep.to_tensor() - z)
    # left minimality, brute-forced over the coefficient fields of order <= 4
    us = [u for u, _ in rep.terms]
    for i, u in enumerate(us):
        for level in (1, 2):
            brute = brute_min_coset(u, us[:i], enumerate_level(setup2.config, level))
            assert u.value() <= brute
    assert all(not u.is_zero and not v.is_zero for u, v in rep.terms)


def test_orthogonalize_random_certificates(setup2):
    rng = SplitMix64(92)
    sc = scenario(max_terms=3, max_degree=3)
    for _ in range(20):
        z = gen_tensor_elem(setup2, sc, rng)
        rep = orthogonalize_left(z)
        assert is_zero(rep.to_tensor() - z)
        assert rep.norm == tensor_norm(z)
        us = [u for u, _ in rep.terms]
        for i, u in enumerate(us):
            brute = brute_min_coset(u, us[:i], enumerate_level(setup2.config, 2))
            assert u.value() <= brute


# -- tensor_norm -------------------------------------------------------------------

def test_norm_examples(setup2):
    assert tensor_norm(_z(setup2, "1 (x) 1")) == Magnitude.pos(0)
    assert tensor_norm(_z(setup2, "t (x) 1 + 1 (x) u")) == Magnitude.pos(-1)
    assert tensor_norm(_z(setup2, "(1 + t) (x) u + 1 (x) u")) == Magnitude.pos(-2)


def test_norm_falsification_search(setup2):
    # no rewritten representation achieves a smaller max of factor values
    rng = SplitMix64(93)
    sc = scenario(max_degree=2)
    for text in ("t (x) 1 + 1 (x) u", "(1 + t) (x) u + 1 (x) u"):
        z = _z(setup2, text)
        norm = tensor_norm(z)
        current = z
        for _ in range(1000):
            current = random_rewrite(current, setup2, sc, rng)
            best = Magnitude.zero()
            for x, y in current.terms:
                m = x.value() * y.value()
                if m > best:
                    best = m
            assert best >= norm
            if len(current.terms) > 12:
                current = z  # keep the search wide rather than deep


def test_norm_representation_invariance(setup2):
    rng = SplitMix64(94)
    sc = scenario(max_degree=3, max_terms=3)
    for _ in range(25):
        z = gen_tensor_elem(setup2, sc, rng)
        n = tensor_norm(z)
        current = z
        for _ in range(5):
            current = random_rewrite(current, setup2, sc, rng)
            assert tensor_norm(current) == n


def test_norm_symmetry(setup2, setup2_base1):
    rng = SplitMix64(95)
    sc = scenario(max_degree=3)
    for setup in (setup2, setup2_base1):
        for _ in range(15):
            z = gen_tensor_elem(setup, sc, rng)
            assert tensor_norm(z) == tensor_norm(z.transpose())


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("base, k_vars, l_vars", [
    ("closure", "t:-1", "u:-1"), ("1", "t:-1", "u:-1/2"), ("2", "t:-1", "u:1/3"),
    ("closure", "t:-1 s:-1/2", "u:-1 v:1/3"),
], ids=["closure", "level1", "level2", "closure-2vars"])
def test_matrix_norm_equals_sweep_norm(p, base, k_vars, l_vars):
    # the coefficient-matrix norm against the independent sweep certificate,
    # on 504 elements per setup: random, products, sums, rewrites, zeros
    setup = parse_field_setup(f"p {p}\nlevels 4\nbase {base}\nK {k_vars}\nL {l_vars}\n")
    rng = SplitMix64(98 + p)
    sc = scenario(p=p, max_terms=2, max_degree=3)
    for _ in range(84):
        z = gen_tensor_elem(setup, sc, rng)
        w = gen_tensor_elem(setup, sc, rng)
        r = random_rewrite(z, setup, sc, rng)
        for e in (z, z * w, z + w, r, z - r, z - z):
            assert tensor_norm(e) == orthogonalize_left(e).norm, e


def oracle_matrix_norm(z):
    """max |e_a| |f_b| over the nonzero entries of the coefficient matrix,
    every entry computed and every value a Fraction sum."""
    if not z.term_count:
        return Magnitude.zero()
    m = coefficient_matrix(z)
    sides = []
    for cs in (m.left, m.right):
        shift = oracle_gauss_value(cs.denominator, cs.descriptor) ** -1
        sides.append([oracle_monomial_value(cs.descriptor, exps) * shift
                      for exps, _ in cs.basis])
    return max((va * vb for a, va in enumerate(sides[0]) for b, vb in enumerate(sides[1])
                if not m.entry_is_zero(a, b)), default=Magnitude.zero())


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("base", ["closure", "1"])
@pytest.mark.parametrize("k_vars, l_vars", [("t:-1 s:-1/2", "u:-1 v:1/3"),
                                            ("t:2/5", "u:-3/7 v:1/2")],
                         ids=["denominators-2-3", "denominators-5-14"])
def test_norm_on_integer_weights_matches_fraction_values(p, base, k_vars, l_vars):
    # sides whose exponent denominators differ: the heap walk on weights
    # lifted to a common scale against the whole matrix valued by Fractions
    setup = parse_field_setup(f"p {p}\nlevels 4\nbase {base}\nK {k_vars}\nL {l_vars}\n")
    rng = SplitMix64(300 + p)
    sc = scenario(p=p, max_terms=2, max_degree=3)
    for _ in range(10):
        z = gen_tensor_elem(setup, sc, rng)
        w = gen_tensor_elem(setup, sc, rng)
        for e in (z, z * w, z + w, z - z):
            assert tensor_norm(e) == oracle_matrix_norm(e), e


def test_norm_builds_one_value(monkeypatch):
    # the grades and the heap walk run on integer weights: a norm builds
    # one Magnitude, its answer, whatever the number of monomials
    setup = parse_field_setup("p 2\nlevels 4\nbase 1\nK t:2/5\nL u:-3/7 v:1/2\n")
    rng = SplitMix64(310)
    sc = scenario(max_terms=3, max_degree=5)
    elems = []
    for _ in range(10):
        z = gen_tensor_elem(setup, sc, rng)
        elems.extend((z, z * gen_tensor_elem(setup, sc, rng), z - z))
    built = {Magnitude: 0, Fraction: 0}

    def counting(cls, method):
        def wrapper(*args, **kwargs):
            built[cls] += 1
            return method(*args, **kwargs)
        monkeypatch.setattr(cls, method.__name__, wrapper)

    counting(Magnitude, Magnitude.__init__)
    counting(Fraction, Fraction.__new__)
    atoms = 0
    for e in elems:
        built[Magnitude] = built[Fraction] = 0
        norm = tensor_norm(e)  # coordinatizes the elements that hold no matrix
        atoms += sum(len(cs.basis) for cs in (e._matrix.left, e._matrix.right))
        assert built[Magnitude] == (0 if norm.is_zero else 1)
        assert built[Fraction] <= 2  # Fraction(weight, scale), copied by Magnitude
    assert atoms > 50 * len(elems)


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("base, k_vars, l_vars", [
    ("closure", "t:-1", "u:-1"), ("1", "t:-1 s:-1/2", "u:-1/2"), ("2", "t:-1", "u:1/3 v:-1"),
    ("closure", "t:-1 s:-1/2 r:1/3", "u:-1 v:-2 w:1/2"),
], ids=["closure-1var", "level1-2vars", "level2-2vars", "closure-3vars"])
def test_product_coordinates_match_canonical_product(p, base, k_vars, l_vars):
    # products built from the factors' coordinates over D_z D_w, and sums
    # over lcm(D_z, D_w), against the eagerly expanded representations
    setup = parse_field_setup(f"p {p}\nlevels 4\nbase {base}\nK {k_vars}\nL {l_vars}\n")
    rng = SplitMix64(200 + p)
    sc = scenario(p=p, max_terms=2, max_degree=2)
    for _ in range(12):
        z = gen_tensor_elem(setup, sc, rng)
        w = gen_tensor_elem(setup, sc, rng)
        tensor_norm(z), tensor_norm(w)  # the factors hold their matrices
        product, expected = z * w, oracle_product(z, w)
        assert tensor_norm(product) == tensor_norm(expected)
        assert is_zero(product) == is_zero(expected)
        assert product._terms is None  # the norm and the zero test built no terms
        assert tensor_norm(z + w) == tensor_norm(oracle_sum(z, w))
        assert tensor_norm(product + w) == tensor_norm(oracle_sum(expected, w))
        # a product of a product: coordinates over D_z D_w D_z
        assert tensor_norm(product * z) == tensor_norm(oracle_product(expected, z))
        vanishing = z * (w - w)
        assert is_zero(vanishing) and tensor_norm(vanishing).is_zero
        assert product.terms == expected.terms


# -- is_zero ------------------------------------------------------------------------

def test_is_zero_examples(setup2):
    assert is_zero(TensorElem.zero(setup2.left, setup2.right))
    assert is_zero(_z(setup2, "t (x) u + t (x) u"))
    assert not is_zero(_z(setup2, "t (x) 1 + 1 (x) u"))


def test_is_zero_agrees_with_norm(setup2, setup2_base1):
    rng = SplitMix64(96)
    sc = scenario(max_degree=3)
    for setup in (setup2, setup2_base1):
        for _ in range(30):
            z = gen_tensor_elem(setup, sc, rng)
            w = random_rewrite(z, setup, sc, rng)
            for cand in (z, z - w, z * z - z * z):
                assert is_zero(cand) == tensor_norm(cand).is_zero


# -- pure_decompose ------------------------------------------------------------------

def _lex_pair(x, y):
    return (x.value() * y.value(), x.value())


def test_pure_decompose_examples(setup2):
    z = _z(setup2, "t (x) 1 + 1 (x) u")
    d = pure_decompose(z)
    assert (d.alpha, d.beta) == (Magnitude.pos(0), Magnitude.pos(-1))
    assert len(d.pure_part.terms) == 1
    assert d.pure_part.terms[0][0] == _k(setup2, "1")
    assert d.pure_part.terms[0][1] == _l(setup2, "u")
    assert len(d.tail.terms) == 1
    assert _lex_pair(*d.tail.terms[0]) < (d.alpha * d.beta, d.alpha)

    d = pure_decompose(_z(setup2, "1 (x) 1"))
    assert (d.alpha, d.beta) == (Magnitude.pos(0), Magnitude.pos(0))
    assert not d.tail.terms

    d = pure_decompose(_z(setup2, "t (x) u"))
    assert (d.alpha, d.beta) == (Magnitude.pos(-1), Magnitude.pos(-1))
    assert not d.tail.terms


def test_pure_decompose_invariants_random(setup2):
    rng = SplitMix64(97)
    sc = scenario(max_degree=3, max_terms=3)
    for _ in range(25):
        z = gen_tensor_elem(setup2, sc, rng, nonzero=True)
        d = pure_decompose(z)
        n = tensor_norm(z)
        assert d.alpha * d.beta == n
        for x, y in d.pure_part.terms:
            assert x.value() == d.alpha and y.value() == d.beta
        for x, y in d.tail.terms:
            assert _lex_pair(x, y) < (d.alpha * d.beta, d.alpha)
        assert is_zero((d.pure_part + d.tail) - z)


def test_pure_decompose_rejects_zero(setup2):
    with pytest.raises(ValueError):
        pure_decompose(TensorElem.zero(setup2.left, setup2.right))


# -- value_estimate_check ---------------------------------------------------------------

def test_value_estimate_examples(setup2):
    cfg = setup2.config
    one = cfg.one()
    t = _k(setup2, "t")
    k_one = _k(setup2, "1")
    # |t + 1| = 1 >= max(|t|, |1|) with unit bounds
    assert value_estimate_check([t, k_one], [1, 1], [one, one]) is True
    # all-zero scalars: 0 >= 0
    assert value_estimate_check([t, k_one], [1, 1], [cfg.zero(), cfg.zero()]) is True
    # single member, nonzero scalar: equality
    assert value_estimate_check([_k(setup2, "t^2 + 1")], [1], [one]) is True


def test_value_estimate_rejects_invalid(setup2):
    from fractions import Fraction
    from tensornorm.function_fields import TowerElem

    cfg = setup2.config
    one = cfg.one()
    k_one = _k(setup2, "1")
    bad = _k(setup2, "1 + t")  # its coset against 1 reaches value 2^-1
    with pytest.raises(InstanceInvalidError):
        value_estimate_check([k_one, bad], [1, 1], [one, one])
    # a generous enough bound validates the same family
    assert value_estimate_check([k_one, bad], [1, 2], [one, one]) is True
    with pytest.raises(InstanceInvalidError):
        value_estimate_check([k_one], [Fraction(1, 2)], [one])
    with pytest.raises(InstanceInvalidError):
        value_estimate_check([TowerElem.zero(setup2.left)], [1], [one])


def test_counterexample_witness_directly(setup2_base1):
    w_text = "2^2:0,1 (x) 1 + 1 (x) 2^2:0,1"
    z = _z(setup2_base1, w_text)
    zz1 = z * (z + _z(setup2_base1, "1 (x) 1"))
    assert is_zero(zz1)
    assert tensor_norm(z) == Magnitude.pos(0)
    assert tensor_norm(z + _z(setup2_base1, "1 (x) 1")) == Magnitude.pos(0)
    assert tensor_norm(zz1).is_zero  # multiplicativity fails over this base


def test_pipeline_with_two_variables_per_side():
    # two transcendentals per side exercises the multivariate gcd and the
    # merged-grade handling inside the sweep
    from tensornorm import parse_field_setup, run_suite, ScenarioConfig
    setup = parse_field_setup(
        "p 2\nlevels 2\nbase closure\nK t:-1 s:-1\nL u:-1 v:-1/2\n")
    sc = scenario(max_degree=2, max_terms=2)
    rng = SplitMix64(71)
    for _ in range(10):
        z = gen_tensor_elem(setup, sc, rng)
        w = gen_tensor_elem(setup, sc, rng)
        nz, nw, nzw = tensor_norm(z), tensor_norm(w), tensor_norm(z * w)
        assert nzw == nz * nw  # closed base: multiplicative
        assert tensor_norm(z.transpose()) == nz
        assert is_zero(z - z)
    # the suite machinery accepts the same configuration
    from fractions import Fraction
    report = run_suite("repr-invariance", ScenarioConfig(
        p=2, level_bound=2, trials=8, seed=3,
        k_vars=(("t", -1), ("s", -1)),
        l_vars=(("u", -1), ("v", Fraction(-1, 2))),
        max_degree=2, max_terms=2))
    assert report.ok, report.render()


def test_pipeline_with_fractional_exponents():
    from fractions import Fraction
    from tensornorm import parse_field_setup
    setup = parse_field_setup("p 3\nlevels 2\nbase closure\nK t:-1/2\nL u:1/3\n")
    z = setup.parse_element("t (x) u")
    assert tensor_norm(z) == Magnitude.pos(Fraction(-1, 6))
    w = setup.parse_element("t (x) 1 + 1 (x) u")
    # |t| = 2^-1/2 < 1 < |u| = 2^1/3: the u-term dominates
    assert tensor_norm(w) == Magnitude.pos(Fraction(1, 3))
    assert tensor_norm(w * w) == tensor_norm(w) ** 2
