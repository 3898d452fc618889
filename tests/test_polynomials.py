"""Sparse polynomial arithmetic, exact division and gcds.

gcd correctness is established by division: the result divides both
inputs and the cofactors are coprime; a known common factor always shows
up in the gcd of its multiples.

The library's kernels run on integer codes at one common level.  The
slow oracles below run the same algorithms one ``ClosureElem`` operation
at a time, and a property test requires both to agree exactly.
"""

import pytest

from tensornorm import (Polynomial, SplitMix64, TowerConfig, exact_div, poly_gcd,
                        poly_lcm)
from tensornorm import closure, polynomials
from tensornorm.polynomials import glex_key


def _rand_poly(cfg, rng, nvars, max_deg=3, max_terms=3, nonzero=False):
    while True:
        terms = {}
        for _ in range(1 + rng.below(max_terms)):
            exps = tuple(rng.below(max_deg + 1) for _ in range(nvars))
            c = cfg.random_element(rng, rng.choice(cfg.levels))
            if not c.is_zero:
                terms[exps] = c
        poly = Polynomial(cfg, nvars, terms)
        if not (nonzero and poly.is_zero):
            return poly


def test_ring_basics(cfg2):
    t = Polynomial.variable(cfg2, 1, 0)
    one = Polynomial.constant(cfg2, 1, 1)
    f = t * t + t + one
    assert (f + f).is_zero  # characteristic 2
    assert f - f == Polynomial.zero(cfg2, 1)
    assert (t + one) * (t + one) == t * t + one
    assert f.leading() == ((2,), cfg2.one())
    assert t**5 == Polynomial.monomial(cfg2, 1, (5,), cfg2.one())


def test_glex_order():
    # grlex: total degree first, then lexicographic with the first variable major
    assert glex_key((3, 0)) > glex_key((2, 1))
    assert glex_key((2, 1)) > glex_key((1, 2))
    assert glex_key((1, 2)) > glex_key((2, 0))
    assert glex_key((0, 0)) < glex_key((1, 0))


def test_leading_term_bivariate(cfg2):
    t = Polynomial.variable(cfg2, 2, 0)
    u = Polynomial.variable(cfg2, 2, 1)
    f = t * t * u + t**3
    assert f.leading()[0] == (3, 0)


def test_exact_division_round_trip(cfg2, cfg3):
    rng = SplitMix64(55)
    for cfg in (cfg2, cfg3):
        for nvars in (1, 2):
            for _ in range(30):
                f = _rand_poly(cfg, rng, nvars, nonzero=True)
                g = _rand_poly(cfg, rng, nvars, nonzero=True)
                q = exact_div(f * g, g)
                assert q == f


def test_exact_division_detects_failure(cfg2):
    t = Polynomial.variable(cfg2, 1, 0)
    one = Polynomial.constant(cfg2, 1, 1)
    assert exact_div(t * t + one, t) is None  # (t^2 + 1)/t has a remainder


def test_gcd_by_division(cfg2, cfg3):
    rng = SplitMix64(56)
    for cfg in (cfg2, cfg3):
        for nvars in (1, 2):
            for _ in range(25):
                a = _rand_poly(cfg, rng, nvars, nonzero=True)
                b = _rand_poly(cfg, rng, nvars, nonzero=True)
                g = poly_gcd(a, b)
                qa = exact_div(a, g)
                qb = exact_div(b, g)
                assert qa is not None and qb is not None
                inner = poly_gcd(qa, qb)
                assert inner.is_constant and not inner.is_zero


def test_gcd_recovers_common_factor(cfg2, cfg3):
    rng = SplitMix64(57)
    for cfg in (cfg2, cfg3):
        for nvars in (1, 2):
            for _ in range(25):
                a = _rand_poly(cfg, rng, nvars, nonzero=True)
                b = _rand_poly(cfg, rng, nvars, nonzero=True)
                h = _rand_poly(cfg, rng, nvars, nonzero=True)
                g = poly_gcd(a * h, b * h)
                assert exact_div(g, h.monic()) is not None


@pytest.mark.parametrize("nvars", [2, 3, 4])
def test_gcd_monomial_content_matches_subresultant(cfg2, cfg3, nvars):
    # poly_gcd splits off x^min(a, b) and answers at once for a single-term
    # cofactor; the subresultant sequence on the whole inputs is the oracle
    rng = SplitMix64(60 + nvars)
    shortcut = both = 0
    for cfg in (cfg2, cfg3):
        for _ in range(6):
            a, b, h = (_rand_poly(cfg, rng, nvars, max_deg=2, nonzero=True) for _ in range(3))
            xa, xb = (Polynomial.monomial(cfg, nvars, [rng.below(3) for _ in range(nvars)],
                                          cfg.one()) for _ in range(2))
            for f, g in ((a, b), (a * h, b * h), (xa * a * h, xb * b * h), (xa * a, xb * h),
                         (xa * a, xb)):
                if f.is_constant or g.is_constant:
                    continue
                got = poly_gcd(f, g)
                assert got == polynomials._gcd_multivariate(f, g).monic()
                single = len(f.terms) == 1 or len(g.terms) == 1
                shortcut += single
                # a monomial factor and a polynomial one
                both += not single and len(got.terms) > 1 and any(map(min, zip(*got.terms)))
    assert shortcut >= 10 and both >= 5


def test_gcd_is_canonical(cfg2):
    rng = SplitMix64(58)
    for _ in range(20):
        a = _rand_poly(cfg2, rng, 1, nonzero=True)
        b = _rand_poly(cfg2, rng, 1, nonzero=True)
        g = poly_gcd(a, b)
        assert g.leading()[1].is_one
        assert poly_gcd(b, a) == g


def test_gcd_with_zero_and_constants(cfg2):
    t = Polynomial.variable(cfg2, 1, 0)
    z = Polynomial.zero(cfg2, 1)
    assert poly_gcd(z, t) == t
    assert poly_gcd(t, z) == t
    w = cfg2.generator(2)
    c = Polynomial.constant(cfg2, 1, w)
    assert poly_gcd(c, t).is_constant


def test_lcm_divisibility(cfg2):
    rng = SplitMix64(59)
    for _ in range(20):
        a = _rand_poly(cfg2, rng, 1, nonzero=True)
        b = _rand_poly(cfg2, rng, 1, nonzero=True)
        m = poly_lcm(a, b)
        assert exact_div(m, a.monic()) is not None
        assert exact_div(m, b.monic()) is not None
        # lcm * gcd agrees with the monic product
        prod = (a.monic() * b.monic()).monic()
        assert (m * poly_gcd(a, b)).monic() == prod


# ---------------------------------------------------------------------------
# slow oracles: schoolbook loops on ClosureElem coefficients
# ---------------------------------------------------------------------------

def oracle_mul(f, g):
    out = {}
    for e1, c1 in f.terms.items():
        for e2, c2 in g.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out[e] + c1 * c2 if e in out else c1 * c2
    return Polynomial(f.config, f.nvars, out)


def oracle_exact_div(f, g):
    if g.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    if f.is_zero:
        return Polynomial.zero(f.config, f.nvars)
    if g.is_constant:
        return f.scaled(g.constant_value().inv())
    ge, gc = g.leading()
    gc_inv = gc.inv()
    out = {}
    rem = f
    while not rem.is_zero:
        re, rc = rem.leading()
        diff = tuple(a - b for a, b in zip(re, ge))
        if any(d < 0 for d in diff):
            return None
        coeff = rc * gc_inv
        out[diff] = coeff
        rem = rem - oracle_mul(Polynomial.monomial(f.config, f.nvars, diff, coeff), g)
    return Polynomial(f.config, f.nvars, out)


def oracle_rem_univariate(a, b):
    def degree(f):
        return max(e for e, in f.terms)

    db = degree(b)
    _, bl = b.leading()
    bl_inv = bl.inv()
    rem = a
    while not rem.is_zero and degree(rem) >= db:
        dr = degree(rem)
        _, rl = rem.leading()
        shift = Polynomial.monomial(a.config, 1, (dr - db,), rl * bl_inv)
        rem = rem - oracle_mul(shift, b)
    return rem


def oracle_gcd_univariate(f, g):
    a, b = f, g
    while not b.is_zero:
        a, b = b, oracle_rem_univariate(a, b)
    return a.monic()


def oracle_gcd(monkeypatch, f, g):
    """poly_gcd with every product, division and Euclid on the oracles;
    the subresultant recursion itself is shared."""
    with monkeypatch.context() as m:
        m.setattr(Polynomial, "__mul__", oracle_mul)
        m.setattr(Polynomial, "__rmul__", oracle_mul)
        m.setattr(polynomials, "exact_div", oracle_exact_div)
        m.setattr(polynomials, "_gcd_univariate", oracle_gcd_univariate)
        return poly_gcd(f, g)


def oracle_lcm(monkeypatch, f, g):
    if f.is_zero or g.is_zero:
        return Polynomial.zero(f.config, f.nvars)
    if f.is_constant:
        return g.monic()
    if g.is_constant:
        return f.monic()
    fm, gm = f.monic(), g.monic()
    if fm == gm:
        return fm
    return oracle_exact_div(oracle_mul(fm, gm), oracle_gcd(monkeypatch, fm, gm)).monic()


@pytest.mark.parametrize("p,bound,table_limit", [
    (2, 4, None), (3, 4, None), (5, 4, None), (2, 12, None), (3, 6, None),
    (2, 12, 1), (3, 6, 1)],
    ids=["2-4", "3-4", "5-4", "2-12", "3-6", "2-12-generic", "3-6-generic"])
def test_code_kernels_match_oracles(p, bound, table_limit, monkeypatch):
    # every level of these towers has log/antilog tables; with the table
    # limit patched to 1, the generic field kernels run instead
    if table_limit is not None:
        monkeypatch.setattr(closure, "_TABLE_LIMIT", table_limit)
    cfg = TowerConfig(p, bound)
    assert all(hasattr(a, "log") == (table_limit is None) for a in cfg._arith.values())
    rng = SplitMix64(1000 * p + bound)
    mixed = 0
    for nvars, count in ((1, 12), (2, 6), (3, 3)):
        for _ in range(count):
            a, b, h = (_rand_poly(cfg, rng, nvars, max_deg=2, nonzero=True)
                       for _ in range(3))
            mixed += len({c.level for f in (a, b, h) for c in f.terms.values()}) > 1
            prod = a * b
            assert prod == oracle_mul(a, b)
            # divisible, then (usually) not
            assert exact_div(prod, b) == oracle_exact_div(prod, b) == a
            bumped = prod + h
            assert exact_div(bumped, b) == oracle_exact_div(bumped, b)
            assert exact_div(a, b) == oracle_exact_div(a, b)
            f, g = oracle_mul(a, h), oracle_mul(b, h)
            assert poly_gcd(f, g) == oracle_gcd(monkeypatch, f, g)
            assert poly_gcd(a, b) == oracle_gcd(monkeypatch, a, b)
            assert poly_lcm(f, g) == oracle_lcm(monkeypatch, f, g)
            assert poly_lcm(a, h) == oracle_lcm(monkeypatch, a, h)
    assert mixed >= 10  # coefficients at several lattice levels at once
