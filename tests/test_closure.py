"""The closure tower: moduli, arithmetic, embeddings, normalization."""

import pytest

from tensornorm import LatticeError, SplitMix64, TowerConfig, closure
from tensornorm.parsing import parse_closure_elem

from conftest import enumerate_level, poly_is_irreducible_brute


def test_moduli_are_least_irreducible(cfg2, cfg3):
    # oracle: walk the enumeration order and stop at the first irreducible
    for cfg in (cfg2, cfg3):
        p = cfg.p
        for n in cfg.levels:
            chosen = cfg._arith[n].modulus
            code = 0
            while True:
                cand = tuple((code // p**i) % p for i in range(n)) + (1,)
                if poly_is_irreducible_brute(cand, p):
                    break
                code += 1
            assert chosen == cand


def test_quadratic_extension_table(cfg2):
    # the modulus is x^2 + x + 1, so the generator squares to itself plus one
    w = cfg2.generator(2)
    assert cfg2._arith[2].modulus == (1, 1, 1)
    assert w * w == w + cfg2.one()
    assert w + w == cfg2.zero()


def test_inverse_by_exhaustion(cfg2):
    w = cfg2.generator(2)
    inverses = [c for c in enumerate_level(cfg2, 2) if (w * c).is_one]
    assert inverses == [w.inv()]
    assert w.inv() == w * w  # w^3 = 1
    with pytest.raises(ZeroDivisionError):
        cfg2.zero().inv()


def test_embed_prime_field_pointwise_fixed(cfg2):
    assert cfg2.embed_coords(cfg2.one(), 2) == (1, 0)
    assert cfg2.embed_coords(cfg2.from_int(1), 4) == (1, 0, 0, 0)


def test_embed_generator_is_least_root(cfg2):
    # oracle: enumerate the level-4 field and find every root of x^2+x+1
    w = cfg2.generator(2)
    coords = cfg2.embed_coords(w, 4)
    image = cfg2.from_coords(4, coords)
    assert image == w  # canonical renormalization undoes the embedding
    roots = []
    for c in enumerate_level(cfg2, 4):
        raw = cfg2.embed_coords(c, 4)
        lifted_code = sum(d * 2**i for i, d in enumerate(raw))
        if (c * c + c + cfg2.one()).is_zero:
            roots.append(lifted_code)
    embedded_code = sum(d * 2**i for i, d in enumerate(coords))
    assert embedded_code in roots
    assert embedded_code == min(roots)


def test_embed_nondivisible_level_errors():
    cfg = TowerConfig(2, 12)
    w = cfg.generator(2)
    with pytest.raises(LatticeError):
        cfg.embed_coords(w, 3)
    with pytest.raises(LatticeError):
        cfg.from_code(5, 0)


def _code_at(cfg, elem, level):
    """The element's raw code inside the given level's power basis."""
    return sum(d * cfg.p**i for i, d in enumerate(cfg.embed_coords(elem, level)))


@pytest.mark.parametrize("p, bound", [(2, 12), (3, 6)])
def test_generators_are_least_roots_brute_force(p, bound):
    # oracle: walk the top field in code order, stop at the first root of f_m
    cfg = TowerConfig(p, bound)
    for m in cfg.levels:
        f_m = cfg._arith[m].modulus
        code = 0
        while True:
            c = cfg.from_code(bound, code)
            acc = cfg.zero()
            for coeff in reversed(f_m):
                acc = acc * c + cfg.from_int(coeff)
            if acc.is_zero:
                break
            code += 1
        assert _code_at(cfg, cfg.generator(m), bound) == code


def test_embeddings_are_field_homomorphisms(cfg2, cfg3):
    # exhaustive over all pairs of source elements, levels up to 4
    for cfg in (cfg2, cfg3):
        for m in cfg.levels:
            for n in cfg.levels:
                if m >= n or n % m:
                    continue
                arith = cfg._arith[n]
                elems = enumerate_level(cfg, m)
                images = [cfg._embed_code_raw(_code_at(cfg, e, m), m, n) for e in elems]
                assert len(set(images)) == len(images)  # injective
                for a, ia in zip(elems, images):
                    for b, ib in zip(elems, images):
                        expected_mul = cfg._embed_code_raw(_code_at(cfg, a * b, m), m, n)
                        assert arith.mul(ia, ib) == expected_mul
                        expected_add = cfg._embed_code_raw(_code_at(cfg, a + b, m), m, n)
                        assert arith.add(ia, ib) == expected_add


def test_embedding_table_commutes():
    cfg = TowerConfig(2, 12)
    # 1 -> 2 -> 4 equals 1 -> 4, and 2 -> 6 -> 12 equals 2 -> 12, on all codes
    for (m, mid, n) in [(1, 2, 4), (2, 4, 12), (2, 6, 12), (3, 6, 12)]:
        for code in range(cfg.p**m):
            via = cfg._embed_code_raw(cfg._embed_code_raw(code, m, mid), mid, n)
            assert via == cfg._embed_code_raw(code, m, n)


def test_field_axioms_random_mixed_levels(cfg2, cfg3):
    rng = SplitMix64(7)
    for cfg in (cfg2, cfg3):
        one = cfg.one()
        for _ in range(200):
            a = cfg.random_element(rng, rng.choice(cfg.levels))
            b = cfg.random_element(rng, rng.choice(cfg.levels))
            c = cfg.random_element(rng, rng.choice(cfg.levels))
            assert (a + b) + c == a + (b + c)
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c
            assert a + (-a) == cfg.zero()
            if not a.is_zero:
                assert a * a.inv() == one


def test_canonical_minimal_level(cfg2):
    w = cfg2.generator(2)
    # an element built at level 4 that actually lies in the quadratic field
    coords = cfg2.embed_coords(w, 4)
    again = cfg2.from_coords(4, coords)
    assert again.level == 2 and again == w
    # prime-field elements always normalize to level 1
    assert cfg2.from_coords(4, (1, 0, 0, 0)).level == 1
    assert (w + w * w).level == 1  # w + w^2 = w + w + 1 = 1


def test_structural_equality_and_hash(cfg2):
    w = cfg2.generator(2)
    assert hash(w * w.inv()) == hash(cfg2.one())
    assert len({w, w * w, w**3, cfg2.one()}) == 3


def test_random_element_determinism_and_range(cfg2):
    a = [cfg2.random_element(SplitMix64(5), 4) for _ in range(10)]
    b = [cfg2.random_element(SplitMix64(5), 4) for _ in range(10)]
    assert a == b


def test_random_element_uniformity(cfg2):
    rng = SplitMix64(2024)
    counts = {}
    for _ in range(10_000):
        c = cfg2.random_element(rng, 2)
        counts[c] = counts.get(c, 0) + 1
    assert len(counts) == 4
    for n in counts.values():
        assert abs(n - 2500) <= 125  # 5 percent of the expected count


def test_fixture_string_round_trip(cfg2, cfg3):
    rng = SplitMix64(11)
    for cfg in (cfg2, cfg3):
        for _ in range(50):
            c = cfg.random_element(rng, rng.choice(cfg.levels))
            assert parse_closure_elem(c.fixture(), cfg) == c


@pytest.mark.parametrize("p", [2, 3])
def test_paths_without_code_maps_agree(monkeypatch, p):
    # the code-map tables are a cache: with them switched off, subfield
    # membership and embeddings fall back to linear algebra and must agree
    ref = TowerConfig(p, 4)
    monkeypatch.setattr(closure, "_CODE_MAP_LIMIT", 1)
    bare = TowerConfig(p, 4)
    assert not bare._emb_codes

    def key(c):
        return c.level, c.code

    pairs = []
    for n in ref.levels:
        for code in range(p**n):
            assert bare._normalize(n, code) == ref._normalize(n, code)
            a, b = ref.from_code(n, code), bare.from_code(n, code)
            pairs.append((a, b))
            for t in ref.levels:
                if t % a.level == 0:
                    assert bare.embed_coords(b, t) == ref.embed_coords(a, t)
            for d in ref.levels:
                if n % d == 0:
                    assert (list(map(key, bare.relative_coords(b, n, d)))
                            == list(map(key, ref.relative_coords(a, n, d))))
    for a1, b1 in pairs:
        for a2, b2 in pairs:
            assert key(b1 + b2) == key(a1 + a2)
            assert key(b1 * b2) == key(a1 * a2)


@pytest.mark.parametrize("p, bound", [(2, 4), (3, 4), (5, 4), (3, 6), (7, 2), (2, 12), (2, 16)])
def test_relative_coords_without_a_solve_match_the_solver(p, bound):
    # over GF(p) and over the level itself the coordinates are read off,
    # not solved for; oracle: the solver those bases would otherwise use
    cfg = TowerConfig(p, bound)
    rng = SplitMix64(13 * p + bound)
    for n in cfg.levels:
        q = p**n
        codes = range(q) if q <= 3000 else [rng.below(q) for _ in range(3000)]
        for d in {1, n}:
            assert (d, n) not in cfg._rel_solvers
            solver = cfg._build_rel_solver(d, n)
            for code in codes:
                e = cfg.from_code(n, code)
                sol = solver.solve(list(cfg.embed_coords(e, n)))
                want = [cfg.from_code(d, closure._digits_code(sol[j * d:(j + 1) * d], p))
                        for j in range(n // d)]
                assert list(cfg.relative_coords(e, n, d)) == want


@pytest.mark.parametrize("p, bound", [(2, 25), (3, 16), (5, 12), (1000000007, 2), (2, 10**9)])
def test_field_order_beyond_the_limit_is_refused(p, bound):
    with pytest.raises(ValueError, match="exceeds the limit"):
        TowerConfig(p, bound)


# ---------------------------------------------------------------------------
# log/antilog (Zech) tables against the generic kernels
# ---------------------------------------------------------------------------

def _schoolbook_code(arith, a, b):
    """a * b as the sum of a_i * (x^i b), each x^i b reduced by the monic
    modulus as it is shifted."""
    p, f = arith.p, arith.modulus
    acc = [0] * arith.n
    shifted = list(arith.digits(b))
    for d in arith.digits(a):
        acc = [(s + d * y) % p for s, y in zip(acc, shifted)]
        top = shifted[-1]
        shifted = [(y - top * c) % p for y, c in zip([0] + shifted[:-1], f)]
    return arith.code(acc)


def _code_pairs(q, rng, samples):
    if q <= 256:
        return [(a, b) for a in range(q) for b in range(q)]
    return [(rng.below(q), rng.below(q)) for _ in range(samples)]


@pytest.mark.parametrize("p, bound", [(2, 4), (3, 4), (2, 12), (3, 6), (5, 4), (2, 16)])
def test_log_tables_match_generic_kernels(p, bound):
    # exhaustive for orders up to 256, sampled above
    cfg = TowerConfig(p, bound)
    rng = SplitMix64(100 * p + bound)
    for n in cfg.levels:
        arith = cfg._arith[n]
        q = arith.order
        assert q <= closure._TABLE_LIMIT and len(arith.log) == q
        for a, b in _code_pairs(q, rng, 3000):
            assert arith.mul(a, b) == arith._mul_generic(a, b)
            assert arith.add(a, b) == arith._add_generic(a, b)
            assert arith.sub(a, b) == arith._add_generic(a, arith._neg_generic(b))
        codes = range(q) if q <= 256 else [rng.below(q) for _ in range(3000)]
        for a in codes:
            assert arith.neg(a) == arith._neg_generic(a)
            if a:
                assert arith.inv(a) == arith._inv_generic(a)
        with pytest.raises(ZeroDivisionError):
            arith.inv(0)


@pytest.mark.parametrize("p, bound", [(2, 4), (3, 4), (2, 12), (3, 6), (5, 4), (2, 16)])
def test_log_tables_come_from_the_least_primitive_element(p, bound):
    cfg = TowerConfig(p, bound)
    for n in cfg.levels:
        arith = cfg._arith[n]
        q = arith.order
        exp, g = arith.exp, arith.exp[1 % (q - 1)]
        # g has order q - 1: its powers run through every nonzero code once
        assert sorted(exp[:q - 1]) == list(range(1, q))
        assert exp[q - 1:] == exp[:q - 1]
        assert all(arith.log[exp[k]] == k for k in range(q - 1))
        assert _schoolbook_code(arith, exp[q - 2], g) == 1
        if q <= 256:
            # oracle: every smaller nonzero code has a smaller order
            for c in range(1, g):
                acc, order = c, 1
                while acc != 1:
                    acc, order = _schoolbook_code(arith, acc, c), order + 1
                assert order < q - 1
        if p != 2:
            for d, z in enumerate(arith.zech):
                one_plus = arith._add_generic(1, exp[d])
                assert z == (None if one_plus == 0 else arith.log[one_plus])


@pytest.mark.parametrize("p, bound", [(2, 12), (2, 24), (3, 6), (3, 12), (3, 15), (5, 4),
                                      (257, 2)])
def test_generic_kernels_match_schoolbook(p, bound):
    # the generic kernels serve levels past the table limit; for p=2 they
    # work on bit-packed polynomials, for odd p on digits packed into
    # slots of one int, checked here against digit tuples
    cfg = TowerConfig(p, bound)
    rng = SplitMix64(7 * p + bound)
    for n in cfg.levels:
        arith = cfg._arith[n]
        for _ in range(300):
            a, b = rng.below(arith.order), rng.below(arith.order)
            assert arith._mul_generic(a, b) == _schoolbook_code(arith, a, b)
            assert arith._add_generic(a, b) == arith.code(
                [(x + y) % p for x, y in zip(arith.digits(a), arith.digits(b))])
            if a:
                assert _schoolbook_code(arith, a, arith._inv_generic(a)) == 1
            if arith.order > closure._TABLE_LIMIT:
                assert arith.mul(a, b) == arith._mul_generic(a, b)


@pytest.mark.parametrize("p, bound", [(2, 12), (3, 6), (5, 4), (2, 24)])
def test_normalization_finds_the_least_level(p, bound):
    # oracle: a lies in the subfield of order p^m exactly when a^(p^m) = a
    cfg = TowerConfig(p, bound)
    rng = SplitMix64(11 * p + bound)
    for n in cfg.levels:
        arith = cfg._arith[n]
        codes = range(p**n) if p**n <= 4096 else [rng.below(p**n) for _ in range(500)]
        codes = [*codes, *(cfg._embed_code_raw(rng.below(p**m), m, n)
                           for m in cfg.levels if n % m == 0 for _ in range(20))]
        for code in codes:
            least = min(m for m in cfg.levels
                        if n % m == 0 and arith.pow(code, p**m) == code)
            level, down = cfg._normalize(n, code)
            assert level == least
            assert cfg._embed_code_raw(down, level, n) == code

