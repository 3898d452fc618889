"""Exact linear algebra over the closure, cross-checked by enumeration."""

from tensornorm import SplitMix64, TowerConfig
from tensornorm.linalg import IncrementalSystem, first_dependency

from conftest import brute_solutions, enumerate_level, solve_linear


def test_identity_returns_rhs(cfg2):
    w = cfg2.generator(2)
    one, zero = cfg2.one(), cfg2.zero()
    m = [[one, zero, zero], [zero, one, zero], [zero, zero, one]]
    rhs = [w, one + w, zero]
    out = solve_linear(m, rhs, cfg2)
    assert out.consistent
    assert out.solution == rhs
    assert out.nullspace == []


def test_inconsistent_with_certificate(cfg2):
    one, zero = cfg2.one(), cfg2.zero()
    m = [[one, one], [one, one]]
    rhs = [one, zero]
    out = solve_linear(m, rhs, cfg2)
    assert not out.consistent
    cert = out.certificate
    # certificate: c^T M = 0 but c^T rhs != 0
    for col in range(2):
        acc = cert[0] * m[0][col] + cert[1] * m[1][col]
        assert acc.is_zero
    assert not (cert[0] * rhs[0] + cert[1] * rhs[1]).is_zero


def test_one_parameter_family(cfg2):
    w = cfg2.generator(2)
    one = cfg2.one()
    out = solve_linear([[w, one]], [one], cfg2)
    assert out.consistent
    assert out.solution == [w + one, cfg2.zero()]  # w^-1 = w + 1, free var zero
    assert len(out.nullspace) == 1
    # every brute-force solution equals particular + multiple of the basis vector
    sols = brute_solutions([[w, one]], [one], enumerate_level(cfg2, 2))
    assert tuple(out.solution) in sols
    assert len(sols) == 4  # one free parameter over GF(4)


def test_against_exhaustive_search_small_fields():
    rng = SplitMix64(31)
    for p, level in [(2, 1), (2, 2), (3, 1), (3, 2)]:
        cfg = TowerConfig(p, 2)
        candidates = enumerate_level(cfg, level)
        for _ in range(6):
            nrows = 1 + rng.below(3)
            ncols = 1 + rng.below(3)
            m = [[cfg.random_element(rng, level) for _ in range(ncols)]
                 for _ in range(nrows)]
            rhs = [cfg.random_element(rng, level) for _ in range(nrows)]
            out = solve_linear(m, rhs, cfg)
            sols = brute_solutions(m, rhs, candidates)
            if out.consistent:
                assert tuple(out.solution) in sols
                assert len(sols) == (p**level) ** len(out.nullspace)
            else:
                assert sols == []


def test_shape_mismatch():
    cfg = TowerConfig(2, 2)
    one = cfg.one()
    try:
        solve_linear([[one]], [one, one], cfg)
    except ValueError:
        pass
    else:
        raise AssertionError("expected a dimension error")


def test_first_dependency_simple(cfg2):
    w = cfg2.generator(2)
    one, zero = cfg2.one(), cfg2.zero()
    # second row is w times the first
    rows = [[one, zero], [w, zero]]
    dep = first_dependency(rows, cfg2)
    assert dep is not None
    i, coeffs = dep
    assert i == 1 and coeffs == [w]
    assert first_dependency([[one, zero], [zero, one]], cfg2) is None
    # a zero row is dependent with empty combination
    i, coeffs = first_dependency([[one, one], [zero, zero]], cfg2)
    assert i == 1 and all(c.is_zero for c in coeffs)


def test_first_dependency_reconstructs(cfg2):
    rng = SplitMix64(37)
    for _ in range(40):
        width = 2 + rng.below(3)
        rows = [[cfg2.random_element(rng, rng.choice(cfg2.levels))
                 for _ in range(width)] for _ in range(2)]
        # append a combination of the first two rows
        c0 = cfg2.random_element(rng, 2)
        c1 = cfg2.random_element(rng, 2)
        rows.append([c0 * a + c1 * b for a, b in zip(rows[0], rows[1])])
        dep = first_dependency(rows, cfg2)
        assert dep is not None
        i, coeffs = dep
        combo = [cfg2.zero()] * width
        for j, c in enumerate(coeffs):
            for k in range(width):
                combo[k] = combo[k] + c * rows[j][k]
        assert combo == rows[i]


def test_incremental_system_matches_direct_solve(cfg2):
    rng = SplitMix64(41)
    for _ in range(30):
        ncols = 1 + rng.below(3)
        nrows = 1 + rng.below(4)
        m = [[cfg2.random_element(rng, 2) for _ in range(ncols)] for _ in range(nrows)]
        rhs = [cfg2.random_element(rng, 2) for _ in range(nrows)]
        system = IncrementalSystem(ncols, cfg2)
        consistent = True
        for row, b in zip(m, rhs):
            if system.add_equation(row, b) == IncrementalSystem.INCONSISTENT:
                consistent = False
                break
        direct = solve_linear(m, rhs, cfg2)
        assert consistent == direct.consistent
        if consistent:
            assert system.solve_free_zero() == direct.solution


def test_incremental_rollback(cfg2):
    one = cfg2.one()
    system = IncrementalSystem(1, cfg2)
    assert system.add_equation([one], one) == IncrementalSystem.OK
    mark = len(system.pivots)
    assert system.add_equation([one], cfg2.zero()) == IncrementalSystem.INCONSISTENT
    del system.pivots[mark:]
    assert system.solve_free_zero() == [one]
