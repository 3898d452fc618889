"""Deterministic generation: streams, invariants, rewrites, instances."""

from tensornorm import ScenarioConfig, SplitMix64, is_zero, tensor_norm, trial_rng
from tensornorm.generators import (gen_base_scalar, gen_orthogonal_family,
                                   gen_pure_elem, gen_tensor_elem,
                                   gen_tower_elem, perturb_family, random_rewrite)
from tensornorm.polynomials import poly_gcd
from tensornorm.parsing import format_tensor_elem
from tensornorm.tensor import TensorElem, value_estimate_check

from conftest import scenario


def test_splitmix_reference_sequence():
    # frozen reference outputs of the documented splitmix64 scheme, seed 0
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


def test_below_is_deterministic_and_in_range():
    a = SplitMix64(99)
    b = SplitMix64(99)
    draws_a = [a.below(7) for _ in range(200)]
    draws_b = [b.below(7) for _ in range(200)]
    assert draws_a == draws_b
    assert set(draws_a) <= set(range(7))


def test_trial_streams_are_independent_of_order():
    sc = scenario()
    setup = sc.build_setup()
    direct = gen_tensor_elem(setup, sc, trial_rng(5, 17))
    # computing other trials first must not change trial 17
    for k in (0, 1, 2):
        gen_tensor_elem(setup, sc, trial_rng(5, k))
    again = gen_tensor_elem(setup, sc, trial_rng(5, 17))
    assert format_tensor_elem(direct) == format_tensor_elem(again)


def test_gen_tower_elem_constant_when_degree_capped(setup2):
    # degree bound zero forces constants even with variables declared
    # (the bound is only validated for full suite runs, where it must be >= 1)
    sc = scenario(max_degree=0)
    rng = SplitMix64(1)
    for _ in range(20):
        e = gen_tower_elem(setup2.left, sc, rng)
        assert e.num.is_constant and e.den.is_constant
    # a zero-variable descriptor forces constants regardless of the bound
    from tensornorm.function_fields import ExtensionDescriptor
    desc = ExtensionDescriptor("K", (), setup2.config)
    e = gen_tower_elem(desc, scenario(max_degree=3), rng)
    assert e.num.is_constant and e.den.is_constant


def test_gen_tower_elem_invariant_sweep(setup2):
    sc = scenario()
    rng = SplitMix64(2)
    for _ in range(1000):
        e = gen_tower_elem(setup2.left, sc, rng)
        assert not e.is_zero
        assert not e.den.is_zero
        for exps in list(e.num.terms) + list(e.den.terms):
            assert len(exps) == 1
            assert 0 <= exps[0] <= sc.max_degree  # reduction only lowers degrees
        for c in list(e.num.terms.values()) + list(e.den.terms.values()):
            assert setup2.config.level_bound % c.level == 0
        g = poly_gcd(e.num, e.den)
        assert g.is_constant  # canonical: reduced fraction
        assert e.den.leading()[1].is_one  # canonical: monic denominator


def test_same_seed_same_element(setup2):
    sc = scenario()
    x1 = gen_tower_elem(setup2.left, sc, SplitMix64(123))
    x2 = gen_tower_elem(setup2.left, sc, SplitMix64(123))
    assert x1 == x2


def test_base_scalar_respects_base(setup2_base1):
    rng = SplitMix64(3)
    for _ in range(100):
        c = gen_base_scalar(setup2_base1, rng)
        assert c.level == 1


def test_rewrites_preserve_element(setup2, setup2_base1):
    sc = scenario(max_degree=2, max_terms=3)
    for setup in (setup2, setup2_base1):
        rng = SplitMix64(4)
        for _ in range(60):
            z = gen_tensor_elem(setup, sc, rng)
            w = random_rewrite(z, setup, sc, rng)
            assert is_zero(w - z)


def test_rewrites_preserve_zero(setup2):
    sc = scenario(max_degree=2)
    rng = SplitMix64(5)
    z = TensorElem.zero(setup2.left, setup2.right)
    for _ in range(10):
        z = random_rewrite(z, setup2, sc, rng)
        assert is_zero(z)


def test_gen_pure_elem_certificates(setup2):
    sc = scenario(max_degree=3, max_terms=3)
    rng = SplitMix64(6)
    for _ in range(10):
        z, alpha, beta = gen_pure_elem(setup2, sc, rng)
        for x, y in z.terms:
            assert x.value() == alpha
            assert y.value() == beta
        assert tensor_norm(z) == alpha * beta


def test_orthogonal_family_and_perturbation_are_valid_instances(setup2):
    sc = scenario(max_degree=3)
    rng = SplitMix64(8)
    for _ in range(10):
        us = gen_orthogonal_family(setup2, sc, rng, 3)
        scalars = [gen_base_scalar(setup2, rng) for _ in us]
        assert value_estimate_check(us, [1] * len(us), scalars) is True
        vs, bounds = perturb_family(us, setup2, sc, rng)
        scalars = [gen_base_scalar(setup2, rng) for _ in vs]
        assert value_estimate_check(vs, bounds, scalars) is True


def test_scenario_validation():
    import pytest
    with pytest.raises(ValueError):
        ScenarioConfig(trials=0).validate()
    with pytest.raises(ValueError):
        ScenarioConfig(max_degree=0).validate()
    with pytest.raises(ValueError):
        ScenarioConfig(offset=-1).validate()


def test_validate_bounds_the_shape():
    import pytest
    from tensornorm.generators import MAX_DEGREE, MAX_TERMS
    ScenarioConfig(max_terms=MAX_TERMS, max_degree=MAX_DEGREE).validate()
    with pytest.raises(ValueError):
        ScenarioConfig(max_terms=MAX_TERMS + 1).validate()
    with pytest.raises(ValueError):
        ScenarioConfig(max_degree=MAX_DEGREE + 1).validate()
