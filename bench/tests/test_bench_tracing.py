"""The benchmark's own checks: tracer coverage and restore, reference digests,
speed scaling.

Run from the repository root with ``python -m pytest bench/tests``.
"""

import cProfile
import pstats
import sys

import pytest

import reference
import tracing
from tracing import Tracer
from workloads import WORKLOADS, TrialPlan
from tensornorm import suites, trial_rng


def _round(workload, seed):
    """One round of trials of the workload, ready to call without tracing."""
    plan = TrialPlan(workload, seed)
    fns = [suites._TRIALS[s.suite] for s in workload.streams]
    return [(fns[i], plan.setups[i], plan.scenarios[i], trial_rng(seed, offset))
            for i, offset in plan.next_round()]


def _profiled_counts(profile, originals):
    """cProfile's call count of each original function, keyed like the tracer's."""
    stats = pstats.Stats(profile).stats
    return {key: stats.get((fn.__code__.co_filename, fn.__code__.co_firstlineno,
                            fn.__code__.co_name), (0, 0))[1]
            for key, fn in originals.items()}


@pytest.mark.parametrize("name", ["level-base", "deep-tower"])
def test_traced_call_counts_equal_cprofile_counts(name):
    trials = _round(WORKLOADS[name], seed=3)
    tracer = Tracer()
    profile = cProfile.Profile()
    tracer.install()
    try:
        profile.enable()
        for i, (fn, *args) in enumerate(trials):
            tracer.run_trial(i, fn, *args)
        profile.disable()
    finally:
        tracer.restore()
    expected = _profiled_counts(profile, tracer.originals)
    got = {key: tracer.calls[key] for key in tracer.originals}
    assert got == expected
    # the workload reaches the aliased imports the wrapper has to catch
    assert got["polynomials.poly_gcd"] > 0
    assert got["function_fields.coordinatize"] > 0
    assert got["closure.ClosureElem.__mul__"] > 0


def test_restore_puts_every_original_back():
    from tensornorm import ClosureElem, Polynomial, TensorElem, TowerElem
    from tensornorm.linalg import IncrementalSystem
    owners = tracing._modules() + [ClosureElem, IncrementalSystem, Polynomial,
                                   TensorElem, TowerElem]
    before = [dict(vars(o)) for o in owners]
    gcd, mul = sys.modules["tensornorm.polynomials"].poly_gcd, ClosureElem.__mul__
    tracer = Tracer()
    tracer.install()
    assert sys.modules["tensornorm.function_fields"].poly_gcd is not gcd
    assert ClosureElem.__rmul__ is ClosureElem.__mul__ is not mul
    assert tracer.not_restored()
    tracer.restore()
    assert tracer.not_restored() == []
    for owner, saved in zip(owners, before):
        now = vars(owner)
        assert set(now) == set(saved)
        assert all(now[k] is v for k, v in saved.items())


def test_self_time_subtracts_child_spans():
    tracer = Tracer()
    tracer.spans[:] = [
        (tracing.TRIAL, 0.0, 10.0, -1, 0, 0, True),
        ("tensor.sweep", 1.0, 9.0, 0, 0, 0, True),
        ("tensor.eliminate", 1.0, 4.0, 1, 0, 0, True),
        ("linalg.first_dependency", 2.0, 3.0, 2, 0, 1, True),
        ("function_fields.min_coset", 5.0, 8.0, 1, 0, 1, True),
    ]
    m = tracer.layer_metrics(trials=1)
    assert m["suites.trial_self_s"] == 2.0
    assert m["tensor.sweep_self_s"] == 2.0
    assert m["tensor.eliminate_s"] == 3.0
    assert m["tensor.eliminate_folds"] == 1
    assert m["function_fields.min_coset_moved_ratio"] == 1.0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_reference_digest_matches_recorded_seed_zero(name):
    trials, failed, note = reference.check(WORKLOADS[name], 0, reference.load())
    assert failed == 0, note
    assert note.startswith("ok")


def test_reference_catches_a_wrong_norm(monkeypatch):
    from tensornorm import Magnitude
    monkeypatch.setattr(sys.modules["tensornorm.suites"], "tensor_norm",
                        lambda z: Magnitude.one())
    trials, failed, note = reference.check(WORKLOADS["level-base"], 0, reference.load())
    assert failed == trials
    assert "MISMATCH" in note


def test_end_to_end_scales_times_to_the_reference_speed():
    import run
    ref = run.REFERENCE_PROBE_S
    results = [(0, 0, 0.010, None), (0, 4096, 0.030, None)]
    setup = [(0.2, 2 * ref)]
    m, _ = run.end_to_end(results, [2 * ref, 2 * ref], setup)
    assert m["trial_p50_ms"]["value"] == pytest.approx(10.0)  # median 20 ms, halved
    assert m["trials_per_s"]["value"] == pytest.approx(2 / 0.020)
    assert m["trial_tail_ms"]["value"] == pytest.approx(15.0)
    assert m["setup_s"]["value"] == pytest.approx(0.1)
