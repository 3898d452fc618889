"""Property suites over randomly generated scenarios.

Each suite runs independent trials (trial k draws from its own generator
stream, so trials can be distributed freely and replayed in isolation via
the scenario's offset) and records every violated relation with enough
serialized input to replay it from the command line.  The rendered report
is a pure function of (scenario, seed): it deliberately excludes wall
time, which is kept on the report object only.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

from .magnitude import Magnitude
from .parsing import format_tensor_elem, format_tower_elem, parse_field_setup
from .generators import (ScenarioConfig, gen_base_scalar, gen_orthogonal_family,
                         gen_pure_elem, gen_tensor_elem, gen_tower_elem,
                         perturb_family, random_rewrite, trial_rng)
from .tensor import (InstanceInvalidError, TensorElem, is_zero, orthogonalize_left,
                     tensor_norm, value_estimate_check)


@dataclass(frozen=True)
class TrialFailure:
    offset: int
    inputs: tuple
    relation: str
    observed: str


@dataclass
class SuiteReport:
    suite: str
    trials: int
    failures: list = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def ok(self):
        return not self.failures

    def render(self) -> str:
        lines = [
            f"suite: {self.suite}",
            f"trials: {self.trials}",
            f"failures: {len(self.failures)}",
        ]
        for f in self.failures:
            lines.append("failure:")
            lines.append(f"  offset: {f.offset}")
            for i, inp in enumerate(f.inputs):
                lines.append(f"  input[{i}]: {inp}")
            lines.append(f"  relation: {f.relation}")
            lines.append(f"  observed: {f.observed}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        return json.dumps({
            "suite": self.suite,
            "trials": self.trials,
            "failures": [
                {"offset": f.offset, "inputs": list(f.inputs),
                 "relation": f.relation, "observed": f.observed}
                for f in self.failures
            ],
        }, indent=2) + "\n"


SUITE_NAMES = (
    "ultrametric", "crossnorm", "repr-invariance", "symmetry", "submult",
    "mult-closed", "nondegeneracy", "pure-product", "value-estimate",
    "counterexample",
)


def run_suite(name: str, scenario: ScenarioConfig) -> SuiteReport:
    if name not in SUITE_NAMES:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    scenario.validate()
    started = time.monotonic()
    if name == "counterexample":
        failures = _counterexample_failures()
        report = SuiteReport(name, trials=1, failures=failures)
    else:
        setup = scenario.build_setup()
        trial = _TRIALS[name]
        failures = []
        for k in range(scenario.trials):
            offset = scenario.offset + k
            rng = trial_rng(scenario.seed, offset)
            fail = trial(setup, scenario, rng)
            if fail is not None:
                failures.append(TrialFailure(offset, *fail))
        report = SuiteReport(name, trials=scenario.trials, failures=failures)
    report.elapsed = time.monotonic() - started
    return report


# ---------------------------------------------------------------------------
# individual trials; each returns None or (inputs, relation, observed)
# ---------------------------------------------------------------------------

def _ultrametric_trial(setup, scenario, rng):
    z = gen_tensor_elem(setup, scenario, rng)
    w = gen_tensor_elem(setup, scenario, rng)
    nz, nw, ns = tensor_norm(z), tensor_norm(w), tensor_norm(z + w)
    bound = max(nz, nw)
    if ns > bound or (nz != nw and ns != bound):
        return ((format_tensor_elem(z), format_tensor_elem(w)),
                "|z + w| <= max(|z|, |w|), equality when |z| != |w|",
                f"|z|={nz} |w|={nw} |z+w|={ns}")
    return None


def _crossnorm_trial(setup, scenario, rng):
    x = gen_tower_elem(setup.left, scenario, rng)
    y = gen_tower_elem(setup.right, scenario, rng)
    z = TensorElem.elementary(x, y, setup.base_level)
    expected = x.value() * y.value()
    got = tensor_norm(z)
    if got != expected:
        return ((format_tower_elem(x), format_tower_elem(y)),
                "|x (x) y| = |x| |y|",
                f"norm={got} value product={expected}")
    return None


def _repr_invariance_trial(setup, scenario, rng):
    z = gen_tensor_elem(setup, scenario, rng)
    n0 = tensor_norm(z)
    current = z
    for _ in range(10):
        current = random_rewrite(current, setup, scenario, rng)
        n = tensor_norm(current)
        if n != n0:
            return ((format_tensor_elem(z), format_tensor_elem(current)),
                    "norm is representation independent",
                    f"original={n0} rewritten={n}")
    return None


def _symmetry_trial(setup, scenario, rng):
    z = gen_tensor_elem(setup, scenario, rng)
    left = tensor_norm(z)
    # the sweep on the transposed element: an oracle independent of the matrix
    right = orthogonalize_left(z.transpose()).norm
    if left != right:
        return ((format_tensor_elem(z),),
                "norm agrees with the transposed computation",
                f"left={left} right={right}")
    return None


def _submult_trial(setup, scenario, rng):
    z = gen_tensor_elem(setup, scenario, rng)
    w = gen_tensor_elem(setup, scenario, rng)
    nz, nw, np_ = tensor_norm(z), tensor_norm(w), tensor_norm(z * w)
    if np_ > nz * nw:
        return ((format_tensor_elem(z), format_tensor_elem(w)),
                "|z w| <= |z| |w|",
                f"|z|={nz} |w|={nw} |zw|={np_}")
    return None


def _mult_closed_trial(setup, scenario, rng):
    z = gen_tensor_elem(setup, scenario, rng)
    w = gen_tensor_elem(setup, scenario, rng)
    nz, nw, np_ = tensor_norm(z), tensor_norm(w), tensor_norm(z * w)
    if np_ != nz * nw:
        return ((format_tensor_elem(z), format_tensor_elem(w)),
                "|z w| = |z| |w| over the closed base",
                f"|z|={nz} |w|={nw} |zw|={np_}")
    return None


def _nondegeneracy_trial(setup, scenario, rng):
    if rng.below(3) == 0:
        # a disguised zero: rewrite the empty representation a few times
        z = TensorElem.zero(setup.left, setup.right, setup.base_level)
        for _ in range(3):
            z = random_rewrite(z, setup, scenario, rng)
    else:
        z = gen_tensor_elem(setup, scenario, rng)
    rank_zero = is_zero(z)
    # the sweep's norm: an oracle independent of the matrix is_zero reads
    norm = orthogonalize_left(z).norm
    if rank_zero != norm.is_zero:
        return ((format_tensor_elem(z),),
                "norm vanishes exactly on zero elements",
                f"rank oracle={rank_zero} norm={norm}")
    return None


def _pure_product_trial(setup, scenario, rng):
    z1, a1, b1 = gen_pure_elem(setup, scenario, rng)
    z2, a2, b2 = gen_pure_elem(setup, scenario, rng)
    expected = a1 * b1 * a2 * b2
    got = tensor_norm(z1 * z2)
    if got != expected:
        return ((format_tensor_elem(z1), format_tensor_elem(z2)),
                "product of pure elements multiplies the certified values",
                f"|z1 z2|={got} expected={expected}")
    return None


def _value_estimate_trial(setup, scenario, rng):
    size = 1 + rng.below(3)
    us = gen_orthogonal_family(setup, scenario, rng, size)
    if rng.below(2):
        xs, bounds = us, [1] * size
    else:
        xs, bounds = perturb_family(us, setup, scenario, rng)
    scalars = [gen_base_scalar(setup, rng) for _ in range(size)]
    try:
        ok = value_estimate_check(xs, bounds, scalars,
                                  base_level=setup.base_level)
    except InstanceInvalidError as exc:
        return (tuple(format_tower_elem(x) for x in xs),
                "generated instance satisfies the hypothesis",
                f"rejected: {exc}")
    if not ok:
        return (tuple(format_tower_elem(x) for x in xs),
                "|a . x| prod(r) >= max |a_i| |x_i|",
                f"bounds={bounds} scalars={[str(a) for a in scalars]}")
    return None


_COUNTEREXAMPLE_SETUP = """
p 2
levels 2
base 1
K t:-1
L u:-1
"""


def _counterexample_failures():
    """The fixed witness showing multiplicativity needs a closed base.

    Over the order-2 prime field, with both sides containing the quadratic
    extension, the element w (x) 1 + 1 (x) w (w the quadratic generator)
    is a zero divisor: z (z + 1 (x) 1) = 0 while both factors have norm
    one.  Success means the failure of multiplicativity is confirmed.
    """
    setup = parse_field_setup(_COUNTEREXAMPLE_SETUP)
    z = setup.parse_element("2^2:0,1 (x) 1 + 1 (x) 2^2:0,1")
    w = z + setup.parse_element("1 (x) 1")
    product = z * w
    failures = []
    one = Magnitude.one()
    if not is_zero(product):
        failures.append(TrialFailure(
            0, (format_tensor_elem(z),),
            "z (z + 1 (x) 1) = 0", "rank oracle reports nonzero"))
    checks = (("|z|", tensor_norm(z)), ("|z + 1 (x) 1|", tensor_norm(w)))
    for label, got in checks:
        if got != one:
            failures.append(TrialFailure(
                0, (format_tensor_elem(z),), f"{label} = 2^0", f"{label}={got}"))
    got = tensor_norm(product)
    if not got.is_zero:
        failures.append(TrialFailure(
            0, (format_tensor_elem(product),),
            "|z (z + 1 (x) 1)| = 0", f"norm={got}"))
    return failures


_TRIALS = {
    "ultrametric": _ultrametric_trial,
    "crossnorm": _crossnorm_trial,
    "repr-invariance": _repr_invariance_trial,
    "symmetry": _symmetry_trial,
    "submult": _submult_trial,
    "mult-closed": _mult_closed_trial,
    "nondegeneracy": _nondegeneracy_trial,
    "pure-product": _pure_product_trial,
    "value-estimate": _value_estimate_trial,
}
