"""Multiplicativity of the norm, and how it fails without a closed base.

Over the algebraic closure of the prime field (trivially valued) the
tensor norm is multiplicative and vanishes only at zero; over the prime
field itself both statements break on a two-term witness built from a
quadratic generator.  This script checks both at small scale.

    python demos/03_multiplicativity.py
"""

from tensornorm import (ScenarioConfig, is_zero, parse_field_setup, run_suite,
                        tensor_norm)

# ---------------------------------------------------------------------------
# The theorem at desk scale: products over the closed base, exact equality.
# ---------------------------------------------------------------------------

for p in (2, 3):
    report = run_suite("mult-closed", ScenarioConfig(p=p, trials=100, seed=7))
    print(f"p={p}: |z w| = |z| |w| on {report.trials} random pairs, "
          f"failures: {len(report.failures)} ({report.elapsed:.1f}s)")

# ---------------------------------------------------------------------------
# Non-degeneracy rides along: the norm vanishes exactly on zero elements,
# the zero test on the coefficient matrix cross-checked against the sweep.
# ---------------------------------------------------------------------------

report = run_suite("nondegeneracy", ScenarioConfig(trials=200, seed=5))
print(f"norm/rank agreement on {report.trials} elements, "
      f"failures: {len(report.failures)}")

# ---------------------------------------------------------------------------
# Drop algebraic closure and multiplicativity dies: over the prime field
# GF(2), with both sides containing the quadratic extension, the witness
# z = w (x) 1 + 1 (x) w is an idempotent zero divisor.
# ---------------------------------------------------------------------------

setup = parse_field_setup("""
p 2
levels 2
base 1
K t:-1
L u:-1
""")
z = setup.parse_element("2^2:0,1 (x) 1 + 1 (x) 2^2:0,1")
one = setup.parse_element("1 (x) 1")
product = z * (z + one)

print("\nwitness over the prime-field base:")
print("  |z| =", tensor_norm(z))
print("  |z + 1| =", tensor_norm(z + one))
print("  z (z + 1) = 0:", is_zero(product))
print("  |z (z + 1)| =", tensor_norm(product))
print("  multiplicative here:",
      tensor_norm(product) == tensor_norm(z) * tensor_norm(z + one))

# The same witness collapses over the closure: w is then a scalar, so
# z = w (x) 1 + 1 (x) w = 2 * (1 (x) w) = 0 in characteristic 2.
closed = parse_field_setup("""
p 2
levels 2
base closure
K t:-1
L u:-1
""")
z_closed = closed.parse_element("2^2:0,1 (x) 1 + 1 (x) 2^2:0,1")
print("\nthe same element over the closed base is zero:", is_zero(z_closed))

# The packaged suite asserts exactly this witness:
report = run_suite("counterexample", ScenarioConfig())
print("counterexample suite confirms the failure:", report.ok)
