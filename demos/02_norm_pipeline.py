"""From Gauss values to the exact tensor norm.

Walks the whole pipeline on concrete elements: values of rational
functions, coordinatization over a common denominator, least coset
values, dependence elimination, the orthogonalizing sweep, the certified
norm and the pure decomposition.

    python demos/02_norm_pipeline.py
"""

from tensornorm import (Polynomial, TowerElem, coordinatize, eliminate_dependent,
                        min_coset_value, orthogonalize_left, parse_field_setup,
                        pure_decompose, tensor_norm)
from tensornorm.parsing import format_tensor_elem, format_tower_elem, parse_tower_elem

setup = parse_field_setup("""
p 2
levels 4
base closure
K t:-1
L u:-1
""")
K, L = setup.left, setup.right

# ---------------------------------------------------------------------------
# Gauss values: |t| = 2^-1, constants have value 1, fractions divide.
# ---------------------------------------------------------------------------

for text in ("1 + t", "t^2 + t^3", "1 / t", "t / (1 + t)", "(t + t^2) / (1 + t)"):
    x = parse_tower_elem(text, K)
    print(f"|{text}| = {x.value()}   (canonical form: {format_tower_elem(x)})")

# ---------------------------------------------------------------------------
# Coordinatization: a common denominator and exact coordinates over the base.
# ---------------------------------------------------------------------------

xs = [parse_tower_elem("1 / t", K), parse_tower_elem("1 / (1 + t)", K)]
cs = coordinatize(xs)
print("\ncommon denominator:", cs.denominator)
print("basis monomials:", [b[0] for b in cs.basis])
print("matrix:", [[str(c) for c in row] for row in cs.matrix])
# over the closure each atom is a bare monomial: a row is a numerator
rebuilt = [TowerElem.from_polys(K, Polynomial(K.config, K.nvars, {
    exps: c for (exps, _), c in zip(cs.basis, row)}), cs.denominator) for row in cs.matrix]
print("round trip ok:", rebuilt == xs)

# ---------------------------------------------------------------------------
# Least coset value: the cheapest representative of x + span over the base.
# ---------------------------------------------------------------------------

x = parse_tower_elem("1 + t", K)
one = parse_tower_elem("1", K)
u, coeffs = min_coset_value(x, [one])
print(f"\nmin over (1 + t) + k*(1): {format_tower_elem(u)} "
      f"with coefficients {[str(c) for c in coeffs]} and value {u.value()}")

# ---------------------------------------------------------------------------
# The norm pipeline: eliminate dependence, sweep, read off the maximum.
# ---------------------------------------------------------------------------

z = setup.parse_element("(1 + t) (x) u + 1 (x) u")
print("\nz =", format_tensor_elem(z))
print("after eliminating dependent factors:",
      format_tensor_elem(eliminate_dependent(z)))
rep = orthogonalize_left(z)
for i, (uu, vv) in enumerate(rep.terms, 1):
    print(f"  reduced term {i}: |u| = {uu.value()}, |v| = {vv.value()}")
print("norm:", tensor_norm(z))

# ---------------------------------------------------------------------------
# Pure decomposition: constant-value part plus a lexicographically
# smaller tail; the pure values multiply under products.
# ---------------------------------------------------------------------------

z = setup.parse_element("t (x) 1 + 1 (x) u")
d = pure_decompose(z)
print(f"\nz = {format_tensor_elem(z)}")
print(f"alpha = {d.alpha}, beta = {d.beta}")
print("pure part:", format_tensor_elem(d.pure_part))
print("tail:", format_tensor_elem(d.tail))
