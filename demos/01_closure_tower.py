"""Tour of the finite-field closure tower.

Builds the lattice of fields GF(p^n) for n dividing a bound, shows the
deterministic choice of moduli, cross-level arithmetic with canonical
minimal-level results, and the compatible embeddings.  Run it top to bottom:

    python demos/01_closure_tower.py
"""

from tensornorm import TowerConfig

# ---------------------------------------------------------------------------
# The lattice: all divisors of the bound.  Each level n is GF(p)[x]/(f_n)
# with f_n the least monic irreducible of degree n (coefficient vectors
# enumerated as base-p integers).
# ---------------------------------------------------------------------------

cfg = TowerConfig(2, 12)
print("levels:", cfg.levels)
for n in cfg.levels:
    print(f"  modulus of level {n}:", cfg._arith[n].modulus)

# ---------------------------------------------------------------------------
# Arithmetic mixes levels freely; results renormalize to the smallest
# field containing them, so equality is plain structural equality.
# ---------------------------------------------------------------------------

w = cfg.generator(2)   # a cube root of unity: w^2 + w + 1 = 0
g = cfg.generator(4)
print("\nw =", w, " g =", g)
print("w * w =", w * w, "   (equals w + 1)")
print("w^3 =", w**3)
mixed = w * g
print("w * g lives at level", mixed.level)
print("(w * g) / g =", mixed / g, " back at level", (mixed / g).level)

# w + w^2 = 1, so the sum of a level-2 pair can land in the prime field
print("w + w^2 =", w + w * w, " at level", (w + w * w).level)

# ---------------------------------------------------------------------------
# Embeddings are anchored in the top field, which makes the whole table
# commute; embed_coords exposes the raw image coordinates.
# ---------------------------------------------------------------------------

print("\ncoordinates of w inside level 4:", cfg.embed_coords(w, 4))
print("coordinates of w inside level 12:", cfg.embed_coords(w, 12))
via_4 = cfg._embed_code_raw(cfg._embed_code_raw(w.code, 2, 4), 4, 12)
direct = cfg._embed_code_raw(w.code, 2, 12)
print("2 -> 4 -> 12 equals 2 -> 12:", via_4 == direct)

# ---------------------------------------------------------------------------
# A configuration is built once for its bound; a larger bound gives a
# larger lattice.  For p=3, bound 6 adds levels 3 and 6.
# ---------------------------------------------------------------------------

small = TowerConfig(3, 6)
print("\np=3 lattice:", small.levels)
g6 = small.generator(6)
print("generator of level 6 has (g^k == 1 first at k):",
      min(k for k in range(1, 3**6) if (g6**k).is_one))
