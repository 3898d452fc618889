"""Deterministic generation of random elements and representation rewrites.

Randomness comes from an explicitly specified 64-bit generator so fixtures
reproduce bit-for-bit in any implementation:

* splitmix64: ``state := (state + 0x9E3779B97F4A7C15) mod 2^64`` then
  ``z := state; z ^= z >> 30; z *= 0xBF58476D1CE4E5B9; z ^= z >> 27;
  z *= 0x94D049BB133111EB; z ^= z >> 31`` (all mod 2^64) yields the draw.
* ``below(n)`` draws until the value falls under the largest multiple of n
  not exceeding 2^64, then reduces modulo n (unbiased rejection sampling).
* Trial k of a run with seed s uses a fresh stream with initial state
  ``(s + (k + 1) * 0x9E3779B97F4A7C15) mod 2^64``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil

from .magnitude import Magnitude
from .closure import TowerConfig
from .function_fields import MAX_VARS, ExtensionDescriptor, TowerElem
from .polynomials import Polynomial
from .tensor import TensorElem
from .parsing import FieldSetup

# Upper bounds on the scenario shape, checked before any work: the cost
# of a trial grows with the product of the term counts and with the
# degrees, and unbounded shapes make single trials run without end.
# MAX_VARS, the bound on variables per side, lives with ExtensionDescriptor
# so that setup files are bounded too.
MAX_TERMS = 8
MAX_DEGREE = 32

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


class SplitMix64:
    """The splitmix64 sequence; see the module docstring for the scheme."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + _GOLDEN) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return (z ^ (z >> 31)) & _MASK

    def below(self, n: int) -> int:
        if n <= 0:
            raise ValueError("below() needs a positive bound")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            v = self.next_u64()
            if v < limit:
                return v % n

    def choice(self, seq):
        return seq[self.below(len(seq))]

    def shuffle(self, items):
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]


def trial_rng(seed: int, index: int) -> SplitMix64:
    """The independent stream of trial ``index`` of a run seeded ``seed``."""
    return SplitMix64((seed + (index + 1) * _GOLDEN) & _MASK)


@dataclass(frozen=True)
class ScenarioConfig:
    """Shape of randomly generated scenarios and the run bookkeeping."""

    p: int = 2
    level_bound: int = 4
    k_vars: tuple = (("t", Fraction(-1)),)
    l_vars: tuple = (("u", Fraction(-1)),)
    trials: int = 300
    seed: int = 1
    max_terms: int = 4
    max_degree: int = 4
    base_level: int | None = None  # None: the whole closure
    offset: int = 0  # absolute index of the first trial (for replays)

    def validate(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.max_terms < 1 or self.max_degree < 1:
            raise ValueError("degree and term bounds must be >= 1")
        if self.max_terms > MAX_TERMS:
            raise ValueError(f"max terms must be <= {MAX_TERMS}")
        if self.max_degree > MAX_DEGREE:
            raise ValueError(f"max degree must be <= {MAX_DEGREE}")
        if self.offset < 0:
            raise ValueError("offset must be >= 0")
        if max(len(self.k_vars), len(self.l_vars)) > MAX_VARS:
            raise ValueError(f"at most {MAX_VARS} variables per side are allowed")

    def build_setup(self) -> FieldSetup:
        self.validate()
        config = TowerConfig(self.p, self.level_bound)
        left = ExtensionDescriptor(
            "K", [(n, Magnitude.pos(q)) for n, q in self.k_vars], config)
        right = ExtensionDescriptor(
            "L", [(n, Magnitude.pos(q)) for n, q in self.l_vars], config)
        if self.base_level is not None:
            config._check_level(self.base_level)
        return FieldSetup(config, left, right, self.base_level)


# ---------------------------------------------------------------------------
# element generation
# ---------------------------------------------------------------------------

def gen_closure_elem(config: TowerConfig, rng: SplitMix64, nonzero=False):
    """A coefficient at a uniformly chosen lattice level."""
    while True:
        level = rng.choice(config.levels)
        c = config.random_element(rng, level)
        if not (nonzero and c.is_zero):
            return c


def gen_base_scalar(setup: FieldSetup, rng: SplitMix64, nonzero=False):
    """A scalar of the base field (closure, or the configured sublevel)."""
    config = setup.config
    if setup.base_level is None:
        return gen_closure_elem(config, rng, nonzero)
    levels = [d for d in config.levels if setup.base_level % d == 0]
    while True:
        c = config.random_element(rng, rng.choice(levels))
        if not (nonzero and c.is_zero):
            return c


def gen_polynomial(descriptor, scenario, rng, nonzero=True):
    config = descriptor.config
    n = descriptor.nvars
    while True:
        terms = {}
        for _ in range(1 + rng.below(3)):
            exps = tuple(rng.below(scenario.max_degree + 1) for _ in range(n))
            coeff = gen_closure_elem(config, rng)
            if not coeff.is_zero:
                terms[exps] = coeff
        poly = Polynomial(config, n, terms)
        if not (nonzero and poly.is_zero):
            return poly


def gen_tower_elem(descriptor, scenario, rng, nonzero=True) -> TowerElem:
    """A random sparse fraction within the scenario's degree/level bounds."""
    num = gen_polynomial(descriptor, scenario, rng, nonzero=nonzero)
    den = gen_polynomial(descriptor, scenario, rng, nonzero=True)
    return TowerElem.from_polys(descriptor, num, den)


def gen_tensor_elem(setup, scenario, rng, nonzero=False) -> TensorElem:
    from .tensor import is_zero
    while True:
        count = 1 + rng.below(scenario.max_terms)
        terms = [(gen_tower_elem(setup.left, scenario, rng),
                  gen_tower_elem(setup.right, scenario, rng))
                 for _ in range(count)]
        z = TensorElem(setup.left, setup.right, terms, setup.base_level)
        if not (nonzero and is_zero(z)):
            return z


def _rescale_to_value(elem: TowerElem, target: Magnitude):
    """Multiply by a power of the first variable to hit the target value,
    or None when the value ratio is not a power of that variable's magnitude."""
    desc = elem.descriptor
    if desc.nvars == 0:
        return elem if elem.value() == target else None
    _, mag = desc.variables[0]
    diff = target.exponent - elem.value().exponent
    steps = diff / mag.exponent
    if steps.denominator != 1:
        return None
    var = TowerElem.variable(desc, desc.names[0])
    return elem * var ** int(steps)


def gen_pure_elem(setup, scenario, rng):
    """A random element together with its certified constant factor values.

    Returns (z, alpha, beta) where every representation term has left value
    alpha and right value beta and the norm of z is alpha * beta exactly.
    """
    from .tensor import tensor_norm
    while True:
        count = 1 + rng.below(scenario.max_terms)
        xs = [gen_tower_elem(setup.left, scenario, rng) for _ in range(count)]
        ys = [gen_tower_elem(setup.right, scenario, rng) for _ in range(count)]
        alpha, beta = xs[0].value(), ys[0].value()
        terms = []
        ok = True
        for x, y in zip(xs, ys):
            xr = _rescale_to_value(x, alpha)
            yr = _rescale_to_value(y, beta)
            if xr is None or yr is None:
                ok = False
                break
            terms.append((xr, yr))
        if not ok:
            continue
        z = TensorElem(setup.left, setup.right, terms, setup.base_level)
        if tensor_norm(z) == alpha * beta:
            return z, alpha, beta


def gen_orthogonal_family(setup, scenario, rng, size):
    """Left-side elements each of least value in its coset modulo the
    preceding ones (so the trivial bound 1 is valid for every member)."""
    from .function_fields import min_coset_value
    while True:
        xs = [gen_tower_elem(setup.left, scenario, rng) for _ in range(size)]
        us = []
        ok = True
        for i, x in enumerate(xs):
            u, _ = min_coset_value(x, us, base_level=setup.base_level)
            if u.is_zero:
                ok = False
                break
            us.append(u)
        if ok:
            return us


def perturb_family(us, setup, scenario, rng):
    """Unipotent mix of an orthogonal family plus the rational bounds that
    make the mixed family a valid estimate instance (bounds >= 1)."""
    from .function_fields import min_coset_value
    vs = []
    for i, u in enumerate(us):
        v = u
        for j in range(i):
            c = gen_base_scalar(setup, rng)
            if not c.is_zero:
                v = v + vs[j].scaled(c)
        vs.append(v)
    bounds = []
    for i, v in enumerate(vs):
        least, _ = min_coset_value(v, vs[:i], base_level=setup.base_level)
        q = v.value().exponent - least.value().exponent
        r = Fraction(2) ** ceil(q) if q > 0 else Fraction(1)
        if rng.below(2):
            r *= 2  # slack keeps the instance valid and varies the bounds
        bounds.append(r)
    return vs, bounds


# ---------------------------------------------------------------------------
# representation rewrites (norm-preserving by construction)
# ---------------------------------------------------------------------------

def random_rewrite(z: TensorElem, setup, scenario, rng) -> TensorElem:
    """A different representation of the same tensor element."""
    terms = list(z.terms)
    kind = rng.below(5)
    if kind == 0 or not terms:
        # append a canceling pair
        x = gen_tower_elem(setup.left, scenario, rng)
        y = gen_tower_elem(setup.right, scenario, rng)
        terms.extend([(x, y), (-x, y)])
    elif kind == 1:
        # split one term with a base scalar: x = c x + (1 - c) x
        i = rng.below(len(terms))
        x, y = terms[i]
        c = gen_base_scalar(setup, rng)
        one = setup.config.one()
        terms[i] = (x.scaled(c), y)
        terms.insert(i + 1, (x.scaled(one - c), y))
    elif kind == 2:
        # balance a unit across the sides
        i = rng.below(len(terms))
        x, y = terms[i]
        c = gen_base_scalar(setup, rng, nonzero=True)
        terms[i] = (x.scaled(c), y.scaled(c.inv()))
    elif kind == 3:
        rng.shuffle(terms)
    else:
        # fold a base combination across two terms
        if len(terms) >= 2:
            i = rng.below(len(terms))
            j = rng.below(len(terms) - 1)
            if j >= i:
                j += 1
            c = gen_base_scalar(setup, rng)
            xi, yi = terms[i]
            xj, yj = terms[j]
            terms[i] = (xi, yi - yj.scaled(c))
            terms[j] = (xj + xi.scaled(c), yj)
    return z.replace_terms(terms)
