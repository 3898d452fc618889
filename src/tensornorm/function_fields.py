"""Rational function fields over the closure, valued by monomial magnitudes.

An :class:`ExtensionDescriptor` names one side of the construction (K or
L): an ordered list of transcendentals, each carrying a positive magnitude
2**q with q a nonzero rational.  Elements are canonical fractions of
sparse polynomials; the value of a polynomial is the largest magnitude of
a monomial appearing in it (coefficients all have magnitude one, the
closure being trivially valued), and extends multiplicatively to
fractions.  Values are computed as integer weights: with ``scale`` the
lcm of a side's exponent denominators, the monomial x^e has the value
2^(weight(e) / scale), and a Magnitude is built only for a result.

Coordinatization expresses a list of elements over a common denominator
as exact coordinate vectors over a chosen base field: either the whole
closure, or the subfield of a fixed lattice level, in which case closure
coefficients are unfolded over powers of the common level's generator.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul

from .magnitude import Magnitude
from .linalg import IncrementalSystem
from .polynomials import Polynomial, exact_div, glex_key, poly_gcd, poly_lcm

_RESERVED_NAMES = {"x"}  # "(x)" is the tensor-product operator in element syntax

# Most transcendentals one side may have: the multivariate gcd recurses
# once per variable, and the number of monomials grows with the count.
MAX_VARS = 8


class ExtensionDescriptor:
    """One side of the tensor construction: named transcendentals with
    assigned magnitudes over a tower configuration.

    Immutable after construction; elements and all operations on them are
    pure values, safe to share freely between threads.
    """

    def __init__(self, side, variables, config):
        if side not in ("K", "L"):
            raise ValueError(f"side must be 'K' or 'L', got {side!r}")
        names = [n for n, _ in variables]
        if len(names) > MAX_VARS:
            raise ValueError(f"side {side} has {len(names)} variables; at most "
                             f"{MAX_VARS} are allowed")
        if len(set(names)) != len(names):
            raise ValueError("variable names must be unique")
        for n, mag in variables:
            if n in _RESERVED_NAMES:
                raise ValueError(f"variable name {n!r} is reserved")
            if not isinstance(mag, Magnitude) or mag.is_zero or mag.exponent == 0:
                raise ValueError(
                    f"variable {n!r} needs a positive magnitude 2^q with q nonzero")
        self.side = side
        self.variables = tuple((n, m) for n, m in variables)
        self.config = config
        # every exponent lies in (1/scale)Z: the monomial x^e has the value
        # 2^(weight(e) / scale) for the integer weight(e)
        self.scale = lcm(*(m.exponent.denominator for _, m in variables))
        self.weights = tuple(int(m.exponent * self.scale) for _, m in variables)

    @property
    def nvars(self):
        return len(self.variables)

    @property
    def names(self):
        return tuple(n for n, _ in self.variables)

    def index(self, name):
        for i, (n, _) in enumerate(self.variables):
            if n == name:
                return i
        raise KeyError(f"unknown variable {name!r} on side {self.side}")

    def weight(self, exps) -> int:
        """The integer weight of a monomial: its value is 2^(weight / scale)."""
        return sum(map(mul, exps, self.weights))

    def top_weight(self, poly) -> int:
        """The largest weight of a monomial of a nonzero polynomial."""
        return max(map(self.weight, poly.terms))

    def __repr__(self):
        vs = ", ".join(f"{n}:{m}" for n, m in self.variables)
        return f"ExtensionDescriptor({self.side}; {vs})"


def gauss_value(poly: Polynomial, descriptor: ExtensionDescriptor) -> Magnitude:
    """Largest monomial magnitude of a polynomial; zero for the zero poly."""
    if poly.is_zero:
        return Magnitude.zero()
    return Magnitude.pos(Fraction(descriptor.top_weight(poly), descriptor.scale))


class TowerElem:
    """A canonical fraction of sparse polynomials in one descriptor.

    Canonical form: gcd(num, den) = 1 and the denominator's graded-lex
    leading coefficient is one; the zero element is 0/1.  Immutable.
    """

    __slots__ = ("descriptor", "num", "den", "_value")

    def __init__(self, descriptor, num, den, _canonical=False):
        self.descriptor = descriptor
        self._value = None
        if _canonical:
            self.num, self.den = num, den
            return
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        if num.is_zero:
            self.num = num
            self.den = Polynomial.constant(descriptor.config, descriptor.nvars, 1)
            return
        if not (num.is_constant or den.is_constant):
            g = poly_gcd(num, den)
            if not g.is_constant:
                num = exact_div(num, g)
                den = exact_div(den, g)
        _, lc = den.leading()
        if not lc.is_one:
            inv = lc.inv()
            num = num.scaled(inv)
            den = den.scaled(inv)
        self.num = num
        self.den = den

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, descriptor):
        cfg, n = descriptor.config, descriptor.nvars
        return cls(descriptor, Polynomial.zero(cfg, n),
                   Polynomial.constant(cfg, n, 1), _canonical=True)

    @classmethod
    def one(cls, descriptor):
        return cls.constant(descriptor, 1)

    @classmethod
    def constant(cls, descriptor, value):
        cfg, n = descriptor.config, descriptor.nvars
        num = Polynomial.constant(cfg, n, value)
        return cls(descriptor, num, Polynomial.constant(cfg, n, 1), _canonical=True)

    @classmethod
    def variable(cls, descriptor, name):
        cfg, n = descriptor.config, descriptor.nvars
        num = Polynomial.variable(cfg, n, descriptor.index(name))
        return cls(descriptor, num, Polynomial.constant(cfg, n, 1), _canonical=True)

    @classmethod
    def from_polys(cls, descriptor, num, den):
        return cls(descriptor, num, den)

    # -- queries ---------------------------------------------------------------

    @property
    def is_zero(self):
        return self.num.is_zero

    def value(self) -> Magnitude:
        """The Gauss value, multiplicative over the fraction."""
        if self._value is None:
            if self.num.is_zero:
                self._value = Magnitude.zero()
            else:
                desc = self.descriptor
                self._value = Magnitude.pos(Fraction(
                    desc.top_weight(self.num) - desc.top_weight(self.den), desc.scale))
        return self._value

    # -- arithmetic --------------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, TowerElem):
            if other.descriptor is not self.descriptor:
                raise ValueError("elements of different extensions")
            return other
        return TowerElem.constant(self.descriptor, other)

    def __add__(self, other):
        other = self._coerce(other)
        num = self.num * other.den + other.num * self.den
        return TowerElem(self.descriptor, num, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return TowerElem(self.descriptor, -self.num, self.den, _canonical=True)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        return TowerElem(self.descriptor, self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other.is_zero:
            raise ZeroDivisionError("division by the zero element")
        return TowerElem(self.descriptor, self.num * other.den, self.den * other.num)

    def scaled(self, coeff):
        """Product with a base-field element; stays canonical."""
        if isinstance(coeff, int):
            coeff = self.descriptor.config.from_int(coeff)
        if coeff.is_zero:
            return TowerElem.zero(self.descriptor)
        return TowerElem(self.descriptor, self.num.scaled(coeff), self.den,
                         _canonical=True)

    def __pow__(self, n):
        if n < 0:
            return (TowerElem.one(self.descriptor) / self) ** (-n)
        return TowerElem(self.descriptor, self.num**n, self.den**n)

    def __eq__(self, other):
        if not isinstance(other, TowerElem):
            return NotImplemented
        return (self.descriptor is other.descriptor and self.num == other.num
                and self.den == other.den)

    def __hash__(self):
        return hash((id(self.descriptor), self.num, self.den))

    def __repr__(self):
        from .parsing import format_tower_elem
        return f"TowerElem({format_tower_elem(self)})"


# ---------------------------------------------------------------------------
# coordinatization over the base field
# ---------------------------------------------------------------------------

class CoordSystem:
    """Exact coordinates of a list of elements over a common denominator.

    Element i equals numerators[i] / denominator, and numerators[i] is
    sum of row[j] * atom_j, where an atom is a monomial times a power of
    the coefficient-level generator (that power is always zero when the
    base is the whole closure) and the row entries lie in the base field.
    """

    def __init__(self, descriptor, base_level, denominator, numerators, basis,
                 coeff_level, matrix):
        self.descriptor = descriptor
        self.base_level = base_level
        self.denominator = denominator
        self.numerators = numerators
        self.basis = basis  # tuple of (exponent tuple, generator power)
        self.coeff_level = coeff_level
        self.matrix = matrix

    def atom_grades(self):
        """{weight: atom indices} over the basis: an atom has the value
        2^(weight / descriptor.scale) of its monomial (the generator power
        contributes one), so the weights order the atoms as their values
        do.  Each monomial owns a run of coeff_level // base_level
        consecutive atoms (one over the closure), so its weight is computed
        once for the whole run."""
        span = 1 if self.base_level is None else self.coeff_level // self.base_level
        weight = self.descriptor.weight
        basis, grades = self.basis, {}
        for j in range(0, len(basis), span):
            grades.setdefault(weight(basis[j][0]), []).extend(range(j, j + span))
        return grades


def coordinatize(elems, base_level=None) -> CoordSystem:
    """Common-denominator coordinates of nonzero-or-zero elements.

    ``base_level=None`` takes the whole closure as the base field; a level
    restricts the base to that subfield and unfolds coefficients over
    generator powers of a common coefficient level.

    The common denominator is the lcm of the elements' denominators, which
    keeps the supports small.  Any common denominator D would do: the
    atoms over D are orthogonal whatever D is, which is what lets
    :func:`coordinatize_products` use D_a D_b for products.
    """
    if not elems:
        raise ValueError("need at least one element")
    desc = elems[0].descriptor
    cfg = desc.config
    for e in elems:
        if e.descriptor is not desc:
            raise ValueError("elements of different extensions")

    # one lcm fold and one exact division per distinct denominator
    cofactors = dict.fromkeys(e.den for e in elems)
    den = Polynomial.constant(cfg, desc.nvars, 1)
    for d in cofactors:
        den = poly_lcm(den, d)
    for d in cofactors:
        cofactors[d] = _cofactor(den, d)
    return _coord_system(desc, base_level, den,
                         [e.num * cofactors[e.den] for e in elems])


def coordinatize_products(a: CoordSystem, b: CoordSystem) -> CoordSystem:
    """Coordinates of the products x_i y_j (i outer) of the elements of
    ``a`` and ``b``, over the denominator D_a D_b.

    The numerator of x_i y_j over D_a D_b is the product of the factors'
    numerators, so this takes polynomial products only: no gcd, no lcm
    and no division.
    """
    if a.descriptor is not b.descriptor or a.base_level != b.base_level:
        raise ValueError("coordinates of different extensions or bases")
    return _coord_system(a.descriptor, a.base_level, a.denominator * b.denominator,
                         [f * g for f in a.numerators for g in b.numerators])


def coordinatize_union(a: CoordSystem, b: CoordSystem) -> CoordSystem:
    """Coordinates of the elements of ``a`` followed by those of ``b``,
    over lcm(D_a, D_b): the same system :func:`coordinatize` builds on
    the concatenated elements, for one gcd."""
    if a.descriptor is not b.descriptor or a.base_level != b.base_level:
        raise ValueError("coordinates of different extensions or bases")
    den = poly_lcm(a.denominator, b.denominator)
    ca, cb = _cofactor(den, a.denominator), _cofactor(den, b.denominator)
    return _coord_system(a.descriptor, a.base_level, den,
                         [f * ca for f in a.numerators] + [g * cb for g in b.numerators])


def _cofactor(den, d):
    q = exact_div(den, d)
    if q is None:
        raise ArithmeticError("common denominator is not a multiple of a denominator")
    return q


def _coord_system(desc, base_level, den, nums) -> CoordSystem:
    """The basis and matrix of numerators ``nums`` over ``den``."""
    cfg = desc.config
    monos = sorted({exps for f in nums for exps in f.terms}, key=glex_key)
    zero = cfg.zero()

    if base_level is None:
        basis = tuple((m, 0) for m in monos)
        matrix = [[f.terms.get(m, zero) for m in monos] for f in nums]
        return CoordSystem(desc, None, den, nums, basis, 1, matrix)

    cfg._check_level(base_level)
    lcm_levels = cfg._lcm_levels
    level = base_level
    for f in nums:
        for c in f.terms.values():
            level = lcm_levels[(level, c.level)]
    span = level // base_level
    basis = tuple((m, j) for m in monos for j in range(span))
    absent = (zero,) * span
    rel = {}  # coordinates of each distinct coefficient, for this call only
    matrix = []
    for f in nums:
        row = []
        terms = f.terms
        for m in monos:
            c = terms.get(m)
            if c is None:
                row.extend(absent)
                continue
            coords = rel.get(c)
            if coords is None:
                coords = rel[c] = cfg.relative_coords(c, level, base_level)
            row.extend(coords)
        matrix.append(row)
    return CoordSystem(desc, base_level, den, nums, basis, level, matrix)


def min_coset_value(x: TowerElem, span, base_level=None):
    """Least-value representative of x + <span> over the base field.

    Returns (u, coeffs) with u = x + sum coeffs[j] * span[j] of minimal
    value; the minimum exists because over the trivially valued base the
    value takes finitely many values on the coset.  Among attaining
    coefficient vectors, the one with free parameters zero is returned, so
    coeffs is all zeros whenever x itself attains the least value.
    """
    span = list(span)
    if not span:
        return x, ()
    cs = coordinatize([x] + span, base_level=base_level)
    cfg = x.descriptor.config
    xi = cs.matrix[0]
    rows = cs.matrix[1:]
    d = len(span)

    grades = cs.atom_grades()
    system = IncrementalSystem(d, cfg)
    for weight in sorted(grades, reverse=True):
        snapshot = len(system.pivots)
        consistent = True
        for l in grades[weight]:
            coeffs_l = [rows[j][l] for j in range(d)]
            if system.add_equation(coeffs_l, -xi[l]) == IncrementalSystem.INCONSISTENT:
                consistent = False
                break
        if not consistent:
            del system.pivots[snapshot:]
            break

    coeffs = system.solve_free_zero()
    u = x
    for c, s in zip(coeffs, span):
        if not c.is_zero:
            u = u + s.scaled(c)
    return u, tuple(coeffs)
