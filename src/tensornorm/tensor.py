"""Elements of the tensor product of two function fields over a base field,
their ring operations, the exact norm and the audited reduction pipeline.

A :class:`TensorElem` is a finite list of factor pairs; the represented
element is the sum of the elementary tensors.  The base field over which
the tensor product is taken is either the whole closure (``base_level
None``) or the subfield at a fixed lattice level; nothing here requires
the base to be closed, and the norm computation below is exact over any
of these (trivially valued) bases.

The norm is the infimum over all representations of the largest
factor-value product.  It is read from the coefficient matrix:

* Coordinatize each side once over a common denominator D: every left
  factor is a base-field combination of atoms e_a = m_a / D_K, with m_a a
  monomial (times a power of the coefficient level's generator on a
  level base), and likewise f_b = m_b / D_L on the right.  Then
  z = sum over (a, b) of M[a][b] e_a (x) f_b with M = L^T R.
* The atoms are an orthogonal family under the Gauss value: the value of
  a combination is the largest |e_a| whose coefficient is nonzero (the
  base is trivially valued, and generator powers are a basis of the
  coefficient field over the base, so they never cancel a monomial).
* A trivially valued field is spherically complete, so by the
  non-archimedean Hahn-Banach theorem the coordinate functionals phi_a
  satisfy |phi_a(x)| <= |x| / |e_a| on the whole field.  Applying
  phi_a (x) phi_b to any representation sum x_i (x) y_i of z gives
  |M[a][b]| |e_a| |f_b| <= max |x_i| |y_i|, and the representation by
  the atoms attains the bound.  Hence

      |z| = max { |e_a| |f_b| : M[a][b] != 0 },

  zero exactly when M vanishes (A. C. M. van Rooij, *Non-Archimedean
  Functional Analysis*, 1978; C. Perez-Garcia and W. H. Schikhof,
  *Locally Convex Spaces over Non-Archimedean Valued Fields*, 2010).

Nothing here depends on which common denominator is used: over any
common multiple D of the denominators the atoms m_a / D are orthogonal,
so the formula holds for every choice.  An element given by its terms is
coordinatized over the lcm of its factors' denominators.  A product z w
takes D_z D_w instead: its left factors are x_i x'_j = n_i n'_j / (D_z D_w)
for the factors' numerators n_i over D_z and n'_j over D_w, so its matrix
comes from the factors' matrices by polynomial products alone, with no
gcd, and its canonical terms are only formed when something reads them.
Each element keeps its matrix once computed, and a sum of two elements
that hold one is coordinatized over lcm(D_z, D_w) for one gcd.

:func:`tensor_norm` evaluates this formula, visiting value pairs from
the largest product down and computing only the entries it needs;
:func:`is_zero` tests M for zero.  The values are graded by integers:
every exponent of a side lies in (1/S)Z for S the lcm of its exponent
denominators (the side's ``scale``), so |e_a| = 2^(w_a / S) for an
integer weight w_a; the walk adds the two sides' weights lifted to the
lcm of their scales, and builds one Magnitude, for the norm it returns.

The reduction pipeline stays as the audited certificate behind ``norm``,
``reduce`` and ``decompose``, and as the independent oracle for the
formula: make both factor families linearly independent over the base,
then sweep the left factors, replacing each by the least-value
representative of its coset modulo the preceding ones and compensating
on the right, so that the infimum is attained by the resulting
representation and read off as its maximum (:class:`ReducedRep`).
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heappop, heappush
from math import lcm

from .magnitude import Magnitude, scaled_compare
from .linalg import first_dependency
from .function_fields import (TowerElem, coordinatize, coordinatize_products,
                              coordinatize_union, min_coset_value)


class InstanceInvalidError(ValueError):
    """An inequality check was fed an instance violating its hypothesis."""


class TensorElem:
    """A representation of an element of the tensor product algebra.

    Terms with a zero factor are stripped on construction; the empty list
    represents zero.  Immutable.

    A product ``z * w`` does not build its terms: it keeps its factors and
    its coefficient matrix, built from theirs with polynomial products
    only (:func:`coefficient_matrix`), and its canonical terms are formed
    from the factors' terms the first time ``terms`` is read.
    """

    __slots__ = ("left_descriptor", "right_descriptor", "base_level", "term_count",
                 "_terms", "_factors", "_matrix")

    def __init__(self, left_descriptor, right_descriptor, terms, base_level=None):
        config = left_descriptor.config
        if right_descriptor.config is not config:
            raise ValueError("descriptors use different tower configurations")
        if left_descriptor is right_descriptor:
            raise ValueError("the two sides must be distinct descriptors")
        if set(left_descriptor.names) & set(right_descriptor.names):
            raise ValueError("variable names must be unique across both sides")
        if base_level is not None:
            config._check_level(base_level)
        kept = []
        for x, y in terms:
            if x.descriptor is not left_descriptor or y.descriptor is not right_descriptor:
                raise ValueError("term factor belongs to the wrong side")
            if x.is_zero or y.is_zero:
                continue
            kept.append((x, y))
        self.left_descriptor = left_descriptor
        self.right_descriptor = right_descriptor
        self.base_level = base_level
        self.term_count = len(kept)
        self._terms = tuple(kept)
        self._factors = None
        self._matrix = None

    @property
    def terms(self):
        """The (left factor, right factor) pairs; a product's are
        x_i x'_j, y_i y'_j for the factors' pairs, with i the outer index."""
        if self._terms is None:
            z, w = self._factors
            self._terms = tuple((x1 * x2, y1 * y2)
                                for x1, y1 in z.terms for x2, y2 in w.terms)
            self._factors = None
        return self._terms

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, left_descriptor, right_descriptor, base_level=None):
        return cls(left_descriptor, right_descriptor, (), base_level)

    @classmethod
    def elementary(cls, x: TowerElem, y: TowerElem, base_level=None):
        return cls(x.descriptor, y.descriptor, [(x, y)], base_level)

    def replace_terms(self, terms):
        return TensorElem(self.left_descriptor, self.right_descriptor, terms,
                          self.base_level)

    # -- ring operations --------------------------------------------------------

    def _check_compatible(self, other):
        if (other.left_descriptor is not self.left_descriptor
                or other.right_descriptor is not self.right_descriptor
                or other.base_level != self.base_level):
            raise ValueError("operands live in different tensor algebras")

    def __add__(self, other):
        self._check_compatible(other)
        out = self.replace_terms(self.terms + other.terms)
        a, b = self._matrix, other._matrix
        if a is not None and b is not None:
            out._matrix = CoefficientMatrix(coordinatize_union(a.left, b.left),
                                            coordinatize_union(a.right, b.right))
        return out

    def __neg__(self):
        return self.replace_terms([(-x, y) for x, y in self.terms])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check_compatible(other)
        if not (self.term_count and other.term_count):
            return self.replace_terms(())
        a, b = coefficient_matrix(self), coefficient_matrix(other)
        out = TensorElem.__new__(TensorElem)
        out.left_descriptor = self.left_descriptor
        out.right_descriptor = self.right_descriptor
        out.base_level = self.base_level
        out.term_count = self.term_count * other.term_count
        out._terms = None
        out._factors = (self, other)
        out._matrix = CoefficientMatrix(coordinatize_products(a.left, b.left),
                                        coordinatize_products(a.right, b.right))
        return out

    def transpose(self):
        """The same data viewed in the opposite tensor product."""
        return TensorElem(self.right_descriptor, self.left_descriptor,
                          [(y, x) for x, y in self.terms], self.base_level)

    def __eq__(self, other):
        if not isinstance(other, TensorElem):
            return NotImplemented
        return (self.left_descriptor is other.left_descriptor
                and self.right_descriptor is other.right_descriptor
                and self.base_level == other.base_level
                and self.terms == other.terms)

    def __hash__(self):
        return hash((id(self.left_descriptor), id(self.right_descriptor),
                     self.base_level, self.terms))

    def __repr__(self):
        from .parsing import format_tensor_elem
        return f"TensorElem({format_tensor_elem(self)})"


class ReducedRep:
    """A representation from which the norm is read off exactly.

    Certificates: the right factors are linearly independent over the base
    field, and each left factor attains the least value in its coset
    modulo the span of the left factors before it.  Under these the
    infimum defining the norm equals the maximum of the factor-value
    products of this very representation.
    """

    __slots__ = ("left_descriptor", "right_descriptor", "base_level", "terms")

    def __init__(self, left_descriptor, right_descriptor, terms, base_level=None):
        self.left_descriptor = left_descriptor
        self.right_descriptor = right_descriptor
        self.base_level = base_level
        self.terms = tuple(terms)

    @property
    def norm(self) -> Magnitude:
        best = Magnitude.zero()
        for u, v in self.terms:
            m = u.value() * v.value()
            if m > best:
                best = m
        return best

    def term_values(self):
        return tuple((u.value(), v.value()) for u, v in self.terms)

    def to_tensor(self) -> TensorElem:
        return TensorElem(self.left_descriptor, self.right_descriptor, self.terms,
                          self.base_level)


class PureDecomposition:
    """Split into a part of constant factor values and a lex-smaller tail.

    Every term of ``pure_part`` has left value alpha and right value beta,
    with alpha * beta the norm of the decomposed element; every term of
    ``tail`` has (value product, left value) strictly smaller than
    (alpha * beta, alpha) lexicographically; the parts sum to the input.
    """

    __slots__ = ("alpha", "beta", "pure_part", "tail")

    def __init__(self, alpha, beta, pure_part, tail):
        self.alpha = alpha
        self.beta = beta
        self.pure_part = pure_part
        self.tail = tail


# ---------------------------------------------------------------------------
# the reduction pipeline
# ---------------------------------------------------------------------------

def eliminate_dependent(z: TensorElem) -> TensorElem:
    """An equal representation whose factor families are independent.

    Dependencies are detected over the base field by coordinatizing one
    side; a dependent factor is folded into its partners on the other
    side.  Sides are processed alternately (right first) until both are
    independent; each fold shortens the term list, so this terminates.
    """
    config = z.left_descriptor.config
    base = z.base_level
    terms = list(z.terms)
    while len(terms) > 1:
        rows = coordinatize([y for _, y in terms], base_level=base).matrix
        dep = first_dependency(rows, config)
        if dep is None:
            rows = coordinatize([x for x, _ in terms], base_level=base).matrix
            dep = first_dependency(rows, config)
            if dep is None:
                break
            i, coeffs = dep
            xi, yi = terms[i]
            for j, c in enumerate(coeffs):
                if not c.is_zero:
                    terms[j] = (terms[j][0], terms[j][1] + yi.scaled(c))
        else:
            i, coeffs = dep
            xi, yi = terms[i]
            for j, c in enumerate(coeffs):
                if not c.is_zero:
                    terms[j] = (terms[j][0] + xi.scaled(c), terms[j][1])
        del terms[i]
        terms = [(x, y) for x, y in terms if not (x.is_zero or y.is_zero)]
    return z.replace_terms(terms)


def orthogonalize_left(z: TensorElem) -> ReducedRep:
    """Reduce to a representation certifying the norm.

    After making both sides independent, each left factor is replaced by
    the least-value element of its coset modulo the preceding left
    factors; the coefficients of the change are compensated on the right
    so the represented element is unchanged.  All resulting factors are
    nonzero thanks to the prior independence.
    """
    zr = eliminate_dependent(z)
    us = [x for x, _ in zr.terms]
    vs = [y for _, y in zr.terms]
    for i in range(len(us)):
        u_i, coeffs = min_coset_value(us[i], us[:i], base_level=z.base_level)
        us[i] = u_i
        for j, c in enumerate(coeffs):
            if not c.is_zero:
                vs[j] = vs[j] - vs[i].scaled(c)
    terms = tuple(zip(us, vs))
    if any(u.is_zero or v.is_zero for u, v in terms):
        raise RuntimeError("orthogonalized representation has a zero factor")
    return ReducedRep(z.left_descriptor, z.right_descriptor, terms, z.base_level)


class CoefficientMatrix:
    """The coefficient matrix M = L^T R of a tensor, entries on demand.

    L and R coordinatize the left and right factors over the base field
    on atoms (monomials, times generator powers on a level base) over a
    common denominator, so that z = sum over (a, b) of M[a][b] e_a (x) f_b
    with e_a = atom_a / D_K and f_b = atom_b / D_L.
    """

    __slots__ = ("left", "right")

    def __init__(self, left, right):
        self.left = left
        self.right = right

    def entry_is_zero(self, a, b) -> bool:
        """Whether sum_i L[i][a] R[i][b] vanishes."""
        acc = None
        for l_row, r_row in zip(self.left.matrix, self.right.matrix):
            x, y = l_row[a], r_row[b]
            if x.is_zero or y.is_zero:
                continue
            prod = x * y
            acc = prod if acc is None else acc + prod
        return acc is None or acc.is_zero


def coefficient_matrix(z: TensorElem) -> CoefficientMatrix:
    """The coefficient matrix of a nonempty representation, computed once
    per element: each side of its terms coordinatized over the lcm of
    its denominators, unless an operation already built it."""
    if z._matrix is None:
        base = z.base_level
        terms = z.terms
        z._matrix = CoefficientMatrix(coordinatize([x for x, _ in terms], base_level=base),
                                      coordinatize([y for _, y in terms], base_level=base))
    return z._matrix


def _grades(cs, lift):
    """(weight, atom indices) for each distinct atom weight, largest first.
    The weights are taken relative to the common denominator's largest
    and multiplied by ``lift``: e_a = m_a / D has the value
    2^(w / (lift * descriptor.scale)) for its weight w here."""
    shift = cs.descriptor.top_weight(cs.denominator)
    return sorted((((w - shift) * lift, atoms)
                   for w, atoms in cs.atom_grades().items()), reverse=True)


def tensor_norm(z: TensorElem) -> Magnitude:
    """The exact norm; zero precisely on representations of zero.

    The atoms over a common denominator are orthogonal on each side, so
    the norm is the largest value |e_a| |f_b| over the nonzero entries of
    the coefficient matrix (see the module docstring).  Value pairs
    (|e_a|, |f_b|) are visited largest product first; for each, only the
    entries of its block (the atom pairs of those two values) are
    computed, and the walk stops at the first nonzero entry.

    Values are compared as integer weights over the common scale S of
    both sides' exponent denominators; the one value built is the answer,
    2^(weight / S).
    """
    if not z.term_count:
        return Magnitude.zero()
    m = coefficient_matrix(z)
    sl, sr = m.left.descriptor.scale, m.right.descriptor.scale
    scale = lcm(sl, sr)
    left, right = _grades(m.left, scale // sl), _grades(m.right, scale // sr)
    heap = [(-(left[0][0] + right[0][0]), 0, 0)]
    while heap:
        key, i, j = heappop(heap)
        if any(not m.entry_is_zero(a, b) for a in left[i][1] for b in right[j][1]):
            return Magnitude.pos(Fraction(-key, scale))
        # each (i, j) is pushed once: by (i, j - 1), or by (i - 1, 0) when j = 0
        if j + 1 < len(right):
            heappush(heap, (-(left[i][0] + right[j + 1][0]), i, j + 1))
        if j == 0 and i + 1 < len(left):
            heappush(heap, (-(left[i + 1][0] + right[0][0]), i + 1, 0))
    return Magnitude.zero()


def is_zero(z: TensorElem) -> bool:
    """Zero test: the element vanishes exactly when its coefficient
    matrix does."""
    if not z.term_count:
        return True
    m = coefficient_matrix(z)
    return all(m.entry_is_zero(a, b)
               for a in range(len(m.left.basis)) for b in range(len(m.right.basis)))


def pure_decompose(z: TensorElem) -> PureDecomposition:
    """Split a nonzero element into a pure part and a lex-smaller tail."""
    if not z.terms:
        raise ValueError("the zero element has no pure decomposition")
    rep = orthogonalize_left(z)
    norm = rep.norm
    annotated = [(u.value() * v.value(), u.value(), (u, v)) for u, v in rep.terms]
    alpha = max(lv for prod, lv, _ in annotated if prod == norm)
    beta = norm * alpha**-1
    pure = [t for prod, lv, t in annotated if prod == norm and lv == alpha]
    tail = [t for prod, lv, t in annotated if not (prod == norm and lv == alpha)]
    return PureDecomposition(
        alpha, beta,
        z.replace_terms(pure),
        z.replace_terms(tail),
    )


def value_estimate_check(xs, bounds, scalars, base_level=None) -> bool:
    """Check the value estimate for a weighted family.

    ``xs`` is a family of nonzero elements such that each x_i satisfies
    |x_i| <= r_i |y| for every y in x_i + span of the preceding x_j, with
    r_i = bounds[i] a rational >= 1 (this hypothesis is recomputed here;
    violations raise :class:`InstanceInvalidError`).  Returns whether

        |sum scalars_i * x_i| * prod(bounds) >= max_i |scalars_i| |x_i|

    holds; on valid instances it always does.
    """
    if not (len(xs) == len(bounds) == len(scalars)):
        raise ValueError("family, bounds and scalars must have equal length")
    if not xs:
        raise ValueError("empty family")
    bounds = [Fraction(r) for r in bounds]
    for r in bounds:
        if r < 1:
            raise InstanceInvalidError(f"bound {r} is smaller than one")

    for i, x in enumerate(xs):
        v = x.value()
        if v.is_zero:
            raise InstanceInvalidError(f"member {i} is zero")
        u, _ = min_coset_value(x, xs[:i], base_level=base_level)
        if scaled_compare(u.value(), bounds[i], v) < 0:
            raise InstanceInvalidError(
                f"member {i} exceeds {bounds[i]} times its least coset value")

    desc = xs[0].descriptor
    combo = TowerElem.zero(desc)
    rhs = Magnitude.zero()
    for a, x in zip(scalars, xs):
        if isinstance(a, int):
            a = desc.config.from_int(a)
        if a.is_zero:
            continue
        combo = combo + x.scaled(a)
        xv = x.value()  # |a| = 1: the base field is trivially valued
        if xv > rhs:
            rhs = xv
    factor = Fraction(1)
    for r in bounds:
        factor *= r
    return scaled_compare(combo.value(), factor, rhs) >= 0
