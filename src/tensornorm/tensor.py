"""Elements of the tensor product of two function fields over a base field,
their ring operations, the reduction pipeline and the exact norm.

A :class:`TensorElem` is a finite list of factor pairs; the represented
element is the sum of the elementary tensors.  The base field over which
the tensor product is taken is either the whole closure (``base_level
None``) or the subfield at a fixed lattice level; nothing here requires
the base to be closed, and the norm computation below is exact over any
of these (trivially valued) bases.

The norm, defined as the infimum over all representations of the largest
factor-value product, is computed exactly: make both factor families
linearly independent over the base, then sweep the left factors replacing
each by the least-value representative of its coset modulo the preceding
ones, compensating on the right so the represented element never changes.
For such a representation the infimum is attained and can be read off as
the maximum, which is what :class:`ReducedRep` certifies.
"""

from __future__ import annotations

from fractions import Fraction

from .magnitude import Magnitude, scaled_compare
from .linalg import first_dependency
from .function_fields import TowerElem, coordinatize, min_coset_value


class InstanceInvalidError(ValueError):
    """An inequality check was fed an instance violating its hypothesis."""


class TensorElem:
    """A representation of an element of the tensor product algebra.

    Terms with a zero factor are stripped on construction; the empty list
    represents zero.  Immutable.
    """

    __slots__ = ("left_descriptor", "right_descriptor", "base_level", "terms")

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
        self.terms = tuple(kept)

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
        return self.replace_terms(self.terms + other.terms)

    def __neg__(self):
        return self.replace_terms([(-x, y) for x, y in self.terms])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check_compatible(other)
        out = []
        for x1, y1 in self.terms:
            for x2, y2 in other.terms:
                out.append((x1 * x2, y1 * y2))
        return self.replace_terms(out)

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


def tensor_norm(z: TensorElem) -> Magnitude:
    """The exact norm; zero precisely on representations of zero."""
    return orthogonalize_left(z).norm


def is_zero(z: TensorElem) -> bool:
    """Rank-based zero test, independent of the reduction pipeline.

    The element is zero exactly when the coefficient matrix obtained by
    coordinatizing both sides over the base field vanishes.
    """
    if not z.terms:
        return True
    base = z.base_level
    left = coordinatize([x for x, _ in z.terms], base_level=base).matrix
    right = coordinatize([y for _, y in z.terms], base_level=base).matrix
    m = len(z.terms)
    for a in range(len(left[0])):
        for b in range(len(right[0])):
            acc = None
            for i in range(m):
                prod = left[i][a] * right[i][b]
                acc = prod if acc is None else acc + prod
            if not acc.is_zero:
                return False
    return True


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
