"""Shared fixtures and independent oracles.

The oracles here deliberately avoid the library's reduction pipeline:
exhaustive enumeration for least coset values and linear solving,
schoolbook factor search for irreducibility, direct expansion for value
products and for tensor products, Fraction sums for monomial values, and
full Gauss-Jordan elimination (``solve_linear``) for the library's
incremental systems.  Derived expectations in the tests are
computed through these.
"""

import itertools
from fractions import Fraction

import pytest

from tensornorm import (Magnitude, ScenarioConfig, TowerConfig, parse_field_setup)


@pytest.fixture(scope="session")
def cfg2():
    return TowerConfig(2, 4)


@pytest.fixture(scope="session")
def cfg3():
    return TowerConfig(3, 4)


@pytest.fixture(scope="session")
def setup2():
    """Default closed-base setup: p=2, one transcendental per side."""
    return parse_field_setup("p 2\nlevels 4\nbase closure\nK t:-1\nL u:-1\n")


@pytest.fixture(scope="session")
def setup2_base1():
    """Same extensions, base restricted to the prime field."""
    return parse_field_setup("p 2\nlevels 4\nbase 1\nK t:-1\nL u:-1\n")


@pytest.fixture(scope="session")
def setup3():
    return parse_field_setup("p 3\nlevels 4\nbase closure\nK t:-1\nL u:-1\n")


def enumerate_level(config, level):
    """Every element of the field at the given lattice level."""
    return [config.from_code(level, code) for code in range(config.p**level)]


def brute_min_coset(x, span, coeff_elems):
    """Least value of x + combinations of span, coefficients enumerated
    exhaustively from coeff_elems.  Independent of min_coset_value."""
    best = x.value()
    for combo in itertools.product(coeff_elems, repeat=len(span)):
        cand = x
        for c, s in zip(combo, span):
            if not c.is_zero:
                cand = cand + s.scaled(c)
        v = cand.value()
        if v < best:
            best = v
    return best


def brute_solutions(matrix, rhs, candidates):
    """All solution vectors of M x = rhs among the given field elements."""
    if not matrix:
        return []
    ncols = len(matrix[0])
    out = []
    for vec in itertools.product(candidates, repeat=ncols):
        ok = True
        for row, b in zip(matrix, rhs):
            acc = None
            for a, v in zip(row, vec):
                term = a * v
                acc = term if acc is None else acc + term
            if acc is None:
                acc = b.config.zero() if hasattr(b, "config") else b
            if acc != b:
                ok = False
                break
        if ok:
            out.append(vec)
    return out


class LinearSolution:
    """Outcome of an exact linear solve.

    Either ``solution`` is a vector (with ``nullspace`` a basis of the
    homogeneous solutions), or ``certificate`` is a row combination c with
    c^T M = 0 but c^T rhs != 0, proving inconsistency.
    """

    def __init__(self, solution=None, nullspace=None, certificate=None):
        self.solution = solution
        self.nullspace = nullspace if nullspace is not None else []
        self.certificate = certificate

    @property
    def consistent(self):
        return self.solution is not None


def solve_linear(matrix, rhs, config):
    """Solve M x = rhs exactly; returns a :class:`LinearSolution`.

    ``matrix`` is a list of rows; all entries and ``rhs`` are closure
    elements of one configuration.  Raises ValueError on shape mismatch.
    """
    nrows = len(matrix)
    if len(rhs) != nrows:
        raise ValueError(f"matrix has {nrows} rows but rhs has {len(rhs)} entries")
    ncols = len(matrix[0]) if nrows else 0
    for row in matrix:
        if len(row) != ncols:
            raise ValueError("ragged matrix")
    zero, one = config.zero(), config.one()

    rows = [list(r) for r in matrix]
    b = list(rhs)
    track = [[one if i == j else zero for j in range(nrows)] for i in range(nrows)]

    pivots = []  # (column, row index in reduced order)
    r = 0
    for c in range(ncols):
        sel = None
        for i in range(r, nrows):
            if not rows[i][c].is_zero:
                sel = i
                break
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        b[r], b[sel] = b[sel], b[r]
        track[r], track[sel] = track[sel], track[r]
        inv = rows[r][c].inv()
        rows[r] = [x * inv for x in rows[r]]
        b[r] = b[r] * inv
        track[r] = [x * inv for x in track[r]]
        for i in range(nrows):
            if i != r and not rows[i][c].is_zero:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
                b[i] = b[i] - f * b[r]
                track[i] = [x - f * y for x, y in zip(track[i], track[r])]
        pivots.append(c)
        r += 1

    for i in range(r, nrows):
        if not b[i].is_zero:
            return LinearSolution(certificate=track[i])

    solution = [zero] * ncols
    for k, c in enumerate(pivots):
        solution[c] = b[k]
    pivot_set = set(pivots)
    nullspace = []
    for c in range(ncols):
        if c in pivot_set:
            continue
        vec = [zero] * ncols
        vec[c] = one
        for k, pc in enumerate(pivots):
            vec[pc] = -rows[k][c]
        nullspace.append(vec)
    return LinearSolution(solution=solution, nullspace=nullspace)


def oracle_product(z, w):
    """The product of two tensors by eager expansion: every pair of terms
    multiplied and canonicalized, with z's index outer."""
    return z.replace_terms([(x1 * x2, y1 * y2) for x1, y1 in z.terms for x2, y2 in w.terms])


def oracle_sum(z, w):
    """The sum of two tensors as a fresh representation of the
    concatenated terms, holding no coordinates."""
    return z.replace_terms(z.terms + w.terms)


def oracle_monomial_value(descriptor, exps):
    """The value of the monomial x^exps, its exponent summed as Fractions
    from the variables' magnitudes (no integer weights)."""
    q = Fraction(0)
    for e, (_, mag) in zip(exps, descriptor.variables):
        q += e * mag.exponent
    return Magnitude.pos(q)


def oracle_gauss_value(poly, descriptor):
    """The largest monomial value of a polynomial; zero for zero."""
    return max((oracle_monomial_value(descriptor, e) for e in poly.terms),
               default=Magnitude.zero())


def poly_is_irreducible_brute(coeffs, p):
    """Monic polynomial irreducibility by exhaustive factor search.

    coeffs is the little-endian tuple over GF(p) including the leading 1.
    """
    n = len(coeffs) - 1
    if n <= 0:
        return False

    def polymul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
        return tuple(out)

    def monics(deg):
        for tail in itertools.product(range(p), repeat=deg):
            yield tail + (1,)

    for d in range(1, n // 2 + 1):
        for f in monics(d):
            for g in monics(n - d):
                if polymul(f, g) == tuple(coeffs):
                    return False
    return True


def scenario(p=2, **kw):
    defaults = dict(p=p, trials=50, seed=9)
    defaults.update(kw)
    return ScenarioConfig(**defaults)


def mag(q):
    return Magnitude.pos(q)
