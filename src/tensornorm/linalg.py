"""Exact Gaussian elimination over elements of the closure tower.

All routines work on lists of :class:`~tensornorm.closure.ClosureElem`
and never leave the field generated by their inputs, so a system whose
entries lie in a subfield is solved inside that subfield.
"""

from __future__ import annotations


def first_dependency(matrix, config):
    """First row that is a combination of the rows before it.

    Returns (index, coefficients over the earlier rows) or None when the
    rows are linearly independent.  Zero rows count as dependent with an
    empty combination.
    """
    zero = config.zero()
    one = config.one()
    pivots = []  # (column, reduced row, expansion over original rows)
    for i, row in enumerate(matrix):
        vec = list(row)
        expansion = {i: one}
        for col, prow, pexp in pivots:
            f = vec[col]
            if f.is_zero:
                continue
            vec = [x - f * y for x, y in zip(vec, prow)]
            for j, c in pexp.items():
                expansion[j] = expansion.get(j, zero) - f * c
        lead = None
        for col, x in enumerate(vec):
            if not x.is_zero:
                lead = col
                break
        if lead is None:
            # sum expansion[j] * orig_j = 0 with expansion[i] = 1
            coeffs = [-expansion.get(j, zero) for j in range(i)]
            return i, coeffs
        inv = vec[lead].inv()
        vec = [x * inv for x in vec]
        expansion = {j: c * inv for j, c in expansion.items()}
        pivots.append((lead, vec, expansion))
    return None


class IncrementalSystem:
    """Equations over the closure added one at a time, reduced on the fly.

    Used for grade-by-grade elimination: report per equation whether it is
    newly pivoting, redundant, or inconsistent with what came before, and
    produce the free-variables-zero solution of everything accepted so far.
    """

    OK = "ok"
    REDUNDANT = "redundant"
    INCONSISTENT = "inconsistent"

    def __init__(self, num_unknowns, config):
        self.n = num_unknowns
        self.config = config
        self.pivots = []  # (column, coeff vector normalized, rhs)

    def add_equation(self, coeffs, rhs):
        """Reduce one equation sum coeffs[j] x_j = rhs against the pivots.

        Inconsistent equations are NOT retained.
        """
        vec = list(coeffs)
        for col, prow, prhs in self.pivots:
            f = vec[col]
            if f.is_zero:
                continue
            vec = [x - f * y for x, y in zip(vec, prow)]
            rhs = rhs - f * prhs
        lead = None
        for col, x in enumerate(vec):
            if not x.is_zero:
                lead = col
                break
        if lead is None:
            return self.REDUNDANT if rhs.is_zero else self.INCONSISTENT
        inv = vec[lead].inv()
        self.pivots.append((lead, [x * inv for x in vec], rhs * inv))
        return self.OK

    def solve_free_zero(self):
        """The solution with all non-pivot coordinates zero."""
        zero = self.config.zero()
        out = [zero] * self.n
        # back-substitute in reverse insertion order; pivot rows may involve
        # later-added pivots' columns
        for col, row, rhs in reversed(self.pivots):
            acc = rhs
            for j in range(self.n):
                if j != col and not row[j].is_zero and not out[j].is_zero:
                    acc = acc - row[j] * out[j]
            out[col] = acc
        return out
