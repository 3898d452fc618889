"""Sparse multivariate polynomials over the closure tower.

Terms are stored as a dict from exponent tuples to nonzero closure
elements.  The monomial order used everywhere (leading terms, canonical
normalization, deterministic bases) is graded lexicographic: higher total
degree first, ties broken lexicographically with the first variable most
significant.

Division is exact multivariate division; gcds use the Euclidean remainder
sequence for one variable and, for several, split off the monomial
content (gcd(x^a f, x^b g) = x^min(a, b) gcd(f, g) when no variable
divides f or g) before a subresultant pseudo-remainder sequence in a
recursive representation.  Results are normalized so the
graded-lex leading coefficient is one.

Products, exact division and the univariate Euclid run on integer codes:
the operands' coefficients are embedded once at their least common
lattice level, the loops use that level's field arithmetic directly, and
each result coefficient is renormalized to its minimal level once, when
the result polynomial is built.
"""

from __future__ import annotations

from operator import add as _int_add, sub as _int_sub

from .closure import ClosureElem


def glex_key(exps):
    return (sum(exps), exps)


# ---------------------------------------------------------------------------
# kernels on codes of one level
# ---------------------------------------------------------------------------

def _lift(polys):
    """(L, [{exps: code}]) with every coefficient embedded at the least
    common level L of all of them."""
    cfg = polys[0].config
    lcm_levels = cfg._lcm_levels
    level = 1
    for f in polys:
        for c in f.terms.values():
            level = lcm_levels[(level, c.level)]
    embed = cfg._embed_code_raw
    return level, [{e: embed(c.code, c.level, level) for e, c in f.terms.items()}
                   for f in polys]


def _drop(config, nvars, level, codes):
    """The polynomial of level-L codes, each coefficient at its minimal level."""
    normalize = config._normalize
    terms = {}
    for e, code in codes.items():
        if code:
            terms[e] = ClosureElem(config, *normalize(level, code))
    poly = Polynomial.__new__(Polynomial)
    poly.config, poly.nvars, poly.terms = config, nvars, terms
    return poly


def _ops(config, level):
    """(add, neg, mul, inv) on the codes of one level."""
    arith = config._arith[level]
    return arith.add, arith.neg, arith.mul, arith.inv


class Polynomial:
    """Immutable-by-convention sparse polynomial over a tower config."""

    __slots__ = ("config", "nvars", "terms")

    def __init__(self, config, nvars, terms):
        self.config = config
        self.nvars = nvars
        self.terms = {e: c for e, c in terms.items() if not c.is_zero}

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, config, nvars):
        return cls(config, nvars, {})

    @classmethod
    def constant(cls, config, nvars, value):
        if isinstance(value, int):
            value = config.from_int(value)
        return cls(config, nvars, {(0,) * nvars: value})

    @classmethod
    def variable(cls, config, nvars, index):
        exps = tuple(1 if i == index else 0 for i in range(nvars))
        return cls(config, nvars, {exps: config.one()})

    @classmethod
    def monomial(cls, config, nvars, exps, coeff):
        return cls(config, nvars, {tuple(exps): coeff})

    # -- queries ---------------------------------------------------------------

    @property
    def is_zero(self):
        return not self.terms

    @property
    def is_constant(self):
        return not any(map(any, self.terms))

    def constant_value(self):
        if self.is_zero:
            return self.config.zero()
        [(exps, c)] = self.terms.items()
        if any(exps):
            raise ValueError("not a constant polynomial")
        return c

    def leading(self):
        """(exponents, coefficient) of the graded-lex leading term."""
        if self.is_zero:
            raise ValueError("zero polynomial has no leading term")
        e = max(self.terms, key=glex_key)
        return e, self.terms[e]

    def sorted_terms(self, reverse=True):
        return sorted(self.terms.items(), key=lambda t: glex_key(t[0]), reverse=reverse)

    # -- arithmetic --------------------------------------------------------------

    def _compat(self, other):
        if isinstance(other, int):
            return Polynomial.constant(self.config, self.nvars, other)
        if isinstance(other, Polynomial):
            if other.nvars != self.nvars or other.config is not self.config:
                raise ValueError("polynomials from different rings")
            return other
        return Polynomial.constant(self.config, self.nvars, other)  # ClosureElem

    def __add__(self, other):
        other = self._compat(other)
        out = dict(self.terms)
        zero = self.config.zero()
        for e, c in other.terms.items():
            out[e] = out.get(e, zero) + c
        return Polynomial(self.config, self.nvars, out)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.config, self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._compat(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._compat(other)
        level, (a, b) = _lift((self, other))
        add, _, mul, _ = _ops(self.config, level)
        out = {}
        get = out.get
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = tuple(map(_int_add, e1, e2))
                out[e] = add(get(e, 0), mul(c1, c2))
        return _drop(self.config, self.nvars, level, out)

    __rmul__ = __mul__

    def scaled(self, coeff):
        """Product with a field element (no ring promotion)."""
        if coeff.is_zero:
            return Polynomial.zero(self.config, self.nvars)
        return Polynomial(self.config, self.nvars,
                          {e: c * coeff for e, c in self.terms.items()})

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative polynomial power")
        result = Polynomial.constant(self.config, self.nvars, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def monic(self):
        """Scaled so the graded-lex leading coefficient is one."""
        if self.is_zero:
            return self
        _, lc = self.leading()
        if lc.is_one:
            return self
        return self.scaled(lc.inv())

    def __repr__(self):
        if self.is_zero:
            return "Polynomial(0)"
        parts = []
        for e, c in self.sorted_terms():
            vars_part = "*".join(f"v{i}^{k}" for i, k in enumerate(e) if k)
            parts.append(f"{c}" + (f"*{vars_part}" if vars_part else ""))
        return "Polynomial(" + " + ".join(parts) + ")"


def exact_div(f: Polynomial, g: Polynomial):
    """Quotient f/g when g divides f exactly, else None."""
    if g.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    if f.is_zero:
        return Polynomial.zero(f.config, f.nvars)
    if g.is_constant:
        return f.scaled(g.constant_value().inv())
    level, (rem, gcodes) = _lift((f, g))
    add, neg, mul, inv = _ops(f.config, level)
    ge = max(gcodes, key=glex_key)
    gc_inv = inv(gcodes[ge])
    # rem -= coeff * v^diff * g, term by term; the leading terms cancel
    neg_rest = [(e, neg(c)) for e, c in gcodes.items() if e != ge]
    out = {}
    while rem:
        re = max(rem, key=glex_key)
        diff = tuple(a - b for a, b in zip(re, ge))
        if min(diff) < 0:
            return None
        coeff = out[diff] = mul(rem.pop(re), gc_inv)
        for e, c in neg_rest:
            e = tuple(map(_int_add, diff, e))
            code = add(rem.get(e, 0), mul(coeff, c))
            if code:
                rem[e] = code
            else:
                rem.pop(e, None)
    return _drop(f.config, f.nvars, level, out)


# ---------------------------------------------------------------------------
# gcd machinery
# ---------------------------------------------------------------------------

def poly_gcd(f: Polynomial, g: Polynomial) -> Polynomial:
    """Canonical (graded-lex monic) greatest common divisor."""
    if f.is_zero:
        return g.monic()
    if g.is_zero:
        return f.monic()
    if f.nvars == 0 or f.is_constant or g.is_constant:
        return Polynomial.constant(f.config, f.nvars, 1)
    if f.nvars == 1:
        return _gcd_univariate(f, g)
    # gcd(x^a f', x^b g') = x^min(a, b) gcd(f', g') when no variable
    # divides f' or g': then x^a is prime to g' and x^b to f'
    a, f = _strip_monomial(f)
    b, g = _strip_monomial(g)
    content = tuple(map(min, a, b))
    if len(f.terms) == 1 or len(g.terms) == 1:
        # a stripped single term is a constant
        return Polynomial.monomial(f.config, f.nvars, content, f.config.one())
    gcd = _gcd_multivariate(f, g).monic()
    if not any(content):
        return gcd
    return Polynomial(f.config, f.nvars,
                      {tuple(map(_int_add, e, content)): c for e, c in gcd.terms.items()})


def _strip_monomial(f):
    """(a, f') with f = x^a f' and no variable dividing f'."""
    a = tuple(map(min, zip(*f.terms)))
    if not any(a):
        return a, f
    return a, Polynomial(f.config, f.nvars,
                         {tuple(map(_int_sub, e, a)): c for e, c in f.terms.items()})


def poly_lcm(f: Polynomial, g: Polynomial) -> Polynomial:
    if f.is_zero or g.is_zero:
        return Polynomial.zero(f.config, f.nvars)
    if f.is_constant:
        return g.monic()
    if g.is_constant:
        return f.monic()
    fm, gm = f.monic(), g.monic()
    if fm == gm:
        return fm
    # fm * (gm / gcd) is monic: a product of monic polynomials
    q = exact_div(gm, poly_gcd(fm, gm))
    if q is None:
        raise ArithmeticError("a polynomial is not divisible by its gcd")
    return fm * q


def _gcd_univariate(f, g):
    """Monic gcd by Euclid on dense code lists (index = degree)."""
    level, (fc, gc) = _lift((f, g))
    add, neg, mul, inv = _ops(f.config, level)
    a, b = _dense(fc), _dense(gc)
    while b:
        # a mod b, in place on a copy of a
        db = len(b) - 1
        lead_inv = inv(b[-1])
        neg_b = [neg(c) for c in b[:-1]]
        a = a[:]
        for top in range(len(a) - 1, db - 1, -1):
            c = a.pop()
            if c:
                q = mul(c, lead_inv)
                shift = top - db
                for j, y in enumerate(neg_b):
                    if y:
                        a[shift + j] = add(a[shift + j], mul(q, y))
        while a and not a[-1]:
            a.pop()
        a, b = b, a
    lead_inv = inv(a[-1])
    return _drop(f.config, 1, level, {(d,): mul(c, lead_inv) for d, c in enumerate(a)})


def _dense(codes):
    out = [0] * (max(e for e, in codes) + 1)
    for (d,), c in codes.items():
        out[d] = c
    return out


# recursive view: a polynomial in vars (v0, ..., v_{n-1}) seen as a
# polynomial in v0 whose coefficients are polynomials in the rest

def _to_rec(f: Polynomial):
    coeffs = {}
    for e, c in f.terms.items():
        d = e[0]
        rest = e[1:]
        sub = coeffs.setdefault(d, {})
        sub[rest] = c
    return {d: Polynomial(f.config, f.nvars - 1, t) for d, t in coeffs.items()}


def _from_rec(coeffs, config, nvars):
    terms = {}
    for d, poly in coeffs.items():
        for e, c in poly.terms.items():
            terms[(d,) + e] = c
    return Polynomial(config, nvars, terms)


def _rec_deg(r):
    return max(r) if r else -1


def _rec_lc(r):
    return r[max(r)]


def _rec_sub(a, b):
    out = dict(a)
    for d, c in b.items():
        cur = out.get(d)
        s = c if cur is None else cur - c
        if cur is None:
            out[d] = -c
        elif s.is_zero:
            del out[d]
        else:
            out[d] = s
    return out


def _rec_shift_mul(r, k, poly):
    """r * poly * v0^k"""
    out = {}
    for d, c in r.items():
        prod = c * poly
        if not prod.is_zero:
            out[d + k] = prod
    return out


def _rec_exact_div(r, poly):
    out = {}
    for d, c in r.items():
        q = exact_div(c, poly)
        if q is None:
            raise ArithmeticError("inexact division in pseudo-remainder sequence")
        out[d] = q
    return out


def _pseudo_rem(a, b):
    """Pseudo-remainder lc(b)^(deg a - deg b + 1) * a mod b in the main variable."""
    da, db = _rec_deg(a), _rec_deg(b)
    lcb = _rec_lc(b)
    e = da - db + 1
    rem = dict(a)
    while rem and _rec_deg(rem) >= db:
        dr = _rec_deg(rem)
        lr = _rec_lc(rem)
        rem = _rec_sub(_rec_shift_mul(rem, 0, lcb), _rec_shift_mul(b, dr - db, lr))
        rem.pop(dr, None)
        e -= 1
    for _ in range(max(e, 0)):
        rem = _rec_shift_mul(rem, 0, lcb)
    return rem


def _rec_content(r, config, nvars_rest):
    cont = Polynomial.zero(config, nvars_rest)
    for d in sorted(r):
        cont = poly_gcd(cont, r[d])
        if cont.is_constant and not cont.is_zero:
            break
    return cont if not cont.is_zero else Polynomial.constant(config, nvars_rest, 1)


def _gcd_multivariate(f, g):
    config, nvars = f.config, f.nvars
    rf, rg = _to_rec(f), _to_rec(g)
    cf = _rec_content(rf, config, nvars - 1)
    cg = _rec_content(rg, config, nvars - 1)
    cont = poly_gcd(cf, cg)
    a = _rec_exact_div(rf, cf)
    b = _rec_exact_div(rg, cg)
    if _rec_deg(a) < _rec_deg(b):
        a, b = b, a

    one_rest = Polynomial.constant(config, nvars - 1, 1)
    gpart, hpart = one_rest, one_rest
    while True:
        d = _rec_deg(a) - _rec_deg(b)
        rem = _pseudo_rem(a, b)
        if not rem:
            result = b
            break
        if _rec_deg(rem) == 0:
            result = {0: one_rest}
            break
        divisor = gpart * hpart**d
        a, b = b, _rec_exact_div(rem, divisor)
        gpart = _rec_lc(a)
        if d == 1:
            hpart = gpart
        elif d > 1:
            q = exact_div(gpart**d, hpart ** (d - 1))
            if q is None:
                raise ArithmeticError("subresultant invariant violated")
            hpart = q

    rc = _rec_content(result, config, nvars - 1)
    result = _rec_exact_div(result, rc)
    primitive = _from_rec(result, config, nvars)
    return primitive * _embed_rest(cont, nvars)


def _embed_rest(poly, nvars):
    """Lift a polynomial in the last nvars-1 variables back to nvars."""
    terms = {(0,) + e: c for e, c in poly.terms.items()}
    return Polynomial(poly.config, nvars, terms)
