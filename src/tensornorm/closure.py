"""A finite presentation of the algebraic closure of a prime field.

The closure of GF(p) is realized as a lattice of finite fields GF(p^n),
one per divisor n of a configurable bound, glued by compatible embeddings.
Level n is GF(p)[x]/(f_n) where f_n is the least monic irreducible of
degree n in a fixed enumeration (coefficient vectors read as base-p
integers, smallest first), so the whole construction is reproducible from
(p, bound) alone.

Compatibility is obtained by anchoring everything in the top level N =
bound: for each level m the generator is sent to the least root of f_m in
GF(p^N), and the embedding between levels m | n is the unique map that
commutes with both anchors.  Since GF(p^N) has exactly one subfield of
each admissible order, the resulting table commutes; this is checked at
build time, when the whole lattice is built at once.

Elements are canonical: after every operation the result is renormalized
to the smallest lattice level containing it, so equality and hashing are
structural.  Field elements of one level are enumerated by their
coordinate vectors read as base-p integers ("codes"); "least element"
always refers to this order.

Arithmetic on a level of order q <= _TABLE_LIMIT is table lookup in the
antilog and log tables of its least primitive element g and, for odd p,
its Zech logarithms log(1 + g^d) (Lidl & Niederreiter, *Finite Fields*),
built in O(q) steps of one multiplication by g.  Past the limit, and as
the tests' oracle, the generic kernels run.
"""

from __future__ import annotations

from math import lcm
from operator import pos, xor

_TABLE_LIMIT = 2**16  # log/antilog (Zech) tables for fields of at most this order
_CODE_MAP_LIMIT = 65536  # build per-pair embedding code maps up to this order
MAX_FIELD_ORDER = 2**24  # largest top field p**level_bound a tower may have


class LatticeError(ValueError):
    """A level outside the configured divisibility lattice was requested."""


# ---------------------------------------------------------------------------
# polynomial helpers over GF(p); polys are little-endian int tuples, trailing
# zeros stripped, () is the zero polynomial
# ---------------------------------------------------------------------------

def _pstrip(c):
    i = len(c)
    while i > 0 and c[i - 1] == 0:
        i -= 1
    return tuple(c[:i])


def _psub(a, b, p):
    n = max(len(a), len(b))
    out = [0] * n
    for i, x in enumerate(a):
        out[i] = x
    for i, x in enumerate(b):
        out[i] = (out[i] - x) % p
    return _pstrip(out)


def _pmul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return _pstrip(out)


def _pmod(a, f, p):
    """Remainder of a modulo the monic polynomial f."""
    a = list(a)
    df = len(f) - 1
    for i in range(len(a) - 1, df - 1, -1):
        c = a[i] % p
        if c:
            a[i] = 0
            for j in range(df):
                a[i - df + j] = (a[i - df + j] - c * f[j]) % p
    return _pstrip(a)


def _pgcd(a, f, p):
    while f:
        a, f = f, _pmod_nonmonic(a, f, p)
    return a


def _pmod_nonmonic(a, f, p):
    inv_lead = pow(f[-1], p - 2, p)
    fm = tuple((c * inv_lead) % p for c in f)
    return _pmod(a, fm, p)


def _ppow_mod(a, e, f, p):
    """a**e modulo the monic polynomial f."""
    result = (1,)
    base = _pmod(a, f, p)
    while e:
        if e & 1:
            result = _pmod(_pmul(result, base, p), f, p)
        base = _pmod(_pmul(base, base, p), f, p)
        e >>= 1
    return result


def _is_irreducible(f, p):
    """Deterministic irreducibility test for a monic f over GF(p)."""
    n = len(f) - 1
    if n == 1:
        return True
    x = (0, 1)
    y = x
    prime_cofactors = {n // q for q in _prime_factors(n)}
    for k in range(1, n + 1):
        y = _ppow_mod(y, p, f, p)  # y = x^(p^k) mod f
        if k in prime_cofactors:
            if len(_pgcd(f, _psub(y, x, p), p)) > 1:
                return False
    return y == _pmod(x, f, p)


def _prime_factors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _least_irreducible(p, n):
    """Least monic irreducible of degree n, enumerating the low coefficient
    vector (c_0, ..., c_{n-1}) as a base-p integer."""
    code = 0
    while True:
        coeffs = _code_digits(code, p, n) + (1,)
        if _is_irreducible(coeffs, p):
            return coeffs
        code += 1


def _code_digits(code, p, n):
    digits = []
    for _ in range(n):
        digits.append(code % p)
        code //= p
    return tuple(digits)


def _digits_code(digits, p):
    code = 0
    for d in reversed(digits):
        code = code * p + d
    return code


def _divisors(n):
    out = [d for d in range(1, n + 1) if n % d == 0]
    return out


# ---------------------------------------------------------------------------
# small linear algebra over GF(p) on plain int lists
# ---------------------------------------------------------------------------

def _modp_rref(rows, ncols, p):
    """Row-reduce a copy of rows over GF(p), choosing pivots among the first
    ncols columns; returns (reduced rows, pivot column of each leading row)."""
    mat = [list(r) for r in rows]
    nrows = len(mat)
    pivots = []
    r = 0
    for c in range(ncols):
        sel = None
        for i in range(r, nrows):
            if mat[i][c] % p:
                sel = i
                break
        if sel is None:
            continue
        mat[r], mat[sel] = mat[sel], mat[r]
        inv = pow(mat[r][c], p - 2, p)
        mat[r] = [(x * inv) % p for x in mat[r]]
        for i in range(nrows):
            if i != r and mat[i][c] % p:
                m = mat[i][c]
                mat[i] = [(x - m * y) % p for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
    return mat, pivots


class _ModPSolver:
    """Repeated exact solving of A w = v over GF(p), A fixed."""

    def __init__(self, rows, ncols, p):
        self.p = p
        self.ncols = ncols
        # row-reduce [A | I]; the identity block records the row operations
        nrows = len(rows)
        aug = [list(row) + [int(i == j) for j in range(nrows)] for i, row in enumerate(rows)]
        aug, self.pivots = _modp_rref(aug, ncols, p)
        self.rank = len(self.pivots)
        self.transform = [row[ncols:] for row in aug]  # maps rhs to reduced rhs

    def solve(self, rhs):
        """One solution with free coordinates zero, or None if inconsistent."""
        p = self.p
        reduced = [sum(t * v for t, v in zip(trow, rhs)) % p for trow in self.transform]
        for i in range(self.rank, len(reduced)):
            if reduced[i]:
                return None
        out = [0] * self.ncols
        for i, c in enumerate(self.pivots):
            out[c] = reduced[i]
        return out


def _apply_cols(digits, cols, n, p):
    """Length-n vector sum of digits[i] * cols[i] over GF(p)."""
    out = [0] * n
    for d, col in zip(digits, cols):
        if d:
            for j in range(n):
                out[j] = (out[j] + d * col[j]) % p
    return out


# ---------------------------------------------------------------------------
# per-level arithmetic on codes
# ---------------------------------------------------------------------------

class _LevelArith:
    """Arithmetic in GF(p^n) = GF(p)[x]/(f_n), elements encoded as codes;
    ``add``, ``neg``, ``mul`` and ``inv`` are the table lookups up to
    order ``_TABLE_LIMIT`` and the ``_*_generic`` kernels past it."""

    def __init__(self, p, n, modulus):
        self.p = p
        self.n = n
        self.order = p**n
        self.modulus = modulus
        self._modulus_code = _digits_code(modulus, p)  # x^n included
        if p == 2:
            self.add, self.neg = xor, pos  # -a = a in characteristic 2
        else:
            self.add, self.neg = self._add_generic, self._neg_generic
            if n > 1:
                self._use_slots()
        self.mul, self.inv = self._mul_generic, self._inv_generic
        if self.order <= _TABLE_LIMIT:
            self._use_log_tables()

    def digits(self, code):
        return _code_digits(code, self.p, self.n)

    def code(self, digits):
        return _digits_code(digits, self.p)

    def _use_log_tables(self):
        """Swap in table arithmetic: exp[k] = g^k for the least primitive
        element g, exp doubled so that exponent sums need no reduction,
        log its inverse and, for odd p, zech[d] = log(1 + g^d) (None where
        1 + g^d = 0).  O(q) steps, each one multiplication by g."""
        p, q = self.p, self.order
        m = q - 1
        exp = self._powers(self._least_primitive())
        log = [None] * q
        for k, a in enumerate(exp):
            log[a] = k
        exp += exp
        self.exp, self.log = exp, log

        def mul(a, b):
            return exp[log[a] + log[b]] if a and b else 0

        def inv(a):
            if not a:
                raise ZeroDivisionError("inverse of zero field element")
            return exp[m - log[a]]

        self.mul, self.inv = mul, inv
        if p == 2:
            return
        # 1 + a only changes the constant digit of a's code
        zech = [log[a + 1 if a % p != p - 1 else a + 1 - p] for a in exp[:m]]
        half = m // 2  # g^half = -1

        def add(a, b):
            if a and b:
                la = log[a]
                z = zech[log[b] - la]  # a negative index wraps modulo q - 1
                return 0 if z is None else exp[la + z]
            return a or b

        def neg(a):
            return exp[log[a] + half] if a else 0

        self.zech = zech
        self.add, self.neg = add, neg

    def _least_primitive(self):
        """Least code of multiplicative order q - 1."""
        m = self.order - 1
        cofactors = [m // r for r in _prime_factors(m)]
        for g in range(1, self.order):
            if all(self.pow(g, e) != 1 for e in cofactors):
                return g
        raise RuntimeError("no primitive element")

    def _powers(self, g):
        """Codes of g^0 .. g^(q-2), each from the last by one multiplication
        by g.  For p=2 and for GF(p) that is one ``_mul_generic``; otherwise
        g*a = g*lo + g*x^h*hi for the low h = n//2 and the high digits of a,
        two lookups in tables of about sqrt(q) digit vectors and one digit
        vector sum."""
        p, n, m = self.p, self.n, self.order - 1
        mul = self._mul_generic
        out = [1] * m
        a = 1
        if p == 2 or n == 1:
            for k in range(1, m):
                a = out[k] = mul(a, g)
            return out
        low = p ** (n // 2)  # also the code of x^(n//2)
        lo_t = [self.digits(mul(g, c)) for c in range(low)]
        g_hi = mul(g, low)
        hi_t = [self.digits(mul(g_hi, c)) for c in range(self.order // low)]
        weights = [p**i for i in range(n)]
        for k in range(1, m):
            hi, lo = divmod(a, low)
            a = out[k] = sum([(x + y) % p * w
                              for x, y, w in zip(lo_t[lo], hi_t[hi], weights)])
        return out

    def _use_slots(self):
        """Kronecker substitution for odd-p ``_mul_generic``: digit i of a
        code goes to bits [w i, w i + w) of one int, so one int product
        multiplies two polynomials.  A product slot holds at most
        n (p-1)^2; folding slots n .. 2n-2 back in, each reduced mod p
        times the packed x^k mod f, keeps every slot below 2n (p-1)^2 < 2^w.
        Codes are packed a chunk of h digits at a time, p^h <= max(p, 256),
        from one table per chunk.  ``_add_generic`` adds packed codes."""
        p, n = self.p, self.n
        w = self._slot_bits = (2 * n * (p - 1) ** 2).bit_length()
        self._slot_mask = (1 << w) - 1

        def packed(digits):
            out = 0
            for d in reversed(digits):
                out = out << w | d
            return out

        self._x_powers = [packed(_pmod((0,) * k + (1,), self.modulus, p))
                          for k in range(n, 2 * n - 1)]
        h = 1
        while h < n and p ** (h + 1) <= 256:
            h += 1
        self._chunk_order = p**h
        chunk = [packed(_code_digits(c, p, h)) for c in range(p**h)]
        self._pack_tables = [[v << (w * i) for v in chunk] for i in range(0, n, h)]

    def _pack(self, code):
        out = 0
        for table in self._pack_tables:
            code, c = divmod(code, self._chunk_order)
            out |= table[c]
        return out

    def _unpack(self, r):
        """The code whose digits are r's slots, each reduced mod p."""
        p, w, mask = self.p, self._slot_bits, self._slot_mask
        code = 0
        for shift in range(w * (self.n - 1), -1, -w):
            code = code * p + (r >> shift & mask) % p
        return code

    def _add_generic(self, a, b):
        if self.p == 2:
            return a ^ b
        if self.n == 1:
            return (a + b) % self.p
        return self._unpack(self._pack(a) + self._pack(b))

    def _neg_generic(self, a):
        return self.code(tuple((-x) % self.p for x in self.digits(a)))

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def _mul_generic(self, a, b):
        p, n = self.p, self.n
        if p == 2:
            # carry-less product, then shift-and-xor reduction by f
            if a < b:
                a, b = b, a
            r = 0
            while b:
                if b & 1:
                    r ^= a
                a <<= 1
                b >>= 1
            f = self._modulus_code
            while r.bit_length() > n:
                r ^= f << (r.bit_length() - 1 - n)
            return r
        if n == 1:
            return a * b % p
        w, mask = self._slot_bits, self._slot_mask
        prod = self._pack(a) * self._pack(b)
        high = prod >> (w * n)
        r = prod ^ (high << (w * n))
        for x in self._x_powers:
            if not high:
                break
            c = (high & mask) % p
            if c:
                r += c * x
            high >>= w
        return self._unpack(r)

    def _inv_generic(self, a):
        # extended Euclid in GF(p)[x] against the level modulus
        if a == 0:
            raise ZeroDivisionError("inverse of zero field element")
        p = self.p
        if p == 2:
            # on bit-packed polynomials: u = s*a mod f and v = t*a mod f
            # throughout, and deg s, deg t stay below n
            u, v, s, t = a, self._modulus_code, 1, 0
            while u != 1:
                j = u.bit_length() - v.bit_length()
                if j < 0:
                    u, v, s, t, j = v, u, t, s, -j
                u ^= v << j
                s ^= t << j
            return s
        r0, r1 = self.modulus, _pstrip(self.digits(a))
        s0, s1 = (), (1,)
        while r1:
            inv_lead = pow(r1[-1], p - 2, p)
            q = []
            rem = list(r0)
            dq = len(r0) - len(r1)
            if dq >= 0:
                q = [0] * (dq + 1)
                for i in range(len(rem) - 1, len(r1) - 2, -1):
                    c = (rem[i] * inv_lead) % p
                    if c:
                        q[i - len(r1) + 1] = c
                        for j, y in enumerate(r1):
                            rem[i - len(r1) + 1 + j] = (rem[i - len(r1) + 1 + j] - c * y) % p
            rem = _pstrip(rem)
            r0, r1 = r1, rem
            s0, s1 = s1, _psub(s0, _pmul(_pstrip(q), s1, p), p)
        # r0 = gcd is a nonzero constant
        c_inv = pow(r0[0], p - 2, p)
        inv_poly = _pmod(tuple((c * c_inv) % p for c in s0), self.modulus, p)
        return self.code(inv_poly + (0,) * (self.n - len(inv_poly)))

    def pow(self, a, e):
        if e < 0:
            return self.pow(self.inv(a), -e)
        res = 1
        acc = a
        while e:
            if e & 1:
                res = self.mul(res, acc)
            acc = self.mul(acc, acc)
            e >>= 1
        return res


# ---------------------------------------------------------------------------
# the tower configuration and its elements
# ---------------------------------------------------------------------------

class TowerConfig:
    """A compatible tower of finite fields presenting the closure of GF(p).

    Levels are all divisors of ``level_bound``, and the top field may have
    at most ``MAX_FIELD_ORDER`` elements.  The whole lattice is built once,
    here; afterwards the configuration is immutable in effect and safe to
    share between threads.
    """

    def __init__(self, p: int, level_bound: int = 12):
        if level_bound < 1:
            raise ValueError("level bound must be >= 1")
        # before the primality test, whose cost grows with p; for p >= 2 a
        # bound past log2(MAX_FIELD_ORDER) is too large already
        if p >= 2 and (level_bound >= MAX_FIELD_ORDER.bit_length()
                       or p**level_bound > MAX_FIELD_ORDER):
            raise ValueError(f"field order {p}^{level_bound} exceeds the limit "
                             f"2^{MAX_FIELD_ORDER.bit_length() - 1}; "
                             "lower p or the level bound")
        if p < 2 or any(p % d == 0 for d in range(2, int(p**0.5) + 1)):
            raise ValueError(f"p must be prime, got {p}")
        self.p = p
        self.level_bound = N = level_bound
        self.levels = _divisors(N)
        self._arith = {n: _LevelArith(p, n, _least_irreducible(p, n)) for n in self.levels}
        top = self._arith[N]

        # theta matrices: level-m coordinates -> top coordinates, sending the
        # level-m generator to the least root of f_m in the top field
        g = top._least_primitive()
        theta = {m: [top.digits(c) for c in self._power_codes(self._least_root(m, top, g), m, top)]
                 for m in self.levels}
        theta_solvers = {
            m: _ModPSolver([[theta[m][j][i] for j in range(m)] for i in range(N)], m, p)
            for m in self.levels
        }

        # pairwise embedding matrices (stored as columns of level-n digit vectors)
        emb = {}
        for m in self.levels:
            for n in self.levels:
                if m < n and n % m == 0:
                    cols = []
                    for i in range(m):
                        w = theta_solvers[n].solve(theta[m][i])
                        if w is None:
                            raise RuntimeError("subfield containment violated")
                        cols.append(tuple(w))
                    emb[(m, n)] = cols
        self._emb = emb
        self._assert_commuting()

        # fast embedding code maps for small source fields
        self._emb_codes = {}
        for (m, n), cols in emb.items():
            if p**m <= _CODE_MAP_LIMIT:
                self._emb_codes[(m, n)] = [
                    _digits_code(_apply_cols(_code_digits(code, p, m), cols, n, p), p)
                    for code in range(p**m)]

        # subfield decomposition matrices for every pair 1 < d < l, d | l;
        # over GF(p) and over the level itself the matrix is the identity
        self._rel_solvers = {(d, l): self._build_rel_solver(d, l)
                             for d in self.levels for l in self.levels
                             if 1 < d < l and l % d == 0}

        # least common level of every pair; and per level, (least level, code
        # there) of each element of a proper subfield: the subfields' images
        # are written largest first, so every code ends at its least level
        # (a proper subfield has at most sqrt(MAX_FIELD_ORDER) elements)
        self._lcm_levels = {(a, b): lcm(a, b) for a in self.levels for b in self.levels}
        self._subfield_codes = {}
        for n in self.levels:
            down = self._subfield_codes[n] = {}
            for m in reversed(_divisors(n)[:-1]):
                for code in range(p**m):
                    down[self._embed_code_raw(code, m, n)] = (m, code)

    def _least_root(self, m, top, g):
        """Least root of f_m in the top field, in code order.

        The roots of the irreducible f_m are one Frobenius orbit, so any
        root and its m conjugates give them all.
        """
        p, N = self.p, top.n
        if m in (1, N):
            root = self._gen_code(m)  # x modulo f_N, or 0, the root of f_1 = x
        else:
            root = self._some_root(m, top, g)
        orbit = []
        for _ in range(m):
            orbit.append(root)
            root = top.pow(root, p)
        return min(orbit)

    def _some_root(self, m, top, g):
        """The first root of f_m among the powers of g^((p^N - 1)/(p^m - 1)),
        which for a primitive g of the top field run through the nonzero
        elements of its subfield of order p^m."""
        f_m = self._arith[m].modulus
        size = self.p**m - 1
        h = top.pow(g, (top.order - 1) // size)
        root = 1
        for _ in range(size):
            if self._eval_ppoly(f_m, root, top) == 0:
                return root
            root = top.mul(root, h)
        raise RuntimeError("modulus has no root in its own splitting field")

    def _eval_ppoly(self, coeffs, at, arith):
        """Evaluate a GF(p)-coefficient polynomial at a field element code."""
        acc = 0
        for c in reversed(coeffs):
            acc = arith.add(arith.mul(acc, at), c % self.p)
        return acc

    def _assert_commuting(self):
        p = self.p
        for m in self.levels:
            for n in self.levels:
                for r in self.levels:
                    if m < n < r and n % m == 0 and r % n == 0:
                        via = [_apply_cols(col, self._emb[(n, r)], r, p)
                               for col in self._emb[(m, n)]]
                        direct = [list(col) for col in self._emb[(m, r)]]
                        if via != direct:
                            raise RuntimeError("embedding table does not commute")

    def _build_rel_solver(self, d, l):
        """Solver expressing a level-l element over the level-d subfield with
        respect to powers of the level-l generator."""
        arith = self._arith[l]
        gen_l = self._gen_code(l)
        gd_pows = self._power_codes(self._embed_code_raw(self._gen_code(d), d, l), d, arith)
        cols = []
        gl_pow = 1
        for _ in range(l // d):
            cols.extend(arith.digits(arith.mul(gl_pow, g)) for g in gd_pows)
            gl_pow = arith.mul(gl_pow, gen_l)
        rows = [[cols[c][r] for c in range(l)] for r in range(l)]
        return _ModPSolver(rows, l, self.p)

    def _power_codes(self, code, count, arith):
        """Codes of code^0 .. code^(count-1) in the given level."""
        out = []
        acc = 1
        for _ in range(count):
            out.append(acc)
            acc = arith.mul(acc, code)
        return out

    def _gen_code(self, level):
        if level == 1:
            return 0  # the residue class of x modulo f_1 = x
        return self.p  # digits (0, 1, 0, ...)

    # -- element interface ---------------------------------------------------

    def _check_level(self, level):
        if self.level_bound % level:
            raise LatticeError(
                f"level {level} is not in the lattice of divisors of {self.level_bound}")

    def from_code(self, level, code) -> "ClosureElem":
        self._check_level(level)
        if not 0 <= code < self.p**level:
            raise ValueError(f"code {code} out of range for level {level}")
        level, code = self._normalize(level, code)
        return ClosureElem(self, level, code)

    def from_coords(self, level, coords) -> "ClosureElem":
        if len(coords) != level:
            raise ValueError("coordinate vector length must equal the level")
        return self.from_code(level, _digits_code(tuple(c % self.p for c in coords), self.p))

    def from_int(self, c: int) -> "ClosureElem":
        return ClosureElem(self, 1, c % self.p)

    def zero(self) -> "ClosureElem":
        return ClosureElem(self, 1, 0)

    def one(self) -> "ClosureElem":
        return ClosureElem(self, 1, 1 % self.p)

    def generator(self, level) -> "ClosureElem":
        """The power-basis generator of the requested level."""
        self._check_level(level)
        return ClosureElem(self, level, self._gen_code(level))

    def random_element(self, rng, level) -> "ClosureElem":
        """Uniform over GF(p^level); deterministic under the generator state."""
        self._check_level(level)
        code = rng.below(self.p**level)
        lvl, code = self._normalize(level, code)
        return ClosureElem(self, lvl, code)

    def embed_coords(self, elem: "ClosureElem", target_level: int):
        """Raw coordinates of elem inside the target level's power basis."""
        self._check_level(target_level)
        if target_level % elem.level:
            raise LatticeError(
                f"level {elem.level} does not embed in level {target_level}")
        code = self._embed_code_raw(elem.code, elem.level, target_level)
        return _code_digits(code, self.p, target_level)

    def relative_coords(self, elem: "ClosureElem", level: int, base_level: int):
        """Coefficients of elem over GF(p^base_level), with respect to the
        power basis of the level generator; returns level//base_level
        coefficients, each a ClosureElem contained in the base field.

        Two bases need no linear algebra.  Over GF(p) (base level 1) the
        basis is 1, x, ..., x^(level-1) for the generator x mod f_level,
        the basis codes are written in, so the coefficients are the digits
        of elem's code at ``level``.  Over the level itself the basis is
        (1,) and the one coefficient is elem.  Any other base solves one
        GF(p) system.
        """
        self._check_level(level)
        self._check_level(base_level)
        if level % base_level or level % elem.level:
            raise LatticeError("incompatible levels for relative coordinates")
        if base_level == level:
            return (elem,)
        digits = _code_digits(self._embed_code_raw(elem.code, elem.level, level),
                              self.p, level)
        if base_level == 1:
            return tuple(ClosureElem(self, 1, c) for c in digits)
        sol = self._rel_solvers[(base_level, level)].solve(list(digits))
        if sol is None:
            raise RuntimeError("relative coordinates have no solution")
        d = base_level
        out = []
        for j in range(level // d):
            chunk = sol[j * d:(j + 1) * d]
            lvl, code = self._normalize(d, _digits_code(chunk, self.p))
            out.append(ClosureElem(self, lvl, code))
        return tuple(out)

    # -- internal code-level ops ---------------------------------------------

    def _embed_code_raw(self, code, m, n):
        if m == n:
            return code
        table = self._emb_codes.get((m, n))
        if table is not None:
            return table[code]
        p = self.p
        return _digits_code(_apply_cols(_code_digits(code, p, m), self._emb[(m, n)], n, p), p)

    def _normalize(self, level, code):
        """(least level, code there) of the element with this code at this level."""
        return self._subfield_codes[level].get(code) or (level, code)

    def __repr__(self):
        return f"TowerConfig(p={self.p}, level_bound={self.level_bound})"


class ClosureElem:
    """An element of the closure, stored at its minimal lattice level.

    Immutable; equality and hashing are structural thanks to the canonical
    minimal-level form.
    """

    __slots__ = ("config", "level", "code")

    def __init__(self, config, level, code):
        self.config = config
        self.level = level
        self.code = code

    @property
    def coords(self):
        return _code_digits(self.code, self.config.p, self.level)

    @property
    def is_zero(self):
        return self.code == 0 and self.level == 1

    @property
    def is_one(self):
        return self.level == 1 and self.code == 1 % self.config.p

    def _coerce(self, other):
        if isinstance(other, ClosureElem):
            if other.config is not self.config:
                raise ValueError("elements belong to different tower configurations")
            return other
        if isinstance(other, int):
            return self.config.from_int(other)
        return None

    def _align(self, other):
        cfg = self.config
        sl, ol = self.level, other.level
        if sl == ol:
            return cfg._arith[sl], sl, self.code, other.code
        l = cfg._lcm_levels[(sl, ol)]
        return (cfg._arith[l], l,
                cfg._embed_code_raw(self.code, sl, l),
                cfg._embed_code_raw(other.code, ol, l))

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        arith, l, a, b = self._align(other)
        lvl, code = self.config._normalize(l, arith.add(a, b))
        return ClosureElem(self.config, lvl, code)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        arith, l, a, b = self._align(other)
        lvl, code = self.config._normalize(l, arith.sub(a, b))
        return ClosureElem(self.config, lvl, code)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        arith, l, a, b = self._align(other)
        lvl, code = self.config._normalize(l, arith.mul(a, b))
        return ClosureElem(self.config, lvl, code)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, int):
            other = self.config.from_int(other)
        return self * other.inv()

    def __neg__(self):
        arith = self.config._arith[self.level]
        return ClosureElem(self.config, self.level, arith.neg(self.code))

    def inv(self):
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero")
        arith = self.config._arith[self.level]
        return ClosureElem(self.config, self.level, arith.inv(self.code))

    def __pow__(self, e):
        if e < 0:
            return self.inv() ** (-e)
        arith = self.config._arith[self.level]
        lvl, code = self.config._normalize(self.level, arith.pow(self.code, e))
        return ClosureElem(self.config, lvl, code)

    def __eq__(self, other):
        if isinstance(other, int):
            return self.level == 1 and self.code == other % self.config.p
        if not isinstance(other, ClosureElem):
            return NotImplemented
        return (self.config is other.config and self.level == other.level
                and self.code == other.code)

    def __hash__(self):
        return hash((id(self.config), self.level, self.code))

    def fixture(self) -> str:
        """Canonical fixture text, e.g. "2^2:0,1" for the quadratic generator."""
        coords = ",".join(str(c) for c in self.coords)
        return f"{self.config.p}^{self.level}:{coords}"

    def __str__(self):
        if self.level == 1:
            return str(self.code)
        return self.fixture()

    def __repr__(self):
        return f"ClosureElem({self.fixture()})"
