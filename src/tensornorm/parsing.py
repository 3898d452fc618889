"""Text syntax for elements, descriptors and reports.

Element expressions use ordinary polynomial notation over the declared
variables with ``+ - * / ^`` and parentheses.  Coefficients are either
small integers (reduced into the prime field) or field literals of the
form ``p^level:c0,c1,...`` naming a closure element by its coordinates.
Tensor expressions are sums of ``left (x) right`` terms; the literal
``(x)`` is reserved as the tensor operator, which is why no variable may
be named ``x``.  Sides containing a top-level ``+`` or ``-`` must be
parenthesized, e.g. ``(1 + t) (x) u``.

Field setups are declared in a small line-oriented file::

    # comment
    p 2
    levels 4
    base closure        # or a lattice level, e.g.: base 1
    K t:-1
    L u:-1

``K``/``L`` lines list variables as name:exponent pairs, the exponent
being the nonzero rational q of the assigned magnitude 2^q.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb

from .magnitude import Magnitude
from .closure import TowerConfig
from .polynomials import Polynomial
from .function_fields import ExtensionDescriptor, TowerElem
from .tensor import TensorElem


class ParseError(ValueError):
    """Syntax error carrying the offending position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_TOKEN_RE = re.compile(r"""
    (?P<fieldlit>\d+\^\d+:\d+(?:,\d+)*)
  | (?P<int>\d+)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>[-+*/^()])
  | (?P<ws>\s+)
""", re.VERBOSE)


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        if kind != "ws":
            tokens.append((kind, m.group(), pos))
        pos = m.end()
    tokens.append(("eof", "", len(text)))
    return tokens


_MAX_NESTING = 100  # parentheses and unary minus signs; bounds the recursion
MAX_POWER_DEGREE = 256  # largest total degree a power's numerator or denominator may reach
MAX_RESULT_TERMS = 10_000  # most terms a product or power may be able to reach


def _total_degree(poly):
    return max((sum(exps) for exps in poly.terms), default=0)


def _check_products(pairs, pos):
    """Refuse, before any work, polynomial products f * g that could have
    more than MAX_RESULT_TERMS terms (at most |f| |g|)."""
    for f, g in pairs:
        bound = len(f.terms) * len(g.terms)
        if bound > MAX_RESULT_TERMS:
            raise ParseError(f"product of up to {bound} terms exceeds the limit "
                             f"{MAX_RESULT_TERMS}", pos)


def _power_terms(poly, e):
    """Most terms poly^e can have: the monomials of total degree at most
    e deg(poly), and the multisets of e of poly's terms."""
    n, size = poly.nvars, len(poly.terms)
    if e == 0 or size <= 1:
        return 1
    return min(comb(n + e * _total_degree(poly), n), comb(size + e - 1, e))


class _ExprParser:
    """Recursive-descent parser producing a TowerElem."""

    def __init__(self, tokens, descriptor):
        self.tokens = tokens
        self.i = 0
        self.depth = 0
        self.descriptor = descriptor

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, text, pos = self.next()
        if kind != "op" or text != op:
            raise ParseError(f"expected {op!r}, found {text!r}", pos)

    def parse(self):
        value = self.expr()
        kind, text, pos = self.peek()
        if kind != "eof":
            raise ParseError(f"unexpected {text!r}", pos)
        return value

    def expr(self):
        value = self.term()
        while True:
            kind, text, pos = self.peek()
            if kind == "op" and text in "+-":
                self.next()
                rhs = self.term()
                # a/b + c/d = (a d + c b) / (b d)
                _check_products(((value.num, rhs.den), (rhs.num, value.den),
                                  (value.den, rhs.den)), pos)
                value = value + rhs if text == "+" else value - rhs
            else:
                return value

    def term(self):
        value = self.power()
        while True:
            kind, text, pos = self.peek()
            if kind == "op" and text in "*/":
                self.next()
                rhs = self.power()
                if text == "*":
                    _check_products(((value.num, rhs.num), (value.den, rhs.den)), pos)
                    value = value * rhs
                else:
                    if rhs.is_zero:
                        raise ParseError("division by zero", pos)
                    _check_products(((value.num, rhs.den), (value.den, rhs.num)), pos)
                    value = value / rhs
            else:
                return value

    def power(self):
        value = self.atom()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.next()
            sign = 1
            kind, text, pos = self.peek()
            if kind == "op" and text == "-":
                self.next()
                sign = -1
            kind, text, pos = self.next()
            if kind != "int":
                raise ParseError(f"expected integer exponent, found {text!r}", pos)
            e = sign * int(text)
            if e < 0 and value.is_zero:
                raise ParseError("zero raised to a negative power", pos)
            # refused before it is computed: the work grows with the degree
            degree = abs(e) * max(_total_degree(value.num), _total_degree(value.den))
            if degree > MAX_POWER_DEGREE:
                raise ParseError(f"power of total degree {degree} exceeds the limit "
                                 f"{MAX_POWER_DEGREE}", pos)
            bound = max(_power_terms(value.num, abs(e)), _power_terms(value.den, abs(e)))
            if bound > MAX_RESULT_TERMS:
                raise ParseError(f"power of up to {bound} terms exceeds the limit "
                                 f"{MAX_RESULT_TERMS}", pos)
            value = value**e
        return value

    def atom(self):
        desc = self.descriptor
        kind, text, pos = self.next()
        if kind == "op" and text in "-(":
            self.depth += 1
            if self.depth > _MAX_NESTING:
                raise ParseError(f"expression nested deeper than {_MAX_NESTING}", pos)
            if text == "-":
                value = -self.atom()
            else:
                value = self.expr()
                self.expect_op(")")
            self.depth -= 1
            return value
        if kind == "int":
            return TowerElem.constant(desc, int(text))
        if kind == "fieldlit":
            return TowerElem.constant(desc, parse_closure_elem(text, desc.config, pos))
        if kind == "name":
            if text not in desc.names:
                raise ParseError(
                    f"unknown variable {text!r} (side {desc.side} has {desc.names})", pos)
            return TowerElem.variable(desc, text)
        raise ParseError(f"unexpected {text!r}", pos)


def parse_closure_elem(text, config, offset=0):
    """Parse a field literal "p^level:c0,c1,..."."""
    head, _, coords_part = text.partition(":")
    p_part, _, level_part = head.partition("^")
    p, level = int(p_part), int(level_part)
    if p != config.p:
        raise ParseError(f"literal characteristic {p} differs from configured {config.p}",
                         offset)
    if config.level_bound % level:
        raise ParseError(f"level {level} is outside the configured lattice", offset)
    coords = [int(c) for c in coords_part.split(",")]
    if len(coords) != level:
        raise ParseError(f"literal needs exactly {level} coordinates", offset)
    return config.from_coords(level, coords)


def parse_tower_elem(text, descriptor) -> TowerElem:
    """Parse a field-side expression."""
    return _ExprParser(_tokenize(text), descriptor).parse()


def _split_top_level(text):
    """Split on top-level + and -, treating "(x)" as an atomic operator.

    A sign directly after an operator (as in ``t^-1`` or ``a * -b``) or at
    the very start of the string is unary and stays inside its chunk.
    Returns (sign, chunk, position) triples.
    """
    parts = []
    depth = 0
    sign = 1
    start = 0
    last_sig = None  # last non-space character, "(x)" counted as ")"
    i = 0
    while i < len(text):
        if text.startswith("(x)", i):
            last_sig = ")"
            i += 3
            continue
        c = text[i]
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
            if depth < 0:
                raise ParseError("unbalanced parenthesis", i)
        elif (depth == 0 and c in "+-"
              and last_sig is not None and last_sig not in "^*/+-("):
            chunk = text[start:i]
            if not chunk.strip():
                raise ParseError("empty term", i)
            parts.append((sign, chunk, start))
            sign = 1 if c == "+" else -1
            start = i + 1
        if not c.isspace():
            last_sig = c
        i += 1
    if depth != 0:
        raise ParseError("unbalanced parenthesis", len(text))
    chunk = text[start:]
    if not chunk.strip():
        raise ParseError("empty term", start)
    parts.append((sign, chunk, start))
    return parts


def parse_tensor_elem(text, left_descriptor, right_descriptor, base_level=None) -> TensorElem:
    """Parse a sum of "left (x) right" terms."""
    if text.strip() == "0":
        return TensorElem.zero(left_descriptor, right_descriptor, base_level)
    terms = []
    for sign, chunk, offset in _split_top_level(text):
        pieces = chunk.split("(x)")
        if len(pieces) != 2:
            raise ParseError(
                "each term needs exactly one (x); parenthesize sides containing + or -",
                offset)
        x = parse_tower_elem(pieces[0], left_descriptor)
        y = parse_tower_elem(pieces[1], right_descriptor)
        if sign < 0:
            x = -x
        terms.append((x, y))
    if not terms:
        raise ParseError("empty expression", 0)
    return TensorElem(left_descriptor, right_descriptor, terms, base_level)


# ---------------------------------------------------------------------------
# formatting (inverse of the grammar above)
# ---------------------------------------------------------------------------

def format_closure_elem(c) -> str:
    if c.level == 1:
        return str(c.code)
    return c.fixture()


def format_polynomial(poly: Polynomial, descriptor) -> str:
    if poly.is_zero:
        return "0"
    names = descriptor.names
    parts = []
    for exps, coeff in poly.sorted_terms(reverse=True):
        factors = []
        for name, e in zip(names, exps):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        if not factors:
            parts.append(format_closure_elem(coeff))
        elif coeff.is_one:
            parts.append("*".join(factors))
        else:
            parts.append("*".join([format_closure_elem(coeff)] + factors))
    return " + ".join(parts)


def format_tower_elem(x: TowerElem) -> str:
    num = format_polynomial(x.num, x.descriptor)
    if x.den.is_constant:
        return num
    den = format_polynomial(x.den, x.descriptor)
    return f"({num}) / ({den})"


def _side_str(x: TowerElem) -> str:
    s = format_tower_elem(x)
    if any(c in s for c in "+-/ "):
        return f"({s})"
    return s


def format_tensor_elem(z: TensorElem) -> str:
    if not z.terms:
        return "0"
    return " + ".join(f"{_side_str(x)} (x) {_side_str(y)}" for x, y in z.terms)


# ---------------------------------------------------------------------------
# field setup files
# ---------------------------------------------------------------------------

class FieldSetup:
    """A configured pair of extensions over a common base field."""

    def __init__(self, config: TowerConfig, left: ExtensionDescriptor,
                 right: ExtensionDescriptor, base_level=None):
        self.config = config
        self.left = left
        self.right = right
        self.base_level = base_level

    def parse_element(self, text) -> TensorElem:
        return parse_tensor_elem(text, self.left, self.right, self.base_level)


def parse_field_setup(text) -> FieldSetup:
    """Parse the line-oriented setup format (see module docstring)."""
    p = None
    levels = None
    base = None
    sides = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        key, args = fields[0], fields[1:]
        if key in ("p", "levels", "base") and len(args) != 1:
            raise ValueError(f"line {lineno}: {key} takes exactly one argument")
        if key == "p":
            p = int(args[0])
        elif key == "levels":
            levels = int(args[0])
        elif key == "base":
            base = None if args[0] == "closure" else int(args[0])
        elif key in ("K", "L"):
            vars_ = []
            for item in args:
                name, _, expo = item.partition(":")
                if not expo:
                    raise ValueError(
                        f"line {lineno}: variable {item!r} needs name:exponent")
                vars_.append((name, Magnitude.pos(Fraction(expo))))
            sides[key] = vars_
        else:
            raise ValueError(f"line {lineno}: unknown directive {key!r}")
    if p is None:
        raise ValueError("setup must declare p")
    config = TowerConfig(p, levels if levels is not None else 12)
    left = ExtensionDescriptor("K", sides.get("K", ()), config)
    right = ExtensionDescriptor("L", sides.get("L", ()), config)
    if base is not None:
        config._check_level(base)
    if set(left.names) & set(right.names):
        raise ValueError("variable names must be unique across both sides")
    return FieldSetup(config, left, right, base)


def load_field_setup(path) -> FieldSetup:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_field_setup(fh.read())
