"""Recursive-descent parser for the expression grammar.

Grammar (EBNF)::

    expr    := term (('+' | '-') term)*
    term    := unary (('*' | '/') unary)*
    unary   := ('+' | '-') unary | power
    power   := primary ('^' unary)?
    primary := NUMBER | 'i' | NAME '(' expr ')' | NAME | '(' expr ')'
    NUMBER  := digits ['.' digits] [('e'|'E') ['+'|'-'] digits]
    digits  := decimal digits, as str.isdecimal() tests them

Exponents must constant-fold to an integer or half-integer rational.
Numeric literals are exact (`cnum.read_rational` reads them).  Functions are
sin, cos, cot, exp, sqrt; `i` is the imaginary unit.  Any other name must be
a declared coordinate or parameter.  Signs, parentheses, function arguments
and exponents nest at most MAX_NESTING levels deep, and the products of one
term, formed factor by factor, form at most ``expr.EXPANSION_BOUND`` term
products together.
"""

from __future__ import annotations

from . import expr as ex
from .cnum import read_rational

_FUNCTION_NAMES = ("sin", "cos", "cot", "exp", "sqrt")
# deepest nesting, well inside the interpreter's recursion limit of 1000 frames
MAX_NESTING = 100


class ParseError(Exception):
    """Syntax or symbol error; carries the 0-based position in the input."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class _Token:
    __slots__ = ("kind", "value", "pos")

    def __init__(self, kind, value, pos):
        self.kind = kind
        self.value = value
        self.pos = pos


def _tokenize(text: str) -> list[_Token]:
    out = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdecimal() or (ch == "." and i + 1 < n and text[i + 1].isdecimal()):
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            if j < n and text[j] == ".":
                j += 1
                while j < n and text[j].isdecimal():
                    j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdecimal():
                    j = k
                    while j < n and text[j].isdecimal():
                        j += 1
            out.append(_Token("num", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(_Token("name", text[i:j], i))
            i = j
            continue
        if ch in "+-*/^()":
            out.append(_Token(ch, ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    out.append(_Token("end", "", n))
    return out


class _Parser:
    def __init__(self, text: str, names: set[str]):
        self.toks = _tokenize(text)
        self.i = 0
        self.names = names
        self.depth = 0  # open `unary` calls

    def peek(self) -> _Token:
        return self.toks[self.i]

    def take(self) -> _Token:
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, kind: str) -> _Token:
        t = self.take()
        if t.kind != kind:
            raise ParseError(f"expected {kind!r}, found {t.value!r}", t.pos)
        return t

    def parse(self) -> ex.Expr:
        e = self.expr()
        t = self.peek()
        if t.kind != "end":
            raise ParseError(f"unexpected {t.value!r}", t.pos)
        return e

    def expr(self) -> ex.Expr:
        e = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.take().kind
            rhs = self.term()
            e = ex.add(e, rhs) if op == "+" else ex.sub(e, rhs)
        return e

    def term(self) -> ex.Expr:
        """Products formed factor by factor: each `ex.mul` stays under the
        kernel's bound while their work grows with the square of the text,
        so the term products of every step count against one bound."""
        e = self.unary()
        work = 0
        while self.peek().kind in ("*", "/"):
            op = self.take()
            rhs = self.unary()
            work += _term_count(e) * (_term_count(rhs) if op.kind == "*" else 1)
            if work > ex.EXPANSION_BOUND:
                raise ParseError(f"this product would form more than {ex.EXPANSION_BOUND} term products", op.pos)
            try:
                e = ex.mul(e, rhs) if op.kind == "*" else ex.div(e, rhs)
            except (ex.ExprError, ZeroDivisionError) as err:
                raise _kernel_error(err, op) from None
        return e

    def unary(self) -> ex.Expr:
        t = self.peek()
        self.depth += 1  # each sign, parenthesis, function argument and exponent nests here
        if self.depth > MAX_NESTING:
            raise ParseError(f"expression nests deeper than {MAX_NESTING} levels", t.pos)
        if t.kind in ("+", "-"):
            self.take()
            e = ex.neg(self.unary()) if t.kind == "-" else self.unary()
        else:
            e = self.power()
        self.depth -= 1
        return e

    def power(self) -> ex.Expr:
        base = self.primary()
        if self.peek().kind == "^":
            op = self.take()
            e = self.unary()
            frac = _const_rational(e)
            if frac is None or frac.denominator not in (1, 2):
                raise ParseError("exponent must be an integer or half-integer constant", op.pos)
            try:
                return ex.power(base, frac)
            except (ex.ExprError, ZeroDivisionError) as err:
                raise _kernel_error(err, op) from None
        return base

    def primary(self) -> ex.Expr:
        t = self.take()
        if t.kind == "num":
            try:
                return ex.num(read_rational(t.value))
            except ValueError as err:  # too many digits
                raise ParseError(str(err), t.pos) from None
        if t.kind == "(":
            e = self.expr()
            self.expect(")")
            return e
        if t.kind == "name":
            if t.value == "i":
                return ex.I
            if self.peek().kind == "(":
                if t.value not in _FUNCTION_NAMES:
                    raise ParseError(f"unknown function {t.value!r}", t.pos)
                self.take()
                arg = self.expr()
                self.expect(")")
                try:
                    return ex.fun(t.value, arg)  # cot divides by sin
                except ZeroDivisionError as err:
                    raise _kernel_error(err, t) from None
            if t.value not in self.names:
                raise ParseError(f"unknown symbol {t.value!r} (declared: {sorted(self.names)})", t.pos)
            return ex.sym(t.value)
        raise ParseError(f"unexpected {t.value!r}", t.pos)


def _kernel_error(err: Exception, tok: _Token) -> ParseError:
    """A kernel error raised by the operation at `tok` (an exact division by
    zero, an unsupported power) as a ParseError at its position."""
    msg = "division by zero" if isinstance(err, ZeroDivisionError) else str(err)
    return ParseError(msg, tok.pos)


def _term_count(e: ex.Expr) -> int:
    return len(e.terms) if type(e) is ex.Add else 1


def _const_rational(e: ex.Expr):
    if type(e) is ex.Num and e.val.is_real():
        return e.val.re
    return None


def parse(text: str, coords, params=()) -> ex.Expr:
    """Parse an expression over the given coordinates and parameters."""
    names = set(coords) | set(params)
    if "i" in names:
        raise ParseError("'i' is reserved for the imaginary unit", 0)
    return _Parser(text, names).parse()
