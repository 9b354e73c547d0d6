"""Symbolic scalar expressions over named chart coordinates.

A deliberately small kernel: exact complex-rational coefficients, flattened
and sorted sums/products, integer and half-integer powers, and the function
set sin/cos/exp (cot and sqrt are rewritten on input).  Exact scalars stay on
machine ints: coefficient parts are ints unless a denominator is present
(:mod:`casimir.cnum`), and every exponent is carried as the int twice its
value (``Pow.e2``), doubled once on input by ``_as_exp``, so the power-map
rules below run on int arithmetic.  ``Pow.exp`` is the public value: an int
when integral, otherwise the equal half-integer Fraction.  Construction
keeps expressions in an expanded normal form:

* products distribute over sums; positive integer powers of sums expand;
* even powers of sin collapse to polynomials in cos, so the Pythagorean
  identity is built into the representation;
* half-integer and negative powers of polynomial bases are kept as atoms,
  with the base factored over its rational roots so that e.g. the inverse
  of 1 - cos^2 and the product of the inverses of 1 -/+ cos coincide.

Half-integer powers assume a positive base on the working domain, which all
built-in charts guarantee; ``simplify`` adds one sum-level normalization and
is idempotent.  In a simplified sum:

* the powers of one base hold one exponent per parity (the common-exponent
  pass lowers them to the least, multiplying the cofactor back in);
* a linear base b = b0 + b1*x in a symbol or cosine x keeps a negative
  integer power only if some numerator does not vanish at its root:
  grouping the terms by their factors other than x and b, each group is a
  polynomial in x, and while every group vanishes at the root all of them
  are divided by b.  So sums of rational functions of cos(u) over powers
  of 1 -/+ cos(u), such as the Legendre-type family members, keep one
  written form: their least common denominator, over numerators in lowest
  terms.

The pass decomposes a sum once, lowers every (base, parity) class that fires
in turn on that decomposition, and rebuilds the sum once; bases that are
polynomials in one symbol or cosine are lowered and divided on coefficient
lists, others through ``mul``.  An expansion past ``EXPANSION_BOUND`` term
products raises ``ExpansionError``.  Anything the kernel cannot prove zero
falls back to numeric sampling in :mod:`casimir.numcheck`; the kernel builds,
differentiates and prints expressions, and never evaluates them, which is
:mod:`casimir.evalcore`'s job.

Every node is a fixed point of its constructor: ``mul(Num(coef), *factors)``
rebuilds a ``Mul``, ``add(*terms)`` an ``Add``, ``_power(base, e2)`` a ``Pow``
and ``fun(fname, arg)`` a ``Fun``, each equal to the node.  This holds
because nodes are built only in this module, by ``_assemble``,
``_sum_of_items`` (which ``_collect`` ends in), ``_cos_bases``, ``fun`` and
``_power``.  ``simplify`` relies on it: a node whose children all come back
as the same objects is returned as it is, so only sums, through the
common-exponent pass, do new work.

Each ``Fun``, ``Pow``, ``Mul`` and ``Add`` node remembers its simplified
form in the ``_simple`` slot, filled the first time ``simplify`` reaches it
(``Num`` and ``Sym`` are always their own).  A node that is its own
simplified form holds the sentinel ``_FIXED``, never a reference to itself,
so the memo makes no reference cycle.  The memo is not part of ``_key`` or
the hash; a race between threads can only compute the same result twice.

``sum_of_products(products)`` is the one accumulation primitive: it equals
``add(*[mul(*p) for p in products])``, but ``_product`` hands it each
product's (coefficient, monomial) pairs uncollected, so no intermediate
product is built only to be taken apart by the sum.  ``mul`` is
``_collect`` of the same pairs.

Products of sums are the kernel's hot path, so construction shares work
through module-level tables:

* ``_ATOMS`` makes atoms canonical (hash-consing): ``Sym``, ``Fun`` and
  ``Pow`` look up their fields on construction and return the one live atom
  of that key, so equal atoms are one object and compare and hash by
  identity, in C.  The table holds each atom by a weak reference whose
  callback drops only that entry when the atom dies, so it needs no cap;
  it is never cleared, which would let a second atom equal to a live one
  exist.  Interning commits through ``dict.setdefault``, so threads that
  race to build one atom get one object;
* ``_MONO_CACHE`` maps a pair of coefficient-free monomials to the terms of
  their product; ``mul`` distributes sums as flat (coefficient, monomial)
  pairs, scales the memoized terms by exact coefficients, merges like
  monomials after each sum (``_merge``) and gathers the result with
  ``_collect``, the same step ``add`` uses;
* ``_DIFF_CACHE`` memoizes ``diff``.

The last two are idempotent memos: they never change a result, are cleared
when they reach their caps (a ``*_CAP`` constant next to each), and are safe
to share between threads, as is ``cnum.fraction_sqrt``'s bounded memo, which
factors each numeric radicand of ``_assemble`` once.  An atom builds its
structural sort key ``_key`` on construction, a ``Mul`` or ``Add`` on first
read, since few are ever sorted; they compare by their parts, which is key
equality as atoms are canonical.  A product hashes its factor tuple by
identity, so hashes vary between runs but canonical order, ``unparse`` and
digests do not.
"""

from __future__ import annotations

import operator
import weakref
from _weakref import _remove_dead_weakref
from fractions import Fraction
from math import gcd

from .cnum import CN_I, CN_MINUS_ONE, CN_ONE, DIGIT_LIMIT, CNum, divisors, fraction_gcd, fraction_sqrt

_FUNCTIONS = ("sin", "cos", "exp")


class ExprError(Exception):
    """Malformed expression construction or use."""


class EvalError(ExprError):
    """Evaluation hit an undefined point (pole, missing symbol)."""

    def __init__(self, message, point=None):
        super().__init__(message)
        self.point = point


# Most term products that multiplying out the sums of one product, or a power of a
# coefficient list, may form.  Built-in families stay below 1,000; (1 + x)^3000 needs 9 M.
EXPANSION_BOUND = 100_000
_TOO_MANY_TERMS = f"expanding this power or product would form more than {EXPANSION_BOUND} term products"


class ExpansionError(ExprError):
    """An expansion past EXPANSION_BOUND term products, or an exact power of a
    number whose numerators or denominators would pass `cnum.DIGIT_LIMIT` digits."""


class Expr:
    """Immutable expression node: canonical sort key ``_key``, hash ``_hash``."""

    __slots__ = ("_key", "_hash")

    def __eq__(self, other):
        return self is other or (isinstance(other, Expr) and self._hash == other._hash
                                 and self._key == other._key)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"<expr {unparse(self)}>"


# the node memo of a node that is its own simplified form; see `simplify`
_FIXED = object()


class Num(Expr):
    __slots__ = ("val",)
    _simple = _FIXED

    def __init__(self, val: CNum):
        self.val = val
        self._key = (0, val.re, val.im)
        re, im = val.re, val.im
        self._hash = hash((0, re.numerator, re.denominator, im.numerator, im.denominator))

    # hashes must be cheap: every composite node combines the cached child
    # hashes instead of rehashing whole subtrees


# the one live Sym, Fun or Pow atom of each (tag, fields) key, held by a weak
# reference whose callback drops the entry; see the module docstring
_ATOMS: dict = {}


def _no_atom():
    """The `_ATOMS.get` default: reads as a dead weak reference."""
    return None


def _intern(key: tuple, atom: Expr) -> Expr:
    """The live atom of `key`: `atom`, unless a racing thread interned one first."""
    ref = weakref.ref(atom, lambda _ref: _remove_dead_weakref(_ATOMS, key))
    while True:
        live = _ATOMS.setdefault(key, ref)()
        if live is not None:
            return live
        _remove_dead_weakref(_ATOMS, key)  # an entry whose atom died, before its callback ran


class Sym(Expr):
    __slots__ = ("name", "__weakref__")
    _simple = _FIXED
    __eq__ = object.__eq__  # atoms are canonical: equal means identical
    __hash__ = object.__hash__

    def __new__(cls, name: str):
        key = (1, name)
        self = _ATOMS.get(key, _no_atom)()
        if self is None:
            self = object.__new__(cls)
            self.name = name
            self._key = key
            self._hash = hash(key)
            self = _intern(key, self)
        return self


class Fun(Expr):
    __slots__ = ("fname", "arg", "_simple", "__weakref__")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __new__(cls, fname: str, arg: Expr):
        key = (2, fname, arg)
        self = _ATOMS.get(key, _no_atom)()
        if self is None:
            self = object.__new__(cls)
            self.fname = fname
            self.arg = arg
            self._simple = None
            self._key = (2, fname, arg._key)
            self._hash = hash((2, fname, arg._hash))
            self = _intern(key, self)
        return self


class Pow(Expr):
    """base^exp; ``exp`` is an int or a half-integer Fraction, ``e2`` twice it."""

    __slots__ = ("base", "exp", "e2", "_simple", "__weakref__")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __new__(cls, base: Expr, exp):
        return _pow(base, _as_exp(exp))


def _pow(base: Expr, e2: int) -> Pow:
    """The interned atom base^(e2/2)."""
    key = (3, base, e2)
    self = _ATOMS.get(key, _no_atom)()
    if self is None:
        self = object.__new__(Pow)
        self.base = base
        self.e2 = e2
        self.exp = exp = _exp_value(e2)
        self._simple = None
        self._key = (3, base._key, exp)
        self._hash = hash((3, base._hash, exp.numerator, exp.denominator))
        self = _intern(key, self)
    return self


def _key_on_read(build):
    """A `_key` property: `build(node)` on the first read, kept in the slot `Expr._key`.
    Not `__getattr__`, which would take every node attribute off the interpreter's fast path."""
    def get(node):
        try:
            return Expr._key.__get__(node)
        except AttributeError:
            key = build(node)
            Expr._key.__set__(node, key)
            return key
    return property(get)


class Mul(Expr):
    """coef * f1 * f2 * ...; factors are sorted Sym/Fun/Pow atoms."""

    __slots__ = ("coef", "factors", "_simple")
    __hash__ = Expr.__hash__  # defining __eq__ would otherwise leave the class unhashable

    def __init__(self, coef: CNum, factors: tuple):
        self.coef = coef
        self.factors = factors
        self._simple = None
        self._hash = hash((4, factors, coef.re, coef.im))

    def __eq__(self, other):  # the keys' equality, since atoms are canonical
        return self is other or (type(other) is Mul and self._hash == other._hash
                                 and self.factors == other.factors and self.coef == other.coef)

    _key = _key_on_read(lambda m: (4, tuple([f._key for f in m.factors]), m.coef.re, m.coef.im))


class Add(Expr):
    """Sorted sum of terms with distinct monomial parts."""

    __slots__ = ("terms", "_simple")
    __hash__ = Expr.__hash__

    def __init__(self, terms: tuple):
        self.terms = terms
        self._simple = None
        self._hash = hash((5, tuple(t._hash for t in terms)))

    def __eq__(self, other):
        return self is other or (type(other) is Add and self._hash == other._hash
                                 and self.terms == other.terms)

    _key = _key_on_read(lambda a: (5, tuple([t._key for t in a.terms])))


ZERO = Num(CNum(0))
ONE = Num(CN_ONE)
MINUS_ONE = Num(CN_MINUS_ONE)
I = Num(CN_I)


def num(re, im=0) -> Num:
    if isinstance(re, CNum):
        return Num(re)
    return Num(CNum(re, im))


def sym(name: str) -> Sym:
    if not name or not name[0].isalpha():
        raise ExprError(f"bad symbol name {name!r}")
    return Sym(name)


def as_expr(x) -> Expr:
    if isinstance(x, Expr):
        return x
    if isinstance(x, (int, Fraction)):
        return Num(CNum(x))
    raise TypeError(f"cannot coerce {type(x).__name__} to Expr")


def _as_exp(e) -> int:
    """Twice the exponent e: an int, a Fraction or a real Num, integral or half-integral."""
    if isinstance(e, Num):
        if e.val.im:
            raise ExprError("exponent must be a real rational")
        e = e.val.re
    if isinstance(e, int):
        return 2 * e
    if not isinstance(e, Fraction):
        raise ExprError(f"bad exponent {e!r}")
    if e.denominator not in (1, 2):
        raise ExprError(f"only integer and half-integer exponents are supported, got {e}")
    return e.numerator * (2 // e.denominator)


def _exp_value(e2: int):
    """The exponent e2/2 as an int when integral, otherwise a Fraction."""
    return Fraction(e2, 2) if e2 & 1 else e2 >> 1


def _sin_peels(e2: int) -> bool:
    """sin(u)^e with integral e >= 2 or e <= -1 is rewritten through 1 - cos^2."""
    return not e2 & 1 and (e2 >= 4 or e2 <= -2)


def _coef_mono(t: Expr) -> tuple[CNum, tuple]:
    """Split a canonical term into (coefficient, monomial factor tuple)."""
    tt = type(t)
    if tt is Num:
        return t.val, ()
    if tt is Mul:
        return t.coef, t.factors
    return CN_ONE, (t,)


def terms_of(e: Expr) -> tuple:
    """The (coefficient, monomial) pairs of a canonical expression's terms."""
    return tuple([_coef_mono(t) for t in (e.terms if type(e) is Add else (e,))])


def _lead_cnum(e: Expr) -> CNum:
    tt = type(e)
    if tt is Num:
        return e.val
    if tt is Mul:
        return e.coef
    if tt is Add:
        return _lead_cnum(e.terms[0])
    return CN_ONE


# ---------------------------------------------------------------------------
# sums


def _term_expr(c: CNum, mono: tuple) -> Expr:
    if not mono:
        return Num(c)
    if c.is_one() and len(mono) == 1:
        return mono[0]
    return Mul(c, mono)


_by_key = operator.attrgetter("_key")


def _mono_order(item: tuple) -> list:
    """Sort key of a (mono, coef) item: the factor keys, lexicographically."""
    return [f._key for f in item[0]]


def add(*items) -> Expr:
    pairs = []
    for e in items:
        if type(e) is Add:
            pairs.extend(_coef_mono(t) for t in e.terms)
        else:
            pairs.append(_coef_mono(e))
    return _collect(pairs)


def _merge(pairs) -> list:
    """(monomial, coefficient) items of (coefficient, monomial) pairs, like
    monomials merged by exact sums and zero sums dropped."""
    acc: dict[tuple, CNum] = {}
    for c, mono in pairs:
        cur = acc.get(mono)
        acc[mono] = c if cur is None else cur + c
    return [(mono, c) for mono, c in acc.items() if not c.is_zero()]


def _collect(pairs) -> Expr:
    """Canonical sum of (coefficient, monomial) pairs; like monomials merge."""
    return _sum_of_items(_merge(pairs))


def _sum_of_items(items: list) -> Expr:
    """Canonical sum of (monomial, coefficient) items with distinct, nonzero terms."""
    if not items:
        return ZERO
    if len(items) == 1:
        mono, c = items[0]
        return _term_expr(c, mono)
    items.sort(key=_mono_order)
    return Add(tuple([_term_expr(c, mono) for mono, c in items]))


def neg(e) -> Expr:
    return mul(MINUS_ONE, as_expr(e))


def sub(a, b) -> Expr:
    return add(as_expr(a), neg(b))


# ---------------------------------------------------------------------------
# products

_ONE_MINUS_COS = "B-"
_ONE_PLUS_COS = "B+"


def _classify_cos_base(b: Expr):
    """Recognize 1 - cos(u) and 1 + cos(u); returns (tag, u) or None."""
    if type(b) is not Add or len(b.terms) != 2:
        return None
    t0, t1 = b.terms
    if type(t0) is not Num or t0.val != CN_ONE:
        return None
    c, mono = _coef_mono(t1)
    if len(mono) != 1 or type(mono[0]) is not Fun or mono[0].fname != "cos":
        return None
    if c == CN_ONE:
        return (_ONE_PLUS_COS, mono[0].arg)
    if c == CN_MINUS_ONE:
        return (_ONE_MINUS_COS, mono[0].arg)
    return None


def _cos_bases(u: Expr) -> tuple[Expr, Expr]:
    cos_u = Fun("cos", u)
    minus = Add((ONE, Mul(CN_MINUS_ONE, (cos_u,))))
    plus = Add((ONE, cos_u))
    return minus, plus


def _padd(pmap: dict, base: Expr, e2: int):
    cur = pmap.get(base)
    if cur is None:
        pmap[base] = e2
    else:
        tot = cur + e2
        if tot:
            pmap[base] = tot
        else:
            del pmap[base]


def mul(*items) -> Expr:
    out = _product(items)
    return _collect(out) if type(out) is list else out


def sum_of_products(products) -> Expr:
    """``add(*[mul(*p) for p in products])``, built without the products.

    Each product's (coefficient, monomial) pairs go straight into one
    collection, so no intermediate product is assembled and taken apart
    again."""
    pairs = []
    for p in products:
        out = _product(p)
        if type(out) is list:
            pairs.extend(out)
        else:
            pairs.append(_coef_mono(out))
    return _collect(pairs)


def _product(items):
    """The product of `items`: a finished term when no sum is left to
    distribute, otherwise the uncollected list of its (coefficient,
    monomial) pairs, like monomials not yet merged.  The power-map rules run
    only when one can fire, which the first scan decides."""
    coef = CN_ONE
    pmap: dict[Expr, int] = {}  # base -> twice its exponent
    pend: list[Add] = []
    stack = list(items)
    while stack:
        e = stack.pop()
        tt = type(e)
        if tt is Num:
            coef = coef * e.val
        elif tt is Mul:
            coef = coef * e.coef
            stack.extend(e.factors)
        elif tt is Add:
            pend.append(e)
        elif tt is Pow:
            _padd(pmap, e.base, e.e2)
        elif tt is Sym or tt is Fun:
            _padd(pmap, e, 2)
        else:
            raise TypeError(f"cannot multiply {e!r}")
    if coef.is_zero():
        return ZERO

    # one scan: the exp factors, and whether a rule below can fire: a cos pair
    # (two odd powers of sums), a sum to expand or shed (e >= 1), a peeling sin
    exps, changed, odd_sums = [], False, 0
    for b, e2 in pmap.items():
        tb = type(b)
        if tb is Add:
            odd_sums += e2 & 1
            changed = changed or e2 >= 2 or odd_sums > 1
        elif tb is Fun and b.fname == "sin" and _sin_peels(e2):
            changed = True
        elif tb is Fun and b.fname == "exp":
            exps.append(b)

    # merge exp(u)^a * exp(w)^b -> exp(a*u + b*w); a lone exp(u) with u != 0 is merged already
    if exps and (len(exps) > 1 or pmap[exps[0]] != 2 or exps[0].arg == ZERO):
        exp_parts = []
        for b in exps:
            e2 = pmap.pop(b)
            exp_parts.append(b.arg if e2 == 2 else mul(Num(CNum(_exp_value(e2))), b.arg))
        s = add(*exp_parts)
        if s is not ZERO:
            _padd(pmap, Fun("exp", s), 2)

    # normalization rules on the power map
    while changed:
        changed = False
        # pair half powers of 1 -/+ cos(u) back into sin(u)
        cos_pairs: dict[Expr, dict] = {}
        if any(type(b) is Add and e2 & 1 for b, e2 in pmap.items()):
            for b, e2 in pmap.items():
                if not e2 & 1:
                    continue
                tag = _classify_cos_base(b)
                if tag is not None:
                    cos_pairs.setdefault(tag[1], {})[tag[0]] = (b, e2)
        for u, ent in cos_pairs.items():
            if _ONE_MINUS_COS in ent and _ONE_PLUS_COS in ent:
                bm, hm = ent[_ONE_MINUS_COS]
                bp, hp = ent[_ONE_PLUS_COS]
                m = min(hm, hp)
                del pmap[bm]
                del pmap[bp]
                _padd(pmap, Fun("sin", u), 2 * m)
                if hm > m:
                    _padd(pmap, bm, hm - m)
                elif hp > m:
                    _padd(pmap, bp, hp - m)
                changed = True
        if changed:
            continue
        # sin(u)^e with |e| >= 2 (or e <= -1): peel even part into 1 - cos^2
        for b, e2 in list(pmap.items()):
            if type(b) is Fun and b.fname == "sin" and _sin_peels(e2):
                r = (e2 >> 1) & 1
                k2 = (e2 >> 1) - r  # twice the exponent of each cos base
                if r:
                    pmap[b] = 2
                else:
                    del pmap[b]
                bm, bp = _cos_bases(b.arg)
                _padd(pmap, bm, k2)
                _padd(pmap, bp, k2)
                changed = True
        if changed:
            continue
        # polynomial powers of sums expand; half powers >= 3/2 shed one copy
        for b, e2 in list(pmap.items()):
            if type(b) is Add:
                if e2 >> 1 > EXPANSION_BOUND:  # the copies of b to distribute, at once or shed
                    raise ExpansionError(_TOO_MANY_TERMS)
                if not e2 & 1 and e2 > 0:
                    del pmap[b]
                    pend.extend([b] * (e2 >> 1))
                    changed = True
                elif e2 & 1 and e2 >= 3:
                    pmap[b] = e2 - 2
                    pend.append(b)
                    changed = True

    # a pending sum equal to an atom base with low exponent multiplies into it
    if pend:
        remaining = []
        for a in pend:
            e2 = pmap.get(a)
            if e2 is not None and e2 <= -1:
                if e2 == -2:
                    del pmap[a]
                else:
                    pmap[a] = e2 + 2
            else:
                remaining.append(a)
        pend = remaining

    base_expr = _assemble(coef, pmap)
    if not pend:
        return base_expr
    # distribute: every term is (coef, mono); monomial products come from the memo.
    # Like monomials merge after each sum but the last (the caller's `_collect`
    # merges that one), so k copies of a two-term sum make O(k^2) products, not 2^k.
    pairs = [_coef_mono(base_expr)]
    work = 0  # term products of two sums; the first sum only scales the rest
    for i, a in enumerate(pend):
        parts = [_coef_mono(t) for t in a.terms]
        if i:
            work += len(pairs) * len(parts)
            if work > EXPANSION_BOUND:
                raise ExpansionError(_TOO_MANY_TERMS)
        nxt = []
        for c1, m1 in pairs:
            for c2, m2 in parts:
                c12 = c1 * c2
                nxt.extend([(c12 * c, m) for c, m in _mono_product(m1, m2)])
        pairs = nxt if i == len(pend) - 1 else [(c, m) for m, c in _merge(nxt)]
    return pairs


_MONO_CACHE: dict = {}
_MONO_CACHE_CAP = 50_000


def _mono_product(m1: tuple, m2: tuple) -> tuple:
    """Terms (coef, mono) of the coefficient-free product mul(*m1, *m2)."""
    key = (m1, m2)
    hit = _MONO_CACHE.get(key)
    if hit is None:
        hit = terms_of(mul(*m1, *m2))
        if len(_MONO_CACHE) >= _MONO_CACHE_CAP:
            _MONO_CACHE.clear()
        _MONO_CACHE[key] = hit
    return hit


def _assemble(coef: CNum, pmap: dict) -> Expr:
    factors = []
    rad_num = rad_den = 1  # the radicand rad_num/rad_den of the numeric half powers
    for b, e2 in pmap.items():
        if type(b) is Num:
            if not e2 & 1:
                coef = coef * (b.val ** (e2 >> 1))
                continue
            coef = coef * (b.val ** ((e2 - 1) >> 1))
            if not b.val.is_real():
                # exact complex roots are out of scope; keep an opaque square root
                factors.append(_pow(b, 1))
                continue
            r = b.val.re
            if r < 0:
                coef = coef * CN_I
                r = -r
            rad_num *= r.numerator
            rad_den *= r.denominator
        else:
            factors.append(b if e2 == 2 else _pow(b, e2))
    if rad_num != rad_den:
        q, f = fraction_sqrt(rad_num, rad_den)
        coef = coef * CNum(q)
        if f != 1:
            factors.append(_pow(Num(CNum(f)), 1))
    if coef.is_zero():
        return ZERO
    if not factors:
        return Num(coef)
    factors.sort(key=_by_key)
    if coef.is_one() and len(factors) == 1:
        return factors[0]
    return Mul(coef, tuple(factors))


def div(a, b) -> Expr:
    return mul(as_expr(a), power(as_expr(b), -1))


# ---------------------------------------------------------------------------
# powers


def power(b, e) -> Expr:
    return _power(as_expr(b), _as_exp(e))


def _power(b: Expr, e2: int) -> Expr:
    """b^(e2/2) for an exponent already doubled by _as_exp."""
    if e2 == 0:
        return ONE  # bases are assumed nonzero on the working domain
    if e2 == 2:
        return b
    tt = type(b)
    if tt is Num:
        return _num_power(b.val, e2)
    if tt is Mul:
        return mul(_num_power(b.coef, e2), *[_power(f, e2) for f in b.factors])
    if tt is Pow:
        p = b.e2 * e2  # four times the product of the exponents
        if p & 1:
            raise ExprError(
                f"only integer and half-integer exponents are supported, got {Fraction(p, 4)}")
        return _power(b.base, p >> 1)
    if tt is Add:
        return _atom_power(b, e2) if not e2 & 1 and e2 > 0 else _add_power(b, e2)
    if tt is Fun and b.fname == "exp":
        return fun("exp", mul(Num(CNum(_exp_value(e2))), b.arg))
    if tt is Fun and b.fname == "sin" and _sin_peels(e2):
        return mul(_pow(b, e2))
    return _pow(b, e2)


def _num_power(v: CNum, e2: int) -> Expr:
    """v^(e2/2), exact; a half-integer power goes through `_assemble`'s radicand."""
    if abs(e2) > 3 and not v.power_fits(abs(e2) >> 1, DIGIT_LIMIT):
        raise ExpansionError(f"an exact power would need more than {DIGIT_LIMIT} digits")
    if not e2 & 1:
        return Num(v ** (e2 >> 1))
    if v.is_zero():
        if e2 > 0:
            return ZERO
        raise ExprError("0 raised to a negative half-integer power")
    return _assemble(CN_ONE, {Num(v): e2})


def _add_power(b: Add, e2: int) -> Expr:
    scale, prim = _primitive_sum(b)
    parts = _factor_poly(prim)
    out = [_num_power(scale, e2)]
    if parts is None:
        out.append(_atom_power(prim, e2))
    else:
        lead, factors = parts
        out.append(_num_power(lead, e2))
        for base, mult in factors:
            fe2 = mult * e2
            out.append(_atom_power(base, fe2) if isinstance(base, Add) else _power(base, fe2))
    return mul(*out)


def _atom_power(prim: Add, e2: int) -> Expr:
    # route through mul so its rules apply: a positive integer power expands,
    # a half power >= 3/2 sheds copies, and half powers of 1 -/+ cos pair
    return mul(_pow(prim, e2))


def _primitive_sum(b: Add) -> tuple[CNum, Add]:
    """Extract content and orientation sign: b == scale * primitive."""
    content = None
    for t in b.terms:
        c, _ = _coef_mono(t)
        for part in (abs(c.re), abs(c.im)):
            if part != 0:
                content = part if content is None else fraction_gcd(content, part)
    if content is None:
        raise ExprError("empty sum")
    scale = CNum(content)
    if _lead_cnum(b).negative_lead():
        scale = -scale
    if scale.is_one():
        return CN_ONE, b
    inv = Num(scale.inverse())
    prim = sum_of_products([(inv, t) for t in b.terms])
    return scale, prim


def _univariate(b: Add):
    """(x, ascending rational coefficients) when the sum b is a polynomial
    with real rational coefficients in one symbol or non-exp function atom x,
    otherwise None."""
    kernel = None
    coeffs: dict[int, Fraction] = {}
    for t in b.terms:
        c, mono = _coef_mono(t)
        if not c.is_real():
            return None
        if len(mono) == 0:
            deg = 0
        elif len(mono) == 1:
            f = mono[0]
            if type(f) is Pow:
                if not (type(f.base) in (Sym, Fun) and not f.e2 & 1 and f.e2 > 0):
                    return None
                k, deg = f.base, f.e2 >> 1
            elif type(f) in (Sym, Fun):
                k, deg = f, 1
            else:
                return None
            if type(k) is Fun and k.fname == "exp":
                return None
            if kernel is None:
                kernel = k
            elif kernel != k:
                return None
        else:
            return None
        coeffs[deg] = coeffs.get(deg, 0) + c.re
    if kernel is None:
        return None
    return kernel, [coeffs.get(d, 0) for d in range(max(coeffs) + 1)]


def _factor_poly(b: Add):
    """Factor a primitive univariate polynomial over its rational roots.

    Returns (leading rational, [(factor, multiplicity), ...]) or None when b
    is not a real univariate polynomial in a single kernel atom, has degree
    < 2, or simply has no rational roots worth splitting off.
    """
    parts = _univariate(b)
    if parts is None:
        return None
    kernel, poly = parts
    if len(poly) < 3:
        return None
    roots = rational_roots(poly)  # the root 0, as kernel^m, comes first
    if not roots:
        return None
    factors: list[tuple[Expr, int]] = []
    lead = Fraction(1)
    for r, mult in roots:
        # orient the linear factor so its constant (or leading) part is positive
        if r > 0:
            base = add(Num(CNum(r)), neg(kernel))  # (r - k)
            lead *= Fraction(-1) ** mult
        elif r < 0:
            base = add(kernel, Num(CNum(-r)))  # (k + |r|)
        else:
            base = kernel
        factors.append((base, mult))
    # remainder polynomial
    rem_deg = len(poly) - 1
    if rem_deg == 0:
        lead *= poly[0]
    else:
        rem = polynomial(poly, kernel)
        scale, prim = _primitive_sum(rem) if isinstance(rem, Add) else (CN_ONE, rem)
        if not scale.is_one():
            lead *= scale.re
        factors.append((prim, 1))
    if len(factors) == 1 and factors[0][1] == 1 and isinstance(factors[0][0], Add):
        return None
    return CNum(lead), factors


def rational_roots(poly: list) -> list[tuple[Fraction, int]]:
    """Rational roots, with multiplicity, of the ascending rational coefficients
    `poly`, deflating it in place to the cofactor that has none of them."""
    found: list[tuple[Fraction, int]] = []

    def record(r):
        if found and found[-1][0] == r:
            found[-1] = (r, found[-1][1] + 1)
        else:
            found.append((r, 1))

    while len(poly) > 1:
        den = 1
        for c in poly:
            den = den * c.denominator // gcd(den, c.denominator)
        ints = [int(c * den) for c in poly]
        a0, an = ints[0], ints[-1]
        if a0 == 0:
            poly[:] = poly[1:]
            record(Fraction(0))
            continue
        if len(poly) == 2:
            root = Fraction(-a0, an)
        else:
            qs = divisors(abs(an))
            candidates = (Fraction(s * p, q) for p in divisors(abs(a0)) for q in qs for s in (1, -1))
            root = next((r for r in candidates if _poly_eval(poly, r) == 0), None)
        if root is None:
            break
        poly[:] = _deflate(poly, root)
        record(root)
    return found


def _poly_eval(poly: list, x):
    """poly(x) for ascending int, Fraction or CNum coefficients, poly not empty."""
    out = poly[-1]
    for c in poly[-2::-1]:
        out = out * x + c
    return out


def _deflate(poly: list, r) -> list:
    # poly = (kernel - r) * out, ascending int, Fraction or CNum coefficients
    n = len(poly) - 1
    out = [Fraction(0)] * n
    out[n - 1] = poly[n]
    for d in range(n - 2, -1, -1):
        out[d] = poly[d + 1] + r * out[d + 1]
    return out


# coefficient lists: the one toolkit for ascending int, Fraction or CNum coefficients


def polynomial(coeffs, x: Expr) -> Expr:
    """The sum of c_k x^k over the ascending rational coefficients `coeffs`."""
    return sum_of_products([(Num(CNum(c)), power(x, k)) for k, c in enumerate(coeffs) if c])


def poly_mul(p: list, q: list) -> list:
    """Ascending coefficients of p * q."""
    out = [None] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for k, b in enumerate(q):
            c = a * b
            got = out[i + k]
            out[i + k] = c if got is None else got + c
    return out


def poly_pow(p: list, d: int) -> list:
    """p^d, d >= 0; its d products form len(p) * (d + deg p * d(d - 1)/2) term products."""
    if len(p) * (d + (len(p) - 1) * d * (d - 1) // 2) > EXPANSION_BOUND:
        raise ExpansionError(_TOO_MANY_TERMS)
    out = [p[-1] ** 0]  # one, of the coefficients' type
    for _ in range(d):
        out = poly_mul(out, p)
    return out


# ---------------------------------------------------------------------------
# functions


def fun(name: str, arg) -> Expr:
    arg = as_expr(arg)
    if name == "sqrt":
        return _power(arg, 1)
    if name == "cot":
        return mul(fun("cos", arg), power(fun("sin", arg), -1))
    if name not in _FUNCTIONS:
        raise ExprError(f"unknown function {name!r}")
    if name == "exp":
        if arg == ZERO:
            return ONE
        return Fun("exp", arg)
    if arg == ZERO:
        return ZERO if name == "sin" else ONE
    if _lead_cnum(arg).negative_lead():
        inner = Fun(name, neg(arg))
        return mul(MINUS_ONE, inner) if name == "sin" else inner
    return Fun(name, arg)


def sin(arg) -> Expr:
    return fun("sin", arg)


def cos(arg) -> Expr:
    return fun("cos", arg)


def exp(arg) -> Expr:
    return fun("exp", arg)


# ---------------------------------------------------------------------------
# calculus, evaluation, structure


_DIFF_CACHE: dict = {}
_DIFF_CACHE_CAP = 400_000


def diff(e: Expr, x: str) -> Expr:
    key = (e, x)
    hit = _DIFF_CACHE.get(key)
    if hit is not None:
        return hit
    out = _diff(e, x)
    if len(_DIFF_CACHE) >= _DIFF_CACHE_CAP:
        _DIFF_CACHE.clear()
    _DIFF_CACHE[key] = out
    return out


def _diff(e: Expr, x: str) -> Expr:
    tt = type(e)
    if tt is Num:
        return ZERO
    if tt is Sym:
        return ONE if e.name == x else ZERO
    if tt is Fun:
        da = diff(e.arg, x)
        if da is ZERO:
            return ZERO
        if e.fname == "sin":
            d = fun("cos", e.arg)
        elif e.fname == "cos":
            d = neg(fun("sin", e.arg))
        else:
            d = e
        return mul(d, da)
    if tt is Pow:
        db = diff(e.base, x)
        if db is ZERO:
            return ZERO
        return mul(Num(CNum(e.exp)), _power(e.base, e.e2 - 2), db)
    if tt is Mul:
        products = []
        fs = e.factors
        for i, f in enumerate(fs):
            df = diff(f, x)
            if df is ZERO:
                continue
            products.append((Num(e.coef), df, *fs[:i], *fs[i + 1:]))
        return sum_of_products(products)
    return add(*[diff(t, x) for t in e.terms])


def free_symbols(e: Expr) -> set:
    out: set[str] = set()
    stack = [e]
    while stack:
        n = stack.pop()
        tt = type(n)
        if tt is Sym:
            out.add(n.name)
        elif tt is Fun:
            stack.append(n.arg)
        elif tt is Pow:
            stack.append(n.base)
        elif tt is Mul:
            stack.extend(n.factors)
        elif tt is Add:
            stack.extend(n.terms)
    return out


def subs(e: Expr, mapping: dict) -> Expr:
    """Substitute symbols by expressions (values coerced via as_expr)."""
    m = {k: as_expr(v) for k, v in mapping.items()}
    return _rebuild(e, lambda n: m.get(n.name, n) if type(n) is Sym else n)


class _RadicandChanged(Exception):
    """The base of a half-integer power changed under `conj`."""


def conj(e: Expr, flip=()) -> Expr | None:
    """The complex conjugate of e, every symbol taken real and those named in
    `flip` negated; None when the base of a half-integer power changes, since
    that root is then not known to be real."""
    def leaf(n):
        if type(n) is Sym:
            return neg(n) if n.name in flip else n
        return Num(CNum(n.val.re, -n.val.im)) if n.val.im else n

    try:
        return _rebuild(e, leaf, fixed_radicands=True)
    except _RadicandChanged:
        return None


def _rebuild(e: Expr, leaf, fixed_radicands: bool = False) -> Expr:
    """e rebuilt by the kernel's constructors, each Num and Sym node n (and
    product coefficient, as a Num) replaced by leaf(n); a node whose parts come
    back unchanged is kept, as every node is a fixed point of its constructor.
    With `fixed_radicands` a half power whose base changes raises `_RadicandChanged`."""
    def go(n):
        tt = type(n)
        if tt is Num or tt is Sym:
            return leaf(n)
        if tt is Fun:
            a = go(n.arg)
            return n if a is n.arg else fun(n.fname, a)
        if tt is Pow:
            b = go(n.base)
            if fixed_radicands and n.e2 & 1 and b != n.base:
                raise _RadicandChanged
            return n if b is n.base else _power(b, n.e2)
        if tt is Mul:
            c, fs = leaf(Num(n.coef)), [go(f) for f in n.factors]
            return n if c.val == n.coef and all(map(operator.is_, fs, n.factors)) else mul(c, *fs)
        ts = [go(t) for t in n.terms]
        return n if all(map(operator.is_, ts, n.terms)) else add(*ts)

    return go(e)


# ---------------------------------------------------------------------------
# simplification

_FIXED_POINT_ROUNDS = 64


def simplify(e: Expr) -> Expr:
    """Canonical form with the common-exponent pass applied to every sum.

    The result is kept on the node (``_simple``; ``_FIXED`` when it is the
    node itself), so each node is simplified once."""
    memo = e._simple
    if memo is _FIXED:
        return e
    if memo is None:
        memo = _simplify_node(e)
        e._simple = _FIXED if memo is e else memo
    return memo


def _simplify_node(e: Expr) -> Expr:
    """Simplify a Fun, Pow, Mul or Add whose memo is not set.

    A node whose children all come back as the same objects is returned as
    it is: kernel nodes are fixed points of their constructors (see the
    module docstring), so only sums can still change, through the pass."""
    tt = type(e)
    if tt is Fun:
        a = simplify(e.arg)
        return e if a is e.arg else fun(e.fname, a)
    if tt is Pow:
        b = simplify(e.base)
        return e if b is e.base else _power(b, e.e2)
    if tt is Mul:
        fs = [simplify(f) for f in e.factors]
        if all(map(operator.is_, fs, e.factors)):
            return e
        return mul(Num(e.coef), *fs)
    ts = [simplify(t) for t in e.terms]
    s = e if all(map(operator.is_, ts, e.terms)) else add(*ts)
    return _common_exponent_pass(s) if type(s) is Add else s


def _term_atom_exp(mono: tuple, base: Expr) -> tuple[int | None, tuple]:
    """Twice the exponent of `base` in the monomial, and the remaining factors."""
    rest = []
    found = None
    for f in mono:
        if type(f) is Pow and f.base == base:
            found = f.e2
        else:
            rest.append(f)
    return found, tuple(rest)


def _common_exponent_pass(s: Add) -> Expr:
    """Lower same-base power atoms across a sum to one exponent per parity,
    and cancel linear bases out of the integer class.

    Powers of the same polynomial base that differ by an integer are brought
    to the minimum exponent present (multiplying the complementary expanded
    polynomial back in), which lets collection cancel algebraic combinations
    such as sqrt-type derivatives and inverse-square potentials.  A linear
    base, such as 1 -/+ cos(u), is then divided out of the integer class for
    as long as it divides every numerator exactly.

    The sum is decomposed once into a {monomial: coefficient} map.  Each round
    lowers the first (base, parity) class in ``_key`` order that fires, on
    that map, exactly as one rebuild of the sum per class would; the rounds
    run until no class fires and the sum is rebuilt once at the end.  The
    rebuilt sum decomposes back to the same items, so no class fires on it:
    one pass is all of simplify's work on a sum.
    """
    items = {mono: c for c, mono in map(_coef_mono, s.terms)}
    lowered = False
    for _ in range(_FIXED_POINT_ROUNDS):
        out = _lower_first_class(items) if len(items) > 1 else None
        if out is None:
            return _sum_of_items(list(items.items())) if lowered else s
        items = out
        lowered = True
    raise ExprError("simplify did not reach a fixed point")


def _lower_first_class(items: dict):
    """The items with the first class that fires lowered, or None.

    The integer class of a base takes in the terms that do not hold it (at
    exponent 0); it fires when its terms hold more than one exponent, or
    when a linear base divides it out.  The half-integer class fires when
    its terms hold more than one exponent."""
    spots: dict[Expr, dict[int, set]] = {}  # base -> parity -> doubled exponents
    holders: dict[Expr, int] = {}  # base -> number of terms holding it
    for mono in items:
        for f in mono:
            if type(f) is Pow and type(f.base) is Add:
                base = f.base
                spots.setdefault(base, {}).setdefault(f.e2 & 1, set()).add(f.e2)
                holders[base] = holders.get(base, 0) + 1
    for base in sorted(spots, key=_by_key):
        classes = spots[base]
        poly = _atom_poly(base)
        for odd in (0, 1):
            exps = classes.get(odd)
            if not exps:
                continue
            if not odd and holders[base] < len(items):
                exps = exps | {0}
            target = min(exps)
            if poly is None:
                if len(exps) > 1:
                    return _lower_class(items, base, odd, target)
                continue
            cancel = not odd and len(poly[1]) == 2
            if len(exps) > 1 or cancel:
                out = _lower_poly_class(items, base, *poly, odd, target, cancel)
                if out is not None:
                    return out
    return None


def _atom_poly(base: Add):
    """(x, ascending coefficients) when the sum is a polynomial in one symbol
    or cosine x, otherwise None: the bases the pass lowers on coefficient
    lists instead of through ``mul``."""
    parts = _univariate(base)
    if parts is None:
        return None
    x, coeffs = parts
    if type(x) is Fun and x.fname != "cos":
        return None
    return x, [CNum(c) for c in coeffs]


def _lower_poly_class(items: dict, base: Add, x: Expr, bpoly: list, odd: int, target: int,
                      cancel: bool):
    """Lower one class of a base that is the polynomial `bpoly` in x.

    Each term of the class, c * rest * x^j * base^(e/2), joins the group of
    its other factors `rest` (and the parity of x's doubled exponent) as
    c * x^j * base(x)^((e - target)/2) on a coefficient list.  With `cancel`
    (a linear base, integer class) every group is divided by the base while
    all of them vanish at its root, raising `target` by one towards 0.  The
    groups are rebuilt as monomials; no rule of ``mul`` fires on them, since
    only powers of x and of the base change.  None when nothing changes."""
    out: dict[tuple, CNum] = {}
    groups: dict[tuple, dict[int, CNum]] = {}
    powers = {0: [CN_ONE]}  # d -> ascending coefficients of base(x)^d
    lifted = False
    for mono, c in items.items():
        cur, xe2, rest = None, 0, []
        for f in mono:
            fb, fe = (f.base, f.e2) if type(f) is Pow else (f, 2)
            if fb == base:
                cur = fe
            elif fb == x:
                xe2 = fe
            else:
                rest.append(f)
        if cur is None and not odd:
            cur = 0
        if cur is None or cur & 1 != odd:
            out[mono] = c
            continue
        d = (cur - target) >> 1
        bp = powers.get(d)
        if bp is None:
            bp = powers[d] = poly_pow(bpoly, d)
        lifted = lifted or d > 0
        poly = groups.setdefault((tuple(rest), xe2 & 1), {})
        j0 = xe2 >> 1
        for k, bc in enumerate(bp):
            if not bc.is_zero():
                got = poly.get(j0 + k)
                poly[j0 + k] = c * bc if got is None else got + c * bc
    root = -(bpoly[0] / bpoly[1]) if cancel else None
    lists = {}  # key -> (lowest degree, dense ascending coefficients)
    for key, poly in groups.items():
        js = [j for j, c in poly.items() if not c.is_zero()]
        if js:
            lo = min(js)
            lists[key] = (lo, [poly.get(j, _CN_ZERO) for j in range(lo, max(js) + 1)])
            # with one exponent only a division can change the class, and
            # each group must vanish at the root for it
            if not lifted and not (cancel and target < 0 and _poly_eval(lists[key][1], root).is_zero()):
                return None
    divided = False
    if cancel:
        scale = bpoly[1].inverse()
        while target < 0 and all(_poly_eval(p, root).is_zero() for _lo, p in lists.values()):
            lists = {key: (lo, [c * scale for c in _deflate(p, root)]) for key, (lo, p) in lists.items()}
            target += 2
            divided = True
    if not (lifted or divided):
        return None
    atom = _pow(base, target) if target else None
    for (rest, par), (lo, p) in lists.items():
        for j, c in enumerate(p, lo):
            if c.is_zero():
                continue
            e2 = 2 * j + par
            fs = list(rest)
            if e2:
                fs.append(x if e2 == 2 else _pow(x, e2))
            if atom is not None:
                fs.append(atom)
            fs.sort(key=_by_key)
            mono = tuple(fs)
            got = out.get(mono)
            out[mono] = c if got is None else got + c
    return {mono: c for mono, c in out.items() if not c.is_zero()}


_CN_ZERO = CNum(0)


def _lower_class(items: dict, base: Add, odd: int, target: int) -> dict:
    """The items with every term of the class brought to base^(target/2),
    for a base that is not a polynomial in one symbol or cosine."""
    atom = _pow(base, target)
    pairs = []
    for mono, c in items.items():
        cur, rest = _term_atom_exp(mono, base)
        if cur is None and not odd:
            cur, rest = 0, mono
        if cur is None or cur & 1 != odd or cur == target:
            pairs.append((c, mono))
            continue
        # term by term: mul would fold a whole base^k straight back into the atom
        for cp, pm in terms_of(_power(base, cur - target)):
            ccp = c * cp
            pairs.extend([(ccp * c3, m3) for c3, m3 in terms_of(mul(*rest, atom, *pm))])
    return dict(_merge(pairs))


# ---------------------------------------------------------------------------
# printing


def _num_str(v: CNum) -> str:
    if not v.im:
        return str(v.re)
    im = f"{v.im}*i" if v.im not in (1, -1) else ("i" if v.im == 1 else "-i")
    if v.re == 0:
        return im
    return f"({v.re}{im})" if im.startswith("-") else f"({v.re}+{im})"


def _pow_str(p: Pow) -> str:
    b = p.base
    tb = type(b)
    if tb is Sym:
        bs = b.name
    elif tb is Fun:
        bs = _fun_str(b)
    elif tb is Num and b.val.is_real() and b.val.re.denominator == 1 and b.val.re >= 0:
        bs = _num_str(b.val)
    else:
        bs = f"({unparse(b)})"
    e = p.exp
    if e.denominator == 1 and e > 0:
        return f"{bs}^{int(e)}"
    return f"{bs}^({e})"


def _fun_str(f: Fun) -> str:
    return f"{f.fname}({unparse(f.arg)})"


def _factor_str(f: Expr) -> str:
    tf = type(f)
    if tf is Sym:
        return f.name
    if tf is Fun:
        return _fun_str(f)
    if tf is Pow:
        return _pow_str(f)
    raise ExprError(f"unexpected factor {f!r}")  # pragma: no cover


def _term_parts(t: Expr) -> tuple[str, str]:
    """(sign, body) with the sign pulled out of the coefficient."""
    c, mono = _coef_mono(t)
    sign = ""
    if c.negative_lead():
        sign = "-"
        c = -c
    if not mono:
        return sign, _num_str(c)
    body = "*".join(_factor_str(f) for f in mono)
    if not c.is_one():
        body = f"{_num_str(c)}*{body}"
    return sign, body


def unparse(e: Expr) -> str:
    """Canonical string form; reparses to a structurally equal expression."""
    tt = type(e)
    if tt is Add:
        sign, body = _term_parts(e.terms[0])
        out = [f"{sign}{body}"]
        for t in e.terms[1:]:
            sign, body = _term_parts(t)
            out.append(f" - {body}" if sign else f" + {body}")
        return "".join(out)
    sign, body = _term_parts(e)
    return f"{sign}{body}"
