"""Polynomial PDE systems on jet spaces: parsing, prolongation, symbol
ranks at generic points, Cartan characters, involutivity and formal
integrability, and Cartan distribution dimensions.

Sample points are deterministic seeded rationals, placed on the equation
locus by the solve stages and rejected where an exclusion vanishes.  The
points are exact, and so is every decision about them, in integers only:
each polynomial a check reads is compiled once per call and evaluated as
an integer multiple of its rational value, at the point put over one
common denominator once per stage or check (_scaled), and each stage is
solved by fraction-free elimination (`abelian.bareiss`) on primitive
rows, each divided by the gcd of its entries, which gives the same
rationals as elimination over Q.  Only what the stages cannot settle is
checked: a staged equation vanishes by construction, so the locus check
evaluates the equations no stage solves, and only a solved pivot can have
a denominator divisible by p.

Generic ranks come from one kernel.  Each sample point is reduced modulo
the prime p = 2^61 - 1.  One compiled form of a polynomial (_ScaledPoly)
serves the exact checks and, compiled on into its partial derivatives
(_compile_partials) and read mod p, the gradients.  One pass
(_generic_gradients) compiles each equation once, and that compile feeds
both the sampling and the partials; per point it gives the gradient of
every equation, and every Jacobian is read from those gradients, or built
from them row by row.  Its columns are put in one order in which every
column set a report needs is a prefix, and one elimination mod p per point
(rank_at_point, which updates a row only where the pivot row is nonzero)
gives the rank of each prefix.

What this certifies: the rank mod p of a Jacobian at a point never exceeds
its rank over Q there, which never exceeds the generic rank, so a nonzero
r x r minor mod p proves generic rank >= r (and every dimension computed as
ambient minus rank is an upper bound).  What is only probabilistic: that
the maximum over the sample points equals the generic rank.  A minor of
degree d that is not identically zero vanishes at a random point with
probability at most d / |S| for sample values drawn from S (Schwartz 1980;
Zippel 1979), and reduction mod p loses it only when p divides its value.
No floating point is involved.

The bounds on what a parsed product or power may form, and ParseError,
belong to `diffpoly`, whose arithmetic the parser uses; it adds MAX_NESTING
and MAX_JET_COORDINATES, the bound on a loaded system's declared order.
"""

from __future__ import annotations

import random
import re
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb, gcd, lcm, prod
from operator import itemgetter, mul

from .abelian import bareiss
from .data import load_document
from .diffpoly import DiffPoly, ParseError, _bound_bits, jet, par, poly_div_exact, xvar

DEFAULT_SEED = 12345
SAMPLE_COUNT = 5
MAX_SAMPLE_ATTEMPTS = 200
MODULUS = 2**61 - 1  # a Mersenne prime; generic ranks are taken mod MODULUS
MAX_NESTING = 100  # parentheses and prefix minus signs; well under the recursion limit
MAX_JET_COORDINATES = 10_000  # at order + 1, the widest Jacobian a report builds (MHD: 564)


class NoGenericPoint(RuntimeError):
    """Sampling gave up after ``attempts`` draws; ``rejections`` counts the
    refused draws by reason (the keys of REJECTION_REASONS)."""

    def __init__(self, attempts: int, rejections: dict):
        self.attempts = attempts
        self.rejections = dict(rejections)
        detail = ", ".join(f"{reason}: {n}" for reason, n in self.rejections.items())
        super().__init__(f"no generic point after {attempts} attempts (rejected by {detail})")


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

# every position is the start of a match: the \Z alternative takes
# whitespace to the end of the text and the last one any character that
# starts no token, so one findall pass covers the text, and each match
# is its one group: a token, "" at the end, or the character it stops at
_TOKEN = re.compile(
    r"\s*(\d+|[A-Za-z][A-Za-z0-9]*(?:_[A-Za-z0-9]+)?|\*\*|[-+*/^()]|\Z|[\s\S])"
)
_OPERATORS = {op: ("op", op) for op in "+-*/^()"} | {"**": ("op", "^")}


def _tokenize(text: str):
    """(kind, value) pairs from one findall pass; text that starts no token
    raises ParseError quoting it from where the last token ended.  A match
    is a name when it starts with a letter and a number when it starts with
    a digit, as in _TOKEN, and each is replaced by its token in place."""
    tokens = _TOKEN.findall(text)
    for i, match in enumerate(tokens):
        op = _OPERATORS.get(match)
        if op is not None:
            tokens[i] = op
        elif match[:1].isascii() and match[:1].isalpha():
            tokens[i] = ("name", match)
        elif match[:1].isdecimal():
            tokens[i] = ("num", int(match))
        elif match:
            pos = next(m.start() for m in _TOKEN.finditer(text) if m[1] == match)
            raise ParseError(f"cannot tokenize {text[pos:pos+20]!r}")
        else:
            del tokens[i:]
            break
    return tokens


_TIMES = ("op", "*")
_CARET = ("op", "^")
_ATOMS = ("num", "name")


def _times(a, b):
    """Product of two DiffPoly where None stands for the constant one."""
    return a if b is None else b if a is None else a * b


class _RationalExpr:
    """(numerator, denominator) pairs of DiffPoly during parsing; a
    denominator of None is the constant one and is never multiplied in."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        self.num = num
        self.den = den

    @classmethod
    def sum_of(cls, exprs):
        """Sum of the terms of an expression.  The polynomial ones are added
        in one pass, so a long equation parses in linear time."""
        total = cls(DiffPoly.sum_of(e.num for e in exprs if e.den is None))
        for e in exprs:
            if e.den is not None:
                total = total + e
        return total

    def __add__(self, o):
        return _RationalExpr(_times(self.num, o.den) + _times(o.num, self.den),
                             _times(self.den, o.den))

    def __mul__(self, o):
        return _RationalExpr(_times(self.num, o.num), _times(self.den, o.den))

    def __truediv__(self, o):
        if o.num.is_zero():
            raise ParseError("division by zero expression")
        return _RationalExpr(_times(self.num, o.den), _times(self.den, o.num))

    def __neg__(self):
        return _RationalExpr(-self.num, self.den)

    def __pow__(self, k: int):
        return _RationalExpr(self.num ** k, None if self.den is None else self.den ** k)


class EquationParser:
    def __init__(self, independent, dependent, parameters=None, allow_free_symbols=False):
        self.independent = list(independent)
        self.dependent = list(dependent)
        self.parameters = {k: Fraction(v) for k, v in (parameters or {}).items()}
        self.allow_free = allow_free_symbols
        self._names = {}  # name -> what lookup() resolved it to
        for name in self.independent:
            if len(name) != 1:
                raise ParseError(
                    f"independent variable {name!r} must be a single letter "
                    "(jet suffixes are letter sequences)"
                )

    def lookup(self, name: str):
        """The variable tag that ``name`` stands for, or the Fraction value
        of a parameter.  Each name is resolved once per parser."""
        found = self._names.get(name)
        if found is not None:
            return found
        if "_" in name:
            base, suffix = name.split("_", 1)
            if base not in self.dependent:
                raise ParseError(f"unknown dependent variable {base!r} in {name!r}")
            j = self.dependent.index(base)
            mu = []
            for ch in suffix:
                if ch not in self.independent:
                    raise ParseError(f"unknown direction {ch!r} in {name!r}")
                mu.append(self.independent.index(ch))
            found = jet(j, mu)
        elif name in self.independent:
            found = xvar(self.independent.index(name))
        elif name in self.dependent:
            found = jet(self.dependent.index(name), ())
        elif name in self.parameters:
            found = self.parameters[name]
        elif self.allow_free:
            found = par(name)
        else:
            raise ParseError(f"unknown symbol {name!r}")
        self._names[name] = found
        return found

    # precedence-climbing parser over the token list
    def parse(self, text: str) -> _RationalExpr:
        self._tokens = _tokenize(text)
        self._pos = 0
        self._depth = 0
        expr = self._expr()
        if self._pos != len(self._tokens):
            raise ParseError(f"trailing input in {text!r}")
        return expr

    def _peek(self):
        return self._tokens[self._pos] if self._pos < len(self._tokens) else (None, None)

    def _next(self):
        tok = self._peek()
        self._pos += 1
        return tok

    def _nested(self, rule):
        """rule() one level deeper: inside a parenthesis or a prefix minus."""
        if self._depth == MAX_NESTING:
            raise ParseError(f"expression nested deeper than MAX_NESTING = {MAX_NESTING} levels")
        self._depth += 1
        node = rule()
        self._depth -= 1
        return node

    def _expr(self):
        kind, val = self._peek()
        negative = (kind, val) == ("op", "-")
        if negative or (kind, val) == ("op", "+"):
            self._next()
        terms = [self._term(negative)]
        while self._peek() == ("op", "+") or self._peek() == ("op", "-"):
            _, op = self._next()
            terms.append(self._term(op == "-"))
        return _RationalExpr.sum_of(terms)

    def _term(self, negative=False):
        """A product, negated if ``negative``.  A leading run of *-joined
        literal atoms (a number or a name, each perhaps raised to a literal
        power) is read straight into one coefficient and one exponent dict,
        and becomes a DiffPoly once; from the first factor that is not such
        an atom on, the product goes on as a _RationalExpr."""
        tokens, end = self._tokens, len(self._tokens)
        start = done = pos = self._pos  # done: just past the last atom read
        coeff, powers = -1 if negative else 1, {}
        while pos < end:
            kind, val = tokens[pos]
            if kind not in _ATOMS:
                break
            k, after = 1, pos + 1
            if after < end and tokens[after] == _CARET:
                if after + 1 == end or tokens[after + 1][0] != "num":
                    break
                k, after = tokens[after + 1][1], after + 2
            value = val if kind == "num" else self.lookup(val)
            if type(value) is tuple:
                if k:
                    powers[value] = powers.get(value, 0) + k
            elif k == 1:
                coeff *= value
            else:
                _bound_bits((value,), k)
                coeff *= value ** k
            done = after
            if done == end or tokens[done] != _TIMES:
                break
            pos = done + 1
        self._pos = done
        if done == start:
            node = self._factor()
        else:
            node = _RationalExpr(DiffPoly._from_clean(
                {tuple(sorted(powers.items())): Fraction(coeff)} if coeff else {}))
        while self._peek() in (("op", "*"), ("op", "/")):
            _, op = self._next()
            rhs = self._factor()
            node = node * rhs if op == "*" else node / rhs
        return -node if negative and done == start else node

    def _factor(self):
        kind, val = self._peek()
        if (kind, val) == ("op", "-"):
            self._next()
            return -self._nested(self._factor)
        node = self._atom()
        if self._peek() == ("op", "^"):
            self._next()
            kind, val = self._next()
            if kind != "num":
                raise ParseError("exponent must be a nonnegative integer literal")
            node = node ** val
        return node

    def _atom(self):
        kind, val = self._next()
        if kind == "num":
            return _RationalExpr(DiffPoly.constant(val))
        if kind == "name":
            found = self.lookup(val)
            return _RationalExpr(DiffPoly.variable(found) if type(found) is tuple
                                 else DiffPoly.constant(found))
        if (kind, val) == ("op", "("):
            node = self._nested(self._expr)
            if self._next() != ("op", ")"):
                raise ParseError("missing closing parenthesis")
            return node
        if kind is None:
            raise ParseError("missing operand at end of input")
        raise ParseError(f"missing operand before {val!r}")

    def parse_polynomial(self, text: str, exclusions=()) -> DiffPoly:
        """Parse and clear denominators against the declared exclusions: the
        denominator is divided by each exclusion for as long as it divides,
        and what remains must be a constant."""
        expr = self.parse(text)
        den = expr.den
        if den is None:
            return expr.num
        for excl in exclusions:
            if excl.is_constant():
                continue
            while not den.is_constant():
                q = poly_div_exact(den, excl)
                if q is None:
                    break
                den = q
        if not den.is_constant():
            raise ParseError(
                f"denominator of {text!r} is not a product of declared exclusions"
            )
        return expr.num * Fraction(1, den.constant_value())


# ---------------------------------------------------------------------------
# systems
# ---------------------------------------------------------------------------


@dataclass
class PdeSystem:
    independent: list
    dependent: list
    order: int
    equations: list  # DiffPoly
    exclusions: list = field(default_factory=list)  # DiffPoly, nonzero at samples
    name: str = ""
    solve_stages: list = field(default_factory=list)  # [[(eq_idx, var)], ...]

    def __post_init__(self):
        for eq in self.equations:
            if eq.order() > self.order:
                raise ValueError(
                    f"equation of order {eq.order()} exceeds declared order {self.order}"
                )

    @property
    def n(self):
        return len(self.independent)

    @property
    def m(self):
        return len(self.dependent)

    def jet_space_dim(self, order=None) -> int:
        k = self.order if order is None else order
        return self.n + self.m * comb(self.n + k, k)

    def top_variables(self, order=None):
        k = self.order if order is None else order
        out = []
        for j in range(self.m):
            for mu in combinations_with_replacement(range(self.n), k):
                out.append(jet(j, mu))
        return out

    def render_equations(self):
        return [e.render(self.independent, self.dependent) for e in self.equations]


def _list_field(doc, key, entry_ok, entry_kind) -> list:
    """The list field ``key`` of a system document, empty when absent; a
    value that is not a list, or an entry that fails ``entry_ok``, raises
    ParseError naming the field."""
    value = doc.get(key, [])
    if not isinstance(value, (list, tuple)):
        raise ParseError(f"the {key!r} field must be a list, not {type(value).__name__}")
    for i, item in enumerate(value):
        if not entry_ok(item):
            raise ParseError(f"entry {i} of the {key!r} field must be {entry_kind}, not {item!r:.40}")
    return list(value)


def load_system(source) -> PdeSystem:
    """Load a PDE system from a YAML document (path, text, or dict).  A
    missing or malformed field raises ParseError naming the field, as does
    an order whose jet space at order + 1 passes MAX_JET_COORDINATES."""
    doc = load_document(source)
    for key in ("independent", "dependent", "order", "equations"):
        if key not in doc:
            raise ParseError(f"system document is missing the {key!r} field")
    independent, dependent, equations, exclusions = (
        _list_field(doc, key, lambda t: isinstance(t, str), "a string")
        for key in ("independent", "dependent", "equations", "exclusions"))
    order = doc["order"]
    if type(order) is not int or order < 0:
        raise ParseError(f"the 'order' field must be a nonnegative integer, not {order!r:.40}")
    params = doc.get("parameters", {})
    if not isinstance(params, dict):
        raise ParseError("the 'parameters' field must be a mapping from names to numbers")
    for name, value in params.items():
        try:
            Fraction(value)
        except (TypeError, ValueError):
            raise ParseError(f"the 'parameters' field gives {name!r} the value {value!r:.40},"
                             " not a number") from None
    stages = _list_field(doc, "solve_stages", lambda st: isinstance(st, (list, tuple)), "a list")
    for si, stage in enumerate(stages):
        for pair in stage:
            if not (isinstance(pair, (list, tuple)) and len(pair) == 2
                    and type(pair[0]) is int and isinstance(pair[1], str)):
                raise ParseError(f"solve stage {si} of the 'solve_stages' field: {pair!r:.40}"
                                 " is not an [equation index, pivot] pair")
    first_field = {}  # each name -> the field that declares it
    for key, names in (("independent", independent), ("dependent", dependent),
                       ("parameters", params)):
        for name in names:
            if name in first_field:
                where = first_field[name]
                raise ParseError(f"the {key!r} field names {name!r} twice" if where == key else
                                 f"the {key!r} field names {name!r}, already in {where!r}")
            first_field[name] = key
    parser = EquationParser(independent, dependent, params)
    exclusions = [parser.parse_polynomial(t) for t in exclusions]
    system = PdeSystem(
        independent=independent,
        dependent=dependent,
        order=order,
        equations=[parser.parse_polynomial(t, exclusions) for t in equations],
        exclusions=exclusions,
        name=doc.get("name", ""),
        solve_stages=[[tuple(pair) for pair in stage] for stage in stages],
    )
    if system.jet_space_dim(order + 1) > MAX_JET_COORDINATES:
        raise ParseError(f"the 'order' field is too large: the jet space of order {order} + 1"
                         f" has over MAX_JET_COORDINATES = {MAX_JET_COORDINATES} coordinates")
    return system


def prolong_system(s: PdeSystem, r: int) -> PdeSystem:
    """All formal derivatives D_nu of every equation for |nu| <= r."""
    if r < 0:
        raise ValueError("prolongation order must be >= 0")
    if r == 0:
        return s
    seen = {eq: eq for eq in s.equations}
    level = list(s.equations)
    for _ in range(r):
        nxt = []
        for eq in level:
            for i in range(s.n):
                d = eq.total_derivative(i)
                # one hash of d: setdefault returns d only if it is new
                if not d.is_zero() and seen.setdefault(d, d) is d:
                    nxt.append(d)
        level = nxt
    return PdeSystem(
        independent=s.independent,
        dependent=s.dependent,
        order=s.order + r,
        equations=list(seen),
        exclusions=s.exclusions,
        name=f"{s.name}+{r}" if s.name else "",
        solve_stages=[],
    )


# ---------------------------------------------------------------------------
# generic points
# ---------------------------------------------------------------------------


REJECTION_REASONS = ("singular stage", "denominator 0 mod p", "exclusion", "off locus")


def _random_fraction(rng) -> Fraction:
    return Fraction(rng.randint(-97, 97), rng.randint(1, 97))


class _ScaledPoly:
    """A polynomial compiled once for exact evaluation in integers and for
    its gradient mod p.

    The coefficients are scaled by a positive factor to coprime integers,
    which changes no zero test, stage solution or rank, and keeps a
    coefficient such as p or 1/p from emptying a polynomial mod p.  A term
    adds to a slot: its pivot column when ``columns`` maps the term's pivot
    variable to one, and the constant slot len(columns) otherwise.  The
    terms are kept in groups by slot and by the degree d of what remains of
    the monomial; the monomials without a pivot are the polynomial's own."""

    __slots__ = ("reads", "degree", "groups")

    def __init__(self, poly: DiffPoly, columns=None):
        columns = columns or {}
        width = len(columns)
        scale = lcm(*(c.denominator for c in poly.terms.values()))
        content = gcd(*(c.numerator for c in poly.terms.values())) or 1
        groups = {}
        for mono, c in poly.terms.items():
            slot = next((columns[v] for v, _ in mono if v in columns), width) if columns else 0
            if slot < width:
                mono = tuple((v, e) for v, e in mono if v not in columns)
            coeffs, monos = groups.setdefault((slot, sum(map(itemgetter(1), mono))), ([], []))
            coeffs.append(c.numerator // content * (scale // c.denominator))
            monos.append(mono)
        self.groups = [(slot, d, tuple(coeffs), tuple(monos))
                       for (slot, d), (coeffs, monos) in groups.items()]
        self.reads = tuple({v for *_, monos in self.groups for mono in monos for v, _ in mono})
        self.degree = max((d for _, d, _, _ in self.groups), default=0)

    def values(self, num, den, width=1) -> list:
        """The slots at the rational point whose value at each variable v
        read is num[v] / den, with one common denominator den > 0 (see
        _scaled): each slot is its rational value times den^M, where M is
        the largest d, an integer that is zero exactly when that value is.
        A larger common denominator scales every slot by the same positive
        factor."""
        out = [0] * width
        for slot, d, coeffs, monos in self.groups:
            total = 0
            for c, mono in zip(coeffs, monos):
                for v, e in mono:
                    c *= num[v] if e == 1 else num[v] ** e
                total += c
            out[slot] += total * den ** (self.degree - d)
        return out

    def vanishes_at(self, point) -> bool:
        return self.values(*_scaled(point, self.reads))[0] == 0


def _scaled(point, variables):
    """A rational point's values at the variables over one denominator, as
    (num, den): den is the lcm of their denominators, and num maps each
    variable to its numerator over den."""
    values = [point[v] for v in variables]
    den = lcm(*(q.denominator for q in values))
    return {v: q.numerator * (den // q.denominator) for v, q in zip(variables, values)}, den


def _compile_stages(s: PdeSystem):
    """The solve stages as (pivot variables, compiled rows, the variables
    the rows read), one row per equation with a column per pivot.  A row
    reads no pivot of its own stage.  A stage that could never be solved
    raises ValueError naming the stage and the pivot token: a repeated
    pivot, an equation solved twice (which leaves its stage with fewer
    equations than pivots), an equation that is not linear in its stage's
    pivots, or one that reads the pivot of a later stage."""
    parser = EquationParser(s.independent, s.dependent)
    first = {}  # pivot variable -> (stage index, token)
    for si, stage in enumerate(s.solve_stages):
        for _, tok in stage:
            try:
                v = parser.lookup(tok)
            except ParseError as exc:
                raise ValueError(f"solve stage {si}: pivot {tok!r}: {exc}") from None
            if v in first:
                raise ValueError(f"solve stage {si}: pivot {tok!r} is repeated"
                                 f" (first in stage {first[v][0]})")
            first[v] = (si, tok)
    solved = {}  # equation index -> (stage index, token)
    stages = []
    for si, stage in enumerate(s.solve_stages):
        pivots = [parser.lookup(tok) for _, tok in stage]
        columns = {v: i for i, v in enumerate(pivots)}
        rows = []
        for eq_idx, tok in stage:
            if not 0 <= eq_idx < len(s.equations):
                raise ValueError(f"solve stage {si}: pivot {tok!r} names equation {eq_idx},"
                                 f" but the system has {len(s.equations)}")
            if eq_idx in solved:
                raise ValueError(
                    f"solve stage {si}: pivot {tok!r} solves equation {eq_idx} again"
                    f" (already solved for {solved[eq_idx][1]!r} in stage"
                    f" {solved[eq_idx][0]}), so stage {si} has fewer equations than pivots")
            solved[eq_idx] = (si, tok)
            eq = s.equations[eq_idx]
            for mono in eq.terms:
                in_stage = [(v, e) for v, e in mono if v in columns]
                if len(in_stage) > 1 or (in_stage and in_stage[0][1] > 1):
                    names = ", ".join(repr(first[v][1]) for v, _ in in_stage)
                    raise ValueError(f"solve stage {si}: equation {eq_idx} is not linear"
                                     f" in the pivots: a term has {names}")
                for v, _ in mono:
                    if v in first and first[v][0] > si:
                        raise ValueError(f"solve stage {si}: equation {eq_idx} reads"
                                         f" {first[v][1]!r}, a pivot of the later stage"
                                         f" {first[v][0]}")
            rows.append(_ScaledPoly(eq, columns))
        stages.append((pivots, rows, tuple(set().union(*(row.reads for row in rows)))))
    return stages


def sample_points(s: PdeSystem, count=SAMPLE_COUNT, seed=DEFAULT_SEED, extra_vars=(),
                  compiled=None):
    """Deterministic generic rational points of the system.

    Every variable that the equations or the exclusions read, and every one
    of ``extra_vars``, gets a seeded random rational, except the pivot
    variables of the solve stages: each stage is solved exactly for its
    pivots, in order, so the points lie on the locus of the staged
    equations.  A draw is rejected when a stage is singular at it,
    when a denominator is divisible by MODULUS (the point has no reduction
    mod p), when an exclusion vanishes there, or, for a staged system, when
    an equation does not.  After MAX_SAMPLE_ATTEMPTS draws NoGenericPoint
    reports how many draws each reason rejected.

    Only the equations that no stage solves are evaluated for that last
    check.  _compile_stages refuses a repeated pivot, an equation solved
    twice, a term that is not linear in its stage's pivots and a read of a
    later stage's pivot; so each staged equation is zero once its stage is
    solved, and no later stage sets a variable it reads.  Likewise only the
    solved pivots can have a denominator divisible by MODULUS: a drawn
    denominator is at most 97.

    Everything is compiled once per call, and every check is exact: each
    polynomial is evaluated as an integer (see _ScaledPoly) and each stage
    solved by fraction-free elimination (see _solve_stage).  ``compiled``,
    when given, is the equations as _ScaledPoly, one per equation, to be
    used as they are.  The stages are checked before the first draw."""
    rng = random.Random(seed)
    stages = _compile_stages(s)
    if compiled is None:
        compiled = [_ScaledPoly(e) for e in s.equations]
    exclusions = [_ScaledPoly(e) for e in s.exclusions]
    needed = set(extra_vars).union(*(p.reads for p in (*compiled, *exclusions)))
    free = sorted(needed.difference(*(pivots for pivots, _, _ in stages)))
    staged = {i for stage in s.solve_stages for i, _ in stage}
    locus = [p for i, p in enumerate(compiled) if i not in staged] if stages else []
    rejections = dict.fromkeys(REJECTION_REASONS, 0)
    points = []
    attempts = 0
    while len(points) < count:
        if attempts == MAX_SAMPLE_ATTEMPTS:
            raise NoGenericPoint(attempts, rejections)
        attempts += 1
        point = {v: _random_fraction(rng) for v in free}
        reason = _rejection(point, stages, exclusions, locus)
        if reason is None:
            points.append(point)
        else:
            rejections[reason] += 1
    return points


def _rejection(point, stages, exclusions, locus):
    """Complete a draw through the solve stages, in place, and give the
    reason it is rejected, or None when it is accepted.  Only what the
    stages leave open is tested (see sample_points): the denominators of
    the solved pivots, and the equations of ``locus``, compiled, which no
    stage solves."""
    solved = []
    for pivots, rows, reads in stages:
        sol = _solve_stage(pivots, rows, _scaled(point, reads))
        if sol is None:
            return "singular stage"
        point.update(sol)
        solved += sol.values()
    if any(q.denominator % MODULUS == 0 for q in solved):
        return "denominator 0 mod p"
    if any(e.vanishes_at(point) for e in exclusions):
        return "exclusion"
    if any(not e.vanishes_at(point) for e in locus):
        return "off locus"
    return None


def _solve_stage(pivots, rows, scaled):
    """The pivot values that solve a stage, or None when the stage is
    singular; ``scaled`` is the point as (num, den) over the variables the
    rows read (see _scaled), built once for every row of the stage.

    Each row is its equation times a positive integer, divided by the gcd
    of its entries (see _primitive), so the integer system has the rational
    one's unique solution, and the same primitive rows whatever common
    denominator the point is put over.  `abelian.bareiss` is singular
    exactly where elimination over Q is, and leaves the solution as minus
    the constant column over the diagonal."""
    k = len(pivots)
    aug = [_primitive(row.values(*scaled, k + 1)) for row in rows]
    if bareiss(aug, k) is None:
        return None
    return {v: Fraction(-aug[i][k], aug[i][i]) for i, v in enumerate(pivots)}


def _primitive(row: list) -> list:
    """An integer row divided by the gcd of its entries, a positive
    constant; a zero row as it is.  Bareiss keeps every entry an integer
    minor of its input rows, so smaller rows keep every entry smaller."""
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


# ---------------------------------------------------------------------------
# the kernel: gradients and ranks mod p
# ---------------------------------------------------------------------------


def _reduce_point(point):
    """A rational point mod p; sample_points rejects points whose
    denominators vanish mod p."""
    return {v: q.numerator * pow(q.denominator, -1, MODULUS) % MODULUS
            for v, q in point.items()}


def _compile_partials(compiled):
    """The partial derivatives of compiled polynomials (each a _ScaledPoly
    without pivot columns), as (products, rows).

    The term c * v^e * rest of a polynomial gives its partial by v the term
    c*e mod p times the product of rest and v^(e-1).  Each such product is
    kept once in ``products``, as its factors: a variable, or the pair
    (variable, k) for its k-th power, k > 1.  ``rows`` has, per polynomial,
    one (variable, coefficients, product indices) triple per variable the
    polynomial reads."""
    index = {}  # factors -> position in products
    rows = []
    for poly in compiled:
        row = {}
        for _, _, coeffs, monos in poly.groups:
            for c, mono in zip(coeffs, monos):
                c %= MODULUS  # one int for the partials by every linear factor
                factors = tuple([v if e == 1 else (v, e) for v, e in mono])
                for i, (v, e) in enumerate(mono):
                    lowered = () if e == 1 else (v if e == 2 else (v, e - 1),)
                    rest = factors[:i] + lowered + factors[i + 1:]
                    cs, at = row.setdefault(v, ([], []))
                    cs.append(c if e == 1 else c * e % MODULUS)
                    at.append(index.setdefault(rest, len(index)))
        rows.append(tuple((v, tuple(cs), tuple(at)) for v, (cs, at) in row.items()))
    return tuple(index), rows


class _Powers(dict):
    """A reduced point that also gives the power k of the value of v mod p
    under the key (v, k), computed once when first read."""

    def __missing__(self, key):
        v, k = key
        value = self[key] = pow(self[v], k, MODULUS)
        return value


def _gradients(partials, point):
    """The gradient mod p at a reduced point of every polynomial of
    ``partials`` (see _compile_partials), as a dict from each variable of
    the polynomial to its partial derivative there.  Each product is formed
    once per point, and each partial is a plain sum of products, taken mod
    p once."""
    products, rows = partials
    get = _Powers(point).__getitem__
    value = [prod(map(get, factors)) for factors in products].__getitem__
    return [{v: sum(map(mul, coeffs, map(value, at))) % MODULUS for v, coeffs, at in row}
            for row in rows]


def _generic_gradients(s: PdeSystem, seed, extra_vars=()):
    """The one generic-point pass of the jet layer: every generic rank is
    read off it.  The equations are compiled once and sample_points is
    called once on that compile, which gives its sampled variables and the
    locus check of the equations no stage solves; the partials are compiled
    from it once the points are drawn.  For each sample point in turn this
    yields the point mod p and the gradient mod p of every equation there
    (see _gradients)."""
    compiled = [_ScaledPoly(e) for e in s.equations]
    points = sample_points(s, seed=seed, extra_vars=extra_vars, compiled=compiled)
    partials = _compile_partials(compiled)
    for pt in points:
        red = _reduce_point(pt)
        yield red, _gradients(partials, red)


def rank_at_point(rows, prefixes=()) -> list:
    """Ranks mod p of a Jacobian evaluated at one sample point, given as a
    list of rows of residues in [0, p): the rank of the first c columns for
    each c in ``prefixes``, then the rank of the whole matrix.  The columns
    are eliminated in order, so the rank of a prefix is the number of pivot
    columns in it.  A nonzero r x r minor mod p is a nonzero minor over Q,
    so each result is a lower bound on the rank of the rational matrix.

    A row is updated only in the columns where the pivot row is nonzero.
    That gives what rewriting every column mod p would, because every entry
    is kept a residue in [0, p): callers pass residues, and each update
    reduces what it writes."""
    m = [list(row) for row in rows]
    n_rows = len(m)
    n_cols = len(m[0]) if n_rows else 0
    pivots = []  # the pivot columns, in increasing order
    for col in range(n_cols):
        rank = len(pivots)
        if rank == n_rows:
            break
        piv = next((r for r in range(rank, n_rows) if m[r][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][col], -1, MODULUS)
        # rows from the rank down are zero left of col
        pivot_row = m[rank]
        nonzero = [(j, pivot_row[j] * inv % MODULUS) for j in range(col, n_cols)
                   if pivot_row[j]]
        for r in range(rank + 1, n_rows):
            row = m[r]
            f = row[col]
            if f:
                for j, y in nonzero:
                    row[j] = (row[j] - f * y) % MODULUS
        pivots.append(col)
    return [bisect_left(pivots, c) for c in prefixes] + [len(pivots)]


def _generic_ranks(s: PdeSystem, columns, prefixes, seed):
    """rank_at_point of the Jacobian mod p of the equations over the columns,
    with the given prefixes, at each sample point."""
    return [rank_at_point([[grad.get(v, 0) for v in columns] for grad in grads], prefixes)
            for _, grads in _generic_gradients(s, seed)]


# ---------------------------------------------------------------------------
# symbol analysis
# ---------------------------------------------------------------------------


@dataclass
class SymbolReport:
    system: str
    n: int
    m: int
    order: int
    ambient_jet_dim: int
    ambient_top_vars: int
    generic_rank: int
    dim_e: int
    g_dims: list  # dim g^(0..n)
    characters: list  # alpha^1..alpha^n
    dim_g_plus_1: int
    dim_e_plus_1: int
    ambient_jet_dim_plus_1: int
    inconsistent_rank: bool
    rank_samples: list

    def to_json_dict(self):
        return {
            "system": self.system,
            "n": self.n,
            "m": self.m,
            "order": self.order,
            "ambient_jet_dim": self.ambient_jet_dim,
            "ambient_top_vars": self.ambient_top_vars,
            "generic_rank": self.generic_rank,
            "dim_E": self.dim_e,
            "dim_g": self.g_dims[0],
            "g_filtration": list(self.g_dims),
            "characters": list(self.characters),
            "dim_g_plus_1": self.dim_g_plus_1,
            "dim_E_plus_1": self.dim_e_plus_1,
            "inconsistent_rank": self.inconsistent_rank,
        }


def _jets_up_to(s: PdeSystem, k: int):
    return [jet(j, mu) for j in range(s.m) for o in range(k + 1)
            for mu in combinations_with_replacement(range(s.n), o)]


def symbol_report(s: PdeSystem, seed=DEFAULT_SEED) -> SymbolReport:
    """Symbol dimensions, Cartan characters and first-prolongation data at
    deterministic generic points.

    The top-order jets are ordered by their smallest direction, largest
    first, so that g^(n), ..., g^(1), g^(0) = top and all jets are
    prefixes of one column order, and one Jacobian per sample point is
    ranked once for all of them.  The first prolongation gets its own
    Jacobian at its own (unstaged) points, over its top order and then
    every lower jet."""
    if not s.equations:
        raise ValueError("system has no equations")
    k = s.order
    # a top jet is in g^(i) for every i up to its smallest direction
    top = sorted(s.top_variables(k), key=lambda v: min(v[2], default=s.n), reverse=True)
    sizes = [sum(min(v[2], default=s.n) >= i for v in top) for i in range(s.n, -1, -1)]
    samples = _generic_ranks(s, top + _jets_up_to(s, k - 1), sizes, seed)
    best = [max(r) for r in zip(*samples)]  # over the points: g^(n), ..., g^(0), all jets
    ranks = [r[-2] for r in samples]
    rank_top = best[-2]
    inconsistent = 2 * ranks.count(rank_top) <= len(ranks)
    g_dims = [size - r for size, r in zip(sizes, best)][::-1]
    characters = [g_dims[i - 1] - g_dims[i] for i in range(1, s.n + 1)]
    dim_e = s.jet_space_dim() - best[-1]
    prolonged = prolong_system(s, 1)
    top1 = prolonged.top_variables(k + 1)
    rank_top1, rank_all1 = (max(r) for r in zip(
        *_generic_ranks(prolonged, top1 + _jets_up_to(s, k), [len(top1)], seed)))
    dim_g1 = len(top1) - rank_top1
    dim_e1 = prolonged.jet_space_dim() - rank_all1
    return SymbolReport(
        system=s.name,
        n=s.n,
        m=s.m,
        order=k,
        ambient_jet_dim=s.jet_space_dim(),
        ambient_top_vars=len(top),
        generic_rank=rank_top,
        dim_e=dim_e,
        g_dims=g_dims,
        characters=characters,
        dim_g_plus_1=dim_g1,
        dim_e_plus_1=dim_e1,
        ambient_jet_dim_plus_1=prolonged.jet_space_dim(),
        inconsistent_rank=inconsistent,
        rank_samples=ranks,
    )


@dataclass
class IntegrabilityVerdict:
    """Cartan's test and the formal-integrability verdict of one SymbolReport."""

    passed: bool
    dim_e: int
    dim_e_plus_1: int
    dim_g_plus_1: int
    involutive: bool
    filtration_sum: int
    g_dims: list
    caveat: str = (
        "PASS certifies formal integrability at the dimension level; "
        "complete integrability follows for analytic systems"
    )

    @classmethod
    def from_report(cls, rep: SymbolReport) -> "IntegrabilityVerdict":
        """Cartan's test, dim g_{q+1} = sum_{i=0}^{n-1} dim g^{(i)}; PASS iff
        it holds and dim E_{+1} = dim E + dim g_{+1}."""
        total = sum(rep.g_dims[:-1] or rep.g_dims)
        involutive = rep.dim_g_plus_1 == total
        surjective = rep.dim_e_plus_1 == rep.dim_e + rep.dim_g_plus_1
        return cls(
            passed=involutive and surjective,
            dim_e=rep.dim_e,
            dim_e_plus_1=rep.dim_e_plus_1,
            dim_g_plus_1=rep.dim_g_plus_1,
            involutive=involutive,
            filtration_sum=total,
            g_dims=rep.g_dims,
        )

    def as_dict(self):
        return {
            "verdict": "PASS" if self.passed else "FAIL",
            "dim_E": self.dim_e,
            "dim_E_plus_1": self.dim_e_plus_1,
            "dim_g_plus_1": self.dim_g_plus_1,
            "surjective_projection": self.dim_e_plus_1 == self.dim_e + self.dim_g_plus_1,
            "involutive_symbol": self.involutive,
            "caveat": self.caveat,
            "cartan_test": {
                "involutive": self.involutive,
                "dim_g_plus_1": self.dim_g_plus_1,
                "sum_g_filtration": self.filtration_sum,
                "g_filtration": list(self.g_dims),
            },
        }


def formal_integrability_check(s: PdeSystem, seed=DEFAULT_SEED) -> IntegrabilityVerdict:
    """The IntegrabilityVerdict of the system's SymbolReport."""
    return IntegrabilityVerdict.from_report(symbol_report(s, seed=seed))


def prolongation_dimension_formula(dim_prev: int, characters, r: int) -> int:
    """dim at level q+r from the level-(q-1) dimension and the Cartan
    characters: dim_prev + sum_i C(r+i, i) * alpha_i."""
    if r < 0:
        raise ValueError("r must be >= 0")
    return dim_prev + sum(
        comb(r + i, i) * alpha for i, alpha in enumerate(characters, start=1)
    )


def cartan_distribution_dimension(s: PdeSystem, seed=DEFAULT_SEED) -> int:
    """Dimension of the contact (Cartan) distribution along the equation:
    n horizontal directions plus the top symbol directions, minus the
    number of independent tangency constraints at a generic point.

    The tangency row of an equation F over [X^0..X^{n-1} | Z_top] is
    filled from the gradient g of F at the point:
    X^alpha gets g[x_alpha] + sum over jets v below the top order of
    y_(v+alpha) * g[v], and Z_v gets g[v]."""
    k = s.order
    top = s.top_variables(k)
    low = [[v for v in eq.jet_variables() if len(v[2]) < k] for eq in s.equations]
    lifted = {(v, alpha): jet(v[1], v[2] + (alpha,))
              for jets_low in low for v in jets_low for alpha in range(s.n)}
    ranks = []
    for red, grads in _generic_gradients(s, seed, lifted.values()):
        rows = []
        for grad, jets_low in zip(grads, low):
            horizontal = [
                (grad.get(xvar(alpha), 0)
                 + sum(red[lifted[v, alpha]] * grad[v] for v in jets_low)) % MODULUS
                for alpha in range(s.n)
            ]
            rows.append(horizontal + [grad.get(v, 0) for v in top])
        ranks.append(rank_at_point(rows)[0])
    return s.n + len(top) - max(ranks)


def verify_polynomial_solution(s: PdeSystem, section) -> list:
    """Substitute the jet prolongation of a polynomial section into every
    equation; the residual polynomials are all zero iff the section solves
    the system.

    ``section`` maps dependent-variable names to the text of polynomial
    expressions in the independent variables (free symbols are allowed and
    treated as constant parameters).
    """
    parser = EquationParser(s.independent, s.dependent, allow_free_symbols=True)
    values = {}
    for name, text in section.items():
        item = f"{name}={text}"
        if name not in s.dependent:
            raise ParseError(f"section {item!r}: {name!r} is not a dependent variable"
                             f" (the system has {', '.join(s.dependent)})")
        j = s.dependent.index(name)
        try:
            poly = parser.parse_polynomial(text)
        except ParseError as exc:
            raise ParseError(f"section {item!r}: {exc}") from None
        if poly.jet_variables():
            jet_var = DiffPoly.variable(min(poly.jet_variables()))
            raise ParseError(f"section {item!r}: {jet_var.render(s.independent, s.dependent)!r}"
                             " is a jet variable, and sections must not contain one")
        values[j] = poly
    missing = {v[1] for eq in s.equations for v in eq.jet_variables()} - values.keys()
    if missing:
        raise ParseError(f"section missing dependent variable {s.dependent[min(missing)]!r}")
    residuals = []
    for eq in s.equations:
        assignment = {}
        for v in eq.jet_variables():
            d = values[v[1]]
            for direction in v[2]:
                d = d.partial(xvar(direction))
            assignment[v] = d
        residuals.append(eq.substitute(assignment))
    return residuals
