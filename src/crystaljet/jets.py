"""Polynomial PDE systems on jet spaces: parsing, prolongation, symbol
ranks at generic points, Cartan characters, involutivity and formal
integrability, and Cartan distribution dimensions.

Generic ranks come from one kernel.  Sample points are deterministic
seeded rationals, rejected against the declared exclusions and placed on
the equation locus by the solve stages; each point is then reduced modulo
the prime p = 2^61 - 1.  Every equation is compiled once into (coefficient
mod p, monomial) pairs, one gradient pass per point gives all its partial
derivatives, and every Jacobian is a set of columns of that gradient,
ranked by elimination mod p.

What this certifies: the rank mod p of a Jacobian at a point never exceeds
its rank over Q there, which never exceeds the generic rank, so a nonzero
r x r minor mod p proves generic rank >= r (and every dimension computed as
ambient minus rank is an upper bound).  What is only probabilistic: that
the maximum over the sample points equals the generic rank.  A minor of
degree d that is not identically zero vanishes at a random point with
probability at most d / |S| for sample values drawn from S (Schwartz 1980;
Zippel 1979), and reduction mod p loses it only when p divides its value.
No floating point is involved.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, gcd, lcm

from .data import load_document
from .diffpoly import DiffPoly, jet, par, poly_div_exact, xvar

DEFAULT_SEED = 12345
SAMPLE_COUNT = 5
MAX_SAMPLE_ATTEMPTS = 200
MODULUS = 2**61 - 1  # a Mersenne prime; generic ranks are taken mod MODULUS


class NoGenericPoint(RuntimeError):
    pass


class ParseError(ValueError):
    pass


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+)|(?P<name>[A-Za-z][A-Za-z0-9]*(?:_[A-Za-z0-9]+)?)"
    r"|(?P<op>\*\*|[-+*/^()]))"
)


def _tokenize(text: str):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            raise ParseError(f"cannot tokenize {text[pos:pos+20]!r}")
        pos = m.end()
        if m.group("num"):
            out.append(("num", int(m.group("num"))))
        elif m.group("name"):
            out.append(("name", m.group("name")))
        else:
            op = m.group("op")
            out.append(("op", "^" if op == "**" else op))
    return out


def _times(a, b):
    """Product of two DiffPoly where None stands for the constant one."""
    if b is None:
        return a
    if a is None:
        return b
    return a * b


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
        return _RationalExpr(self.num * o.num, _times(self.den, o.den))

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
        for name in self.independent:
            if len(name) != 1:
                raise ParseError(
                    f"independent variable {name!r} must be a single letter "
                    "(jet suffixes are letter sequences)"
                )

    def resolve_name(self, name: str) -> DiffPoly:
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
            return DiffPoly.variable(jet(j, mu))
        if name in self.independent:
            return DiffPoly.variable(xvar(self.independent.index(name)))
        if name in self.dependent:
            return DiffPoly.variable(jet(self.dependent.index(name), ()))
        if name in self.parameters:
            return DiffPoly.constant(self.parameters[name])
        if self.allow_free:
            return DiffPoly.variable(par(name))
        raise ParseError(f"unknown symbol {name!r}")

    # precedence-climbing parser over the token list
    def parse(self, text: str) -> _RationalExpr:
        self._tokens = _tokenize(text)
        self._pos = 0
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

    def _expr(self):
        sign = 1
        kind, val = self._peek()
        if (kind, val) == ("op", "-"):
            self._next()
            sign = -1
        elif (kind, val) == ("op", "+"):
            self._next()
        node = self._term()
        terms = [-node if sign < 0 else node]
        while self._peek() == ("op", "+") or self._peek() == ("op", "-"):
            _, op = self._next()
            rhs = self._term()
            terms.append(rhs if op == "+" else -rhs)
        return _RationalExpr.sum_of(terms)

    def _term(self):
        node = self._factor()
        while self._peek() in (("op", "*"), ("op", "/")):
            _, op = self._next()
            rhs = self._factor()
            node = node * rhs if op == "*" else node / rhs
        return node

    def _factor(self):
        kind, val = self._peek()
        if (kind, val) == ("op", "-"):
            self._next()
            return -self._factor()
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
            return _RationalExpr(self.resolve_name(val))
        if (kind, val) == ("op", "("):
            node = self._expr()
            if self._next() != ("op", ")"):
                raise ParseError("missing closing parenthesis")
            return node
        raise ParseError(f"unexpected token {val!r}")

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
            for mu in _multisets(self.n, k):
                out.append(jet(j, mu))
        return out

    def render_equations(self):
        return [e.render(self.independent, self.dependent) for e in self.equations]


def _multisets(n, k):
    """Sorted k-multisets of {0..n-1} (monomial multi-indices)."""
    if k == 0:
        yield ()
        return
    def rec(start, left):
        if left == 0:
            yield ()
            return
        for i in range(start, n):
            for rest in rec(i, left - 1):
                yield (i,) + rest
    yield from rec(0, k)


def load_system(source, parameter_overrides=None) -> PdeSystem:
    """Load a PDE system from a YAML document (path, text, or dict)."""
    doc = load_document(source)
    for key in ("independent", "dependent", "order", "equations"):
        if key not in doc:
            raise ParseError(f"system document is missing the {key!r} field")
    params = dict(doc.get("parameters", {}))
    if parameter_overrides:
        params.update(parameter_overrides)
    parser = EquationParser(doc["independent"], doc["dependent"], params)
    excl_parser = EquationParser(doc["independent"], doc["dependent"], params)
    exclusions = [
        excl_parser.parse_polynomial(t) for t in doc.get("exclusions", [])
    ]
    equations = [
        parser.parse_polynomial(t, exclusions) for t in doc.get("equations", [])
    ]
    stages = []
    for stage in doc.get("solve_stages", []):
        stages.append([(int(i), tok) for i, tok in stage])
    return PdeSystem(
        independent=list(doc["independent"]),
        dependent=list(doc["dependent"]),
        order=int(doc["order"]),
        equations=equations,
        exclusions=exclusions,
        name=doc.get("name", ""),
        solve_stages=stages,
    )


def prolong_system(s: PdeSystem, r: int) -> PdeSystem:
    """All formal derivatives D_nu of every equation for |nu| <= r."""
    if r < 0:
        raise ValueError("prolongation order must be >= 0")
    if r == 0:
        return s
    seen = {}
    frontier = list(s.equations)
    for eq in frontier:
        seen[eq] = True
    level = list(s.equations)
    for _ in range(r):
        nxt = []
        for eq in level:
            for i in range(s.n):
                d = eq.total_derivative(i)
                if d not in seen and not d.is_zero():
                    seen[d] = True
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


def _random_fraction(rng) -> Fraction:
    return Fraction(rng.randint(-97, 97), rng.randint(1, 97))


def _needed_variables(polys):
    out = set()
    for p in polys:
        out |= p.variables()
    return out


def _resolve_token(s: PdeSystem, token: str):
    parser = EquationParser(s.independent, s.dependent)
    poly = parser.resolve_name(token)
    (mono, _), = poly.terms.items()
    (var, _), = mono
    return var


def sample_points(s: PdeSystem, polys, count=SAMPLE_COUNT, seed=DEFAULT_SEED,
                  extra_vars=()):
    """Deterministic generic rational points for the given polynomials.

    Points satisfy every declared exclusion; when the system carries solve
    stages the points are placed on the equation locus by solving each
    stage's equations for its pivot variables (exactly, by rational
    elimination).  A point with a denominator divisible by MODULUS has no
    reduction mod p and is rejected like one that meets an exclusion.
    """
    rng = random.Random(seed)
    needed = _needed_variables(list(polys) + list(s.exclusions)) | set(extra_vars)
    pivots = []
    for stage in s.solve_stages:
        pivots.extend(_resolve_token(s, tok) for _, tok in stage)
        needed |= _needed_variables(s.equations[i] for i, _ in stage)
    pivot_set = set(pivots)
    free = sorted(v for v in needed if v not in pivot_set)
    points = []
    attempts = 0
    while len(points) < count:
        attempts += 1
        if attempts > MAX_SAMPLE_ATTEMPTS:
            raise NoGenericPoint(
                f"no generic point satisfying exclusions after {attempts} attempts"
            )
        point = {v: _random_fraction(rng) for v in free}
        ok = True
        for stage in s.solve_stages:
            stage_pivots = [_resolve_token(s, tok) for _, tok in stage]
            eqs = [s.equations[i] for i, _ in stage]
            sol = _solve_stage(eqs, stage_pivots, point)
            if sol is None:
                ok = False
                break
            point.update(sol)
        if not ok:
            continue
        if any(q.denominator % MODULUS == 0 for q in point.values()):
            continue
        if any(e.evaluate(point) == 0 for e in s.exclusions):
            continue
        if s.solve_stages and any(e.evaluate(point) != 0 for e in s.equations):
            continue
        points.append(point)
    return points


def _solve_stage(eqs, pivots, point):
    """Solve equations jointly for the pivot variables; the equations must
    be affine-linear in the pivots once the free values are substituted."""
    idx = {v: i for i, v in enumerate(pivots)}
    k = len(pivots)
    rows = []
    rhs = []
    for eq in eqs:
        coeffs = [Fraction(0)] * k
        const = Fraction(0)
        for mono, c in eq.terms.items():
            pivot_part = [(v, e) for v, e in mono if v in idx]
            rest = [(v, e) for v, e in mono if v not in idx]
            val = c
            for v, e in rest:
                val *= point[v] ** e
            if not pivot_part:
                const += val
            elif len(pivot_part) == 1 and pivot_part[0][1] == 1:
                coeffs[idx[pivot_part[0][0]]] += val
            else:
                raise ValueError(
                    "solve stage is not jointly linear in its pivot variables"
                )
        rows.append(coeffs)
        rhs.append(-const)
    # exact Gaussian elimination
    n = len(rows)
    if n != k:
        raise ValueError("solve stage needs as many equations as pivots")
    aug = [rows[i] + [rhs[i]] for i in range(n)]
    for col in range(k):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return {pivots[i]: aug[i][k] for i in range(k)}


# ---------------------------------------------------------------------------
# the kernel: gradients and ranks mod p
# ---------------------------------------------------------------------------


def _compile(polys):
    """Each polynomial as a list of (coefficient mod p, monomial) pairs.

    The coefficients are first scaled to coprime integers.  That scales a
    Jacobian row by a nonzero rational, which changes no rank, and a
    nonzero polynomial stays nonzero mod p."""
    out = []
    for poly in polys:
        coeffs = poly.terms.values()
        den = lcm(*(c.denominator for c in coeffs))
        content = gcd(*(c.numerator for c in coeffs)) or 1
        out.append([((c.numerator // content) * (den // c.denominator) % MODULUS, mono)
                    for mono, c in poly.terms.items()])
    return out


def _reduce_point(point):
    """A rational point mod p; sample_points rejects points whose
    denominators vanish mod p."""
    return {v: q.numerator * pow(q.denominator, -1, MODULUS) % MODULUS
            for v, q in point.items()}


def _gradients(compiled, point):
    """The gradient mod p of every compiled polynomial at a reduced point,
    as a dict from each variable of the polynomial to its partial
    derivative there."""
    out = []
    for terms in compiled:
        grad = {}
        for c, mono in terms:
            factors = [pow(point[v], e, MODULUS) for v, e in mono]
            for i, (v, e) in enumerate(mono):
                d = c * e
                if e > 1:
                    d = d * pow(point[v], e - 1, MODULUS) % MODULUS
                for j, f in enumerate(factors):
                    if j != i:
                        d = d * f % MODULUS
                grad[v] = (grad.get(v, 0) + d) % MODULUS
        out.append(grad)
    return out


def _jacobians(polys, columns, points):
    """The Jacobian of the polynomials over the column variables at each
    sample point, mod p: one gradient pass per point."""
    compiled = _compile(polys)
    return [[[grad.get(v, 0) for v in columns]
             for grad in _gradients(compiled, _reduce_point(pt))]
            for pt in points]


def rank_at_point(rows) -> int:
    """Rank mod p of a Jacobian evaluated at one sample point, given as a
    list of rows of residues in [0, p).  A nonzero r x r minor mod p is a
    nonzero minor over Q, so the result is a lower bound on the rank of the
    rational matrix."""
    m = [list(row) for row in rows]
    n_rows = len(m)
    n_cols = len(m[0]) if n_rows else 0
    rank = 0
    for col in range(n_cols):
        piv = next((r for r in range(rank, n_rows) if m[r][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][col], -1, MODULUS)
        pivot_row = [x * inv % MODULUS for x in m[rank]]
        for r in range(rank + 1, n_rows):
            f = m[r][col]
            if f:
                m[r] = [(x - f * y) % MODULUS for x, y in zip(m[r], pivot_row)]
        rank += 1
        if rank == n_rows:
            break
    return rank


def _ranks(matrices, cols=None):
    """rank_at_point of each matrix, or of the given columns of each."""
    if cols is not None:
        matrices = [[[row[c] for c in cols] for row in m] for m in matrices]
    return [rank_at_point(m) for m in matrices]


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

    @property
    def dim_g(self):
        return self.g_dims[0]

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
            for mu in _multisets(s.n, o)]


def symbol_report(s: PdeSystem, seed=DEFAULT_SEED) -> SymbolReport:
    """Symbol dimensions, Cartan characters and first-prolongation data at
    deterministic generic points.

    One Jacobian over all jet variables is evaluated per sample point; the
    top-order, g^(i) and full Jacobians are column sets of it.  The first
    prolongation gets its own Jacobian at its own (unstaged) points."""
    if not s.equations:
        raise ValueError("system has no equations")
    k = s.order
    top = s.top_variables(k)
    all_jets = _jets_up_to(s, k)
    col = {v: i for i, v in enumerate(all_jets)}
    points = sample_points(s, s.equations, seed=seed)
    jac = _jacobians(s.equations, all_jets, points)
    ranks = _ranks(jac, [col[v] for v in top])
    rank_top = max(ranks, default=0)
    inconsistent = 2 * ranks.count(rank_top) <= len(points)
    g_dims = []
    for i in range(s.n + 1):
        cols = [col[v] for v in top if all(d >= i for d in v[2])]
        g_dims.append(len(cols) - max(_ranks(jac, cols), default=0) if cols else 0)
    characters = [g_dims[i - 1] - g_dims[i] for i in range(1, s.n + 1)]
    dim_e = s.jet_space_dim() - max(_ranks(jac), default=0)
    prolonged = prolong_system(s, 1)
    ppoints = sample_points(prolonged, prolonged.equations, seed=seed)
    all_jets1 = _jets_up_to(s, k + 1)
    col1 = {v: i for i, v in enumerate(all_jets1)}
    top1 = prolonged.top_variables(k + 1)
    jac1 = _jacobians(prolonged.equations, all_jets1, ppoints)
    dim_g1 = len(top1) - max(_ranks(jac1, [col1[v] for v in top1]), default=0)
    dim_e1 = prolonged.jet_space_dim() - max(_ranks(jac1), default=0)
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
class InvolutivityLedger:
    involutive: bool
    dim_g_plus_1: int
    filtration_sum: int
    g_dims: list

    @classmethod
    def from_report(cls, rep: SymbolReport) -> "InvolutivityLedger":
        """Cartan's test: dim g_{q+1} = sum_{i=0}^{n-1} dim g^{(i)}."""
        total = sum(rep.g_dims[:-1] if len(rep.g_dims) > 1 else rep.g_dims)
        return cls(
            involutive=(rep.dim_g_plus_1 == total),
            dim_g_plus_1=rep.dim_g_plus_1,
            filtration_sum=total,
            g_dims=rep.g_dims,
        )

    def as_dict(self):
        return {
            "involutive": self.involutive,
            "dim_g_plus_1": self.dim_g_plus_1,
            "sum_g_filtration": self.filtration_sum,
            "g_filtration": list(self.g_dims),
        }


def cartan_involutivity_test(s: PdeSystem, seed=DEFAULT_SEED):
    """Cartan's test: dim g_{q+1} = sum_{i=0}^{n-1} dim g^{(i)}."""
    ledger = InvolutivityLedger.from_report(symbol_report(s, seed=seed))
    return ledger.involutive, ledger


@dataclass
class IntegrabilityVerdict:
    passed: bool
    dim_e: int
    dim_e_plus_1: int
    dim_g_plus_1: int
    involutive: bool
    caveat: str = (
        "PASS certifies formal integrability at the dimension level; "
        "complete integrability follows for analytic systems"
    )

    @classmethod
    def from_report(cls, rep: SymbolReport) -> "IntegrabilityVerdict":
        """PASS iff dim E_{+1} = dim E + dim g_{+1} and the symbol is
        involutive by Cartan's test."""
        involutive = InvolutivityLedger.from_report(rep).involutive
        surjective = rep.dim_e_plus_1 == rep.dim_e + rep.dim_g_plus_1
        return cls(
            passed=involutive and surjective,
            dim_e=rep.dim_e,
            dim_e_plus_1=rep.dim_e_plus_1,
            dim_g_plus_1=rep.dim_g_plus_1,
            involutive=involutive,
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
        }


def formal_integrability_check(s: PdeSystem, seed=DEFAULT_SEED) -> IntegrabilityVerdict:
    """PASS iff dim E_{+1} = dim E + dim g_{+1} and the symbol is
    involutive by Cartan's test."""
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
    points = sample_points(s, s.equations, seed=seed, extra_vars=set(lifted.values()))
    compiled = _compile(s.equations)
    ranks = []
    for pt in points:
        red = _reduce_point(pt)
        rows = []
        for grad, jets_low in zip(_gradients(compiled, red), low):
            horizontal = [
                (grad.get(xvar(alpha), 0)
                 + sum(red[lifted[v, alpha]] * grad[v] for v in jets_low)) % MODULUS
                for alpha in range(s.n)
            ]
            rows.append(horizontal + [grad.get(v, 0) for v in top])
        ranks.append(rank_at_point(rows))
    return s.n + len(top) - max(ranks, default=0)


def verify_polynomial_solution(s: PdeSystem, section) -> list:
    """Substitute the jet prolongation of a polynomial section into every
    equation; the residual polynomials are all zero iff the section solves
    the system.

    ``section`` maps dependent-variable names to polynomial expressions in
    the independent variables (free symbols are allowed and treated as
    constant parameters).
    """
    parser = EquationParser(s.independent, s.dependent, allow_free_symbols=True)
    values = {}
    for name, text in section.items():
        j = s.dependent.index(name)
        poly = text if isinstance(text, DiffPoly) else parser.parse_polynomial(text)
        if poly.jet_variables():
            raise ParseError("sections must not contain jet variables")
        values[j] = poly
    residuals = []
    for eq in s.equations:
        assignment = {}
        for v in eq.jet_variables():
            j, mu = v[1], v[2]
            if j not in values:
                raise ParseError(f"section missing dependent variable index {j}")
            d = values[j]
            for direction in mu:
                d = d.partial(xvar(direction))
            assignment[v] = d
        residuals.append(eq.substitute(assignment))
    return residuals
