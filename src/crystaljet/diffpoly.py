"""Differential polynomials over the rationals in jet coordinates, plus the
filtered ring of linear differential operators.

Variables are tagged tuples:
  ("x", i)        the i-th independent variable
  ("par", name)   a constant parameter symbol
  ("jet", j, mu)  the jet coordinate of dependent j with multi-index mu,
                  mu a sorted tuple of direction indices (len = order)

Multi-indices are kept sorted, so symmetric mixed derivatives are
identified.  Coefficients are exact Fractions throughout.

The bounds on products and powers (MAX_TERMS, MAX_COEFF_BITS and
MAX_PRODUCT_WORK) live here, so parsing, substitution and exact division
are refused by the same checks, with a ParseError, before they form too much.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product as iproduct
from math import comb, factorial, lcm, prod

MAX_TERMS = 10_000  # terms a product or power may expand to; checked before expanding
MAX_COEFF_BITS = 100_000  # bits of a coefficient a power may form; checked before forming
MAX_PRODUCT_WORK = 10_000_000  # terms x terms x coefficient bits of a product; checked first


class ParseError(ValueError):
    pass


def jet(j: int, mu) -> tuple:
    return ("jet", j, tuple(sorted(mu)))


def xvar(i: int) -> tuple:
    return ("x", i)


def par(name: str) -> tuple:
    return ("par", name)


class DiffPoly:
    """Sparse sum of rational-coefficient monomials; immutable."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        for mono, coeff in (terms or {}).items():
            c = Fraction(coeff)
            if c:
                clean[mono] = c
        self.terms = clean

    # -- constructors -----------------------------------------------------
    @classmethod
    def zero(cls):
        return cls({})

    @classmethod
    def constant(cls, q):
        q = Fraction(q)
        return cls({(): q} if q else {})

    @classmethod
    def variable(cls, var):
        return cls({((var, 1),): Fraction(1)})

    # -- ring operations ----------------------------------------------------
    @classmethod
    def _from_clean(cls, terms):
        """Wrap a dict that already maps monomials to nonzero Fractions."""
        poly = object.__new__(cls)
        poly.terms = terms
        return poly

    @classmethod
    def sum_of(cls, polys):
        """Sum of many polynomials in one pass over their terms."""
        out = {}
        for p in polys:
            for mono, c in p.terms.items():
                if mono in out:
                    out[mono] += c
                else:
                    out[mono] = c
        return cls._from_clean({m: c for m, c in out.items() if c})

    def __add__(self, other):
        return DiffPoly.sum_of((self, _coerce(other)))

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return DiffPoly._from_clean({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        """Product, refused before it is formed past MAX_TERMS or MAX_PRODUCT_WORK."""
        other = _coerce(other)
        _bound_terms(len(self.terms) * len(other.terms), "a product")
        _bound_work(self, other, "a product")
        return _product(self, other)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, k: int):
        """self ** k, refused before it is expanded if C(t+k-1, k), the
        number of degree-k monomials in the t terms of self, exceeds
        MAX_TERMS, or if its coefficients could pass MAX_COEFF_BITS bits;
        then formed by repeated squaring, refused before any product whose
        work exceeds MAX_PRODUCT_WORK."""
        if k < 0:
            raise ValueError("negative powers are not polynomial")
        if k > 1:
            if len(self.terms) > 1:
                _bound_terms(comb(len(self.terms) + k - 1, k), "a power")
            _bound_bits(self.terms.values(), k)
        result, base = DiffPoly.constant(1), self
        while True:
            if k & 1:
                _bound_work(result, base, "a power")
                result = _product(result, base)
            k >>= 1
            if not k:
                return result
            _bound_work(base, base, "a power")
            base = _product(base, base)  # only while a higher bit needs it

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = DiffPoly.constant(other)
        return isinstance(other, DiffPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- structure ----------------------------------------------------------
    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return all(m == () for m in self.terms)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("not a constant polynomial")
        return self.terms.get((), Fraction(0))

    def variables(self):
        out = set()
        for mono in self.terms:
            for var, _ in mono:
                out.add(var)
        return out

    def jet_variables(self):
        return {v for v in self.variables() if v[0] == "jet"}

    def order(self) -> int:
        orders = [len(v[2]) for v in self.jet_variables()]
        return max(orders, default=0)

    # -- calculus -------------------------------------------------------------
    def partial(self, var) -> "DiffPoly":
        """Plain partial derivative with respect to one tagged variable."""
        out = {}
        for mono, c in self.terms.items():
            for k, (v, e) in enumerate(mono):
                if v != var:
                    continue
                rest = list(mono)
                if e == 1:
                    rest.pop(k)
                else:
                    rest[k] = (v, e - 1)
                m = tuple(rest)
                coeff = c * e
                out[m] = out.get(m, Fraction(0)) + coeff
        return DiffPoly(out)

    def total_derivative(self, direction: int) -> "DiffPoly":
        """Formal derivative D_i = d/dx_i + sum over jets y_(mu+i) d/dy_mu,
        in one pass over the terms: each factor v^e of a monomial gives
        e * (monomial / v) * lift(v), where lift(x_i) = 1 and lift(y_mu) =
        y_(mu+i)."""
        x = xvar(direction)
        out = {}
        for mono, c in self.terms.items():
            for k, (v, e) in enumerate(mono):
                if v == x:
                    lifted = ()
                elif v[0] == "jet":
                    lifted = ((jet(v[1], v[2] + (direction,)), 1),)
                else:
                    continue
                rest = mono[:k] + mono[k + 1:]
                if e > 1:
                    rest += ((v, e - 1),)
                m = _mono_mul(rest, lifted)  # sorts the factors again
                out[m] = out.get(m, 0) + c * e
        return DiffPoly._from_clean({m: c for m, c in out.items() if c})

    def substitute(self, assignment) -> "DiffPoly":
        """Replace variables by DiffPoly values (vars not listed are kept).
        Each term is its coefficient times one product of powers: kept
        variables and one-term values go straight into its exponents, and
        only the values with other than one term are multiplied in."""
        terms = []
        for mono, c in self.terms.items():
            powers, sums = {}, []
            for v, e in mono:
                if v not in assignment:
                    powers[v] = powers.get(v, 0) + e
                    continue
                value = _coerce(assignment[v])
                if len(value.terms) == 1:
                    (m, vc), = value.terms.items()
                    c *= vc ** e
                    for w, f in m:
                        powers[w] = powers.get(w, 0) + f * e
                else:
                    sums.append(value ** e)
            term = DiffPoly._from_clean({tuple(sorted(powers.items())): c})
            for factor in sums:
                term = term * factor
            terms.append(term)
        return DiffPoly.sum_of(terms)

    def evaluate(self, point) -> Fraction:
        """Exact value at a point mapping every occurring variable to a
        Fraction."""
        total = Fraction(0)
        for mono, c in self.terms.items():
            val = c
            for v, e in mono:
                val *= point[v] ** e
            total += val
        return total

    # -- display --------------------------------------------------------------
    def render(self, independent=None, dependent=None) -> str:
        if not self.terms:
            return "0"
        def var_name(v):
            if v[0] == "x":
                return independent[v[1]] if independent else f"x{v[1]}"
            if v[0] == "par":
                return v[1]
            j, mu = v[1], v[2]
            base = dependent[j] if dependent else f"y{j}"
            if not mu:
                return base
            suffix = "".join(
                independent[i] if independent else str(i) for i in mu
            )
            return f"{base}_{suffix}"

        parts = []
        for mono, c in sorted(self.terms.items()):
            factors = []
            if abs(c) != 1 or not mono:
                factors.append(str(c))
            for v, e in mono:
                factors.append(var_name(v) + (f"^{e}" if e > 1 else ""))
            body = "*".join(factors)
            parts.append(("- " if c < 0 else "+ ") + (body.lstrip("-") if c < 0 and body.startswith("-") else body))
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else text

    def __repr__(self):
        return f"DiffPoly({self.render()})"


def _coerce(x) -> DiffPoly:
    if isinstance(x, DiffPoly):
        return x
    if isinstance(x, (int, Fraction)):
        return DiffPoly.constant(x)
    raise TypeError(f"cannot coerce {x!r} to DiffPoly")


def _product(a, b):
    """a * b with no bound checked: the callers check the ones that apply."""
    out = {}
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            m = _mono_mul(m1, m2)
            c = c1 * c2
            if m in out:
                out[m] += c
            else:
                out[m] = c
    return DiffPoly._from_clean({m: c for m, c in out.items() if c})


def _bound_terms(count: int, what: str):
    if count > MAX_TERMS:
        raise ParseError(f"{what} could expand to {count} terms, over MAX_TERMS = {MAX_TERMS}")


def _bits(p) -> int:
    """Bits of the largest coefficient of p, numerator and denominator."""
    return max((c.numerator.bit_length() + c.denominator.bit_length()
                for c in p.terms.values()), default=0)


def _bound_work(a, b, what: str):
    """Refuse the product a*b before it is formed if its term pairs times
    the bits of the largest coefficient it can form exceed
    MAX_PRODUCT_WORK: what the bounds on its size let through can still
    take minutes to multiply out."""
    work = len(a.terms) * len(b.terms) * (_bits(a) + _bits(b))
    if work > MAX_PRODUCT_WORK:
        raise ParseError(f"{what} could take {work} term-pair coefficient bits,"
                         f" over MAX_PRODUCT_WORK = {MAX_PRODUCT_WORK}")


def _bound_bits(coeffs, k: int):
    """Refuse the k-th power of a sum with these coefficients before it is
    formed if its coefficients could pass MAX_COEFF_BITS bits.  With D the
    lcm of the denominators and S the sum of |c*D|, every coefficient of the
    power has a numerator of at most S^k and a denominator dividing D^k, so
    at most k times the bits of max(S, D)."""
    den = lcm(*(c.denominator for c in coeffs))
    height = max(den, sum(abs(c.numerator) * (den // c.denominator) for c in coeffs))
    bits = k * height.bit_length() if height > 1 else 0
    if bits > MAX_COEFF_BITS:
        raise ParseError(f"a power could form a {bits}-bit coefficient, "
                         f"over MAX_COEFF_BITS = {MAX_COEFF_BITS}")


def _mono_mul(m1, m2):
    out = dict(m1)
    for v, e in m2:
        out[v] = out.get(v, 0) + e
    return tuple(sorted(out.items()))


def poly_div_exact(a: DiffPoly, b: DiffPoly):
    """Exact quotient a / b, or None when b does not divide a.

    Single-divisor multivariate division in lex order; only used to clear
    declared denominators, which are honest factors when ingestion is
    well-formed.  None too after MAX_TERMS steps.
    """
    if b.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if a.is_zero():
        return DiffPoly.zero()
    lead_b = max(b.terms)
    cb = b.terms[lead_b]
    quotient = {}
    rem = a
    guard = 0
    while not rem.is_zero():
        guard += 1
        if guard > MAX_TERMS:
            return None
        lead_r = max(rem.terms)
        q_mono = _mono_divide(lead_r, lead_b)
        if q_mono is None:
            return None
        q_coeff = rem.terms[lead_r] / cb
        quotient[q_mono] = quotient.get(q_mono, Fraction(0)) + q_coeff
        rem = rem - DiffPoly({q_mono: q_coeff}) * b
    return DiffPoly(quotient)


def _mono_divide(m, d):
    out = dict(m)
    for v, e in d:
        have = out.get(v, 0)
        if have < e:
            return None
        if have == e:
            del out[v]
        else:
            out[v] = have - e
    return tuple(sorted(out.items()))


# ---------------------------------------------------------------------------
# linear differential operators with polynomial coefficients
# ---------------------------------------------------------------------------


class DiffOperator:
    """Sum of terms a^mu * d_mu with coefficients polynomial in the base
    variables (x and parameters); a non-commutative filtered ring."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs=None):
        self.n = n
        clean = {}
        for mu, poly in (coeffs or {}).items():
            poly = _coerce(poly)
            if any(v[0] == "jet" for v in poly.variables()):
                raise ValueError("operator coefficients must be jet-free")
            if not poly.is_zero():
                clean[tuple(mu)] = poly
        self.coeffs = clean

    @classmethod
    def multiplication(cls, n: int, poly):
        return cls(n, {(0,) * n: _coerce(poly)})

    def order(self) -> int:
        return max((sum(mu) for mu in self.coeffs), default=-1)

    def __eq__(self, other):
        return isinstance(other, DiffOperator) and self.n == other.n and self.coeffs == other.coeffs

    def __add__(self, other):
        out = dict(self.coeffs)
        for mu, p in other.coeffs.items():
            out[mu] = out.get(mu, DiffPoly.zero()) + p
        return DiffOperator(self.n, out)

    def __neg__(self):
        return DiffOperator(self.n, {mu: -p for mu, p in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        """Composition; the commutation rule is the Leibniz formula
        d_nu a = sum over lam+mu=nu of (nu!/(lam! mu!)) (partial_lam a) d_mu."""
        if not isinstance(other, DiffOperator):
            other = DiffOperator.multiplication(self.n, other)
        out = {}
        for nu, a in self.coeffs.items():
            for rho, b in other.coeffs.items():
                for lam in _sub_multi_indices(nu):
                    mu = tuple(n_ - l_ for n_, l_ in zip(nu, lam))
                    coeff = _multinomial(nu, lam)
                    db = b
                    for i, e in enumerate(lam):
                        for _ in range(e):
                            db = db.partial(xvar(i))
                        if db.is_zero():
                            break
                    if db.is_zero():
                        continue
                    key = tuple(m_ + r_ for m_, r_ in zip(mu, rho))
                    term = a * db * coeff
                    out[key] = out.get(key, DiffPoly.zero()) + term
        return DiffOperator(self.n, out)

    def apply(self, poly: DiffPoly) -> DiffPoly:
        """Apply to a jet-free polynomial (formal function of x)."""
        terms = []
        for mu, a in self.coeffs.items():
            d = poly
            for i, e in enumerate(mu):
                for _ in range(e):
                    d = d.partial(xvar(i))
            terms.append(a * d)
        return DiffPoly.sum_of(terms)

    def __repr__(self):
        if not self.coeffs:
            return "DiffOperator(0)"
        parts = []
        for mu, p in sorted(self.coeffs.items()):
            dpart = "".join(f"d{i}^{e}" if e > 1 else f"d{i}" for i, e in enumerate(mu) if e)
            parts.append(f"({p.render()}){dpart or ''}")
        return " + ".join(parts)


def _sub_multi_indices(nu):
    return list(iproduct(*(range(e + 1) for e in nu)))


def _multinomial(nu, lam):
    return prod(
        factorial(n_) // (factorial(l_) * factorial(n_ - l_)) for n_, l_ in zip(nu, lam)
    )
