"""Programmatically built symbolic systems that are too large to write by
hand: the full plasma (magnetohydrodynamic) system of 17 scalar equations
in 16 fields over space-time, and the curvature-flow system for a
3-metric with determinant-cleared curvature polynomials.

Both use declared constant rational coefficients (flat metric, distinct
small primes for the physical constants) so that every rank computation
stays exact and coefficient-generic.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations

from .diffpoly import DiffPoly, jet
from .jets import PdeSystem

# ---------------------------------------------------------------------------
# plasma system (17 scalar equations, 16 fields, n = 4, order 2)
# ---------------------------------------------------------------------------

MHD_DEPENDENT = [
    "v1", "v2", "v3", "p", "th",
    "E1", "E2", "E3", "H1", "H2", "H3",
    "I1", "I2", "I3", "rb", "hb",
]
MHD_INDEPENDENT = ["t", "x", "y", "z"]

# distinct small primes keep the instantiation coefficient-generic
MHD_CONSTANTS = {
    "rho": Fraction(2),
    "chi": Fraction(3),
    "nu": Fraction(5),
    "cv": Fraction(7),
    "cc": Fraction(1),
    "pi4": Fraction(1),
    "mu0": Fraction(2),
    "mubar": Fraction(3),
    "eps0": Fraction(5),
    "epsbar": Fraction(7),
}

_DEP = {name: i for i, name in enumerate(MHD_DEPENDENT)}


def _field(name, *directions):
    return DiffPoly.variable(jet(_DEP[name], tuple(directions)))


def _levi_civita(i, j, k):
    return {
        (1, 2, 3): 1, (2, 3, 1): 1, (3, 1, 2): 1,
        (3, 2, 1): -1, (1, 3, 2): -1, (2, 1, 3): -1,
    }.get((i, j, k), 0)


def mhd_system(boundary: bool = False, constants: dict | None = None) -> PdeSystem:
    """The nuclear-energy-producing plasma system.

    ``boundary=True`` appends the wall constraint: the energy-production
    field and all of its jets up to order two vanish.  ``constants``
    overrides individual physical coefficients (dimension counts are
    instantiation-generic; the tests run two instantiations).
    """
    c = dict(MHD_CONSTANTS)
    if constants:
        c.update({k: Fraction(v) for k, v in constants.items()})
    spatial = (1, 2, 3)

    def v(i, *d):
        return _field(f"v{i}", *d)

    def E(i, *d):
        return _field(f"E{i}", *d)

    def H(i, *d):
        return _field(f"H{i}", *d)

    def strain(i, k):
        return v(i, k) + v(k, i)

    def mu(i, k):
        base = -c["mu0"] if i == k else Fraction(0)
        return DiffPoly.constant(base) + c["mubar"] * strain(i, k)

    def eps(i, k):
        base = -c["eps0"] if i == k else Fraction(0)
        return DiffPoly.constant(base) + c["epsbar"] * strain(i, k)

    B = {i: sum((mu(i, k) * H(k) for k in spatial), DiffPoly.zero()) for i in spatial}
    D = {i: sum((eps(i, k) * E(k) for k in spatial), DiffPoly.zero()) for i in spatial}

    equations = []
    names = []

    # no magnetic monopoles / electrostatic Gauss law
    f1 = sum((B[k].total_derivative(k) for k in spatial), DiffPoly.zero())
    equations.append(f1)
    names.append("divB")
    f2 = sum((D[k].total_derivative(k) for k in spatial), DiffPoly.zero()) \
        - c["pi4"] * _field("rb")
    equations.append(f2)
    names.append("gauss")
    # induction and circuit laws
    for i in spatial:
        curl_e = sum(
            (Fraction(_levi_civita(i, j, s)) * E(j).total_derivative(s)
             for j in spatial for s in spatial if _levi_civita(i, j, s)),
            DiffPoly.zero(),
        )
        equations.append(curl_e + Fraction(1, 1) / c["cc"] * B[i].total_derivative(0))
        names.append(f"faraday{i}")
    for i in spatial:
        curl_h = sum(
            (Fraction(_levi_civita(i, j, s)) * H(j).total_derivative(s)
             for j in spatial for s in spatial if _levi_civita(i, j, s)),
            DiffPoly.zero(),
        )
        equations.append(
            curl_h
            - Fraction(1, 1) / c["cc"] * D[i].total_derivative(0)
            - c["pi4"] / c["cc"] * _field(f"I{i}")
        )
        names.append(f"ampere{i}")
    # continuity and its first prolongations
    cont = sum((v(k, k) for k in spatial), DiffPoly.zero())
    equations.append(cont)
    names.append("continuity")
    for alpha in range(4):
        equations.append(cont.total_derivative(alpha))
        names.append(f"continuity_{MHD_INDEPENDENT[alpha]}")
    # momentum balance
    bb2 = sum((B[s] * B[s] for s in spatial), DiffPoly.zero())
    ee2 = sum((E(s) * E(s) for s in spatial), DiffPoly.zero())

    def stress(i, k):
        out = c["chi"] * strain(i, k) \
            + Fraction(1, 1) / c["pi4"] * (B[i] * B[k] + E(i) * E(k))
        if i == k:
            out = out - (_field("p") + Fraction(1, 2) / c["pi4"] * (bb2 + ee2))
        return out

    for i in spatial:
        material = v(i, 0) + sum((v(k) * v(i, k) for k in spatial), DiffPoly.zero())
        div_stress = sum(
            (stress(i, k).total_derivative(k) for k in spatial), DiffPoly.zero()
        )
        lorentz = sum(
            (Fraction(_levi_civita(i, j, k)) * _field(f"I{j}") * B[k]
             for j in spatial for k in spatial if _levi_civita(i, j, k)),
            DiffPoly.zero(),
        )
        equations.append(
            c["rho"] * material - div_stress - _field("rb") * E(i) - lorentz
        )
        names.append(f"motion{i}")
    # energy balance
    em_energy = Fraction(1, 2) / c["pi4"] * (
        sum((E(i) * D[i] for i in spatial), DiffPoly.zero())
        + sum((H(i) * B[i] for i in spatial), DiffPoly.zero())
    )
    material_th = _field("th", 0) + sum(
        (v(k) * _field("th", k) for k in spatial), DiffPoly.zero()
    )
    material_w = em_energy.total_derivative(0) + sum(
        (v(k) * em_energy.total_derivative(k) for k in spatial), DiffPoly.zero()
    )
    heat_flux_div = sum(
        ((-c["nu"] * _field("th", k)).total_derivative(k) for k in spatial),
        DiffPoly.zero(),
    )
    laplace_th = sum((_field("th", k, k) for k in spatial), DiffPoly.zero())
    dissipation = sum(
        ((c["chi"] * strain(i, k)
          + Fraction(1, 1) / c["pi4"] * (B[i] * B[k] + E(i) * E(k))) * v(i, k)
         for i in spatial for k in spatial),
        DiffPoly.zero(),
    )
    joule = sum((_field(f"I{i}") * E(i) for i in spatial), DiffPoly.zero())
    f7 = (
        c["rho"] * c["cv"] * material_th
        + material_w
        - c["nu"] * laplace_th
        + heat_flux_div
        - dissipation
        + joule
        - c["rho"] * _field("hb")
    )
    equations.append(f7)
    names.append("energy")

    stage_first = [(names.index("continuity"), "v3_z")]
    stage_second = [
        (names.index("continuity_t"), "v3_tz"),
        (names.index("continuity_x"), "v3_xz"),
        (names.index("continuity_y"), "v3_yz"),
        (names.index("continuity_z"), "v3_zz"),
        (names.index("motion1"), "v1_xx"),
        (names.index("motion2"), "v2_xx"),
        (names.index("motion3"), "v3_xx"),
        (names.index("divB"), "H1_x"),
        (names.index("gauss"), "rb"),
        (names.index("faraday1"), "H1_t"),
        (names.index("faraday2"), "H2_t"),
        (names.index("faraday3"), "H3_t"),
        (names.index("ampere1"), "I1"),
        (names.index("ampere2"), "I2"),
        (names.index("ampere3"), "I3"),
        (names.index("energy"), "th_xx"),
    ]
    stage_zero = []
    if boundary:
        # the wall: energy production and all of its jets vanish
        hb_tokens = ["hb"]
        hb_polys = [_field("hb")]
        letters = MHD_INDEPENDENT
        for a in range(4):
            hb_tokens.append(f"hb_{letters[a]}")
            hb_polys.append(_field("hb", a))
        for a in range(4):
            for b in range(a, 4):
                suffix = "".join(sorted(letters[a] + letters[b]))
                hb_tokens.append(f"hb_{suffix}")
                hb_polys.append(_field("hb", a, b))
        base = len(equations)
        equations.extend(hb_polys)
        names.extend(hb_tokens)
        stage_zero = [(base + i, tok) for i, tok in enumerate(hb_tokens)]
    return PdeSystem(
        independent=MHD_INDEPENDENT,
        dependent=MHD_DEPENDENT,
        order=2,
        equations=equations,
        exclusions=[],
        name="mhd_boundary" if boundary else "mhd",
        solve_stages=([stage_zero] if stage_zero else []) + [stage_first, stage_second],
    )


# ---------------------------------------------------------------------------
# curvature flow of a 3-metric (6 equations, n = 4, order 2)
# ---------------------------------------------------------------------------

METRIC_DEPENDENT = ["g11", "g12", "g13", "g22", "g23", "g33"]


def _sym_index(i, j):
    i, j = min(i, j), max(i, j)
    return {(1, 1): 0, (1, 2): 1, (1, 3): 2, (2, 2): 3, (2, 3): 4, (3, 3): 5}[(i, j)]


def metric_flow_system() -> PdeSystem:
    """Evolution of a Riemannian 3-metric by its Ricci curvature, encoded
    as determinant-cleared differential polynomials: each equation is
    det(g)^2 (d/dt g_jn) - det(g)^2 R_jn with R the curvature of the
    spatial metric (the flow at unit speed)."""
    spatial = (1, 2, 3)

    def g(i, j, *d):
        return DiffPoly.variable(jet(_sym_index(i, j), tuple(sorted(d))))

    det = DiffPoly.zero()
    for perm in permutations(spatial):
        sign = _perm_sign(spatial, perm)
        term = DiffPoly.constant(sign)
        for row, col in zip(spatial, perm):
            term = term * g(row, col)
        det = det + term

    def adj(r, p):
        # cofactor of the symmetric 3x3 matrix: adj[r][p] = det of the 2x2
        # minor with signs, symmetric in (r, p)
        rows = [i for i in spatial if i != r]
        cols = [j for j in spatial if j != p]
        minor = g(rows[0], cols[0]) * g(rows[1], cols[1]) - g(rows[0], cols[1]) * g(
            rows[1], cols[0]
        )
        sign = (-1) ** (r + p)
        return minor * sign

    def bracket(i, j, k):
        # first Christoffel bracket [ij, k], spatial derivatives only
        return Fraction(1, 2) * (g(i, k, j) + g(j, k, i) - g(i, j, k))

    def det2_ricci(j, n):
        total = DiffPoly.zero()
        for r in spatial:
            for p in spatial:
                half_block = (
                    g(r, p, j, n) + g(j, n, r, p) - g(r, n, j, p) - g(j, p, r, n)
                )
                inner = Fraction(1, 2) * det * half_block
                for t in spatial:
                    for s in spatial:
                        inner = inner + adj(t, s) * (
                            bracket(j, n, s) * bracket(r, p, t)
                            - bracket(j, p, s) * bracket(r, n, t)
                        )
                total = total + adj(r, p) * inner
        return total

    equations = []
    for j in spatial:
        for n in spatial:
            if j > n:
                continue
            equations.append(det * det * g(j, n, 0) - det2_ricci(j, n))
    return PdeSystem(
        independent=["t", "x", "y", "z"],
        dependent=METRIC_DEPENDENT,
        order=2,
        equations=equations,
        exclusions=[det],
        name="metric_flow",
    )


def _perm_sign(base, perm):
    perm = list(perm)
    sign = 1
    want = list(base)
    for i in range(len(want)):
        if perm[i] != want[i]:
            j = perm.index(want[i])
            perm[i], perm[j] = perm[j], perm[i]
            sign = -sign
    return sign
