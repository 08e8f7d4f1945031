"""From a PDE's topological/integrability descriptor to its bordism groups
and crystal classification, including singular PDEs split into components.

Descriptors carry what the analytic theory establishes (integrability
flags, Betti data, dimensions); the toolkit computes every group from that
data, cross-checks integrability flags against the symbolic corpus when a
matching system is named, and never invents analytic facts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .abelian import FgAbelianGroup
from .bordism import (
    NotCrystalShapedGroup,
    UnassignedInPaper,
    crystal_group_of,
    paper_crystal_assignment,
    relative_bordism,
)
from .data import data_path, load_document
from .jets import formal_integrability_check, load_system


class HypothesisViolated(ValueError):
    pass


class DescriptorRejected(ValueError):
    pass


class MissingDescriptorField(ValueError):
    pass


DEFAULT_FLAGS = {
    "formally_integrable": False,
    "completely_integrable": False,
    "symbol_nonzero_at_k": False,
    "symbol_nonzero_at_k_plus_1": False,
    "affine_fiber_bundle_over_M": False,
    "zero_crystal_asserted": False,
}


@dataclass
class PdeDescriptor:
    name: str
    n: int
    m: int
    order: int
    dim_e: int
    betti_w: list
    betti_m: list | None = None
    flags: dict = field(default_factory=dict)
    jets_check: list = field(default_factory=list)  # corpus .pde files

    def __post_init__(self):
        merged = dict(DEFAULT_FLAGS)
        merged.update(self.flags)
        self.flags = merged
        if self.dim_e < 0:
            raise ValueError("dim_E must be nonnegative")
        if not self.betti_w or self.betti_w[0] < 1:
            raise ValueError("Betti list must be nonempty with h_0 >= 1")


@dataclass
class IntersectionInfo:
    nonempty: bool
    union_connected: bool = True
    descriptor: PdeDescriptor | None = None


@dataclass
class SingularPdeDescriptor:
    name: str
    components: list
    intersections: dict = field(default_factory=dict)  # (i, j) -> IntersectionInfo

    def __post_init__(self):
        if not self.components:
            raise ValueError("a singular descriptor needs at least one component")


@dataclass
class CrystalClassification:
    name: str
    weak_bordism: FgAbelianGroup
    singular_bordism: FgAbelianGroup | None  # None = Unknown
    verdict: str
    crystal_dimension: int
    crystal_group_name: str
    crystal_conservation_dim: int
    caveats: list

    def to_json_dict(self):
        return {
            "name": self.name,
            "weak_bordism": self.weak_bordism.render(),
            "singular_bordism": (
                "unknown" if self.singular_bordism is None else self.singular_bordism.render()
            ),
            "verdict": self.verdict,
            "crystal": {
                "dimension": self.crystal_dimension,
                "name": self.crystal_group_name,
            },
            "crystal_conservation_dim": self.crystal_conservation_dim,
            "caveats": list(self.caveats),
        }


def _check_hypotheses(d: PdeDescriptor, p: int):
    named = f"{d.name}: " if d.name else ""
    if not d.flags["formally_integrable"]:
        raise HypothesisViolated(f"{named}formal integrability not established")
    if not d.flags["completely_integrable"]:
        raise HypothesisViolated(f"{named}complete integrability not established")
    if d.dim_e < 2 * d.n + 1:
        raise HypothesisViolated(f"{named}dim E = {d.dim_e} < 2n+1 = {2 * d.n + 1}")
    if p >= d.n:
        raise HypothesisViolated(f"{named}bordism degree {p} must be < n = {d.n}")


def weak_bordism(d: PdeDescriptor, p: int) -> FgAbelianGroup:
    """Weak integral bordism group in degree p from the total space's
    Z_2-Betti numbers."""
    _check_hypotheses(d, p)
    return relative_bordism(d.betti_w, p)


def weak_bordism_over_base(d: PdeDescriptor, p: int) -> FgAbelianGroup | None:
    """The companion value computed from the base when the descriptor
    declares an affine fiber bundle (both are reported)."""
    if not d.flags["affine_fiber_bundle_over_M"] or d.betti_m is None:
        return None
    _check_hypotheses(d, p)
    return relative_bordism(d.betti_m, p)


def singular_bordism(d: PdeDescriptor, p: int) -> FgAbelianGroup | None:
    """Equals the weak group when the symbol is nonzero at orders k and
    k+1; otherwise unknown (None)."""
    wb = weak_bordism(d, p)
    if d.flags["symbol_nonzero_at_k"] and d.flags["symbol_nonzero_at_k_plus_1"]:
        return wb
    return None


def verify_integrability_flags(d: PdeDescriptor):
    """Reject a descriptor whose named corpus systems fail the integrability
    check at the default seed while the flags claim integrability."""
    for fname in d.jets_check:
        verdict = formal_integrability_check(load_system(str(data_path(fname))))
        if d.flags["formally_integrable"] and not verdict.passed:
            raise DescriptorRejected(
                f"{d.name}: flags claim formal integrability but corpus system "
                f"{fname} fails the dimension test"
            )


def classify(d: PdeDescriptor) -> CrystalClassification:
    """Headline pipeline: corpus check, bordism groups, verdict, crystal group/dimension."""
    verify_integrability_flags(d)
    p = d.n - 1
    wb = weak_bordism(d, p)
    sb = singular_bordism(d, p)
    caveats = []
    base_value = weak_bordism_over_base(d, p)
    if base_value is not None and base_value != wb:
        caveats.append(
            f"bundle-base computation gives {base_value.render()} against "
            f"{wb.render()} from the total space"
        )
    if sb is None:
        caveats.append("singular bordism unknown: symbol nonvanishing not established")
    if wb.is_trivial():
        if d.flags["zero_crystal_asserted"]:
            verdict = "ZeroCrystal"
        else:
            verdict = "ExtendedZeroCrystal"
            caveats.append("not a 0-crystal unless full admissibility asserted")
        dim, name = 0, "trivial / extended 0-crystal"
    else:
        verdict = "ExtendedCrystal"
        try:
            dim, name = paper_crystal_assignment(wb)
        except (UnassignedInPaper, NotCrystalShapedGroup):
            group, witness = crystal_group_of(wb)
            dim, name = witness["dimension"], group.name
            caveats.append("crystal group beyond the published assignments; generic construction used")
    return CrystalClassification(
        name=d.name,
        weak_bordism=wb,
        singular_bordism=sb,
        verdict=verdict,
        crystal_dimension=dim,
        crystal_group_name=name,
        crystal_conservation_dim=wb.order(),
        caveats=caveats,
    )


@dataclass
class SingularClassification:
    name: str
    verdict: str
    components: list  # CrystalClassification

    def to_json_dict(self):
        return {
            "name": self.name,
            "verdict": self.verdict,
            "components": [c.to_json_dict() for c in self.components],
        }


def classify_singular(s: SingularPdeDescriptor) -> SingularClassification:
    parts = []
    for i, comp in enumerate(s.components):
        try:
            parts.append(classify(comp))
        except Exception as exc:
            named = f" ({comp.name})" if comp.name else ""
            raise type(exc)(f"component {i}{named}: {exc}") from exc
    verdicts = {c.verdict for c in parts}
    if verdicts <= {"ZeroCrystal"}:
        verdict = "ZeroCrystalSingular"
    elif verdicts <= {"ZeroCrystal", "ExtendedZeroCrystal"}:
        verdict = "ExtendedZeroCrystalSingular"
    else:
        verdict = "ExtendedCrystalSingular"
    return SingularClassification(name=s.name, verdict=verdict, components=parts)


def component_bordism_compare(s: SingularPdeDescriptor, i: int, j: int, p: int) -> dict:
    """Compare weak bordism of two components and their intersection; the
    classes of admissible boundaries match iff all three groups agree."""
    key = (i, j) if (i, j) in s.intersections else (j, i)
    info = s.intersections.get(key)
    if info is None or not info.nonempty or info.descriptor is None:
        raise HypothesisViolated(
            f"components {i}, {j} have no recorded nonempty intersection"
        )
    inter = info.descriptor
    if inter.dim_e <= 2 * inter.n + 1:
        raise HypothesisViolated(
            f"intersection dim E = {inter.dim_e} must exceed 2n+1 = {2 * inter.n + 1}"
        )
    gi = weak_bordism(s.components[i], p)
    gj = weak_bordism(s.components[j], p)
    gij = weak_bordism(inter, p)
    isomorphic = gi == gj == gij
    return {
        "component_i": gi.render(),
        "component_j": gj.render(),
        "intersection": gij.render(),
        "isomorphic": isomorphic,
        "conclusion": (
            "weak algebraic singular solutions bording boundaries in the two "
            "components exist iff their classes match"
            if isomorphic
            else "ISOMORPHISM FAILED: the printed identification does not hold for this data"
        ),
    }


# ---------------------------------------------------------------------------
# descriptor files
# ---------------------------------------------------------------------------


_REQUIRED = object()


def _field(doc: dict, key: str, ok, kind: str, what: str, default=_REQUIRED):
    """doc[key], which ``ok`` must accept, or ``default`` when the key is
    absent.  A missing required field raises MissingDescriptorField and a
    malformed one ValueError, naming the field and ``what`` it belongs to."""
    if key not in doc:
        if default is _REQUIRED:
            raise MissingDescriptorField(f"{what} is missing the {key!r} field")
        return default
    value = doc[key]
    if not ok(value):
        raise ValueError(f"{what}: the {key!r} field must be {kind}, not {value!r:.40}")
    return value


def _is_int(x) -> bool:
    return type(x) is int


def _is_bool(x) -> bool:
    return type(x) is bool


def _is_mapping(x) -> bool:
    return isinstance(x, dict)


def _list_of(ok):
    return lambda value: isinstance(value, list) and all(map(ok, value))


def _flags(doc: dict, what: str) -> dict:
    """The 'flags' field: a mapping from names in DEFAULT_FLAGS to true or
    false.  Any other name raises ValueError naming it, so a misspelt flag
    is not dropped silently."""
    flags = _field(doc, "flags", lambda f: _is_mapping(f) and all(map(_is_bool, f.values())),
                   "a mapping to true or false", what, {})
    for key in flags:
        if key not in DEFAULT_FLAGS:
            raise ValueError(f"{what}: the 'flags' field names {key!r}, which is not a flag"
                             f" (the flags are {', '.join(DEFAULT_FLAGS)})")
    return flags


def _descriptor_from_dict(doc: dict, what: str = "descriptor") -> PdeDescriptor:
    n, m, order, dim_e = (_field(doc, key, _is_int, "an integer", what)
                          for key in ("n", "m", "order", "dim_E"))
    ints = _list_of(_is_int)
    return PdeDescriptor(
        name=doc.get("name", ""), n=n, m=m, order=order, dim_e=dim_e,
        betti_w=_field(doc, "betti_W", ints, "a list of integers", what),
        betti_m=_field(doc, "betti_M", ints, "a list of integers", what, None),
        flags=_flags(doc, what),
        jets_check=_field(doc, "jets_check", _list_of(lambda f: isinstance(f, str)),
                          "a list of file names", what, []),
    )


def load_descriptor(source):
    """Load a descriptor (plain or singular) from a YAML document (path,
    text, or dict).  A missing or malformed field raises ValueError naming
    the field, and the component or intersection it belongs to."""
    doc = load_document(source)
    if not _field(doc, "singular", _is_bool, "true or false", "descriptor", False):
        return _descriptor_from_dict(doc)
    what = "singular descriptor"
    mappings = _list_of(_is_mapping)
    components = [_descriptor_from_dict(c, f"component {k} of the {what}") for k, c in
                  enumerate(_field(doc, "components", mappings, "a list of mappings", what))]
    intersections = {}
    items = _field(doc, "intersections", mappings, "a list of mappings", what, [])
    for k, item in enumerate(items):
        where = f"intersection {k} of the {what}"
        i, j = _field(item, "pair", lambda p: _list_of(_is_int)(p) and len(p) == 2
                      and all(0 <= c < len(components) for c in p),
                      f"two component indices below {len(components)}", where)
        descriptor = _field(item, "descriptor", _is_mapping, "a mapping", where, None)
        intersections[(i, j)] = IntersectionInfo(
            nonempty=_field(item, "nonempty", _is_bool, "true or false", where, False),
            union_connected=_field(item, "union_connected", _is_bool, "true or false", where, True),
            descriptor=None if descriptor is None else _descriptor_from_dict(
                descriptor, f"the descriptor of intersection {i}, {j}"),
        )
    return SingularPdeDescriptor(
        name=doc.get("name", ""), components=components, intersections=intersections
    )
