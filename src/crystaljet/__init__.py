"""Exact-arithmetic toolkit: bordism groups, crystallographic groups,
group cohomology, and formal integrability of polynomial PDE systems."""

from .abelian import FgAbelianGroup, IntegerMatrix, direct_sum, group_from_relations, smith_normal_form
from .bordism import (crystal_group_of, nondyadic_partition_count, oriented_bordism,
                      paper_crystal_assignment, relative_bordism, unoriented_bordism,
                      verify_extension_exactness)
from .cohomology import GModule, derivations, group_cohomology, kunneth_homology, splitting_classes
from .crystal import (AffineElement, CrystallographicGroup, is_symmorphic,
                      semidirect_product, wallpaper_groups)
from .diffpoly import DiffOperator, DiffPoly
from .groups import FiniteMatrixGroup, close_group, enumerate_subgroups, iso_type_name, point_group
from .jets import (PdeSystem, cartan_distribution_dimension, formal_integrability_check,
                   load_system, prolong_system, prolongation_dimension_formula,
                   symbol_report, verify_polynomial_solution)
from .pdeclass import (CrystalClassification, PdeDescriptor, SingularPdeDescriptor,
                       classify, classify_singular, component_bordism_compare,
                       load_descriptor, singular_bordism, weak_bordism)
