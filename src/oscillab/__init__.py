"""oscillab: a numerical lab for compactness criteria of composition
operators on BMOA/VMOA over the unit disc."""

from .geometry import (Arc, DiscPoint, arc_of, center_of,
                       hyperbolic, moebius, moebius_eval, poisson_kernel,
                       pseudo_hyperbolic, rho, tau)
from .symbols import (Blaschke, Compose, Constant, Identity, Moebius,
                      Polynomial, Scale, Symbol, boundary_samples, compose,
                      power, symbol_from_json, symbol_to_json, taylor,
                      validate_self_map)
from .hardy import (LinearCombination, bmoa_seminorm, garsia_gamma, h2_norm,
                    standard_grid, vmoa_profile)
from .dyadic import ArcSet, DyadicArc, density_core, intersect_measure, wik_decomposition
from .nevanlinna import RationalForm, counting_function, preimages, s1_statistic, to_rational
from .leibov import combination_seminorm, gamma_closed_form, select_subsequence

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
