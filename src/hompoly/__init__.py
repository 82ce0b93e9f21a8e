"""Homomorphism generating polynomials over restricted graph classes.

Build class generating functions, run the reduction pipelines as circuit-
level transformations, and verify every step against independent brute-force
oracles at desk scale.
"""

from .errors import BudgetExceededError, PipelineIntegrityError
from .graphs import (CYCLE, CLIQUE, OUTERPLANAR, PLANAR, TREE, Graph,
                     GraphClass, genus_class, is_homomorphic,
                     hom_to_single_edge, recognize)
from .poly import (Polynomial, edge_var, loop_var, vertex_var, aux_var,
                   var_to_str)
from .genfun import (VariableModel, generating_function, hom_poly,
                     oracle_uhc, oracle_clique, oracle_matching)
from .circuit import (Circuit, CircuitBuilder, eval_symbolic, extract_homc,
                      interpolate_homc, lagrange_weights, size)
from .reductions import (Classification, ReductionReport, classify,
                         reduce_cycles, reduce_cliques_vac0, reduce_trees,
                         reduce_outerplanar, reduce_planar, reduce_genus)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
