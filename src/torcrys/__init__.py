"""torcrys: monomial crystals of affine type A (n odd) and the loop
weight modules of the quantum toroidal algebra built from them, in
exact arithmetic over Z[q, q^-1] and its extensions.

The layers, bottom to top:

- qcoeff: Laurent polynomials in q, their fraction field, truncated
  z-series, cyclotomic quotients.
- lattice: the affine weight lattice, roots, reflections.
- monomial: weighted Laurent monomials Y_{i,l}, shift and diagram
  twists, residue reduction.
- crystal: Kashiwara operators, windowed crystal graphs, extremality.
- tableaux: the single-row tableau model (an independent oracle).
- closedness: q-closedness decisions with witnesses.
- relations: the defining relations as term tables, their instances
  generically and at roots of unity, and the one checker of both rings.
- torep: the loop weight modules over Q(q).
- unity: specializations at roots of unity.
- cli: the torcrys command.
"""

from .lattice import EvenRankError, RootSystem, Weight
from .monomial import (Monomial, ParityError, ResidueMonomial,
                       ValidationError, a_monomial, gamma, tau, twist_phi,
                       twist_psi, xi_drop, xi_keep)
from .qcoeff import (CycloElem, ExpansionError, LaurentPoly, QSeries,
                     RationalQ, SpecializationError, cyclotomic,
                     eval_cyclotomic, qbinom, qfact, qint, series_exp,
                     series_log, series_of_rational)
from .crystal import (CrystalGraph, KashiwaraStats, WindowError, e_tilde,
                      f_tilde, generate, is_extremal, stats, sub_crystal)
from .closedness import (ClosednessReport, closed_report, fundamental_anchor,
                         kashiwara_closed, qclosed_direction, sl2_qclosed,
                         sl2_simple_qchar)
from .tableaux import (all_tableaux, box_exponents, enumerate_monomials,
                       tab_kashiwara, tab_monomial, tab_promotion)
from .relations import RelationSpec, relation_residual, relation_terms
from .torep import (ClosednessRefusal, ConstructionError, LoopModule,
                    build_doubled, build_module, build_thin,
                    fr_consistency_report, run_relation_suite,
                    verify_extremal_vector)
from .unity import (SpecializedModule, cyclic_generation_check,
                    generated_submodule, relation_check_eps,
                    specialize_doubled, specialize_thin)

__version__ = "0.1.0"
