"""poslog: exact finite-scale constructions for positive modal logic.

The package lifts set endofunctors to posets and Boolean syntax functors
to distributive lattices, derives the lifted semantics, and verifies the
closed forms and transfer properties by exhaustive computation.
"""

from .errors import BudgetExceeded, InputError, budget
from .order import (FinPoset, MonotoneMap, Preorder, connected_components,
                    cotensor2, poset_isomorphism, poset_quotient,
                    transitive_closure)
from .algebra import (BAHom, FinBoolAlg, FinDistLattice, LatticeHom,
                      boolean_as_lattice, dl_inserter, free_ba,
                      free_ba_generator, free_ba_map, free_over_dl_G,
                      kernel_K, lattice_isomorphic, prime_filter_poset,
                      tensor2, up_algebra)
from .functors import (SetFunctor, carrier_labels, lift_relation_generic,
                       mnb_functor, multiset_functor, nb_functor,
                       parse_functor, poly_functor, pow_functor)
from .posetify import (Posetification, closed_form, cross_check,
                       posetify_generic, posetify_mnb, posetify_nb,
                       posetify_powerset)
from .positivize import (BAFunctor, Positivication, closed_form_dunn,
                         closed_form_fu, free_l, parse_syntax, positivize,
                         positivize_mor, semantic_l)
from .semantics import (Coalgebra, Formula, delta_pow, delta_prime,
                        interpret_boolean, interpret_positive, parse_formula)

__version__ = "0.1.0"
