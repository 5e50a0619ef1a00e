"""Fermionic multi-pair states from pair creation in two counterpropagating
elliptically polarized laser waves.

The package propagates the time-dependent Dirac equation over a truncated
momentum-mode chain, extracts the propagator blocks connecting in/out band
sectors, and turns them into single- and multi-pair amplitudes, sector
probabilities, and averaged spin/helicity observables.  A small exact
Fock-space propagation serves as an independent cross-check of the
multi-pair combinatorics.
"""

from .errors import (ValidationError, FockDimensionError,
                     NumericalToleranceError, UnitarityError,
                     IllConditionedError, NormDriftError)
from .physconfig import (E_SCHWINGER_V_PER_M, HelicityRelation, FieldParams,
                         WindowParams, NumericsParams, RunConfig, xi,
                         field_from_si, validate, validation_errors,
                         config_to_dict, config_from_dict, config_hash,
                         with_plateau)
from .fieldmodel import (envelope, envelope_derivative, beam_amplitudes,
                         carrier, potential_vector_at, electric_field_at,
                         JONES_LEFT, JONES_RIGHT)
from .modebasis import (ModeBasis, build_basis, free_spinors,
                        free_hamiltonian, ALPHA, BETA, SIGMA_BIG)
from .dynamics import (Propagator, GBlocks, assemble_hamiltonian, propagate,
                       propagator_segments, cycle_compose, extract_g_blocks,
                       unitarity_defect)
from .multipair import (PairAmplitudes, VacuumAmplitude, SectorReport,
                        pair_amplitudes, vacuum_amplitude,
                        multi_pair_amplitude, sector_observables)
from .fockoracle import (FockBasis, ManyBodyState, second_quantize,
                         propagate_vacuum, read_amplitude, vacuum_overlap,
                         sector_probabilities_exact, amplitude_table)
from .cli import (ResultRow, SweepSpec, run_once, run_sweep, figure_configs,
                  sweep_spec_from_dict, sweep_spec_to_dict, main)

__version__ = "0.1.0"
