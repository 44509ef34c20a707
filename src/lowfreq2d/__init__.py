"""Low-energy resolvent expansions, threshold classification, scattering phase
and wave decay for compactly supported radial perturbations of the plane
Laplacian, with everything continued on the Riemann surface of log(lambda)."""

__version__ = "0.1.0"

from .errors import (AtPoleError, BasinError, BoundStateRefusal, ConfigError,
                     DegenerateScattererError, DomainError, IllConditionedFitError,
                     LowfreqError, NumericalError, ShapeMismatchError, ValidationError)
from .expansion import (ExpansionGrid, FitReport, FitTerm, expansion_grid, fit_log_laurent,
                        fit_shape, nonresonant_terms, predict_leading_terms, resonant_terms,
                        sample_matrix_element)
from .quadrature import PanelGrid
from .radial import Exterior, RadialFunction, bump, bump_edges, inner, norm_sq
from .resolvent import (ResolventSample, mode_green, one_sided_identity_residual,
                        pairing_identity_residual, two_parameter_identity_residual)
from .scatterer import (CutoffProfile, DiskObstacle, PiecewisePotential,
                        Scatterer, ScattererConfig, commutator_apply, default_cutoff,
                        parse_config, standard_grid)
from .scattering import (PhaseShiftTable, ResonancePole, outgoing_defect, phase_shift_sweep,
                         sigma_asymptotic)
from .specfun import EULER, GAMMA0, SpectralBatch
from .threshold import ThresholdMode, ThresholdReport, classify, solve_zero_mode
from .wave import DecayReport, WaveQuery, WaveResult, decay_fit, evolve
