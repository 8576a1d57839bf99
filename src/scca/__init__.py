"""Two-stage sparse canonical correlation analysis.

Stage one infers the sparsity patterns of the canonical directions by
maximizing a convex objective over the unit sphere; stage two solves a
conventional CCA/SVD problem on the pattern-shrunken covariance blocks.
Multi-view, directed and multi-factor extensions, permutation/CV tuning,
a simulation harness and plot-data emission are included.
"""

__version__ = "0.1.0"

from .covariance import (CrossOperator, SparsityPattern, ViewMatrix, center_scale,
                         cross_covariance, load_view, load_views, write_view)
from .directed import (AccessoryVector, DirectedParams, StackedProblem,
                       UnivariateSelector, compute_beta, directed_fit,
                       directed_pattern_dot, directed_pattern_reg,
                       directed_stacked, directed_stacked_fit, directed_two_stage)
from .errors import (DegenerateInputError, DimensionError, EmptySupportError,
                     IndefiniteMatrixError, InsufficientFactorsError, IoError,
                     ParseError, SccaError, SingularityError, StateError)
from .multiview import (GammaMatrix, MultiViewProblem, multiview_pattern,
                        multiview_scca, multiview_screen)
from .pattern import (ConvergenceSpec, Direction, PatternResult, init_direction,
                      objective_l0, objective_l1, pattern_l0, pattern_l1,
                      reconstruct_l0, reconstruct_l1, scca_pair, screen_l1)
from .report import (BiplotData, InterpolationData, biplot_coords, interp_coords,
                     write_report)
from .simulate import (MetricReport, NoiseSweepSpec, RankOneSpec,
                       StabilitySweepSpec, evaluate, gen_null, gen_rank_one,
                       gen_rank_one_threeview, planted_direction, sweep)
from .solve import (CcaSolution, cca_gep, deflate, fit_pair, multi_factor,
                    multiview_gep, multiview_power, pearson, power_svd, stage_two)
from .tuning import (FitConfig, TuneGrid, TuneReport, cv_tune, grid_orchestrate,
                     perm_tune)

__all__ = [name for name in dir() if not name.startswith("_")]
