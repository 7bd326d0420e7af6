"""Mixed-type multiple orthogonal polynomials, the associated projection
kernel (direct and Christoffel-Darboux routes, and read off the
Riemann-Hilbert matrix), and the determinantal process of non-intersecting
Brownian motions with several starting and ending points."""

__version__ = "0.1.0"

from .weights import (AccuracyError, ProductMomentTable, Weight, WeightFamily,
                      build_moment_table, gaussian_transition, product_moment,
                      transition_weight, weights_from_json)
from .mop import (MixedMopSolution, MultiIndex, MultiIndexPair, Normalization,
                  NormalityReport, NotNormalizable, check_normality,
                  moment_table_for, solve_mixed, solve_type1_classical,
                  solve_type2_classical)
from .kernel import (BiorthogonalSystem, CdKernelData, DegeneratePair,
                     DiagonalRegion, build_biorthogonal, build_cd_data,
                     kernel_cd, kernel_cd_band, kernel_cd_diagonal,
                     kernel_cd_grid, kernel_direct, kernel_direct_grid,
                     kernel_routes_report, trace_quadrature)
from .rh import (RhEvaluation, RhSystem, eval_X, eval_Y, jump_matrix,
                 kernel_rh, kernel_rh_grid, rh_verification_report,
                 verify_jump)
from .brownian import (BrownianConfig, DppSamples, KarlinMcGregorDensity,
                       PathBundles, PositionSamples, config_to_weights,
                       correlation_kernel, km_density, r1_grid, r_m,
                       sample_paths, sample_positions, sample_projection_dpp)

__all__ = [
    "AccuracyError", "BiorthogonalSystem", "BrownianConfig", "CdKernelData",
    "DegeneratePair", "DiagonalRegion", "DppSamples", "KarlinMcGregorDensity",
    "MixedMopSolution", "MultiIndex", "MultiIndexPair", "Normalization",
    "NormalityReport", "NotNormalizable", "PathBundles", "PositionSamples",
    "ProductMomentTable", "RhEvaluation", "RhSystem", "Weight", "WeightFamily",
    "build_biorthogonal", "build_cd_data", "build_moment_table",
    "check_normality", "config_to_weights", "correlation_kernel", "eval_X",
    "eval_Y", "gaussian_transition", "jump_matrix", "kernel_cd",
    "kernel_cd_band", "kernel_cd_diagonal", "kernel_cd_grid", "kernel_direct",
    "kernel_direct_grid", "kernel_rh", "kernel_rh_grid",
    "kernel_routes_report", "km_density", "moment_table_for", "product_moment",
    "r1_grid", "r_m", "rh_verification_report", "sample_paths",
    "sample_positions", "sample_projection_dpp",
    "solve_mixed", "solve_type1_classical", "solve_type2_classical",
    "trace_quadrature", "transition_weight", "verify_jump",
    "weights_from_json",
]
