"""Gradient-descent dynamics lab for non-separable linear classification.

Builds the classification objective for weighted datasets under logistic-type
losses, iterates the constant-step GD map, classifies its limit behavior
(fixed point / cycle / undetermined-chaotic), sweeps step-size grids into
bifurcation diagrams, rasterizes basins of attraction, and generates the
kicked dataset families on which GD provably settles into stable cycles
below the critical step size 2/lambda.
"""

from .analysis import (
    BasinRaster,
    BifurcationSweep,
    CycleReport,
    PsdResult,
    basin_raster,
    bifurcation_sweep,
    detect_cycle,
    psd,
    sharpness_series,
)
from .construct import (
    Recipe1D,
    Recipe2D,
    ToySpec,
    build_1d,
    build_2d,
    eos_demo,
    hunt_1d,
    iterate_toy_map,
    kronecker_stack,
    make_toy,
    period2_points,
    toy_lambda,
    toy_map_step,
    toy_minimizer,
)
from .data import (
    Dataset,
    SeparabilityVerdict,
    check_separable,
    parse_compact,
    parse_libsvm,
    serialize_compact,
)
from .dynamics import (
    GDConfig,
    StepWork,
    Trajectory,
    gd_step,
    lyapunov,
    orbit_multiplier,
    prob_step,
    probs_from_weights,
    resolve_eta,
    run,
    run_prob,
    step_many,
)
from .exceptions import (
    ConvergenceError,
    DegenerateDataError,
    GDCyclesError,
    ParseError,
    PowerIterationError,
    SeparableDataError,
)
from .losses import (
    AssumptionReport,
    ScalarLoss,
    get_loss,
    logistic,
    relu_limit_gap,
    squareplus,
    verify_assumption1,
)
from .objective import Objective, Solution, lambda_max, minimize

__version__ = "0.1.0"
