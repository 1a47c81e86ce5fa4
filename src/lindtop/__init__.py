"""Quadratic fermionic Lindblad dynamics and steady-state topology."""

from .majorana import (
    Dissipator,
    PuritySpectrum,
    build_dissipator,
    nambu_from_dirac,
    purity_class,
    purity_spectrum,
)
from .dynamics import (
    evolve,
    mode_census_and_bulk_edge_check,
    steady_state,
    zero_damping_modes,
)
from .bloch import (
    BlochStencil,
    bloch_blocks,
    bz_grid,
    chern_number,
    classify_symmetry,
    flatten,
    momentum_state,
    winding_number,
    windings_around_u_zeros,
)
from .models import (
    VortexConfig,
    cross_2d,
    cylinder_reduce,
    kitaev_wire,
    residual_damping_vs_separation,
    smallest_damping_rates,
    three_site_wire,
    vortex_pair,
    zigzag_coherent,
    zigzag_competing,
)
from .edge import (
    BetaSolution,
    build_mode,
    fit_localization,
    solve_beta,
)
from .meanfield import (
    MeanFieldSolution,
    fluctuation_scaling,
    linearize,
    solve_number_equation,
)
from .braiding import (
    AdiabaticSchedule,
    BraidWord,
    adiabatic_evolve,
    braid_matrix,
    braid_via_schedule,
)

__version__ = "0.1.0"
