"""Numerical thermodynamic formalism for random conformal graph directed
Markov systems: relative pressure over countable Markov shifts, Bowen
dimension of random limit sets, and Lyapunov multifractal spectra, with exact
small-instance oracles and geometric cross-checks."""

from .driving import (
    DrivingOrbit,
    DrivingSystem,
    OrbitFamily,
    bernoulli,
    deterministic,
    orbit_family,
    periodic,
)
from .gdms import (
    RCGDMS,
    LimitSetSample,
    build_paper_example,
    sample_limit_set,
    similarity_system,
)
from .gibbs import (
    CylinderMeasure,
    conformal_measures,
)
from .oracle import (
    BoxCountEstimate,
    LevelHistogram,
    box_counting,
    corrected_coarse_dimensions,
    level_histogram,
)
from .potentials import (
    FirstSymbolPotential,
    geometric_potential,
    s_infinity,
    table_potential,
)
from .shift import (
    GeometricTail,
    PrimitivityWitness,
    SymbolicSystem,
    build_ladder,
    count_words,
    find_primitivity,
    from_matrix,
    full_shift,
    verify_primitivity,
)
from .spectrum import (
    PressureCurve,
    SpectrumResult,
    bowen_dimension,
    legendre_spectrum,
    pressure_curve,
)
from .thermo import (
    CompactApproximation,
    GibbsReport,
    PressureEstimate,
    SandwichReport,
    check_gibbs,
    check_sandwich,
    pressure,
    pressure_compact_approx,
    pressures,
    primitivity_witness,
)

__version__ = "0.1.0"
