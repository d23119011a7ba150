"""Interferometric polarization-path correlation simulator.

Closed-form evaluation of the local and joint observables of a two-arm
frequency-tagged polarization network, plus a stochastic time-tagged
photon-pair pipeline whose streaming coincidence analysis reproduces the
same observables.
"""

from .optics import (
    aom_tag,
    bs_transform,
    field,
    hwp_22_5,
    mirror,
    pbs_route,
)
from .interferometer import (
    EraserSetting,
    PairSetting,
    eraser_amplitudes,
    eraser_intensity,
    local_intensity,
    output_fields,
    pair_phase,
    port_intensities,
)
from .source import (
    DetuningGrid,
    PairBatch,
    SourceConfig,
    poisson_pair_probability,
    sample_n_pairs,
)
from .detection import (
    CoincidenceSetting,
    CorrelationEstimate,
    Outcome,
    heterodyne_product,
    selection_efficiency,
)
from .eventstream import (
    COINCIDENCE_DTYPE,
    REJECT_REASONS,
    TagStream,
    decode_stream,
    encode_stream,
    histogram_tau_si,
    match_coincidences,
    synthesize_stream,
)
from .experiments import (
    ChshResult,
    ExperimentConfig,
    RunMode,
    Table,
    analytic_r,
    emit_csv,
    run_chsh,
    run_dephasing,
    run_fig2a,
    run_fig2b,
    run_local,
)

__version__ = "0.1.0"
