"""Near-field wideband beam focusing for hybrid TD-PS receive arrays.

Learns quantized phase-shifter settings from power measurements alone and
configures true-time-delay units via a geometry-assisted search, with
CSI-oracle baselines for benchmarking.
"""

from .geometry import (
    SPEED_OF_LIGHT,
    ArrayGeometry,
    DdfRegime,
    DegeneratePositionError,
    UePosition,
    ddf_regime,
    distance_difference,
    distances,
    random_geometry,
    uniform_geometry,
)
from .channel import (
    ChannelMatrix,
    SystemConfig,
    load_channel,
    near_field_channel,
    save_channel,
    subcarrier_frequencies,
)
from .combiner import (
    CombinerConfig,
    PhaseCodebook,
    effective_combiner,
    load_combiner,
    quantize_phase,
    recompensate_phases,
    save_combiner,
)
from .sim import (
    GainProfile,
    avg_amplitude_gain,
    gain_profile,
    measure_power,
    normalized_gain_db,
    three_db_bandwidth,
)
from .critic import (
    CriticModel,
    PowerDataset,
    TrainOptions,
    critic_loss_and_gradient,
    predict_power,
    train_critic,
)
from .phase_learning import (
    LearnerOptions,
    learn_phases,
)
from .delay_search import (
    DelayGrid,
    LinearApprox,
    delays_from_approx,
    linear_ddf,
    search_delays,
    subarray_deltas,
)
from .baselines import pdf_oracle, ps_only_oracle
from .config import ExperimentConfig, emit_config, parse_config

__all__ = [name for name in dir() if not name.startswith("_")]
