"""Baseband simulator and relay receiver for OFDM physical-layer network
coding in a two-way relay channel."""

from .channel import (
    ChannelRealization,
    exp_power_profile,
    noise_var,
    phase_trajectory,
    sample_flat,
    sample_selective,
    simulate_uplink,
)
from .codec import (
    JointPairDecoder,
    PairEvidence,
    PairPosterior,
    RaCode,
    ra_encode,
)
from .frame import (
    BPSK,
    QPSK,
    Constellation,
    FrameConfig,
    ToneMap,
    default_config,
    default_tone_map,
    make_constellation,
    map_bits,
    ofdm_modulate,
    transmit_frame,
)
from .harness import (
    ExperimentConfig,
    ExperimentResult,
    emit_csv,
    load_config,
    mse_metric,
    parse_csv,
    run_experiment,
    run_single_trial,
    wilson_interval,
)
from .receiver import (
    EmBpResult,
    PhaseObjective,
    ReceiverConfig,
    build_phase_objective,
    demodulate,
    effective_noise_var,
    em_bp_receive,
    ls_pilot_phase,
    pair_evidence,
    particle_m_step,
    pnc_map,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
