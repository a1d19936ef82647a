"""Probabilistically shaped BICM simulation toolkit.

Building blocks for a coded-modulation transceiver over AWGN — Gray
square QAM constellations, constant-composition distribution matching,
soft-demapping to bit L-values, LDPC coding with configurable bit
mappings — plus decoding-aware performance metrics (pre-FEC BER, GMI,
NGMI, BMD rates, achievable-FEC-rate and the asymmetric-information
measures) computed from Monte-Carlo L-value traces.
"""

from .constellation import (
    Constellation,
    SymbolPmf,
    EntropyStats,
    entropy_stats,
    gray_pam_levels,
    square_qam,
    draw_labels,
)
from .shaping import (
    AmplitudeComposition,
    amplitude_preset,
    quantize_pmf,
    ccdm_encode,
    ccdm_decode,
    rate_loss,
    amplitudes_to_bits,
    bits_to_amplitudes,
)
from .channel import ChannelConfig, awgn
from .demapper import (
    DemapperConfig,
    Quantizer,
    LValueTrace,
    extrinsic_lvalues,
    bitwise_lvalues,
    make_trace,
    demap_to_trace,
    quantize_trace,
    default_quantizer,
    write_trace,
    read_trace,
    consistency_check,
)
from .metrics import (
    MetricReport,
    compute_report,
    pre_fec_ber,
    asi_mc,
    asi_hist,
    asi_floor,
    tributary_conditional_entropies,
    bmd_rate,
    gmi_from_trace,
    ngmi,
    r_fec_star,
    rate_accounting,
)
from .fec import (
    build_mapping,
    apply_mapping,
    invert_mapping,
    LdpcCode,
    generate_code,
    reference_code,
    read_alist,
    write_alist,
    encode,
    decode,
)
from .pas import (
    PasFrames,
    transmit,
    CodedPointResult,
    run_coded_point,
    frame_lvalues,
)

__version__ = "0.1.0"
