"""Property tests: exact metric identities and the round trips of the
alist, CCDM and bit-mapping codecs, on generated inputs.

Examples are derandomized and few, so the module is deterministic and
fast; each property states an identity that must hold for every input,
not a statistical tendency.
"""

import os
import tempfile

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from psbicm.channel import ChannelConfig, awgn
from psbicm.constellation import draw_labels, square_qam
from psbicm.demapper import DemapperConfig, demap_to_trace
from psbicm.fec import (
    MAPPING_KINDS,
    apply_mapping,
    build_mapping,
    generate_code,
    invert_mapping,
    read_alist,
    write_alist,
)
from psbicm.metrics import (
    asi_mc,
    bmd_rate,
    gmi_from_trace,
    r_fec_star,
    tributary_conditional_entropies,
)
from psbicm.shaping import AmplitudeComposition, ccdm_decode, ccdm_encode

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=25)


@PROPERTY
@given(m=st.sampled_from([2, 4, 6]),
       snr_db=st.floats(-2.0, 18.0),
       offset_db=st.floats(-3.0, 3.0),
       scale=st.floats(0.5, 2.0),
       shaped=st.booleans(),
       seed=st.integers(0, 2**31 - 1))
def test_exact_metric_identities_on_random_traces(m, snr_db, offset_db, scale,
                                                  shaped, seed):
    amp = [0.5, 0.3, 0.15, 0.05] if shaped and m == 6 else None
    con, pmf = square_qam(m, amplitude_pmf=amp)
    ch = ChannelConfig(snr_db, seed=seed)
    labels = draw_labels(pmf, 300, ch.rng())
    cfg = DemapperConfig(assumed_snr_db=snr_db + offset_db, scale=scale)
    trace = demap_to_trace(labels, awgn(con.points[labels], ch), con, pmf, cfg,
                           channel_snr_linear=ch.snr_linear)

    # ASI = R*_fec at s_d = s_o/s: one shared reduction, so exact
    asi = asi_mc(trace)
    rf = r_fec_star(trace, s_d=trace.s_ratio)
    assert abs(asi - (1.0 - rf.uncertainty / trace.m)) <= 1e-12
    assert abs(rf.r_fec_star - max(asi, 0.0)) <= 1e-12

    # GMI at the trace's own scaling = Delta_H, also through the
    # prior/extrinsic decomposition one ulp away from that scaling
    delta_h = bmd_rate(tributary_conditional_entropies(trace), trace.h_b,
                       trace.m).delta_h
    assert abs(gmi_from_trace(trace, s=trace.scale).gmi_bits - delta_h) <= 1e-12
    s_next = float(np.nextafter(trace.scale, np.inf))
    assert abs(gmi_from_trace(trace, s=s_next).gmi_bits - delta_h) <= 1e-12


@PROPERTY
@given(n=st.sampled_from([96, 120, 144, 192, 216, 240, 288]),
       rate=st.sampled_from(["1/3", "1/2", "2/3"]),
       seed=st.integers(0, 10_000))
def test_alist_roundtrip_of_generated_codes(n, rate, seed):
    try:
        code = generate_code(n, rate, seed=seed)
    except ValueError:
        assume(False)                   # no layout for this seed
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "code.alist")
        write_alist(code, path)
        back = read_alist(path)
    assert (back.n, back.n_rows) == (code.n, code.n_rows)
    assert np.array_equal(back.row_ptr, code.row_ptr)
    assert np.array_equal(back.row_cols, code.row_cols)


@PROPERTY
@given(counts=st.lists(st.integers(0, 12), min_size=2, max_size=4)
       .filter(lambda c: sum(c) > 0),
       seed=st.integers(0, 2**31 - 1))
def test_ccdm_roundtrip_on_random_compositions(counts, seed):
    comp = AmplitudeComposition(alphabet=2 * np.arange(len(counts)) + 1,
                                counts=counts)
    u = np.random.default_rng(seed).integers(0, 2, comp.k_ps).astype(np.uint8)
    amps = ccdm_encode(u, comp)
    assert np.array_equal(np.bincount(amps // 2, minlength=len(counts)), counts)
    assert np.array_equal(ccdm_decode(amps, comp), u)


@PROPERTY
@given(kind=st.sampled_from(MAPPING_KINDS),
       bar_m=st.integers(1, 4),
       block=st.integers(1, 40),
       rows=st.integers(1, 3),
       seed=st.integers(0, 2**31 - 1))
def test_mapping_inverts_for_every_kind(kind, bar_m, block, rows, seed):
    n = bar_m * block
    perm = build_mapping(kind, n, n - block, bar_m, seed=seed)
    x = np.random.default_rng(seed).standard_normal((rows, n))
    assert np.array_equal(invert_mapping(apply_mapping(x, perm), perm), x)
    assert np.array_equal(apply_mapping(invert_mapping(x, perm), perm), x)
