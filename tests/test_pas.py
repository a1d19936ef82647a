"""End-to-end tests for the shaping/FEC/mapping chain."""

import numpy as np
import pytest

from psbicm.channel import ChannelConfig, awgn
from psbicm.constellation import gray_pam_levels, square_qam
from psbicm.demapper import DemapperConfig, bitwise_lvalues
from psbicm.fec import decode, generate_code, invert_mapping
from psbicm.pas import (PasStream, frame_amplitudes, frame_lvalues,
                        recover_matcher_payloads, run_coded_point)
from psbicm.shaping import quantize_pmf


def shaped_setup():
    con, pmf = square_qam(4, amplitude_pmf=[0.7, 0.3])
    comp = quantize_pmf([0.7, 0.3], 20)
    code = generate_code(144, "2/3", seed=2)
    return con, pmf, comp, code


def test_noiseless_shaped_round_trip():
    con, pmf, comp, code = shaped_setup()
    stream = PasStream(code, con, pmf, composition=comp, mapping="fs2", seed=5)
    cfg = DemapperConfig(assumed_snr_db=15.0)
    sent_amps = []
    for _ in range(6):
        frame = stream.next_frame()
        y = con.points[frame.labels]            # noiseless
        lam = frame_lvalues(y, frame.mapping, con, pmf, cfg)
        res = decode(code, lam)
        assert res.converged and res.iterations == 0
        assert np.array_equal(res.codeword, frame.codeword)
        amps = frame_amplitudes(res.codeword, frame.mapping, con.bar_m)
        assert np.array_equal(amps, frame.amplitudes)
        sent_amps.append(amps)

    # every completely transmitted matcher codeword decodes to its payload
    stream_amps = np.concatenate(sent_amps)
    payloads = recover_matcher_payloads(stream_amps, comp)
    assert len(payloads) == stream_amps.size // comp.n_pam > 0
    for got, sent in zip(payloads, stream.matcher_payloads):
        assert np.array_equal(got, sent)


def test_frame_structure_shaped():
    con, pmf, comp, code = shaped_setup()
    stream = PasStream(code, con, pmf, composition=comp, mapping="fs1", seed=1)
    lev = gray_pam_levels(con.bar_m)
    frame = stream.next_frame()

    # transmitted PAM magnitudes are exactly the matcher amplitudes (I, Q order)
    i_lab = frame.labels >> con.bar_m
    q_lab = frame.labels & ((1 << con.bar_m) - 1)
    mags = np.abs(np.stack([lev[i_lab], lev[q_lab]], axis=1)).reshape(-1)
    assert np.array_equal(mags, frame.amplitudes)

    # parity bits occupy the trailing sign slots
    from psbicm.fec import apply_mapping
    slots = apply_mapping(frame.codeword, frame.mapping).reshape(-1, con.bar_m)
    assert np.array_equal(slots[stream.n_sign_info:, 0], frame.codeword[code.k:])
    # amplitude slots carry the amplitude-select bits
    from psbicm.shaping import amplitudes_to_bits
    assert np.array_equal(slots[:, 1:], amplitudes_to_bits(frame.amplitudes, con.bar_m))


def test_matcher_buffering_carries_leftovers():
    con, pmf, comp, code = shaped_setup()
    stream = PasStream(code, con, pmf, composition=comp, seed=0)
    n_frames = 5
    for _ in range(n_frames):
        stream.next_frame()
    need = n_frames * stream.n_pam
    pulled = len(stream.matcher_payloads) * comp.n_pam
    assert pulled >= need and pulled - need < comp.n_pam
    assert stream._amp_buffer.size == pulled - need


def test_payload_independent_of_mapping_uniform():
    con, pmf = square_qam(6)
    code = generate_code(96, "1/2", seed=11)
    frames = {}
    for kind in ("fs1", "fs2", "fu"):
        stream = PasStream(code, con, pmf, mapping=kind, mapping_seed=3, seed=9)
        frames[kind] = stream.next_frame()
    assert np.array_equal(frames["fs1"].codeword, frames["fs2"].codeword)
    assert np.array_equal(frames["fs1"].codeword, frames["fu"].codeword)
    assert not np.array_equal(frames["fs1"].labels, frames["fu"].labels)


def test_shaped_amplitudes_independent_of_mapping():
    con, pmf, comp, code = shaped_setup()
    amps = {}
    for kind in ("fs1", "fs2", "fu"):
        stream = PasStream(code, con, pmf, composition=comp, mapping=kind,
                           mapping_seed=3, seed=9)
        amps[kind] = stream.next_frame().amplitudes
    assert np.array_equal(amps["fs1"], amps["fs2"])
    assert np.array_equal(amps["fs1"], amps["fu"])


def test_random_mapping_reproducible_per_stream():
    # needs bar_m >= 3: with a single amplitude tributary every lead
    # permutation collapses to the same mapping array
    con, pmf = square_qam(6)
    code = generate_code(144, "2/3", seed=2)
    a = PasStream(code, con, pmf, mapping="r", mapping_seed=4, seed=1)
    b = PasStream(code, con, pmf, mapping="r", mapping_seed=4, seed=1)
    fa, fb = a.next_frame(), b.next_frame()
    assert np.array_equal(fa.mapping.mapping, fb.mapping.mapping)
    assert np.array_equal(fa.labels, fb.labels)
    # fresh draw per frame, and a different mapping seed diverges
    assert not np.array_equal(a.next_frame().mapping.mapping, fa.mapping.mapping)
    c = PasStream(code, con, pmf, mapping="r", mapping_seed=5, seed=1)
    assert not np.array_equal(c.next_frame().mapping.mapping, fa.mapping.mapping)


def test_stream_validation():
    con, pmf, comp, code = shaped_setup()
    with pytest.raises(ValueError):                   # alphabet size mismatch
        PasStream(code, *square_qam(6), composition=comp)
    qcon, qpmf = square_qam(2)
    with pytest.raises(ValueError):                   # no amplitude bits on QPSK
        PasStream(code, qcon, qpmf, composition=comp)
    low = generate_code(144, "1/3", seed=2)
    with pytest.raises(ValueError):                   # parity exceeds sign slots
        PasStream(low, con, pmf, composition=comp)
    PasStream(low, con, pmf)                          # fine for uniform signaling


def test_run_coded_point_clean_regime():
    con, pmf = square_qam(2)
    code = generate_code(96, "1/2", seed=11)
    res, trace = run_coded_point(code, con, pmf, snr_db=9.0, n_frames=25, seed=3)
    assert res.post_fec_ber == 0.0 and res.hd_fec_pass
    assert res.frame_error_rate == 0.0 and res.converged_fraction == 1.0
    assert res.bp_failures == 0 and res.restarts_used == 0
    assert res.asi > 0.9 and res.ngmi > 0.9 and res.r_fec_star > 0.9
    assert trace.n == 25 * code.n
    # deterministic: identical config reruns bit-identically
    res2, trace2 = run_coded_point(code, con, pmf, snr_db=9.0, n_frames=25, seed=3)
    assert res2 == res
    assert np.array_equal(trace2.lvalues, trace.lvalues)


def test_run_coded_point_counts_bp_failures_and_restarts():
    # at 3 dB one of 40 frames defeats 20 flooding iterations, and the
    # restart search rescues it
    con, pmf = square_qam(2)
    code = generate_code(96, "1/2", seed=11)
    kw = dict(snr_db=3.0, n_frames=40, seed=3, max_iter=20)
    bp, _ = run_coded_point(code, con, pmf, **kw)
    assert bp.bp_failures == 1 and bp.restarts_used == 0
    assert bp.frame_error_rate == 1 / 40 and bp.converged_fraction == 39 / 40
    aug, _ = run_coded_point(code, con, pmf, restarts=50, **kw)
    assert aug.bp_failures == 1 and 1 <= aug.restarts_used <= 50
    assert aug.frame_error_rate == 0.0 and aug.converged_fraction == 1.0
    assert aug.post_fec_ber == 0.0 < bp.post_fec_ber


def test_run_coded_point_shaped_smoke():
    con, pmf, comp, code = shaped_setup()
    res, trace = run_coded_point(code, con, pmf, snr_db=11.0, n_frames=12,
                                 composition=comp, mapping="fs1", seed=2)
    assert res.post_fec_ber == 0.0 and res.converged_fraction == 1.0
    # shaped prior: sign tributary prior is 0, amplitude tributary prior is not
    assert trace.priors[0] == 0.0 and abs(trace.priors[1]) > 0.1
