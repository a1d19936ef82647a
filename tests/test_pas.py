"""End-to-end tests for the shaping/FEC/mapping chain."""

import numpy as np
import pytest

from psbicm.channel import ChannelConfig, awgn
from psbicm.constellation import gray_pam_levels, square_qam
from psbicm.demapper import DemapperConfig, bitwise_lvalues, make_trace
from psbicm.fec import (HD_FEC_THRESHOLD, apply_mapping, build_mapping, decode, encode,
                        generate_code, invert_mapping)
from psbicm.metrics import asi_mc, gmi_from_trace, ngmi, pre_fec_ber, r_fec_star
from psbicm.pas import CodedPointResult, frame_lvalues, run_coded_point, transmit
from psbicm.shaping import (amplitude_preset, amplitudes_to_bits, bits_to_amplitudes,
                            ccdm_decode, ccdm_encode, quantize_pmf)


def shaped_setup():
    con, pmf = square_qam(4, amplitude_pmf=[0.7, 0.3])
    comp = quantize_pmf([0.7, 0.3], 20)
    code = generate_code(144, "2/3", seed=2)
    return con, pmf, comp, code


def test_noiseless_shaped_round_trip():
    con, pmf, comp, code = shaped_setup()
    frames = transmit(code, con, 6, composition=comp, mapping="fs2", seed=5)
    cfg = DemapperConfig(assumed_snr_db=15.0)
    sent_amps = []
    for f in range(6):
        y = con.points[frames.labels[f]]        # noiseless
        _, lam = frame_lvalues(y, frames.perms[f], con, pmf, cfg)
        res = decode(code, lam)
        assert res.converged and res.iterations == 0
        assert np.array_equal(res.codeword, frames.codewords[f])
        slots = apply_mapping(res.codeword, frames.perms[f]).reshape(-1, con.bar_m)
        amps = bits_to_amplitudes(slots[:, 1:], con.bar_m)
        assert np.array_equal(amps, frames.amplitudes[f])
        sent_amps.append(amps)

    # every completely transmitted matcher codeword decodes to its payload
    stream_amps = np.concatenate(sent_amps)
    blocks = stream_amps.size // comp.n_pam
    assert blocks > 0
    for i, sent in enumerate(frames.payloads[:blocks]):
        got = ccdm_decode(stream_amps[i * comp.n_pam:(i + 1) * comp.n_pam], comp)
        assert np.array_equal(got, sent)


def per_frame_point(code, con, pmf, snr_db, n_frames, *, composition=None,
                    mapping="fs1", mapping_seed=0, seed=0, max_iter=50,
                    assumed_snr_db=None, restarts=0):
    """The coded chain one frame at a time: transmit, noise, demap, decode.

    Undetected frame errors are counted from the parity checks of the
    decoded codeword.
    """
    bar_m, n, k = con.bar_m, code.n, code.k
    n_pam = n // bar_m
    n_amp = n - n_pam
    pas = composition is not None
    map_rng = np.random.default_rng(mapping_seed)
    rng = np.random.default_rng(seed)
    fixed = None
    if mapping != "r":
        fixed = build_mapping(mapping, n, k, bar_m,
                              seed=mapping_seed if mapping == "fu" else None, pas=pas)
    if assumed_snr_db is None:
        assumed_snr_db = snr_db
    cfg = DemapperConfig(assumed_snr_db=assumed_snr_db)
    buffer = np.empty(0, dtype=np.int64)
    labels_all, lam_all, sent_all, decoded_all = [], [], [], []
    converged = bp_failures = restarts_used = 0
    bit_errors = frame_errors = undetected = 0
    for f in range(n_frames):
        perm = fixed
        if perm is None:
            perm = build_mapping("r", n, k, bar_m, seed=int(map_rng.integers(1 << 31)), pas=pas)
        if not pas:
            info = rng.integers(0, 2, size=k, dtype=np.uint8)
        else:
            while buffer.size < n_pam:
                payload = rng.integers(0, 2, size=composition.k_ps, dtype=np.uint8)
                buffer = np.concatenate([buffer, ccdm_encode(payload, composition)])
            amps, buffer = buffer[:n_pam], buffer[n_pam:]
            slots = np.zeros((n_pam, bar_m), dtype=np.uint8)
            slots[:, 1:] = amplitudes_to_bits(amps, bar_m)
            info = np.empty(k, dtype=np.uint8)
            info[:n_amp] = slots.reshape(-1)[perm[:n_amp]]
            info[n_amp:] = rng.integers(0, 2, size=k - n_amp, dtype=np.uint8)
        cw = encode(code, info)
        labels = con.bits_to_labels(apply_mapping(cw, perm).reshape(-1, 2 * bar_m))
        y = awgn(con.points[labels], ChannelConfig(snr_db, seed=seed, block_id=f))
        lam = bitwise_lvalues(y, con, pmf, cfg)
        res = decode(code, invert_mapping(lam.reshape(-1), perm),
                     max_iter=max_iter, restarts=restarts)
        labels_all.append(labels)
        lam_all.append(lam)
        sent_all.append(info)
        decoded_all.append(res.info)
        converged += bool(res.converged)
        bp_failures += res.restarts > 0 or not res.converged
        restarts_used += res.restarts
        wrong = int(np.count_nonzero(res.info != info))
        bit_errors += wrong
        frame_errors += wrong > 0
        valid = not np.bitwise_xor.reduceat(res.codeword[code.row_cols],
                                            code.row_ptr[:-1]).any()
        undetected += wrong > 0 and valid

    s_o = ChannelConfig(snr_db).snr_linear / cfg.assumed_snr_linear
    trace = make_trace(con.labels_to_bits(np.concatenate(labels_all)),
                       np.concatenate(lam_all), pmf, scale_opt=s_o)
    post_ber = float(np.mean(np.concatenate(decoded_all) != np.concatenate(sent_all)))
    g = gmi_from_trace(trace)
    result = CodedPointResult(
        snr_db=float(snr_db), frames=n_frames, pre_fec_ber=pre_fec_ber(trace),
        post_fec_ber=post_ber, hd_fec_pass=post_ber <= HD_FEC_THRESHOLD,
        frame_error_rate=frame_errors / n_frames,
        converged_fraction=converged / n_frames, bp_failures=bp_failures,
        restarts_used=restarts_used, bit_errors=bit_errors, frame_errors=frame_errors,
        undetected_frame_errors=undetected, asi=asi_mc(trace),
        ngmi=ngmi(g.gmi_bits, trace.h_b, trace.m), r_fec_star=r_fec_star(trace).r_fec_star)
    return result, trace


def shaped_64qam_setup(n_pam=36):
    # rate 3/4 leaves 12 info bits per frame on sign slots
    comp = quantize_pmf(amplitude_preset("i"), n_pam)
    con, pmf = square_qam(6, amplitude_pmf=comp.pmf)
    return con, pmf, comp, generate_code(144, "3/4", seed=2)


STAGED_CASES = {
    # name: (format, snr_db, frames, keyword arguments)
    "uniform_fs1": ("u64", 10.0, 6, dict(mapping="fs1", seed=4, max_iter=30)),
    "uniform_fu_offset": ("u64", 10.0, 5, dict(mapping="fu", mapping_seed=3, seed=5,
                                               max_iter=30, assumed_snr_db=8.5)),
    "pas_r_buffered": ("pas64", 7.0, 5, dict(mapping="r", mapping_seed=6, seed=7,
                                             max_iter=30)),
    "pas_fs2_one_frame": ("pas64", 7.0, 1, dict(mapping="fs2", seed=8)),
    "restarts": ("qpsk", 3.0, 40, dict(seed=3, max_iter=20, restarts=50)),
    "undetected": ("qpsk", 0.0, 40, dict(seed=3, max_iter=20)),
}


@pytest.mark.parametrize("case", sorted(STAGED_CASES))
def test_staged_chain_equals_per_frame_chain(case):
    fmt, snr_db, frames, kw = STAGED_CASES[case]
    comp = None
    if fmt == "pas64":
        con, pmf, comp, code = shaped_64qam_setup()
        # 5 frames of 48 amplitudes leave 12 of 7 matcher blocks buffered
        assert frames == 1 or (frames * code.n // con.bar_m) % comp.n_pam
    elif fmt == "u64":
        con, pmf = square_qam(6)
        code = generate_code(144, "1/2", seed=2)
    else:
        con, pmf = square_qam(2)
        code = generate_code(96, "1/2", seed=11)
    res, trace = run_coded_point(code, con, pmf, snr_db, frames, composition=comp, **kw)
    ref, ref_trace = per_frame_point(code, con, pmf, snr_db, frames, composition=comp, **kw)
    assert res == ref
    for field in ("bits", "lvalues", "tributaries", "priors"):
        assert np.array_equal(getattr(trace, field), getattr(ref_trace, field))
    assert (trace.m, trace.bar_m, trace.scale, trace.scale_opt, trace.h_b) == \
        (ref_trace.m, ref_trace.bar_m, ref_trace.scale, ref_trace.scale_opt, ref_trace.h_b)
    assert res.bit_errors == round(res.post_fec_ber * frames * code.k)
    if case == "restarts":
        assert res.restarts_used > 0
    if case == "undetected":
        assert res.undetected_frame_errors == 1 < res.frame_errors


def test_batched_frame_lvalues_equal_per_frame_demap():
    con, pmf = square_qam(6)
    code = generate_code(144, "2/3", seed=2)
    frames = transmit(code, con, 4, mapping="r", mapping_seed=1, seed=2)
    cfg = DemapperConfig(assumed_snr_db=9.0, scale=0.8)
    y = np.stack([awgn(con.points[lab], ChannelConfig(10.0, seed=1, block_id=f))
                  for f, lab in enumerate(frames.labels)])
    lam, lam_cw = frame_lvalues(y, frames.perms, con, pmf, cfg)
    assert lam.shape == (y.size, con.m) and lam_cw.shape == (4, code.n)
    for f in range(4):
        per_frame = bitwise_lvalues(y[f], con, pmf, cfg)
        assert np.array_equal(lam[f * y.shape[1]:(f + 1) * y.shape[1]], per_frame)
        assert np.array_equal(lam_cw[f], invert_mapping(per_frame.reshape(-1),
                                                        frames.perms[f]))


def test_frame_structure_shaped():
    con, _, comp, code = shaped_setup()
    frames = transmit(code, con, 1, composition=comp, mapping="fs1", seed=1)
    lev = gray_pam_levels(con.bar_m)
    labels, codeword, amps = frames.labels[0], frames.codewords[0], frames.amplitudes[0]

    # transmitted PAM magnitudes are exactly the matcher amplitudes (I, Q order)
    i_lab = labels >> con.bar_m
    q_lab = labels & ((1 << con.bar_m) - 1)
    mags = np.abs(np.stack([lev[i_lab], lev[q_lab]], axis=1)).reshape(-1)
    assert np.array_equal(mags, amps)

    # parity bits occupy the trailing sign slots
    n_sign_info = code.k - (code.n - code.n // con.bar_m)
    slots = apply_mapping(codeword, frames.perms[0]).reshape(-1, con.bar_m)
    assert np.array_equal(slots[n_sign_info:, 0], codeword[code.k:])
    # amplitude slots carry the amplitude-select bits
    assert np.array_equal(slots[:, 1:], amplitudes_to_bits(amps, con.bar_m))


def test_matcher_buffering_carries_leftovers():
    con, _, comp, code = shaped_setup()
    n_frames = 5
    frames = transmit(code, con, n_frames, composition=comp, seed=0)
    need = n_frames * (code.n // con.bar_m)
    pulled = len(frames.payloads) * comp.n_pam
    assert pulled >= need and pulled - need < comp.n_pam
    # the frames cut one matched stream: leftovers carry over to the next frame
    matched = np.concatenate([ccdm_encode(p, comp) for p in frames.payloads])
    assert np.array_equal(frames.amplitudes.reshape(-1), matched[:need])


def test_payload_independent_of_mapping_uniform():
    con = square_qam(6)[0]
    code = generate_code(96, "1/2", seed=11)
    frames = {}
    for kind in ("fs1", "fs2", "fu"):
        frames[kind] = transmit(code, con, 1, mapping=kind, mapping_seed=3, seed=9)
    assert np.array_equal(frames["fs1"].codewords, frames["fs2"].codewords)
    assert np.array_equal(frames["fs1"].codewords, frames["fu"].codewords)
    assert not np.array_equal(frames["fs1"].labels, frames["fu"].labels)


def test_shaped_amplitudes_independent_of_mapping():
    con, _, comp, code = shaped_setup()
    amps = {}
    for kind in ("fs1", "fs2", "fu"):
        amps[kind] = transmit(code, con, 1, composition=comp, mapping=kind,
                              mapping_seed=3, seed=9).amplitudes
    assert np.array_equal(amps["fs1"], amps["fs2"])
    assert np.array_equal(amps["fs1"], amps["fu"])


def test_random_mapping_reproducible_per_stream():
    # needs bar_m >= 3: with a single amplitude tributary every lead
    # permutation collapses to the same mapping array
    con = square_qam(6)[0]
    code = generate_code(144, "2/3", seed=2)
    a = transmit(code, con, 2, mapping="r", mapping_seed=4, seed=1)
    b = transmit(code, con, 2, mapping="r", mapping_seed=4, seed=1)
    assert np.array_equal(a.perms, b.perms)
    assert np.array_equal(a.labels, b.labels)
    # fresh draw per frame, and a different mapping seed diverges
    assert not np.array_equal(a.perms[1], a.perms[0])
    c = transmit(code, con, 1, mapping="r", mapping_seed=5, seed=1)
    assert not np.array_equal(c.perms[0], a.perms[0])


def test_stream_validation():
    con, _, comp, code = shaped_setup()
    with pytest.raises(ValueError):                   # alphabet size mismatch
        transmit(code, square_qam(6)[0], 1, composition=comp)
    qcon = square_qam(2)[0]
    with pytest.raises(ValueError):                   # no amplitude bits on QPSK
        transmit(code, qcon, 1, composition=comp)
    low = generate_code(144, "1/3", seed=2)
    with pytest.raises(ValueError):                   # parity exceeds sign slots
        transmit(low, con, 1, composition=comp)
    with pytest.raises(ValueError, match="at least one frame"):
        transmit(code, con, 0, composition=comp)
    transmit(low, con, 1)                             # fine for uniform signaling


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
    # restart search rescues it: FER 1/40 fails the hard-decision threshold
    # without restarts and passes with them
    con, pmf = square_qam(2)
    code = generate_code(96, "1/2", seed=11)
    kw = dict(snr_db=3.0, n_frames=40, seed=3, max_iter=20)
    bp, _ = run_coded_point(code, con, pmf, **kw)
    assert bp.bp_failures == 1 and bp.restarts_used == 0
    assert bp.frame_error_rate == 1 / 40 and bp.converged_fraction == 39 / 40
    assert bp.frame_errors == 1 and bp.bit_errors > 0 and bp.undetected_frame_errors == 0
    assert bp.post_fec_ber > HD_FEC_THRESHOLD == 5e-5 and not bp.hd_fec_pass
    aug, _ = run_coded_point(code, con, pmf, restarts=50, **kw)
    assert aug.bp_failures == 1 and 1 <= aug.restarts_used <= 50
    assert aug.frame_error_rate == 0.0 and aug.converged_fraction == 1.0
    assert aug.frame_errors == aug.bit_errors == 0
    assert aug.post_fec_ber == 0.0 < bp.post_fec_ber and aug.hd_fec_pass


def test_run_coded_point_shaped_smoke():
    con, pmf, comp, code = shaped_setup()
    res, trace = run_coded_point(code, con, pmf, snr_db=11.0, n_frames=12,
                                 composition=comp, mapping="fs1", seed=2)
    assert res.post_fec_ber == 0.0 and res.converged_fraction == 1.0
    # shaped prior: sign tributary prior is 0, amplitude tributary prior is not
    assert trace.priors[0] == 0.0 and abs(trace.priors[1]) > 0.1
