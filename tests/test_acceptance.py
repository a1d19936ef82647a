"""End-to-end acceptance checks for the shaped-BICM chain.

One test per numbered criterion, with fixed seeds throughout; the
pytest verdict of each test is the pass/fail line for that criterion,
and each test prints a one-line numeric summary (visible with ``-s`` or
in the captured output of a failure).  Criteria 2-4 and 6 share two
million-symbol Monte-Carlo points built once per session.
"""

import math
import time

import numpy as np
import pytest

from psbicm import (
    AmplitudeComposition,
    ChannelConfig,
    DemapperConfig,
    amplitude_preset,
    asi_floor,
    asi_hist,
    asi_mc,
    awgn,
    bitwise_lvalues,
    build_mapping,
    ccdm_decode,
    ccdm_encode,
    default_quantizer,
    draw_labels,
    entropy_stats,
    gmi_from_trace,
    invert_mapping,
    make_trace,
    ngmi,
    pre_fec_ber,
    quantize_pmf,
    quantize_trace,
    r_fec_star,
    rate_loss,
    reference_code,
    run_coded_point,
    square_qam,
    tributary_conditional_entropies,
)
from psbicm.metrics import soft_bit_cost

_BLOCK = 100_000


def _simulate_trace(con, pmf, snr_db, n_symbols, seed, assumed_snr_db=None):
    """Pooled trace for one AWGN operating point, simulated in blocks."""
    if assumed_snr_db is None:
        assumed_snr_db = snr_db
    cfg = DemapperConfig(assumed_snr_db=assumed_snr_db)
    rng = np.random.default_rng(seed)
    labels = np.empty(n_symbols, dtype=np.int64)
    lam = np.empty((n_symbols, con.m))
    for start in range(0, n_symbols, _BLOCK):
        stop = min(start + _BLOCK, n_symbols)
        lb = draw_labels(pmf, stop - start, rng)
        ch = ChannelConfig(snr_db, seed=seed, block_id=start // _BLOCK)
        y = awgn(con.points[lb], ch)
        labels[start:stop] = lb
        lam[start:stop] = bitwise_lvalues(y, con, pmf, cfg)
    s_o = ChannelConfig(snr_db).snr_linear / cfg.assumed_snr_linear
    return make_trace(con.labels_to_bits(labels), lam, pmf, scale=1.0, scale_opt=s_o)


def _point(name, con, pmf, snr_db, seed, r_loss_val):
    t0 = time.perf_counter()
    trace = _simulate_trace(con, pmf, snr_db, 1_000_000, seed)
    asi = asi_mc(trace)
    g = gmi_from_trace(trace)
    seconds = time.perf_counter() - t0
    return {
        "name": name,
        "trace": trace,
        "asi": asi,
        "gmi": g,
        "seconds": seconds,
        "r_loss": r_loss_val,
    }


@pytest.fixture(scope="module")
def uniform64_point():
    con, pmf = square_qam(6)
    return _point("uniform 64-QAM @ 12 dB", con, pmf, 12.0, seed=11, r_loss_val=0.0)


@pytest.fixture(scope="module")
def shaped64_point():
    comp = quantize_pmf(amplitude_preset("i"), 1024)
    con, pmf = square_qam(6, amplitude_pmf=comp.pmf)
    pt = _point("shaped 64-QAM (i) @ 9 dB", con, pmf, 9.0, seed=12,
                r_loss_val=rate_loss(comp))
    pt["comp"] = comp
    return pt


def test_criterion_01_preset_entropies_and_rate_loss():
    # (sum H(B_i), H(B), R_loss) for the three shaped presets at N_pam = 1024
    expected = {
        "i": (4.238, 4.124, 0.022),
        "ii": (4.754, 4.604, 0.026),
        "iii": (5.356, 5.226, 0.026),
    }
    t0 = time.perf_counter()
    got = {}
    for name in expected:
        comp = quantize_pmf(amplitude_preset(name), 1024)
        _, pmf = square_qam(6, amplitude_pmf=comp.pmf)
        st = entropy_stats(pmf)
        got[name] = (st.sum_h_bi, st.h_b, rate_loss(comp))
    seconds = time.perf_counter() - t0
    for name, (sum_ref, h_ref, rl_ref) in expected.items():
        s, h, rl = got[name]
        assert abs(s - sum_ref) <= 5e-3, \
            f"preset {name}: sum H(B_i) = {s:.4f}, expected {sum_ref} +- 0.005"
        assert abs(h - h_ref) <= 5e-3, \
            f"preset {name}: H(B) = {h:.4f}, expected {h_ref} +- 0.005"
        assert abs(rl - rl_ref) <= 3e-3, \
            f"preset {name}: R_loss = {rl:.4f}, expected {rl_ref} +- 0.003"
    assert seconds < 1.0, f"entropy table took {seconds:.2f} s (budget 1 s)"
    rows = "; ".join(f"{k}: {v[0]:.3f}/{v[1]:.3f}/{v[2]:.4f}" for k, v in got.items())
    print(f"criterion 01 PASS [{seconds:.3f} s] {rows}")


def test_criterion_02_asi_matches_ngmi(uniform64_point, shaped64_point):
    for pt in (uniform64_point, shaped64_point):
        tr = pt["trace"]
        ng = ngmi(pt["gmi"].gmi_bits, tr.h_b, tr.m)
        diff = abs(pt["asi"] - ng)
        assert diff <= 2e-3, \
            f"{pt['name']}: |ASI - NGMI| = {diff:.2e} > 2e-3"
        assert pt["seconds"] < 60.0, \
            f"{pt['name']}: point took {pt['seconds']:.1f} s (budget 60 s)"
        print(f"criterion 02 PASS {pt['name']}: ASI {pt['asi']:.5f} "
              f"NGMI {ng:.5f} |diff| {diff:.1e} [{pt['seconds']:.1f} s]")


def test_criterion_03_fec_rate_matches_asi(uniform64_point, shaped64_point):
    for pt in (uniform64_point, shaped64_point):
        tr = pt["trace"]
        rf = r_fec_star(tr)
        diff = abs(rf.r_fec_star - pt["asi"])
        assert diff <= 2e-3, \
            f"{pt['name']}: |R*_fec - ASI| = {diff:.2e} > 2e-3 at optimized s_d"
        forced = r_fec_star(tr, s_d=tr.s_ratio).r_fec_star
        pinned = asi_mc(tr, s_ratio=tr.s_ratio)
        exact = abs(forced - pinned)
        assert exact <= 1e-12, \
            f"{pt['name']}: forced s_d = s_o/s mismatch {exact:.2e} > 1e-12"
        print(f"criterion 03 PASS {pt['name']}: R*_fec {rf.r_fec_star:.5f} "
              f"(s_d {rf.scale:.3f}) vs ASI {pt['asi']:.5f}; forced-s_d gap {exact:.1e}")


def test_criterion_04_gmi_equals_entropy_gap(uniform64_point, shaped64_point):
    for pt in (uniform64_point, shaped64_point):
        tr = pt["trace"]
        g1 = gmi_from_trace(tr, s=1.0).gmi_bits
        cond = tributary_conditional_entropies(tr, s_ratio=1.0)
        delta = tr.h_b - (tr.m / tr.bar_m) * float(cond.sum())
        diff = abs(g1 - delta)
        assert diff <= 1e-12, \
            f"{pt['name']}: GMI(s=1) - Delta_H = {diff:.2e} > 1e-12"
        print(f"criterion 04 PASS {pt['name']}: GMI(s=1) {g1:.6f} "
              f"= Delta_H {delta:.6f} (diff {diff:.1e})")


def test_criterion_05_snr_mismatch_scaling():
    con, pmf = square_qam(2)
    snr = 9.0
    half = snr - 10.0 * math.log10(2.0)     # assumed SNR = true SNR / 2
    mism = _simulate_trace(con, pmf, snr, 500_000, seed=21, assumed_snr_db=half)
    match = _simulate_trace(con, pmf, snr, 500_000, seed=21)
    assert abs(mism.s_ratio - 2.0) <= 1e-9
    rf = r_fec_star(mism)
    assert abs(rf.scale - 2.0) <= 0.10, \
        f"optimized decoder scaling {rf.scale:.4f} not within 5% of s_o = 2.0"
    diff = abs(asi_mc(mism, s_ratio=2.0) - asi_mc(match))
    assert diff <= 3e-3, \
        f"rescaled mismatched ASI differs from matched ASI by {diff:.2e} > 3e-3"
    print(f"criterion 05 PASS QPSK @ 9 dB, assumed SNR/2: s* {rf.scale:.4f}, "
          f"ASI(s_ratio=2) vs matched diff {diff:.1e}")


def test_criterion_06_quantized_asi(uniform64_point):
    tr = uniform64_point["trace"]
    fine = quantize_trace(tr, default_quantizer(tr, 2 ** 11))
    qa = asi_hist(fine)
    ref = asi_mc(tr)
    diff = abs(qa - ref)
    assert diff <= 1e-3, \
        f"2048-level histogram ASI {qa:.5f} vs Monte-Carlo {ref:.5f}: {diff:.2e}"
    with pytest.warns(UserWarning, match="saturation mass"):
        qa2 = asi_hist(quantize_trace(tr, default_quantizer(tr, 2)))
    hard = pre_fec_ber(tr)
    hb = -hard * math.log2(hard) - (1.0 - hard) * math.log2(1.0 - hard)
    diff2 = abs(qa2 - (1.0 - hb))
    assert diff2 <= 1e-6, \
        f"2-level ASI {qa2:.6f} vs 1 - H_b(BER) {1.0 - hb:.6f}: {diff2:.2e}"
    print(f"criterion 06 PASS n_L=2048 diff {diff:.1e}; "
          f"n_L=2 vs 1-H_b(pre-FEC BER) diff {diff2:.1e}")


def test_criterion_07_qpsk_ber_curve():
    con, pmf = square_qam(2)
    n_sym = 500_000                         # 1e6 bits per point
    worst = 0.0
    for i, snr_db in enumerate(range(11)):
        tr = _simulate_trace(con, pmf, float(snr_db), n_sym, seed=31 + i)
        ber = pre_fec_ber(tr)
        p = 0.5 * math.erfc(math.sqrt(10.0 ** (snr_db / 10.0) / 2.0))
        sigma = math.sqrt(p * (1.0 - p) / (2 * n_sym))
        pull = abs(ber - p) / sigma
        worst = max(worst, pull)
        assert pull <= 3.0, \
            f"{snr_db} dB: BER {ber:.4e} vs Q(sqrt(SNR)) {p:.4e} is {pull:.1f} sigma off"
    print(f"criterion 07 PASS 0..10 dB, worst deviation {worst:.2f} sigma")


def test_criterion_08_low_snr_asi_floor(shaped64_point):
    comp = shaped64_point["comp"]
    con, pmf = square_qam(6, amplitude_pmf=comp.pmf)
    tr = _simulate_trace(con, pmf, -20.0, 200_000, seed=41)
    floor = asi_floor(pmf)
    meas = asi_mc(tr)
    diff = abs(meas - floor)
    assert diff <= 1e-2, \
        f"ASI at -20 dB {meas:.5f} vs prior-only floor {floor:.5f}: {diff:.2e} > 1e-2"
    print(f"criterion 08 PASS ASI(-20 dB) {meas:.5f} vs floor {floor:.5f} "
          f"(diff {diff:.1e})")


def _crossing_asi(points, target, k_info):
    """ASI where post-FEC BER crosses target, log-linear in BER between grid points.

    Measured zeros are floored at half an error for the interpolation, so
    deep points enter at their actual counting resolution.
    """
    post = np.array([max(p.post_fec_ber, 0.5 / (p.frames * k_info))
                     for p in points])
    asi = np.array([p.asi for p in points])
    logp = np.log10(post)
    lt = math.log10(target)
    for j in range(len(points) - 1):
        if post[j] > target >= post[j + 1]:
            w = (logp[j] - lt) / (logp[j] - logp[j + 1])
            return float(asi[j] + w * (asi[j + 1] - asi[j]))
    return None


def test_criterion_09_coded_waterfall_study():
    code = reference_code()
    con, pmf = square_qam(6)
    snrs = [11.0, 11.5, 12.0, 12.2, 12.4, 12.6]
    frames = [200, 600, 1500, 3000, 3000, 3000]
    target = 5e-5
    restarts = 400          # augmented-BP reruns per frame flooding BP fails
    t0 = time.perf_counter()
    sweeps = {}
    for kind, seed in (("fs1", 51), ("fu", 52)):
        sweeps[kind] = [
            run_coded_point(code, con, pmf, snr, nf, mapping=kind,
                            mapping_seed=7, seed=seed, max_iter=200,
                            restarts=restarts)[0]
            for snr, nf in zip(snrs, frames)
        ]
    res_r = run_coded_point(code, con, pmf, 11.5, 600, mapping="r",
                            mapping_seed=7, seed=53, max_iter=200,
                            restarts=restarts)[0]
    seconds = time.perf_counter() - t0

    for kind, pts in sweeps.items():
        detail = "; ".join(f"{p.snr_db:.1f} dB: ASI {p.asi:.3f} "
                           f"post {p.post_fec_ber:.2e}" for p in pts)
        print(f"criterion 09 [{kind}] {detail}")
    crossings = {k: _crossing_asi(pts, target, code.k) for k, pts in sweeps.items()}
    print(f"criterion 09 crossings (ASI where post-FEC BER = {target:.0e}): "
          + ", ".join(f"{k}: {x if x is None else round(x, 4)}"
                      for k, x in crossings.items())
          + f" [{seconds:.0f} s]")

    # (a) post-FEC BER must be nonincreasing in ASI within each sweep, up
    # to the counting noise of the deep-tail points
    for kind, pts in sweeps.items():
        order = np.argsort([p.asi for p in pts])
        post = np.array([p.post_fec_ber for p in pts])[order]
        bits = np.array([p.frames * code.k for p in pts])[order]
        for j in range(post.size - 1):
            slack = 3.0 * math.sqrt(
                max(post[j], post[j + 1]) * (1.0 / bits[j] + 1.0 / bits[j + 1]))
            assert post[j + 1] <= post[j] + max(slack, 1e-12), \
                f"{kind}: post-FEC BER rises with ASI: {post}"

    # (c) fixed-uniform vs per-frame random mapping, >= 500 codewords each
    fu_mid = sweeps["fu"][1]
    k1, n1 = fu_mid.frame_errors, fu_mid.frames
    k2, n2 = res_r.frame_errors, res_r.frames
    assert min(n1, n2) >= 500
    pool = (k1 + k2) / (n1 + n2)
    if 0.0 < pool < 1.0:
        z = abs(k1 / n1 - k2 / n2) / math.sqrt(pool * (1 - pool) * (1 / n1 + 1 / n2))
    else:
        z = 0.0
    print(f"criterion 09 [fu vs r @ 11.5 dB] FER {k1}/{n1} vs {k2}/{n2}, z = {z:.2f}")
    assert z < 3.0, \
        f"fu vs r FER at 11.5 dB: {k1}/{n1} vs {k2}/{n2}, z = {z:.2f} >= 3"

    assert seconds < 1800.0, f"sweep took {seconds:.0f} s (budget 1800 s)"

    # (b) ASI at the 5e-5 post-FEC crossing must fall in [R_c, R_c + 0.12]
    lo, hi = 0.5, 0.62
    for kind, x in crossings.items():
        assert x is not None, \
            f"{kind}: post-FEC BER never crosses {target:.0e} inside the sweep"
        assert lo <= x <= hi, (
            f"{kind}: ASI at the 5e-5 post-FEC crossing is {x:.4f}, outside the "
            f"target window [{lo}, {hi}], with the shipped length-1008 rate-1/2 "
            f"code under flooding sum-product decoding (max_iter=200) followed "
            f"by up to {restarts} augmented-BP restarts on each frame it fails.  "
            f"Measured crossings: "
            + ", ".join(f"{k} {v if v is None else round(v, 4)}"
                        for k, v in crossings.items())
        )


def test_criterion_10_mapping_invariance_of_pooled_metrics():
    con, pmf = square_qam(6)
    tr = _simulate_trace(con, pmf, 12.0, 33_600, seed=61)
    bar_m = tr.bar_m
    base = {
        "asi": asi_mc(tr),
        "ngmi": ngmi(gmi_from_trace(tr, s=1.0).gmi_bits, tr.h_b, tr.m),
        "ber": pre_fec_ber(tr),
    }
    la_slots = tr.asymmetric()              # slot order = trace order
    n = la_slots.size
    got = {}
    for kind in ("fs1", "fs2", "fu"):
        mp = build_mapping(kind, n, bar_m, seed=62)
        la_cw = invert_mapping(la_slots, mp)     # same multiset, codeword order
        cost = soft_bit_cost(la_cw)
        tributary = mp % bar_m + 1
        cond = (np.bincount(tributary, weights=cost, minlength=bar_m + 1)[1:]
                / np.bincount(tributary, minlength=bar_m + 1)[1:])
        delta = tr.h_b - (tr.m / bar_m) * float(cond.sum())
        got[kind] = {
            "asi": 1.0 - (1.0 / bar_m) * float(cond.sum()),
            "ngmi": ngmi(delta, tr.h_b, tr.m),
            "ber": float(np.mean(la_cw < 0) + 0.5 * np.mean(la_cw == 0.0)),
        }
    for metric in ("asi", "ngmi", "ber"):
        vals = [got[k][metric] for k in got] + [base[metric]]
        spread = max(vals) - min(vals)
        assert spread <= 1e-12, \
            f"pooled {metric} varies across fs1/fs2/fu by {spread:.2e} > 1e-12"
    print(f"criterion 10 PASS pooled ASI {base['asi']:.6f} NGMI {base['ngmi']:.6f} "
          f"pre-FEC BER {base['ber']:.6f} identical across fs1/fs2/fu")


def test_criterion_11_ccdm_roundtrip_and_constant_composition():
    small = [(6, 2), (4, 4), (9, 3), (3, 3, 2), (5, 4, 1), (3, 2, 2, 1)]
    for counts in small:
        comp = AmplitudeComposition(
            alphabet=np.arange(1, 2 * len(counts), 2),
            counts=np.asarray(counts),
        )
        assert comp.n_sequences <= 2 ** 12
        k = comp.k_ps
        seen = set()
        for u in range(2 ** k):
            bits = np.array([(u >> (k - 1 - j)) & 1 for j in range(k)],
                            dtype=np.uint8)
            seq = ccdm_encode(bits, comp)
            idx = np.searchsorted(comp.alphabet, seq)
            assert np.array_equal(np.bincount(idx, minlength=comp.alphabet.size),
                                  comp.counts), f"{counts}: composition violated"
            assert np.array_equal(np.asarray(ccdm_decode(seq, comp), dtype=np.uint8),
                                  bits), f"{counts}: round trip failed at payload {u}"
            seen.add(seq.tobytes())
        assert len(seen) == 2 ** k, f"{counts}: encoder not injective"

    comp = quantize_pmf(amplitude_preset("i"), 1024)
    rng = np.random.default_rng(71)
    for _ in range(1000):
        payload = rng.integers(0, 2, size=comp.k_ps).astype(np.uint8)
        seq = ccdm_encode(payload, comp)
        idx = np.searchsorted(comp.alphabet, seq)
        assert np.array_equal(np.bincount(idx, minlength=comp.alphabet.size),
                              comp.counts), "N_pam=1024 frame broke the composition"
    print(f"criterion 11 PASS exhaustive round trip on {len(small)} compositions; "
          f"1000 constant-composition frames at N_pam=1024 (k_ps={comp.k_ps})")
