"""The L-value metric family and its exact equivalences.

Simulates one AWGN operating point, demaps it, and evaluates every
metric on the same trace: GMI/NGMI, the entropy gap Delta_H, the
asymmetric information ASI, the achievable FEC rate R*_fec, and the
histogram ASI of quantized L-values.  Then breaks the receiver on
purpose with a wrong noise-variance assumption and shows that one
scalar rescaling repairs every estimate.
"""

import math

import numpy as np

from psbicm import (ChannelConfig, DemapperConfig, amplitude_preset, asi_floor,
                    asi_hist, asi_mc, awgn, compute_report, default_quantizer,
                    demap_to_trace, draw_labels, quantize_pmf, quantize_trace,
                    r_fec_star, rate_loss, square_qam)

N_SYM = 200_000


def simulate(con, pmf, snr_db, seed, assumed_snr_db=None):
    rng = np.random.default_rng(seed)
    labels = draw_labels(pmf, N_SYM, rng)
    ch = ChannelConfig(snr_db, seed=seed)
    y = awgn(con.points[labels], ch)
    cfg = DemapperConfig(assumed_snr_db=snr_db if assumed_snr_db is None
                         else assumed_snr_db)
    return demap_to_trace(labels, y, con, pmf, cfg,
                          channel_snr_linear=ch.snr_linear)


# --- matched operating points -------------------------------------------

comp = quantize_pmf(amplitude_preset("i"), 1024)
points = [
    ("uniform 64-QAM @ 12 dB", square_qam(6), 12.0, 0.0),
    ("shaped 64-QAM (i) @ 9 dB", square_qam(6, amplitude_pmf=comp.pmf), 9.0,
     rate_loss(comp)),
]
for name, (con, pmf), snr_db, r_loss in points:
    trace = simulate(con, pmf, snr_db, seed=1)
    rep = compute_report(trace, quantizer=default_quantizer(trace, 2 ** 11),
                         r_c=0.5, r_loss=r_loss)
    print(f"{name}:")
    print(f"  pre-FEC BER {rep.pre_fec_ber:.4e}   GMI {rep.gmi_bits:.4f} b/2-D"
          f" (s* = {rep.gmi_scale:.3f})   Delta_H {rep.delta_h:.4f}")
    # the three normalized metrics agree to Monte-Carlo accuracy on a
    # matched trace: they are the same expectation written three ways
    print(f"  NGMI {rep.ngmi:.5f}   ASI {rep.asi:.5f}   R*_fec {rep.r_fec_star:.5f}"
          f"   ASI from 2048-bin histogram {rep.asi_quantized:.5f}")
    print(f"  net info rate at R_c = 1/2: {rep.info_rate:.4f} b/2-D"
          f"   (code rate bound {rep.code_rate_bound:.4f})\n")

# --- mismatched demapping and the optimal rescaling ---------------------

# assume half the true SNR: every L-value comes out a factor 2 small.
# The uncertainty minimizer finds s_d = s_o = 2 and the rescaled ASI
# matches the matched-receiver value
con, pmf = square_qam(2)
matched = simulate(con, pmf, 9.0, seed=2)
mism = simulate(con, pmf, 9.0, seed=2, assumed_snr_db=9.0 - 10 * math.log10(2))
rf = r_fec_star(mism)
print("QPSK @ 9 dB with assumed SNR = true SNR / 2:")
print(f"  naive ASI (s_ratio = 1)   {asi_mc(mism, s_ratio=1.0):.5f}")
print(f"  optimized s_d             {rf.scale:.4f}  ->  R*_fec {rf.r_fec_star:.5f}")
print(f"  ASI rescaled by s_o = 2   {asi_mc(mism, s_ratio=2.0):.5f}")
print(f"  matched-receiver ASI      {asi_mc(matched):.5f}\n")

# --- coarse quantization ------------------------------------------------

# the histogram ASI needs no scaling knowledge at all; with only two
# levels it degrades to the hard-decision bound 1 - H_b(BER)
trace = simulate(*square_qam(6), 12.0, seed=3)
for n_levels in (2 ** 11, 2 ** 6, 2 ** 4, 2):
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        qa = asi_hist(quantize_trace(trace, default_quantizer(trace, n_levels)))
    print(f"  n_L = {n_levels:4d}: histogram ASI {qa:.5f}")
print(f"  unquantized ASI {asi_mc(trace):.5f}")

# --- the low-SNR floor of shaped signaling ------------------------------

# with a shaped prior the L-values never collapse to zero: the priors
# alone carry information, so the ASI of PAS floors at a closed-form
# value instead of vanishing
con, pmf = square_qam(6, amplitude_pmf=comp.pmf)
trace = simulate(con, pmf, -20.0, seed=4)
print(f"\nshaped 64-QAM (i) @ -20 dB: ASI {asi_mc(trace):.4f}"
      f"   prior-only floor {asi_floor(pmf):.4f}")
