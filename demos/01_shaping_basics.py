"""Shaped constellations and finite-length amplitude compositions.

Walks through the three shaped 8-PAM presets: their Maxwell-Boltzmann
amplitude pmfs, the entropy split of the Gray-labeled 64-QAM symbols
they induce, and the rate loss of rounding each pmf to an integer
composition of a finite shaping block.
"""

import numpy as np

from psbicm import (amplitude_preset, entropy_stats, quantize_pmf, rate_loss,
                    square_qam)

# --- preset amplitude pmfs ----------------------------------------------

print("shaped 8-PAM amplitude presets (amplitudes 1, 3, 5, 7):")
for name in ("uniform", "i", "ii", "iii"):
    p = np.full(4, 0.25) if name == "uniform" else amplitude_preset(name)
    print(f"  {name:>7s}  " + "  ".join(f"{x:.3f}" for x in p))

# --- symbol entropies at N_pam = 1024 -----------------------------------

# quantizing the pmf to 1024 PAM symbols barely moves the entropies, and
# the per-position bit entropies H(B_i) sum to slightly more than H(B):
# the Gray bit levels of a shaped constellation are weakly correlated
print("\n64-QAM entropy split, composition length 1024:")
print(f"  {'preset':>7s}  {'H(B)':>6s}  {'sum H(B_i)':>10s}  {'gap':>6s}  {'R_loss':>7s}")
for name in ("i", "ii", "iii"):
    comp = quantize_pmf(amplitude_preset(name), 1024)
    _, pmf = square_qam(6, amplitude_pmf=comp.pmf)
    st = entropy_stats(pmf)
    print(f"  {name:>7s}  {st.h_b:6.3f}  {st.sum_h_bi:10.3f}"
          f"  {st.shaping_gap:6.4f}  {rate_loss(comp):7.4f}")

# --- rate loss vs shaping block length ----------------------------------

# the matcher sends k_ps = floor(log2 multinomial) payload bits per block;
# the shortfall against the amplitude entropy shrinks roughly like log(N)/N
print("\nrate loss of preset (i) vs composition length:")
for n_pam in (128, 256, 512, 1024, 2048, 4096):
    comp = quantize_pmf(amplitude_preset("i"), n_pam)
    print(f"  N = {n_pam:4d}   k_ps = {comp.k_ps:4d} bits"
          f"   R_loss = {rate_loss(comp):.4f} bits/2-D")

# --- energy normalization ------------------------------------------------

# shaping concentrates mass on the inner rings, so at fixed unit average
# energy the shaped constellation spreads its points further apart
formats = {"uniform": square_qam(6),
           "i": square_qam(6, amplitude_pmf=quantize_pmf(amplitude_preset("i"), 1024).pmf)}
for name, (con, pmf) in formats.items():
    d = np.min(np.abs(con.points[:, None] - con.points[None, :])
               + np.eye(con.points.size))
    e = np.sum(pmf.p * np.abs(con.points) ** 2)
    print(f"\n{name}: mean energy {e:.6f}, min point distance {d:.4f}")
