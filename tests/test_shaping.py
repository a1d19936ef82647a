import numpy as np
import pytest

from psbicm.constellation import entropy_stats, square_qam
from psbicm.shaping import (
    AmplitudeComposition,
    amplitude_preset,
    amplitudes_to_bits,
    bits_to_amplitudes,
    ccdm_decode,
    ccdm_encode,
    fit_mb_pmf,
    mb_amplitude_pmf,
    multinomial,
    quantize_pmf,
    rate_loss,
)


def test_mb_pmf_basics():
    assert np.allclose(mb_amplitude_pmf(0.0), 0.25)
    p = mb_amplitude_pmf(0.1)
    assert np.all(np.diff(p) < 0) and p.sum() == pytest.approx(1.0)


def test_fit_mb_pmf_hits_target():
    for h2d in (4.124, 4.604, 5.226, 5.9):
        p = fit_mb_pmf(h2d)
        h1 = -(p * np.log2(p)).sum()
        assert 2 * (1 + h1) == pytest.approx(h2d, abs=1e-9)


def test_presets_round_to_published_operating_points():
    assert np.allclose(np.round(amplitude_preset("i"), 3), [0.698, 0.262, 0.037, 0.002])
    assert np.allclose(np.round(amplitude_preset("ii"), 3), [0.611, 0.304, 0.076, 0.009])
    assert np.allclose(np.round(amplitude_preset("iii"), 3), [0.494, 0.325, 0.141, 0.040])
    assert np.allclose(amplitude_preset("uniform"), 0.25)
    with pytest.raises(ValueError):
        amplitude_preset("nope")


def test_quantize_pmf_largest_remainder():
    comp = quantize_pmf([0.698, 0.263, 0.037, 0.002], 1024)
    # floors (714, 269, 37, 2); two leftover units go to remainders .888 and .752
    assert comp.counts.tolist() == [715, 269, 38, 2]
    assert comp.alphabet.tolist() == [1, 3, 5, 7]
    assert comp.n_pam == 1024

    assert quantize_pmf([0.25] * 4, 8).counts.tolist() == [2, 2, 2, 2]

    comp0 = quantize_pmf([1.0, 0.0, 0.0, 0.0], 16)
    assert comp0.counts.tolist() == [16, 0, 0, 0]
    assert comp0.k_ps == 0
    assert rate_loss(comp0) == 0.0


def test_quantize_pmf_tie_break_deterministic():
    # equal remainders: lower index wins the extra unit
    comp = quantize_pmf([0.375, 0.375, 0.25], 4, alphabet=[1, 3, 5])
    assert comp.counts.tolist() == [2, 1, 1]


def test_quantized_presets_reproduce_entropy_table():
    # 2-D entropies and rate loss of the n_pam=1024 compositions
    expected = {
        "i": (4.238, 4.124, 0.022),
        "ii": (4.754, 4.604, 0.026),
        "iii": (5.356, 5.226, 0.026),
    }
    for name, (sum_hbi, h_b, r_l) in expected.items():
        comp = quantize_pmf(amplitude_preset(name), 1024)
        _, pmf = square_qam(6, amplitude_pmf=comp.pmf)
        st = entropy_stats(pmf)
        assert st.sum_h_bi == pytest.approx(sum_hbi, abs=0.005)
        assert st.h_b == pytest.approx(h_b, abs=0.005)
        assert rate_loss(comp) == pytest.approx(r_l, abs=0.003)


def test_multinomial():
    assert multinomial([2, 1, 1]) == 12
    assert multinomial([4, 0, 0]) == 1
    assert multinomial([5, 5]) == 252


def test_ccdm_exhaustive_roundtrip_and_composition():
    # all payloads for a handful of small compositions with C <= 2^12
    cases = [
        ([2, 1, 1], [1, 3, 5]),
        ([3, 3], [1, 3]),
        ([2, 2, 2, 2], [1, 3, 5, 7]),
        ([4, 2, 1], [1, 3, 5]),
        ([1, 1, 1, 1], [1, 3, 5, 7]),
        ([4, 0, 0], [1, 3, 5]),
    ]
    for counts, alphabet in cases:
        comp = AmplitudeComposition(alphabet=np.array(alphabet), counts=np.array(counts))
        assert comp.n_sequences <= 4096
        k = comp.k_ps
        seen = set()
        for u in range(2**k):
            bits = [(u >> (k - 1 - i)) & 1 for i in range(k)]
            seq = ccdm_encode(bits, comp)
            # constant composition
            for a, c in zip(alphabet, counts):
                assert np.count_nonzero(seq == a) == c
            seen.add(tuple(seq.tolist()))
            assert ccdm_decode(seq, comp).tolist() == bits
        assert len(seen) == 2**k   # injective


def ccdm_encode_shift_loop(bits, comp):
    """Unranking with the payload built by shifts and numpy counts."""
    k = comp.k_ps
    u = 0
    for b in bits:
        u = (u << 1) | int(b)
    c_total = multinomial(comp.counts)
    r = (u * c_total) >> k
    counts = comp.counts.copy()
    n_rem = comp.n_pam
    out = np.empty(n_rem, dtype=np.int64)
    for pos in range(n_rem):
        for j in range(comp.alphabet.size):
            if counts[j] == 0:
                continue
            c_j = c_total * int(counts[j]) // n_rem
            if r < c_j:
                out[pos] = comp.alphabet[j]
                counts[j] -= 1
                c_total = c_j
                n_rem -= 1
                break
            r -= c_j
    return out


def test_ccdm_encode_equals_shift_loop_unranking():
    rng = np.random.default_rng(5)
    cases = [([0, 3, 0, 2], [1, 3, 5, 7]),          # zero counts, k_ps = 3
             ([5, 0, 4, 3], [1, 3, 5, 7]),          # k_ps = 14
             ([9, 7], [1, 3])]                      # k_ps = 13
    comps = [AmplitudeComposition(alphabet=np.array(a), counts=np.array(c))
             for c, a in cases]
    comps.append(quantize_pmf(amplitude_preset("i"), 1024))
    for comp in comps:
        assert comp.k_ps % 8 or comp.n_pam == 1024
        payloads = [np.zeros(comp.k_ps, dtype=np.uint8), np.ones(comp.k_ps, dtype=np.uint8)]
        payloads += [rng.integers(0, 2, comp.k_ps, dtype=np.uint8) for _ in range(20)]
        for bits in payloads:
            seq = ccdm_encode(bits, comp)
            assert seq.dtype == np.int64
            assert np.array_equal(seq, ccdm_encode_shift_loop(bits, comp))


def test_ccdm_example_12_sequences():
    comp = AmplitudeComposition(alphabet=np.array([1, 3, 5]), counts=np.array([2, 1, 1]))
    assert comp.n_sequences == 12 and comp.k_ps == 3
    outs = {tuple(ccdm_encode([(u >> 2) & 1, (u >> 1) & 1, u & 1], comp)) for u in range(8)}
    assert len(outs) == 8


def test_ccdm_payload_length_check():
    comp = quantize_pmf([0.5, 0.5], 8, alphabet=[1, 3])
    with pytest.raises(ValueError):
        ccdm_encode(np.zeros(comp.k_ps + 1, dtype=np.uint8), comp)


def test_ccdm_decode_rejects_bad_sequences():
    comp = AmplitudeComposition(alphabet=np.array([1, 3]), counts=np.array([2, 2]))
    with pytest.raises(ValueError):
        ccdm_decode([1, 1, 1, 3], comp)    # wrong histogram
    with pytest.raises(ValueError):
        ccdm_decode([1, 1, 5, 3], comp)    # foreign symbol
    # a valid constant-composition sequence outside the encoder image:
    # C=6, k=2 -> indices {0,1,3,4} are hit, find a miss
    hit = {tuple(ccdm_encode([(u >> 1) & 1, u & 1], comp)) for u in range(4)}
    import itertools
    all_seqs = {s for s in itertools.permutations([1, 1, 3, 3])}
    missed = sorted(all_seqs - hit)
    assert missed
    with pytest.raises(ValueError):
        ccdm_decode(np.array(missed[0]), comp)


def test_ccdm_full_block_roundtrip():
    comp = quantize_pmf(amplitude_preset("i"), 1024)
    rng = np.random.default_rng(42)
    bits = rng.integers(0, 2, comp.k_ps)
    seq = ccdm_encode(bits, comp)
    assert np.array_equal(np.sort(np.unique(seq, return_counts=True)[1])[::-1],
                          np.sort(comp.counts)[::-1])
    assert np.array_equal(ccdm_decode(seq, comp), bits)


def test_rate_loss_monotone_in_block_length():
    p = amplitude_preset("i")
    losses = [rate_loss(quantize_pmf(p, n)) for n in (64, 128, 256, 512, 1024, 2048)]
    assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))
    assert all(l >= 0 for l in losses)
    assert losses[-1] < 0.02


def test_amplitude_bit_conversion_roundtrip():
    rng = np.random.default_rng(3)
    for bar_m in (2, 3, 4):
        amps = rng.choice(2 * np.arange(1 << (bar_m - 1)) + 1, size=64)
        bits = amplitudes_to_bits(amps, bar_m)
        assert bits.shape == (64, bar_m - 1)
        assert np.array_equal(bits_to_amplitudes(bits, bar_m), amps)


def test_amplitude_bits_match_constellation_labels():
    # bar_m=3: amplitudes 7,5,3,1 carry Gray amplitude bits 00,01,11,10
    bits = amplitudes_to_bits([7, 5, 3, 1], 3)
    assert bits.tolist() == [[0, 0], [0, 1], [1, 1], [1, 0]]


def test_composition_validation():
    with pytest.raises(ValueError):
        AmplitudeComposition(alphabet=np.array([1, 3]), counts=np.array([2, -1]))
    with pytest.raises(ValueError):
        AmplitudeComposition(alphabet=np.array([3, 1]), counts=np.array([1, 1]))
    with pytest.raises(ValueError):
        quantize_pmf([0.5, 0.5], 1)
