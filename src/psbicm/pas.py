"""Probabilistic amplitude shaping chain: payload bits to modulated frames.

Reverse concatenation: a constant-composition matcher fixes the
amplitude-select bits before FEC encoding, the systematic encoder adds
parity, and the bit mapping routes codeword positions onto per-symbol
tributary slots so that parity lands on sign bits, which stay uniform.
The same slot bookkeeping run backwards recovers payload bits after
decoding.  Without a composition the chain degenerates to plain uniform
coded modulation (any code rate, amplitude bits drawn fair).

Slot order is PAM-major: codeword bit j goes to slot
``perm[j] = pam_index * bar_m + tributary - 1``; consecutive PAM groups
pair into I/Q halves of one 2-D symbol, matching the constellation's
bit layout [sign, amplitude bits] per dimension.

Matcher buffering: each FEC frame pulls whole matcher codewords on
demand (``k_ps`` payload bits each) until its amplitude need is
covered; leftover amplitudes carry over to the next frame.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelConfig, awgn
from .demapper import DemapperConfig, bitwise_lvalues, make_trace
from .fec import apply_mapping, build_mapping, decode, encode, invert_mapping, post_fec_ber
from .metrics import asi_mc, gmi_from_trace, ngmi, pre_fec_ber, r_fec_star
from .shaping import amplitudes_to_bits, bits_to_amplitudes, ccdm_decode, ccdm_encode


@dataclass(frozen=True, eq=False)
class PasFrame:
    """One transmitted FEC frame.

    ``codeword`` is in bit-position order (info then parity), ``labels``
    are the transmitted 2-D label integers, ``amplitudes`` the 1-D
    amplitudes in PAM order (None for uniform signaling).
    """

    codeword: np.ndarray
    labels: np.ndarray
    mapping: object
    amplitudes: np.ndarray | None


class PasStream:
    """Deterministic source and transmitter producing modulated frames.

    Payload bits come from one seeded generator; bit-mapping draws for
    the per-frame random kind come from a second, so two streams with
    equal ``seed`` but different mappings transmit the same payload.
    ``matcher_payloads`` logs the payload bits of every matcher codeword
    pulled, in pull order, for end-to-end round-trip checks.
    """

    def __init__(self, code, constellation, pmf, composition=None,
                 mapping="fs1", mapping_seed=0, seed=0):
        bar_m = constellation.bar_m
        n, k = code.n, code.k
        if n % (2 * bar_m):
            raise ValueError("codeword length must fill whole 2-D symbols")
        self.code = code
        self.constellation = constellation
        self.pmf = pmf
        self.composition = composition
        self.bar_m = bar_m
        self.n_pam = n // bar_m
        self.n_amp_positions = n - self.n_pam
        self.n_sign_info = k - self.n_amp_positions
        if composition is not None:
            if bar_m < 2:
                raise ValueError("shaping needs amplitude bits (bar_m >= 2)")
            expected = 2 * np.arange(1 << (bar_m - 1)) + 1
            if not np.array_equal(composition.alphabet, expected):
                raise ValueError("composition alphabet does not match the format")
            if self.n_sign_info < 0:
                raise ValueError("fewer sign slots than parity bits; raise the code rate")
        self.mapping_kind = mapping
        self._pas = composition is not None
        self._map_rng = np.random.default_rng(mapping_seed)
        self._fixed_mapping = None
        if mapping != "r":
            seed_arg = mapping_seed if mapping == "fu" else None
            self._fixed_mapping = build_mapping(mapping, n, k, bar_m,
                                                seed=seed_arg, pas=self._pas)
        self._rng = np.random.default_rng(seed)
        self._amp_buffer = np.empty(0, dtype=np.int64)
        self.matcher_payloads = []

    def _bits(self, size):
        return self._rng.integers(0, 2, size=size, dtype=np.uint8)

    def _take_amplitudes(self, count):
        while self._amp_buffer.size < count:
            payload = self._bits(self.composition.k_ps)
            self.matcher_payloads.append(payload)
            block = ccdm_encode(payload, self.composition)
            self._amp_buffer = np.concatenate([self._amp_buffer, block])
        out = self._amp_buffer[:count]
        self._amp_buffer = self._amp_buffer[count:]
        return out

    def next_frame(self):
        code = self.code
        mapping = self._fixed_mapping
        if mapping is None:
            mapping = build_mapping("r", code.n, code.k, self.bar_m,
                                    seed=int(self._map_rng.integers(1 << 31)),
                                    pas=self._pas)
        if self.composition is None:
            info = self._bits(code.k)
            amps = None
        else:
            amps = self._take_amplitudes(self.n_pam)
            slots = np.zeros((self.n_pam, self.bar_m), dtype=np.uint8)
            slots[:, 1:] = amplitudes_to_bits(amps, self.bar_m)
            info = np.empty(code.k, dtype=np.uint8)
            perm = mapping.slot_permutation
            info[:self.n_amp_positions] = slots.reshape(-1)[perm[:self.n_amp_positions]]
            info[self.n_amp_positions:] = self._bits(self.n_sign_info)
        cw = encode(code, info)
        slot_bits = apply_mapping(cw, mapping)
        bits_2d = slot_bits.reshape(-1, 2 * self.bar_m)
        labels = self.constellation.bits_to_labels(bits_2d)
        return PasFrame(codeword=cw, labels=labels, mapping=mapping, amplitudes=amps)


def frame_lvalues(y, mapping, constellation, pmf, config):
    """Codeword-ordered L-values of one received frame."""
    lam = bitwise_lvalues(y, constellation, pmf, config)
    return invert_mapping(lam.reshape(-1), mapping)


def frame_amplitudes(codeword, mapping, bar_m):
    """1-D amplitudes carried by a (decoded) codeword, PAM order."""
    slots = apply_mapping(codeword, mapping).reshape(-1, bar_m)
    if bar_m < 2:
        raise ValueError("no amplitude bits at bar_m = 1")
    return bits_to_amplitudes(slots[:, 1:], bar_m)


def recover_matcher_payloads(amplitude_stream, composition):
    """Decode every complete matcher codeword in a concatenated stream.

    A trailing partial block (amplitudes whose matcher codeword has not
    finished transmitting) is ignored.
    """
    stream = np.asarray(amplitude_stream)
    n = composition.n_pam
    return [ccdm_decode(stream[i * n:(i + 1) * n], composition)
            for i in range(stream.size // n)]


@dataclass(frozen=True)
class CodedPointResult:
    """Chain outcome at one operating point."""

    snr_db: float
    frames: int
    pre_fec_ber: float
    post_fec_ber: float
    hd_fec_pass: bool
    frame_error_rate: float
    converged_fraction: float   # valid codewords, after restarts
    bp_failures: int            # frames whose first flooding run failed
    restarts_used: int          # augmented-BP reruns over all frames
    asi: float
    ngmi: float
    r_fec_star: float


def run_coded_point(code, constellation, pmf, snr_db, n_frames, *,
                    composition=None, mapping="fs1", mapping_seed=0, seed=0,
                    max_iter=50, assumed_snr_db=None, scale=1.0,
                    noise_block_base=0, restarts=0):
    """Simulate n_frames through the full chain at one SNR point.

    Returns (CodedPointResult, pooled LValueTrace).  Noise for frame f
    comes from channel substream ``noise_block_base + f``, so points of
    a sweep can run in any order or in parallel without changing their
    results.

    Each frame is decoded by ``decode(code, lvalues, max_iter, restarts)``:
    flooding sum-product, then, on frames it fails and only if
    ``restarts`` > 0, up to ``restarts`` augmented-BP reruns that stop at
    the first valid codeword.  ``restarts=0`` is plain flooding BP.  A
    frame that exhausts 200 iterations and a budget of 400 reruns costs
    seconds instead of tens of milliseconds, so spend the budget only
    where frame errors are rare.  ``converged_fraction`` counts frames
    whose returned hard decisions satisfy every check, after restarts.
    """
    if n_frames < 1:
        raise ValueError("need at least one frame")
    if assumed_snr_db is None:
        assumed_snr_db = snr_db
    stream = PasStream(code, constellation, pmf, composition=composition,
                       mapping=mapping, mapping_seed=mapping_seed, seed=seed)
    cfg = DemapperConfig(assumed_snr_db=assumed_snr_db, scale=scale)
    k = code.k

    all_labels = np.empty((n_frames, stream.n_pam // 2), dtype=np.int64)
    all_lam = np.empty((n_frames, stream.n_pam // 2, constellation.m))
    sent_info = np.empty((n_frames, k), dtype=np.uint8)
    decoded_info = np.empty((n_frames, k), dtype=np.uint8)
    converged = bp_failures = restarts_used = frame_errors = 0
    for f in range(n_frames):
        frame = stream.next_frame()
        ch = ChannelConfig(snr_db, seed=seed, block_id=noise_block_base + f)
        y = awgn(constellation.points[frame.labels], ch)
        lam = bitwise_lvalues(y, constellation, pmf, cfg)
        res = decode(code, invert_mapping(lam.reshape(-1), frame.mapping),
                     max_iter=max_iter, restarts=restarts)
        all_labels[f] = frame.labels
        all_lam[f] = lam
        sent_info[f] = frame.codeword[:k]
        decoded_info[f] = res.info
        converged += bool(res.converged)
        # reruns happen only after a failed first run
        bp_failures += res.restarts > 0 or not res.converged
        restarts_used += res.restarts
        frame_errors += not np.array_equal(res.info, frame.codeword[:k])

    s_o = ChannelConfig(snr_db).snr_linear / cfg.assumed_snr_linear
    trace = make_trace(constellation.labels_to_bits(all_labels.reshape(-1)),
                       all_lam.reshape(-1, constellation.m), pmf,
                       scale=scale, scale_opt=s_o)
    post = post_fec_ber(decoded_info.reshape(-1), sent_info.reshape(-1))
    la = trace.asymmetric()
    g = gmi_from_trace(trace, la=la)
    result = CodedPointResult(
        snr_db=float(snr_db),
        frames=n_frames,
        pre_fec_ber=pre_fec_ber(trace, la=la),
        post_fec_ber=post.ber,
        hd_fec_pass=post.hd_fec_pass,
        frame_error_rate=frame_errors / n_frames,
        converged_fraction=converged / n_frames,
        bp_failures=bp_failures,
        restarts_used=restarts_used,
        asi=asi_mc(trace, la=la),
        ngmi=ngmi(g.gmi_bits, trace.h_b, trace.m),
        r_fec_star=r_fec_star(trace, la=la).r_fec_star,
    )
    return result, trace
