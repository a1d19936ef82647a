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

``run_coded_point`` runs a point in four stages, each over every frame
at once except where a stream or the decoder is per frame:

1. transmit: ``PasStream.next_frames`` draws each frame's mapping seed,
   matcher payloads and sign bits in frame order, then matches, encodes,
   maps and labels all frames as stacked arrays;
2. noise: each frame gets AWGN from its own channel substream;
3. demap: one ``bitwise_lvalues`` call over all symbols, then one gather
   by the stacked slot permutations into codeword order
   (``frame_lvalues``);
4. decode: ``decode`` per frame, then the metrics of the pooled trace.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelConfig, awgn
from .demapper import DemapperConfig, bitwise_lvalues, make_trace
from .fec import apply_mapping, build_mapping, decode, encode, invert_mapping, post_fec_ber
from .metrics import asi_mc, gmi_from_trace, ngmi, pre_fec_ber, r_fec_star
from .shaping import amplitudes_to_bits, ccdm_encode


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


@dataclass(frozen=True, eq=False)
class PasFrames:
    """Frames transmitted together: ``PasFrame`` fields stacked per frame.

    ``codewords``, ``labels`` and ``amplitudes`` have one row per frame;
    ``mappings`` holds one BitMapping per frame, the form
    ``apply_mapping`` and ``invert_mapping`` take.
    """

    codewords: np.ndarray
    labels: np.ndarray
    mappings: tuple
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

    def next_frames(self, count):
        """Transmit the next ``count`` frames as one ``PasFrames``.

        The generators are drawn frame by frame, in the order a frame at a
        time would draw them (mapping seed; matcher payloads, then sign
        bits), so a stream transmits the same frames whatever the batch
        sizes.  Matching, encoding, mapping and labelling then run on all
        frames at once.
        """
        code = self.code
        mappings = []
        payloads = []                  # matcher codewords pulled by this batch
        info = np.empty((count, code.k), dtype=np.uint8)
        available = self._amp_buffer.size
        for f in range(count):
            mapping = self._fixed_mapping
            if mapping is None:
                mapping = build_mapping("r", code.n, code.k, self.bar_m,
                                        seed=int(self._map_rng.integers(1 << 31)),
                                        pas=self._pas)
            mappings.append(mapping)
            if not self._pas:
                info[f] = self._bits(code.k)
                continue
            while available < self.n_pam:
                payloads.append(self._bits(self.composition.k_ps))
                available += self.composition.n_pam
            available -= self.n_pam
            info[f, self.n_amp_positions:] = self._bits(self.n_sign_info)
        mappings = tuple(mappings)

        amps = None
        if self._pas:
            self.matcher_payloads.extend(payloads)
            stream = np.concatenate([self._amp_buffer]
                                    + [ccdm_encode(p, self.composition) for p in payloads])
            used = count * self.n_pam
            amps = stream[:used].reshape(count, self.n_pam)
            self._amp_buffer = stream[used:]
            slots = np.zeros((used, self.bar_m), dtype=np.uint8)
            slots[:, 1:] = amplitudes_to_bits(amps.reshape(-1), self.bar_m)
            info[:, :self.n_amp_positions] = invert_mapping(
                slots.reshape(count, -1), mappings)[:, :self.n_amp_positions]
        cw = encode(code, info)
        slot_bits = apply_mapping(cw, mappings)
        labels = self.constellation.bits_to_labels(slot_bits.reshape(-1, 2 * self.bar_m))
        return PasFrames(codewords=cw, labels=labels.reshape(count, -1),
                         mappings=mappings, amplitudes=amps)

    def next_frame(self):
        """Transmit one frame: ``next_frames(1)`` without the frame axis."""
        frames = self.next_frames(1)
        amps = None if frames.amplitudes is None else frames.amplitudes[0]
        return PasFrame(codeword=frames.codewords[0], labels=frames.labels[0],
                        mapping=frames.mappings[0], amplitudes=amps)


def frame_lvalues(y, mappings, constellation, pmf, config):
    """Demap received frames in one call and put their L-values in codeword order.

    ``y`` holds one frame's received symbols, or one row per frame with
    ``mappings`` one BitMapping per row.  Returns the demapper's
    (symbols, m) L-values of all symbols in order, and the codeword-order
    L-values, shaped (n,) or (frames, n).
    """
    y = np.asarray(y)
    lam = bitwise_lvalues(y.reshape(-1), constellation, pmf, config)
    return lam, invert_mapping(lam.reshape(*y.shape[:-1], -1), mappings)


@dataclass(frozen=True)
class CodedPointResult:
    """Chain outcome at one operating point.

    An undetected frame error is a frame whose decoder output satisfies
    every check but carries info bits other than the sent ones.
    """

    snr_db: float
    frames: int
    pre_fec_ber: float
    post_fec_ber: float
    hd_fec_pass: bool
    frame_error_rate: float
    converged_fraction: float   # valid codewords, after restarts
    bp_failures: int            # frames whose first flooding run failed
    restarts_used: int          # augmented-BP reruns over all frames
    bit_errors: int             # wrong info bits over all frames
    frame_errors: int           # frames with at least one wrong info bit
    undetected_frame_errors: int
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

    frames = stream.next_frames(n_frames)
    y = np.empty(frames.labels.shape, dtype=complex)
    for f, frame_labels in enumerate(frames.labels):
        ch = ChannelConfig(snr_db, seed=seed, block_id=noise_block_base + f)
        y[f] = awgn(constellation.points[frame_labels], ch)
    lam, lam_cw = frame_lvalues(y, frames.mappings, constellation, pmf, cfg)
    labels, sent_info = frames.labels, frames.codewords[:, :k]
    # the metric tail sets the peak memory of a point, on top of what is
    # still held then: keep only what the decode loop and the trace need
    del frames, y

    decoded_info = np.empty((n_frames, k), dtype=np.uint8)
    converged = bp_failures = restarts_used = 0
    bit_errors = frame_errors = undetected = 0
    for f in range(n_frames):
        res = decode(code, lam_cw[f], max_iter=max_iter, restarts=restarts)
        decoded_info[f] = res.info
        converged += bool(res.converged)
        # reruns happen only after a failed first run
        bp_failures += res.restarts > 0 or not res.converged
        restarts_used += res.restarts
        wrong = int(np.count_nonzero(res.info != sent_info[f]))
        bit_errors += wrong
        frame_errors += wrong > 0
        undetected += wrong > 0 and bool(res.converged)
    del lam_cw

    s_o = ChannelConfig(snr_db).snr_linear / cfg.assumed_snr_linear
    trace = make_trace(constellation.labels_to_bits(labels.reshape(-1)),
                       lam, pmf, scale=scale, scale_opt=s_o)
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
        bit_errors=bit_errors,
        frame_errors=frame_errors,
        undetected_frame_errors=undetected,
        asi=asi_mc(trace, la=la),
        ngmi=ngmi(g.gmi_bits, trace.h_b, trace.m),
        r_fec_star=r_fec_star(trace, la=la).r_fec_star,
    )
    return result, trace
