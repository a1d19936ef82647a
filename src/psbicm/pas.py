"""Probabilistic amplitude shaping chain: payload bits to modulated frames.

Reverse concatenation: a constant-composition matcher fixes the
amplitude-select bits before FEC encoding, the systematic encoder adds
parity, and the bit mapping routes codeword positions onto per-symbol
tributary slots so that parity lands on sign bits, which stay uniform.
The same slot bookkeeping run backwards recovers payload bits after
decoding.  Without a composition the chain degenerates to plain uniform
coded modulation (any code rate, amplitude bits drawn fair).

A bit mapping is its slot permutation ``perm`` from ``build_mapping``.
Slot order is PAM-major: codeword bit j goes to slot
``perm[j] = pam_index * bar_m + tributary - 1``; consecutive PAM groups
pair into I/Q halves of one 2-D symbol, matching the constellation's
bit layout [sign, amplitude bits] per dimension.

Matcher buffering: each FEC frame pulls whole matcher codewords on
demand (``k_ps`` payload bits each) until its amplitude need is
covered; leftover amplitudes carry over to the next frame.

``run_coded_point`` runs a point in four stages, each over every frame
at once except where a generator or the decoder is per frame:

1. transmit: ``transmit`` draws each frame's mapping seed, matcher
   payloads and sign bits in frame order, then matches, encodes, maps
   and labels all frames as stacked arrays, with one slot permutation
   per frame;
2. noise: each frame gets AWGN from its own channel substream;
3. demap: one ``bitwise_lvalues`` call over all symbols, then one gather
   by the stacked slot permutations into codeword order
   (``frame_lvalues``);
4. decode: ``decode`` per frame, then ``compute_report`` on the pooled
   trace.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelConfig, awgn
from .demapper import DemapperConfig, bitwise_lvalues, make_trace
from .fec import HD_FEC_THRESHOLD, apply_mapping, build_mapping, decode, encode, invert_mapping
from .metrics import compute_report
from .shaping import amplitudes_to_bits, ccdm_encode


@dataclass(frozen=True, eq=False)
class PasFrames:
    """Frames transmitted together, one row per frame.

    ``codewords`` are in bit-position order (info then parity),
    ``labels`` are the transmitted 2-D label integers, ``perms`` the
    ``build_mapping`` slot permutations, ``amplitudes`` the 1-D
    amplitudes in PAM order and ``payloads`` the payload bits of every
    matcher codeword pulled, in pull order (both None for uniform
    signaling).
    """

    codewords: np.ndarray
    labels: np.ndarray
    perms: np.ndarray
    amplitudes: np.ndarray | None
    payloads: np.ndarray | None


def transmit(code, constellation, pmf, n_frames, *, composition=None,
             mapping="fs1", mapping_seed=0, seed=0):
    """Transmit ``n_frames`` frames from a deterministic source.

    Payload bits come from one generator seeded with ``seed``; bit-mapping
    draws for the per-frame random kind come from a second, seeded with
    ``mapping_seed``, so equal ``seed`` with different mappings transmits
    the same payload.  The generators are drawn frame by frame (mapping
    seed; matcher payloads, then sign bits), then matching, encoding,
    mapping and labelling run on all frames at once.  Amplitudes left
    over from the last matcher codeword are dropped.
    """
    if n_frames < 1:
        raise ValueError("need at least one frame")
    bar_m = constellation.bar_m
    n, k = code.n, code.k
    if n % (2 * bar_m):
        raise ValueError("codeword length must fill whole 2-D symbols")
    n_pam = n // bar_m
    n_amp_positions = n - n_pam
    pas = composition is not None
    if pas:
        if bar_m < 2:
            raise ValueError("shaping needs amplitude bits (bar_m >= 2)")
        expected = 2 * np.arange(1 << (bar_m - 1)) + 1
        if not np.array_equal(composition.alphabet, expected):
            raise ValueError("composition alphabet does not match the format")
        if k < n_amp_positions:
            raise ValueError("fewer sign slots than parity bits; raise the code rate")
    map_rng = np.random.default_rng(mapping_seed)
    if mapping == "r":
        perms = np.empty((n_frames, n), dtype=np.int64)
    else:
        perm = build_mapping(mapping, n, k, bar_m,
                             seed=mapping_seed if mapping == "fu" else None, pas=pas)
        perms = np.broadcast_to(perm, (n_frames, n))
    rng = np.random.default_rng(seed)

    def bits(size):
        return rng.integers(0, 2, size=size, dtype=np.uint8)

    info = np.empty((n_frames, k), dtype=np.uint8)
    pulled = []                    # payload bits of each matcher codeword
    available = 0                  # matched amplitudes not yet framed
    for f in range(n_frames):
        if mapping == "r":
            perms[f] = build_mapping("r", n, k, bar_m,
                                     seed=int(map_rng.integers(1 << 31)), pas=pas)
        if not pas:
            info[f] = bits(k)
            continue
        while available < n_pam:
            pulled.append(bits(composition.k_ps))
            available += composition.n_pam
        available -= n_pam
        info[f, n_amp_positions:] = bits(k - n_amp_positions)

    amps = payloads = None
    if pas:
        payloads = np.stack(pulled)
        matched = np.concatenate([ccdm_encode(p, composition) for p in pulled])
        amps = matched[:n_frames * n_pam].reshape(n_frames, n_pam)
        slots = np.zeros((n_frames * n_pam, bar_m), dtype=np.uint8)
        slots[:, 1:] = amplitudes_to_bits(amps.reshape(-1), bar_m)
        info[:, :n_amp_positions] = invert_mapping(
            slots.reshape(n_frames, -1), perms)[:, :n_amp_positions]
    cw = encode(code, info)
    labels = constellation.bits_to_labels(apply_mapping(cw, perms).reshape(-1, 2 * bar_m))
    return PasFrames(codewords=cw, labels=labels.reshape(n_frames, -1), perms=perms,
                     amplitudes=amps, payloads=payloads)


def frame_lvalues(y, perms, constellation, pmf, config):
    """Demap received frames in one call and put their L-values in codeword order.

    ``y`` holds one frame's received symbols, or one row per frame with
    ``perms`` one slot permutation per row.  Returns the demapper's
    (symbols, m) L-values of all symbols in order, and the codeword-order
    L-values, shaped (n,) or (frames, n).
    """
    y = np.asarray(y)
    lam = bitwise_lvalues(y.reshape(-1), constellation, pmf, config)
    return lam, invert_mapping(lam.reshape(*y.shape[:-1], -1), perms)


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
    if assumed_snr_db is None:
        assumed_snr_db = snr_db
    cfg = DemapperConfig(assumed_snr_db=assumed_snr_db, scale=scale)
    k = code.k

    frames = transmit(code, constellation, pmf, n_frames, composition=composition,
                      mapping=mapping, mapping_seed=mapping_seed, seed=seed)
    y = np.empty(frames.labels.shape, dtype=complex)
    for f, frame_labels in enumerate(frames.labels):
        ch = ChannelConfig(snr_db, seed=seed, block_id=noise_block_base + f)
        y[f] = awgn(constellation.points[frame_labels], ch)
    lam, lam_cw = frame_lvalues(y, frames.perms, constellation, pmf, cfg)
    labels, sent_info = frames.labels, frames.codewords[:, :k]
    # the metric tail sets the peak memory of a point, on top of what is
    # still held then: keep only what the decode loop and the trace need
    del frames, y

    converged = bp_failures = restarts_used = 0
    bit_errors = frame_errors = undetected = 0
    for f in range(n_frames):
        res = decode(code, lam_cw[f], max_iter=max_iter, restarts=restarts)
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
    report = compute_report(trace)
    post_ber = bit_errors / (n_frames * k)
    result = CodedPointResult(
        snr_db=float(snr_db),
        frames=n_frames,
        pre_fec_ber=report.pre_fec_ber,
        post_fec_ber=post_ber,
        hd_fec_pass=post_ber <= HD_FEC_THRESHOLD,
        frame_error_rate=frame_errors / n_frames,
        converged_fraction=converged / n_frames,
        bp_failures=bp_failures,
        restarts_used=restarts_used,
        bit_errors=bit_errors,
        frame_errors=frame_errors,
        undetected_frame_errors=undetected,
        asi=report.asi,
        ngmi=report.ngmi,
        r_fec_star=report.r_fec_star,
    )
    return result, trace
