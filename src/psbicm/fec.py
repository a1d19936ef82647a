"""Bit-tributary mappings, LDPC codes, and belief-propagation decoding.

A bit mapping is a permutation of codeword positions onto label slots,
which assigns each position to one bit tributary of the underlying PAM
labels; structured (fs1/fs2), per-codeword random (r) and
fixed unstructured (fu) mappings all keep the final n/bar_m positions on
tributary 1, so that with a systematic encoder whose parity block is no
longer than n/bar_m the parity bits land exclusively on sign slots.  A
mapping does not know the code rate: the PAS transmitter
(``pas.transmit``) checks that the parity block fits.

Codes are systematic irregular repeat-accumulate constructions: the
information part of the parity-check matrix is built from shifted-identity
(circulant) blocks of size Z with column degree 3, the parity part is the
dual-diagonal accumulator staircase.  The staircase makes the matrix
provably full rank and gives O(n) encoding; circulant shifts are chosen
under explicit girth constraints so the Tanner graph has no 4-cycles.
The accumulator is a prefix XOR, so a codeword's parities are the XOR of
its information bits' own prefix parities; the weight screen on 1- and
2-information-bit codewords is popcounts of packed prefix-parity rows,
XORed in blocks of bounded size.  Matrices round-trip through the alist
text format and the package ships one frozen n=1008, rate-1/2 instance.

Decoding is flooding-schedule sum-product in the phi domain,
phi(x) = -ln tanh(x/2) being its own inverse.  The check update carries
the log-tanh values ln tanh(x/2) = -phi(x), which give the phi-domain
messages bit for bit without negating them; check magnitudes use
np.add.reduceat row sums and signs use np.bitwise_xor.reduceat parities,
with early exit once the hard decisions satisfy every check.  On frames
that run fails, an optional restart stage (the restart search of
augmented BP, Varnica, Fossorier and Kavcic 2007) pins the variables that
touched the most unsatisfied checks to saturated L-values, one and then
two at a time, and reruns BP; the first rerun whose hard decisions
satisfy every check is returned.  ``decode``'s ``restarts`` argument caps
the reruns per frame; its default 0 is exactly the flooding decoder.
"""

from __future__ import annotations

import itertools
import numbers
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from importlib import resources
from pathlib import Path

import numpy as np

# correctable input BER of the outer hard-decision code: a post-FEC BER at
# or below it passes
HD_FEC_THRESHOLD = 5e-5

MAPPING_KINDS = ("fs1", "fs2", "r", "fu")

# supported design rates: numerator/denominator pairs
_RATES = {
    "1/3": (1, 3),
    "1/2": (1, 2),
    "2/3": (2, 3),
    "3/4": (3, 4),
    "5/6": (5, 6),
    "9/10": (9, 10),
}

_REFERENCE_ALIST = "data/n1008_r12.alist"


def _require_nonnegative_ints(**values):
    """Reject, by name, a bool, a non-integer or a negative value."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 0:
            raise ValueError(f"{name} must be a nonnegative integer, got {value!r}")


# --- bit mappings --------------------------------------------------------

def build_mapping(kind, n, bar_m, seed=None):
    """Construct one of the fs1/fs2/r/fu mappings as its slot permutation.

    Returns ``perm``, int64 of length n: codeword position j goes to slot
    ``perm[j]`` and feeds tributary ``perm[j] % bar_m + 1``.  Slots are
    PAM-symbol major: symbol u holds slots u*bar_m + (t-1) for
    tributaries t = 1..bar_m, and the positions of one tributary fill its
    slots in codeword order.

    In codeword order the tributaries run: fs1 block-contiguous
    [bar_m..bar_m, ..., 1..1]; fs2 cycles [bar_m, bar_m-1, .., 2] before
    the trailing 1-block; r and fu permute fs1's leading block randomly
    (r is meant to be rebuilt with a fresh seed per codeword, fu keeps one
    fixed seed).  Every tributary feeds n/bar_m positions and the last
    n/bar_m positions are all tributary 1, the sign slots.
    """
    kind = kind.lower()
    if kind not in MAPPING_KINDS:
        raise ValueError(f"unknown mapping kind {kind!r}")
    if n % bar_m:
        raise ValueError("bar_m must divide n")
    block = n // bar_m
    lead = np.repeat(np.arange(bar_m, 1, -1), block)
    if kind == "fs2":
        lead = np.tile(np.arange(bar_m, 1, -1), block)
    elif kind in ("r", "fu"):
        if seed is None:
            raise ValueError(f"{kind} mapping needs a seed")
        lead = np.random.default_rng(seed).permutation(lead)
    tributary = np.concatenate([lead, np.ones(block, dtype=lead.dtype)])
    # the stable sort lists positions tributary by tributary, each in
    # codeword order: the i-th is position i % block of tributary i // block + 1
    i = np.arange(n)
    perm = np.empty(n, dtype=np.int64)
    perm[np.argsort(tributary, kind="stable")] = (i % block) * bar_m + i // block
    return perm


def _slot_index(x, perm):
    """``perm`` broadcast to x's shape: one permutation for every row, or
    a (frames, n) stack with one per row of a 2-D x."""
    perm = np.asarray(perm)
    if perm.ndim == 2 and (x.ndim != 2 or x.shape[0] != perm.shape[0]):
        raise ValueError("need a 2-D array with one row per mapping")
    if x.shape[-1] != perm.shape[-1]:
        raise ValueError("length must equal the mapping size")
    return np.broadcast_to(perm, x.shape)


def apply_mapping(x, perm):
    """Codeword order -> tributary slot order (PAM-symbol major).

    Maps the last axis of x by a ``build_mapping`` permutation of shape
    (n,), or by one per row of a 2-D x, shape (frames, n).
    """
    x = np.asarray(x)
    out = np.empty_like(x)
    np.put_along_axis(out, _slot_index(x, perm), x, axis=-1)
    return out


def invert_mapping(x, perm):
    """Tributary slot order -> codeword order; inverse of apply_mapping."""
    x = np.asarray(x)
    return np.take_along_axis(x, _slot_index(x, perm), axis=-1)


# --- code representation -------------------------------------------------

@dataclass(frozen=True, eq=False)
class LdpcCode:
    """Sparse parity-check matrix in row-adjacency form.

    ``row_cols`` lists the variable columns of each check row
    back-to-back; ``row_ptr`` holds the n_rows+1 segment boundaries.
    ``k`` is the systematic prefix length n - n_rows.
    """

    name: str
    n: int
    k: int
    row_ptr: np.ndarray
    row_cols: np.ndarray

    @property
    def n_rows(self):
        return self.row_ptr.size - 1

    @property
    def rate(self):
        return self.k / self.n

    @cached_property
    def row_degrees(self):
        return np.diff(self.row_ptr)

    @cached_property
    def edge_row(self):
        return np.repeat(np.arange(self.n_rows), self.row_degrees)

    @cached_property
    def col_degrees(self):
        return np.bincount(self.row_cols, minlength=self.n)

    @cached_property
    def encoder(self):
        """"staircase" when the parity columns form the dual-diagonal
        accumulator (enabling ``encode``), else None.

        Parity column k+j must sit in rows j and j+1 only (the last one in
        row n_rows-1 only).  Columns are sorted within rows, so the parity
        edges, in row order, must be (0, k), (1, k), (1, k+1), (2, k+1), ...
        Such a parity part is full rank: the code has exactly 2**k codewords.
        """
        parity = self.row_cols >= self.k
        t = np.arange(2 * self.n_rows - 1)
        if (np.array_equal(self.edge_row[parity], (t + 1) // 2)
                and np.array_equal(self.row_cols[parity] - self.k, t // 2)):
            return "staircase"
        return None

    @classmethod
    def from_edges(cls, name, n, n_rows, rows, cols):
        """Build from (row, column) edge pairs given in any order.

        The edges are sorted once by ``row * n + col``.  An index out of
        range, a row that lists a column twice and an empty row are
        rejected.
        """
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        if np.any(cols < 0) or np.any(cols >= n):
            raise ValueError("column index out of range")
        keys = np.sort(rows * n + cols)
        # with every column in range, a key is in range iff its row is
        if keys.size and (keys[0] < 0 or keys[-1] >= n_rows * n):
            raise ValueError("row index out of range")
        if np.any(np.diff(keys) == 0):
            raise ValueError("a row lists the same column twice")
        row_deg = np.bincount(rows, minlength=n_rows)
        if np.any(row_deg == 0):
            raise ValueError("every check row needs at least one column")
        row_ptr = np.concatenate([[0], np.cumsum(row_deg)])
        return cls(name=name, n=n, k=n - n_rows, row_ptr=row_ptr, row_cols=keys % n)


# --- quasi-cyclic IRA construction ---------------------------------------

def _candidate_geometries(n, num, den):
    """(block cols, block rows, z) candidates, preferred first.

    Needs >= 3 block rows for column degree 3 and z >= 8 for shift
    diversity; preference is a lifting size near 48, which balances
    girth headroom against block-row count.
    """
    if n % den:
        raise ValueError(f"n must be divisible by {den} for rate {num}/{den}")
    br_base = den - num
    out = []
    for f in range(1, n // den + 1):
        if (n // den) % f:
            continue
        zz = n // (den * f)
        if br_base * f < 3 or zz < 8:
            continue
        out.append((abs(zz - 48), den * f, br_base * f, zz))
    if not out:
        raise ValueError("no block geometry with >= 3 block rows and z >= 8")
    return [(bc, br, zz) for _, bc, br, zz in sorted(out)]


def _prefix_parities(legs, m):
    """Accumulator parities of each bit of a group, packed as uint64 words.

    The staircase is a prefix XOR: a bit flipping check rows R has the XOR
    over r in R of the runs [r, m) as parities.  Bit i of word w stands for
    row m - 1 - 64w - i, so a run is its m - r low bits (shifted in halves:
    a shift by 64 clears) and no padding bit is set.  Column a of the
    (words, z) result is bit a's row P_a, word-major so that popcounts sum
    over the leading axis: bit a weighs 1 + popcount(P_a) and, by
    linearity, the pair (a, b) weighs 2 + popcount(P_a ^ P_b).
    """
    run = m - legs - np.arange(0, m, 64)[:, None, None]
    k = np.minimum(np.maximum(run, 0), 64).astype(np.uint64)
    half = k >> 1
    return np.bitwise_xor.reduce(~(np.uint64(2**64 - 1) << half << (k - half)), axis=2)


def _weights(parities):
    """Popcounts summed over the leading axis, in the narrowest type that fits."""
    counts = np.bitwise_count(parities)
    return counts.sum(axis=0, dtype=np.min_scalar_type(64 * len(counts)))


def _group_degrees(info_groups, q, num, den):
    """Information-column degree per bit group, heavy groups first.

    The staircase already contributes the degree-1/2 mass, so the
    threshold is set by the information side: a fraction of groups at a
    high degree and the rest at 3, in proportions that track deployed
    irregular accumulator profiles for each rate.  Geometries with few
    residue classes fall back to all-3: a heavy group must leave at
    least two classes unused or the shift search has no freedom left.
    """
    high, frac = {
        (1, 3): (12, 0.25), (1, 2): (8, 0.40), (2, 3): (12, 0.17),
        (3, 4): (12, 0.15), (5, 6): (13, 0.12), (9, 10): (4, 0.18),
    }[(num, den)]
    high = min(high, q - 2)
    if high <= 3:
        return [3] * info_groups
    n_high = int(round(frac * info_groups))
    return [high] * n_high + [3] * (info_groups - n_high)


# layout search: random class combinations compared per group, shift
# draws per group before the whole layout is redrawn, whole redraws, and
# the parity words one block of the weight screen XORs (512 KiB)
_CLASS_SAMPLES = 8
_GROUP_TRIES = 300
_LAYOUT_RESTARTS = 8
_SCREEN_WORDS = 1 << 16


def _pick_classes(q, deg, load, rng):
    """Class combination for one group, preferring unloaded class pairs:
    ``load`` is zero unless v1 < v2, so a sample's submatrix sums its pairs."""
    if deg >= q:
        return np.arange(q)
    samples = np.sort([rng.choice(q, size=deg, replace=False)
                       for _ in range(_CLASS_SAMPLES)], axis=1)
    return samples[np.argmin(load[samples[:, :, None], samples[:, None]].sum(axis=(1, 2)))]


def _pick_shifts(classes, used, z, q, rng):
    """Sequentially choose in-class shifts against the remaining budget.

    For each class the banned shifts are derived from already chosen
    legs: repeats of a consumed shift difference (cross-group 4-cycle),
    equal shifts on consecutive classes, and the difference-1 wrap of
    the (0, q-1) pair (both put one bit on two consecutive check rows).
    Returns None when a class has no shift left.
    """
    shifts = []
    for cj in classes:
        banned = set()
        for ci, ui in zip(classes, shifts):
            banned.update((ui - d) % z for d in used.get((ci, cj), ()))
            if cj == ci + 1:
                banned.add(ui)
            if (ci, cj) == (0, q - 1):
                banned.add((ui - 1) % z)
        cand = [u for u in range(z) if u not in banned]
        if not cand:
            return None
        shifts.append(cand[rng.integers(0, len(cand))])
    return shifts


def _search_layout(q, z, rng, degrees):
    """Draw class/shift placements satisfying girth and weight screens.

    Returns the check rows of each information bit group, (z, degree),
    or None when the geometry cannot be satisfied.  A group's legs sit in
    distinct residue classes, so no two legs of a group can collide and
    cross-group 4-cycles reduce to repeated in-class shift differences
    per class pair.  Staircase 4-cycles need a bit covering two
    consecutive rows, i.e. equal in-class shifts on consecutive classes
    (or u_first = u_last + 1 across the row-index wrap), and are
    excluded the same way.  The weight screen XORs a try's prefix parities
    pairwise and against all placed bits, in blocks of at most
    ``_SCREEN_WORDS`` words; it draws nothing, so every try's draws fix
    the stream after it.
    """
    m = q * z
    # short parity chains cannot support the 2 + 2q target, so cap by m
    w_floor = max(6, min(2 + 2 * q, m // 12))
    words = -(-m // 64)
    step = max(1, _SCREEN_WORDS // (words * z))     # bits per block
    itself = m * np.eye(z, dtype=np.int32)  # a bit paired with itself passes
    for _ in range(_LAYOUT_RESTARTS):
        used = {}                           # (v1, v2) -> set of shift diffs
        load = np.zeros((q, q), dtype=np.int64)     # len(used[v1, v2])
        layout = []
        placed = np.empty((words, len(degrees) * z), dtype=np.uint64)
        for g, deg in enumerate(degrees):
            done = placed[:, :g * z]
            for _try in range(_GROUP_TRIES):
                classes = _pick_classes(q, deg, load, rng).tolist()
                shifts = _pick_shifts(classes, used, z, q, rng)
                if shifts is None:
                    continue
                # bit c's leg in class v, shift u, is on row ((c+u) mod z)*q + v:
                # consecutive bits land q rows apart, so the parity runs they
                # start stay >= q long and light codewords rare
                legs = (np.arange(z)[:, None] + shifts) % z * q + classes
                par = _prefix_parities(legs, m)
                # its single bits, then its pairs within it and with placed
                # bits, a block at a time
                own = (_weights(par[:, s:s + step, None] ^ par[:, None]) + itself[s:s + step]
                       for s in range(0, z, step))
                cross = (_weights(par[:, :, None] ^ done[:, None, s:s + step])
                         for s in range(0, done.shape[1], step))
                if (_weights(par).min() < w_floor - 1
                        or any(w.min() < w_floor - 2 for w in itertools.chain(own, cross))):
                    continue
                for a in range(deg):
                    for b in range(a + 1, deg):
                        pair = classes[a], classes[b]
                        used.setdefault(pair, set()).add((shifts[a] - shifts[b]) % z)
                        load[pair] += 1             # an unbanned difference is new
                layout.append(legs)
                placed[:, g * z:(g + 1) * z] = par
                break
            else:                           # no try placed this group: redraw all
                break
        else:
            return layout
    return None


def generate_code(n, rate, seed=0):
    """Generate a quasi-cyclic IRA code of length n at the given rate.

    ``n`` and ``seed`` are nonnegative integers, ``rate`` one of "1/3",
    "1/2", "2/3", "3/4", "5/6" and "9/10".  Information bits are organized
    in groups of Z; each group gets degree-1 legs in distinct row-residue
    classes mod q (q = rows / Z), so consecutive bits of a group land q
    rows apart and their parity runs through the accumulator stay long.
    Group degrees follow a rate-dependent irregular profile (most groups
    at 3, a fraction higher) when the geometry has enough classes.
    Class/shift draws come from a seeded generator and are re-drawn until
    the girth constraints hold (distinct in-class shift differences per
    class pair, no bit covering two consecutive rows) and every 1- and
    2-info-bit codeword clears a weight floor scaled to q, which removes
    the construction's dominant undetected-error words.  The accumulator
    is a prefix XOR, so these weights are popcounts of each bit's packed
    prefix parities and of the XOR of two such rows.
    """
    _require_nonnegative_ints(n=n, seed=seed)
    if rate not in _RATES:
        raise ValueError(f"unsupported rate {rate!r}")
    num, den = _RATES[rate]
    rng = np.random.default_rng(seed)
    for bc, br, z in _candidate_geometries(n, num, den):
        legs = _search_layout(br, z, rng, _group_degrees(bc - br, br, num, den))
        if legs is not None:
            break
    if legs is None:
        raise ValueError("could not satisfy girth and weight constraints; "
                         "try a different n")
    n_rows = br * z
    k = n - n_rows

    # bit c of group g sits in column g*z + c, one edge per leg; then the
    # accumulator staircase: parity column k+j in rows j and j+1
    info_cols = [np.repeat(g * z + np.arange(z), leg.shape[1]) for g, leg in enumerate(legs)]
    j = np.arange(n_rows)
    rows = np.concatenate([leg.ravel() for leg in legs] + [j, j[1:]])
    cols = np.concatenate(info_cols + [k + j, k + j[:-1]])
    name = f"qcira_n{n}_r{rate.replace('/', '')}_z{z}_s{seed}"
    return LdpcCode.from_edges(name, n, n_rows, rows, cols)


# --- alist I/O -----------------------------------------------------------

def write_alist(code, path):
    """Write the parity-check matrix in standard alist text format.

    Layout: "n_cols n_rows", max degrees, per-column and per-row degree
    lists, then 1-indexed adjacency lines padded with zeros.
    """
    col_deg, row_deg = code.col_degrees, code.row_degrees
    # column lines list each column's rows ascending: the edges sorted by
    # column, then row
    order = np.lexsort((code.edge_row, code.row_cols))
    blocks = []
    for entries, degrees in ((code.edge_row[order] + 1, col_deg),
                             (code.row_cols + 1, row_deg)):
        block = np.zeros((degrees.size, degrees.max()), dtype=np.int64)
        block[np.arange(block.shape[1]) < degrees[:, None]] = entries
        blocks.append(block)
    lines = [f"{code.n} {code.n_rows}", f"{col_deg.max()} {row_deg.max()}",
             " ".join(map(str, col_deg.tolist())), " ".join(map(str, row_deg.tolist()))]
    lines += [" ".join(map(str, line)) for block in blocks for line in block.tolist()]
    Path(path).write_text("\n".join(lines) + "\n")


def read_alist(path, name=None):
    """Read an alist file; tolerates both zero-padded and unpadded lines.

    The column lines must list exactly the edges of the row lines, and no
    line may list an index twice.
    """
    text = Path(path).read_text()
    name = name or Path(path).stem
    # fromstring saturates an out-of-range token of either sign to the
    # int64 maximum, so both int64 ends count as overflow
    bad = "alist file holds a token that is not a 64-bit integer"
    try:
        toks = np.fromstring(text, dtype=np.int64, sep=" ")
    except ValueError as e:
        raise ValueError(f"{bad}: {e}") from e
    ends = np.iinfo(np.int64)
    if toks.size and (toks.max() == ends.max or toks.min() == ends.min):
        raise ValueError(bad)
    pos = 0

    def take(count):
        nonlocal pos
        if pos + count > toks.size:
            raise ValueError("truncated alist file")
        out = toks[pos:pos + count]
        pos += count
        return out

    n, n_rows = (int(v) for v in take(2))
    max_col, max_row = (int(v) for v in take(2))
    col_deg = take(n)
    row_deg = take(n_rows)
    # padded or plain layout, detected by total token count
    remaining = toks.size - pos
    if remaining == n * max_col + n_rows * max_row:
        padded = True
    elif remaining == col_deg.sum() + row_deg.sum():
        padded = False
    else:
        raise ValueError("alist adjacency size matches neither padded nor plain layout")

    def adjacency(n_lines, max_deg, degrees, what):
        # the lines' entries, flat, and the line index of each; padded
        # lines carry max_deg entries (zeros beyond the degree)
        if padded:
            block = take(n_lines * max_deg).reshape(n_lines, max_deg)
            nonzero = block != 0
            if not np.array_equal(nonzero.sum(axis=1), degrees):
                raise ValueError(f"{what} degree list disagrees with adjacency")
            entries = block[nonzero]
        else:
            entries = take(int(degrees.sum()))
        return entries, np.repeat(np.arange(n_lines), degrees)

    col_rows, col_of = adjacency(n, max_col, col_deg, "column")
    row_cols, row_of = adjacency(n_rows, max_row, row_deg, "row")
    code = LdpcCode.from_edges(name, n, n_rows, row_of, row_cols - 1)
    # each edge as row * n + column: the code's, sorted, against the
    # column lines'
    if not np.array_equal(code.edge_row * n + code.row_cols,
                          np.sort((col_rows - 1) * n + col_of)):
        raise ValueError("alist column lines do not list the edges of the row lines")
    return code


def reference_code():
    """The shipped n=1008, rate-1/2 staircase-IRA code.

    The packaged alist is frozen output of a progressive-edge-growth
    (PEG, Hu, Eleftheriou and Arnold 2005) construction over the
    staircase accumulator, with a screen against low-weight
    accumulator-span codewords: 330 degree-3 columns followed by 174
    degree-10 columns (light columns first, which also places them on
    the weakest tributary under the block bit mapping), seed 1.  It was
    generated by ``fec.peg_code`` at commit 83bf1fe, since removed; the
    file is pinned by its SHA-256 in the tests.
    """
    ref = resources.files("psbicm").joinpath(_REFERENCE_ALIST)
    with resources.as_file(ref) as path:
        return read_alist(path, name="n1008_r12")


# --- encode / decode -----------------------------------------------------

def encode(code, info_bits):
    """Systematic staircase encoding: codeword = [info, parity].

    Parity follows the accumulator recursion p_j = s_j xor p_{j-1} where
    s_j is the parity of the information bits on check row j.  Encodes
    every length-k row of ``info_bits`` (shape (..., k), entries 0 or 1).
    """
    if code.encoder != "staircase":
        raise ValueError(f"code {code.name!r} has no systematic encoder")
    info = np.asarray(info_bits)
    if info.shape[-1:] != (code.k,):
        raise ValueError(f"info length must be k = {code.k}")
    if np.any((info != 0) & (info != 1)):
        raise ValueError("info bits must be 0 or 1")
    info = info.astype(np.uint8, copy=False)
    # the info edges, in row order, form one segment per row; a zero
    # column appended keeps every segment start a valid index
    info_edges = code.row_cols < code.k
    deg = np.bincount(code.edge_row[info_edges], minlength=code.n_rows)
    starts = np.cumsum(deg) - deg
    bits = np.concatenate([info[..., code.row_cols[info_edges]],
                           np.zeros(info.shape[:-1] + (1,), dtype=np.uint8)], axis=-1)
    s = np.bitwise_xor.reduceat(bits, starts, axis=-1)
    s[..., deg == 0] = 0               # reduceat gives x[start] for an empty segment
    parity = np.bitwise_xor.accumulate(s, axis=-1)
    return np.concatenate([info, parity], axis=-1)


@dataclass(frozen=True)
class DecodeResult:
    """Outcome of ``decode``.

    ``iterations`` counts flooding iterations over every BP run spent on
    the frame, the first pass and all restarts; ``restarts`` counts the
    reruns alone.  ``converged`` is True only if ``codeword`` satisfies
    every check.
    """

    codeword: np.ndarray
    iterations: int
    converged: bool
    k: int
    restarts: int = 0

    @property
    def info(self):
        return self.codeword[: self.k]


def _log_tanh(x):
    # ln tanh(x/2) = -phi(x), in place on x; the floor bounds check
    # magnitudes at phi(1e-12) ~ 28 instead of overflowing at exact zeros
    np.maximum(x, 1e-12, out=x)
    x *= 0.5
    np.tanh(x, out=x)
    return np.log(x, out=x)


def _flooding(code, lam, max_iter, unsat=None):
    """One flooding sum-product run: (hard decisions, iterations, converged).

    If ``unsat`` is given, every iteration adds to it, per variable, the
    number of its checks that the iteration's hard decisions leave
    unsatisfied.

    The check update carries lt = ln tanh(|m_vc|/2) = -phi(|m_vc|).
    Negating every operand of a sum or difference negates its rounded
    result, so lt minus its row sum is exactly the phi-domain extrinsic
    sum, and the sign is one multiply by -1 or +1: every message is bit
    for bit the phi form's.
    """
    starts = code.row_ptr[:-1]
    cols = code.row_cols
    erow = code.edge_row
    m_cv = np.zeros(cols.size)

    iterations = 0
    converged = False
    totals = lam
    for it in range(max_iter + 1):
        totals = lam + np.bincount(cols, weights=m_cv, minlength=code.n)
        # one gather gives the syndrome and, in place, the messages m_vc
        m_vc = totals[cols]
        checks = np.bitwise_xor.reduceat((m_vc < 0).view(np.uint8), starts)
        if not np.count_nonzero(checks) and np.all(totals != 0):
            iterations, converged = it, True
            break
        if unsat is not None:
            unsat += np.bincount(cols, weights=checks[erow], minlength=code.n)
        if it == max_iter:
            iterations = max_iter
            break
        m_vc -= m_cv
        neg = (m_vc < 0).view(np.uint8)
        lt = _log_tanh(np.abs(m_vc))
        ext_neg = np.bitwise_xor.reduceat(neg, starts)[erow] ^ neg
        lt -= np.add.reduceat(lt, starts)[erow]
        m_cv = _log_tanh(lt)
        m_cv *= ext_neg * 2.0 - 1.0

    return (totals < 0).astype(np.uint8), iterations, converged


# restart search of augmented BP: candidates ranked per run, tree depth,
# iterations per rerun (capped by max_iter) and the saturating L-value
_RESTART_CANDIDATES = 16
_RESTART_DEPTH = 2
_RESTART_ITER = 60
_SATURATION = 30.0


def _restart_search(code, lam, hard, unsat, budget, max_iter):
    """Breadth-first augmented-BP restarts after a failed flooding run.

    Each tree node is a set of variables pinned to +-_SATURATION; its
    children pin, in turn, each of the _RESTART_CANDIDATES unpinned
    variables that touched the most unsatisfied checks during the
    node's own BP run, first against that run's hard decision, then
    with it.  Returns (codeword or None, iterations, reruns) for the
    first rerun whose hard decisions satisfy every check.
    """
    iters = min(max_iter, _RESTART_ITER)
    queue = deque([((), hard, unsat)])
    spent = runs = 0
    while queue:
        pinned, hard, unsat = queue.popleft()
        order = np.argsort(-unsat, kind="stable")
        order = order[~np.isin(order, [j for j, _ in pinned])]
        for j in order[:_RESTART_CANDIDATES]:
            flip = _SATURATION if hard[j] else -_SATURATION
            for value in (flip, -flip):
                if runs == budget:
                    return None, spent, runs
                trial = pinned + ((j, value),)
                lam_t = lam.copy()
                for i, v in trial:
                    lam_t[i] = v
                counts = np.zeros(code.n) if len(trial) < _RESTART_DEPTH else None
                hard_t, it, ok = _flooding(code, lam_t, iters, counts)
                spent += it
                runs += 1
                if ok:
                    return hard_t, spent, runs
                if counts is not None:
                    queue.append((trial, hard_t, counts))
    return None, spent, runs


def decode(code, lvalues, max_iter=50, restarts=0):
    """Sum-product decoding of one codeword, with optional restarts.

    ``lvalues`` follow the positive-means-bit-0 convention and must be
    finite.  A first flooding-schedule run stops early once hard
    decisions satisfy every check with a strictly nonzero total at every
    position (all-zero inputs are a sum-product fixed point and report
    non-convergence).

    If that run does not converge and ``restarts`` > 0, the restart
    search of augmented belief propagation (Varnica, Fossorier and
    Kavcic, IEEE Trans. Commun. 2007) follows.  Variables are ranked by
    how many unsatisfied checks they touched, summed over all
    iterations; one top-ranked variable at a time is pinned to an
    L-value of +-30 and BP is rerun from fresh messages, breadth-first
    over single pins and then pairs.  The first rerun whose hard
    decisions satisfy every check is returned, even if a later one
    would find a more likely codeword.  ``restarts`` caps the number of
    reruns per frame; if none converges, the first run's result is
    returned.  With ``restarts=0`` (the default) the decoder is plain
    flooding BP, bit for bit.
    """
    _require_nonnegative_ints(max_iter=max_iter, restarts=restarts)
    lam = np.asarray(lvalues, dtype=float)
    if lam.shape != (code.n,):
        raise ValueError(f"need n = {code.n} L-values")
    bad = lam.size - np.count_nonzero(np.isfinite(lam))
    if bad:
        raise ValueError(f"{bad} of {lam.size} L-values are NaN or infinite")
    unsat = np.zeros(code.n) if restarts else None
    hard, iterations, converged = _flooding(code, lam, max_iter, unsat)
    runs = 0
    if not converged and restarts:
        found, spent, runs = _restart_search(code, lam, hard, unsat, restarts, max_iter)
        iterations += spent
        if found is not None:
            hard, converged = found, True
    return DecodeResult(codeword=hard, iterations=iterations,
                        converged=converged, k=code.k, restarts=runs)
