"""Secrecy quantification: typical deciphering sets, concentration, bounds.

The security of a running-key cipher against an unbounded adversary is
measured by the set of near-equiprobable plaintexts that carry almost all
posterior mass given the ciphertext.  This module constructs that set
exactly, by meet in the middle: the joint log-probability of a plaintext
splits into a left half over its first h symbols and a right half over the
rest given the left half's last K = max(k_X, k_Y) symbols, so the n**t
plaintexts are never enumerated, only n**h left words against n**(K + t - h)
right cells, each half within ``DEFAULT_WORD_CAP`` (a binary pair reaches t
= 48 - K).  It measures the set's mass / internal probability spread
/ growth exponent, runs finite-length Monte Carlo experiments showing the
per-letter posterior log-probability concentrating at the equivocation rate
h(X|Z), and certifies the closed-form lower bounds

    h(X|Z)  >=  h(X) + h(Y) - log2 n
            ==  h(X) - r_Y  ==  h(Y) - r_X  ==  log2 n - (r_X + r_Y)

together with their redundancy rewritings.  A bias sweep over key models
P(0) = 0.5 - tau quantifies how gracefully security degrades as the key
stream drifts away from the one-time pad.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace

import numpy as np

from .cipher import CipherSpec
from .errors import CertificationError, EnumerationCapError, UnsupportedCipherError
from .inference import (
    _CELL,
    EntropyBracket,
    _Front,
    _certify_mass,
    _check_alphabets,
    _joint_blocks,
    _log_marginal,
    _ProductChain,
    _right_half,
    _split,
    hxz_bracket,
    posterior,  # noqa: F401 (the benchmark's tracer wraps this name here)
)
from .sources import DEFAULT_WORD_CAP, SourceModel, _Walk, _walk_batch, make_bernoulli
from .words import as_word

# no member list is built: the constant only sets a report's members_kept,
# which reads member_count <= DEFAULT_MEMBER_CAP
DEFAULT_MEMBER_CAP = 1 << 22

# Monte Carlo samples per batch, lowered to _CELL // S so the forward's front,
# (S, rows) floats, holds at most _CELL (one row at least) whatever t
_SAMPLE_CHUNK = 2048

# uniforms a batch draws at once (512 KiB of floats): a batch whose rows hold
# more is walked in balanced time segments, 26 at S = 128 and t = 800; a
# segment costs no seeding and no call per row, the generators carry on
_SEGMENT_CELLS = 1 << 16
# PCG64 lanes * rows of a stream's generator (128 KiB a uint64 array): of 2**12
# to 2**16, the fewest nanoseconds a draw at 2048 rows
_LANE_CELLS = 1 << 14

# sampled symbols, samples * sum(t + 1), per concentration experiment: some two
# minutes of walks and forward steps on a binary pair of S = 128 states.  A
# row's steps, sum(t + 1), are capped at a 512th of it: at one row a step costs
# what some 300 symbols do in full chunks (36-45 us against 0.13-0.15 us on a
# 2-vCPU machine)
_SAMPLED_SYMBOLS = 1 << 30


@dataclass(frozen=True)
class TypicalSet:
    """Plaintexts whose per-letter posterior surprisal sits within eps/2 of h_ref.

    ``mass`` is the total posterior probability of the members (its
    complement is the measured delta), ``spread`` the largest per-letter
    log-posterior difference between two members (strictly below epsilon by
    construction), and ``growth`` the exponent ``log2(count) / t``.  The
    members themselves are not kept, only these summaries; a report's
    ``members_kept`` reads ``member_count <= DEFAULT_MEMBER_CAP``.

    :func:`build_typical_set` splits each plaintext's log-probability into
    a left half (itself split so) and a right half and sums them in that
    grouping, so against the sequential sums of ``joint_log2_table``
    ``mass`` and ``spread`` move by rounding only (held to 1e-12; at most
    6.4e-16 on ten certify workload ciphertexts), and ``member_count`` is
    exact except for a word within rounding of a band end.  Each half holds
    at most ``DEFAULT_WORD_CAP`` words or cells (24 bytes a right cell), not
    the n**t plaintexts.
    """

    ciphertext: np.ndarray
    epsilon: float
    h_ref: float
    member_count: int
    mass: float
    spread: float
    growth: float

    def __post_init__(self):
        if not 0.0 <= self.mass <= 1.0 + 1e-12:
            raise CertificationError(f"typical-set mass {self.mass!r} outside [0, 1]")
        if self.member_count >= 2 and not self.spread < self.epsilon:
            raise CertificationError(
                f"member spread {self.spread!r} reached epsilon {self.epsilon!r}"
            )

    @property
    def length(self) -> int:
        return int(self.ciphertext.size)

    def as_dict(self) -> dict:
        return {
            "t": self.length,
            "epsilon": self.epsilon,
            "h_ref": self.h_ref,
            "member_count": self.member_count,
            "mass": self.mass,
            "spread": self.spread,
            "growth": self.growth,
            "members_kept": self.member_count <= DEFAULT_MEMBER_CAP,
        }


def _check_band(epsilon: float, *, h_ref: float | None = None, lengths=()) -> None:
    """Reject a band request before any enumeration is spent on it.

    NaN compares false with everything, so the band's parameters are
    required finite, not merely not below a bound.
    """
    if not (math.isfinite(epsilon) and epsilon > 0.0):
        raise ValueError(f"epsilon must be finite and positive, got {epsilon!r}")
    if h_ref is not None and not math.isfinite(h_ref):
        raise ValueError(f"h_ref must be finite, got {h_ref!r}")
    if any(t < 1 for t in lengths):
        raise ValueError("every length must be >= 1")


def _check_seed(seed) -> None:
    """Reject a sampling seed that is not a non-negative integer, by name."""
    try:
        value = operator.index(seed)
    except TypeError:
        raise TypeError(f"seed must be an integer, got {seed!r}") from None
    if value < 0:
        raise ValueError(f"seed must be non-negative, got {seed!r}")


def _check_growth(spec, order: int, t_list, epsilon, seed, h_ref=None) -> None:
    """Reject a growth series' band, a length's split at model order ``order``, or its seed."""
    _check_band(epsilon, h_ref=h_ref, lengths=t_list)
    for t in t_list:
        _split(spec.alphabet_size, order, t)
    _check_seed(seed)


def build_typical_set(
    xm: SourceModel,
    ym: SourceModel,
    spec: CipherSpec,
    ciphertext,
    epsilon: float,
    h_ref: float | None = None,
    *,
    bracket_order: int = 8,
) -> TypicalSet:
    """The typical deciphering set of a ciphertext, by meet in the middle.

    Membership is the strict band ``|-(1/t) log2 P(x|z) - h_ref| < eps/2``
    on the exact posterior, whose ``log2 P(z)`` comes from the forward
    recursion.  No n**t plaintexts are enumerated.  For a key-recoverable
    cipher and a split point h >= K = max(k_X, k_Y), the joint log2 P_X(x) +
    log2 P_Y(y(x, z)) is exactly L(x_1..x_h) + R(c, x_h+1..x_t), c the left
    word's last K symbols: L is the joint table of z[:h], drawn in blocks
    split the same way (see :func:`runkey.inference._joint_blocks`), and R
    is :func:`runkey.inference._right_half`.  Each context's R values are
    sorted with prefix sums of their powers of 2 (scaled by the row's
    largest), so for each left word the band is two ``searchsorted`` calls
    with strict ends: its count, its mass as a difference of two prefix
    sums, and its two ends, which give the spread.  No member list is
    kept.  h balances the n**h left words against the n**(K + t - h) right
    cells; each must be within ``DEFAULT_WORD_CAP`` (and n**t below 2**63),
    checked before anything is computed.  Working memory is one left block
    (and its halves) and the right table, which takes 24 bytes a cell
    (search keys, prefix sums), also while it is built.

    L + R groups the sum differently from the sequential
    :func:`runkey.inference.joint_log2_table`, so values move by rounding
    (see :class:`TypicalSet` for the tolerances); a prefix-sum difference is
    exact only to the ulp of its row's total.  The posterior's total mass,
    the sum of the left words' masses times their rows' totals, must be 1
    within ``_MASS_TOL``, or CertificationError: the two halves are checked
    against the forward.
    When ``h_ref`` is omitted it defaults to the midpoint of
    :func:`runkey.inference.hxz_bracket` at ``bracket_order``; the bracket
    width is then a stated slack on top of epsilon and is the caller's to
    account for.
    """
    _check_band(epsilon, h_ref=h_ref)
    n = _check_alphabets(xm, ym, spec)
    z = as_word(ciphertext, n)
    t = z.size
    h = _split(n, max(xm.order, ym.order), t)
    left_blocks = _joint_blocks(xm, ym, spec, z[:h])  # checks the cipher
    if h_ref is None:
        h_ref = hxz_bracket(xm, ym, spec, bracket_order).midpoint
    log_marginal = _log_marginal(xm, ym, spec, z)
    right = np.sort(_right_half(xm, ym, spec, z, h), axis=1)
    contexts, width = right.shape
    # the rows as one ascending array: complex numbers sort lexicographically,
    # so row c's values are the imaginary parts of those with real part c
    keys = np.empty(right.shape, dtype=complex)
    keys.real, keys.imag = np.arange(contexts)[:, None], right
    del right
    # each row's largest value, -inf for a context no right word follows;
    # the prefix sums are of 2**(R - top), finite rows scaled to at most 1
    top = keys.imag[:, -1].copy()
    sums = np.zeros((contexts, width + 1))
    shift = np.where(top == -np.inf, 0.0, top)[:, None]
    np.exp2(np.subtract(keys.imag, shift, out=sums[:, 1:]), out=sums[:, 1:])
    np.cumsum(sums[:, 1:], axis=1, out=sums[:, 1:])
    keys, sums = keys.ravel(), sums.ravel()
    # a word's log posterior b is a member iff low < b < high
    low, high = -t * (h_ref + 0.5 * epsilon), -t * (h_ref - 0.5 * epsilon)
    total, count, mass, least, most = 0.0, 0, 0.0, np.inf, -np.inf
    for start, left in left_blocks:
        context = np.arange(start, start + left.size) % contexts
        left = left - log_marginal
        # at most 1 (no joint exceeds P(z)), and 0 before a -inf row
        scale = np.exp2(left + top[context])
        # einsum, not BLAS: a long ddot wakes idle BLAS threads, for milliseconds
        total += float(np.einsum("i,i", scale, sums[context * (width + 1) + width]))
        query = np.empty(left.size, dtype=complex)
        query.real, query.imag = context, low - left
        first = np.searchsorted(keys, query, side="right")
        query.imag = high - left
        # an h_ref so large that low and high round together could put stop first
        stop = np.maximum(np.searchsorted(keys, query, side="left"), first)
        sizes = stop - first
        hit = np.flatnonzero(sizes)
        if not hit.size:
            continue
        first, stop, left = first[hit], stop[hit], left[hit]
        count += int(sizes.sum())
        # exact to the ulp of the row's total, however small the band's share
        band = sums[stop + context[hit]] - sums[first + context[hit]]
        mass += float(np.einsum("i,i", scale[hit], band))
        least = min(least, float((left + keys.imag[first]).min()))
        most = max(most, float((left + keys.imag[stop - 1]).max()))
    _certify_mass(total)
    spread = (most - least) / t if count >= 2 else 0.0
    growth = float(np.log2(count) / t) if count else float("-inf")
    return TypicalSet(
        ciphertext=z,
        epsilon=float(epsilon),
        h_ref=float(h_ref),
        member_count=count,
        mass=min(mass, 1.0),
        spread=spread,
        growth=growth,
    )


@dataclass(frozen=True)
class GrowthPoint:
    """One sampled (length, growth exponent, mass) measurement."""

    t: int
    growth: float
    mass: float

    def as_dict(self) -> dict:
        return {"t": self.t, "growth": self.growth, "mass": self.mass}


def typical_set_growth(
    xm: SourceModel,
    ym: SourceModel,
    spec: CipherSpec,
    t_list,
    epsilon: float,
    seed: int,
    *,
    h_ref: float | None = None,
    bracket_order: int = 8,
) -> list[GrowthPoint]:
    """Growth exponent of the typical set along a ladder of lengths.

    For each length a fresh (plaintext, key) pair is sampled from the models
    (seeds derived from ``(seed, t, stream)``), enciphered, and measured
    with :func:`build_typical_set`.  ``seed`` must be a non-negative
    integer and each length's two halves within ``DEFAULT_WORD_CAP`` (see
    :func:`build_typical_set`); both are checked before anything is sampled
    or enumerated.
    """
    _check_growth(spec, max(xm.order, ym.order), t_list, epsilon, seed, h_ref)
    if h_ref is None:
        h_ref = hxz_bracket(xm, ym, spec, bracket_order).midpoint
    points = []
    for t in t_list:
        x = xm.sample(t, np.random.SeedSequence((seed, t, 0)))
        y = ym.sample(t, np.random.SeedSequence((seed, t, 1)))
        built = build_typical_set(xm, ym, spec, spec.encrypt(x, y), epsilon, h_ref)
        points.append(GrowthPoint(t=int(t), growth=built.growth, mass=built.mass))
    return points


@dataclass(frozen=True)
class ConcentrationReport:
    """Finite-length concentration of the posterior surprisal rate.

    For each tested length t, ``band_fractions`` holds the empirical
    probability that ``-(1/t) log2 P(x|z)`` falls strictly within epsilon of
    ``h_ref``; ``onset_length`` is the smallest tested t whose fraction
    reaches ``1 - delta`` (an empirical stand-in for an existence threshold,
    not an estimate of it).
    """

    lengths: tuple[int, ...]
    sample_counts: tuple[int, ...]
    band_fractions: tuple[float, ...]
    means: tuple[float, ...]
    variances: tuple[float, ...]
    onset_length: int | None
    epsilon: float
    delta: float
    h_ref: float

    def as_dict(self) -> dict:
        rows = [
            {
                "t": t,
                "samples": count,
                "band_fraction": frac,
                "mean": mean,
                "variance": var,
            }
            for t, count, frac, mean, var in zip(
                self.lengths,
                self.sample_counts,
                self.band_fractions,
                self.means,
                self.variances,
            )
        ]
        return {
            "epsilon": self.epsilon,
            "delta": self.delta,
            "h_ref": self.h_ref,
            "onset_length": self.onset_length,
            "rows": rows,
        }


# numpy's SeedSequence (pool of four 32-bit words) and PCG64 seeding constants
_MASK32 = 0xFFFFFFFF
_HASH_A = (0x43B0D7E5, 0x931E8875)
_HASH_B = (0x8B51F9DD, 0x58F38DED)
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK64, _MASK128 = (1 << 64) - 1, (1 << 128) - 1
# a uint64 word's low half, and the shift to its high half
_LOW, _HALF = np.uint64(_MASK32), np.uint64(32)


def _int_words(value: int) -> list[int]:
    """SeedSequence's 32-bit words of a non-negative integer, low word first."""
    value = operator.index(value)
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def _hasher(init: int, mult: int):
    """SeedSequence's hashmix: its multiplier advances with every call."""
    const = init

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> np.uint32(16))

    return hashmix


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    value = x * _MIX_L - y * _MIX_R
    return value ^ (value >> np.uint32(16))


def _seed_sequence_states(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence(column).generate_state(4, np.uint64)`` for every column.

    ``entropy`` is (L, rows) uint32, one column per sample's entropy words,
    L >= 4 (the pool size, so no zero padding applies).  The pool mixing and
    the state generation run on all columns at once in wrapping uint32
    arithmetic.  Returns (rows, 4) uint64: PCG64's seed (words 0, 1) and
    stream (words 2, 3), high word first.
    """
    hashmix = _hasher(*_HASH_A)
    pool = [hashmix(word) for word in entropy[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], hashmix(word))
    hashmix = _hasher(*_HASH_B)
    state = np.stack([hashmix(pool[i % 4]) for i in range(8)], axis=1)
    return state.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


def _lcg128(high, low, mult, add=(0, 0), work=None):
    """(high, low) <- (high, low) * mult + add mod 2**128, in place on uint64 words,
    high word first; ``mult`` is an int or a pair of words, ``add`` a pair, and
    ``work`` four scratch arrays of the words' shape (made if None).  The low
    words' product's high word is Hacker's Delight's mulhu.  Returns (high, low)."""
    if isinstance(mult, int):
        mult = np.uint64(mult >> 64), np.uint64(mult & _MASK64)
    (m_high, m_low), (add_high, add_low) = mult, add
    y0, y1 = m_low & _LOW, m_low >> _HALF
    x0, x1, mid, part = np.empty((4, *low.shape), np.uint64) if work is None else work
    np.bitwise_and(low, _LOW, out=x0)
    np.right_shift(low, _HALF, out=x1)
    np.right_shift(np.multiply(x0, y0, out=mid), _HALF, out=mid)
    mid += np.multiply(x1, y0, out=part)  # below 2**64, as is part + x0 * y1 below
    np.bitwise_and(mid, _LOW, out=part)
    part += np.multiply(x0, y1, out=x0)
    part >>= _HALF
    mid >>= _HALF
    x1 *= y1
    x1 += np.add(mid, part, out=mid)  # the high word of low * m_low
    high *= m_low
    high += x1
    high += np.multiply(low, m_high, out=x0)
    low *= m_low
    low += add_low
    high += add_high
    high += low < add_low
    return high, low


def _pcg64_states(seed: int, t: int, start: int, stop: int) -> np.ndarray:
    """``PCG64(SeedSequence((seed, t, i, stream)))``'s state, start <= i < stop.

    Computed, not constructed: the entropy words of both streams' indices go
    through :func:`_seed_sequence_states` at once, and so does PCG64's
    srandom (two LCG steps from state 0), in 64-bit words.  Returns
    (2, stop - start, 4) uint64, a row per stream and index: the 128-bit
    ``state`` and ``inc`` of its ``state["state"]``, each high word first.
    Indices must be below 2**32, one entropy word each, as every sample
    index within ``DEFAULT_WORD_CAP`` is.
    """
    head = np.array(_int_words(seed) + _int_words(t), dtype=np.uint32)[:, None, None]
    words = np.empty((len(head) + 2, 2, stop - start), dtype=np.uint32)
    words[:-2], words[-2], words[-1] = head, np.arange(start, stop), [[0], [1]]  # i, stream
    s_high, s_low, i_high, i_low = _seed_sequence_states(words.reshape(len(words), -1)).T
    inc = _lcg128(i_high, i_low, 2, (0, 1))
    state = _lcg128(*_lcg128(s_high, s_low, 1, inc), _PCG_MULT, inc)  # srandom
    return np.stack([*state, *inc], axis=1).reshape(2, stop - start, 4)


class _Draws:
    """One stream's PCG64 doubles for rows of :func:`_pcg64_states`, carried on.

    Draw d is ``(xsl_rr(state) >> 11) * 2**-53`` of the state d + 1 LCG steps
    on, as in numpy's ``Generator.random``; XSL-RR rotates the xor of the
    state's words right by its top six bits.  A row's state is held in
    ``lanes`` lanes, lane b at its next draw plus b, so one LCG jump of
    ``lanes`` steps, ``a * state + c * inc`` (Brown's arbitrary strides),
    advances them all.  ``work`` is four (lanes, rows) uint64 arrays, which
    the streams of a chunk may share."""

    def __init__(self, states: np.ndarray, lanes: int, work: np.ndarray | None = None):
        self.inc = states.T[2:]
        self.words = np.broadcast_to(states.T[:2, None], (2, lanes, len(states))).copy()
        self.work = np.empty((4, *self.words.shape[1:]), np.uint64) if work is None else work
        jumps, a, c = [], 1, 0  # (a, c) of b + 1 steps, where lane b starts
        for _ in range(lanes):
            a, c = a * _PCG_MULT & _MASK128, (c * _PCG_MULT + 1) & _MASK128
            jumps.append((a >> 64, a & _MASK64, c >> 64, c & _MASK64))
        self.jumps = np.array(jumps, dtype=np.uint64).T[:, :, None]
        inc = np.broadcast_to(self.inc[:, None], self.words.shape).copy()
        _lcg128(*self.words, self.jumps[:2], _lcg128(*inc, self.jumps[2:], work=self.work),
                self.work)
        self.strides = {}  # jumps by lanes steps, and by fewer at a segment's end

    def fill(self, out: np.ndarray) -> np.ndarray:
        """The rows' next draws into time-major ``out``, (draws, rows).  Returns ``out``."""
        for first in range(0, len(out), self.words.shape[1]):
            steps = min(self.words.shape[1], len(out) - first)
            (high, low), (bits, turn, right) = self.words[:, :steps], self.work[:3, :steps]
            np.bitwise_xor(high, low, out=bits)
            np.right_shift(high, np.uint64(58), out=turn)
            np.right_shift(bits, turn, out=right)
            np.negative(turn, out=turn)
            turn &= np.uint64(63)
            bits <<= turn
            bits |= right
            bits >>= np.uint64(11)
            np.multiply(bits, 2.0**-53, out=out[first:first + steps])
            if steps not in self.strides:
                jump = self.jumps[:, steps - 1]
                self.strides[steps] = jump[:2], _lcg128(*self.inc.copy(), jump[2:])
            _lcg128(*self.words, *self.strides[steps], self.work)
        return out


def _sampled_rates(xm, ym, chain, coder, seed, t, start, stop) -> np.ndarray:
    """The statistic W of samples start..stop-1 at length t, a time segment at a time.

    The t + 1 draws are cut into as few balanced segments as keep a
    segment's (draws, rows) uniforms within ``_SEGMENT_CELLS``, the widest
    first, so a later segment's arrays fit where an earlier one's were.  The
    rows' PCG64 states of both streams come from one :func:`_pcg64_states`
    call, and each stream's :class:`_Draws` carries them from segment to
    segment, in as many lanes a row as keep its arrays within
    ``_LANE_CELLS`` cells (at most a segment's draws).  The walks and the
    forward carry their state too.  The rows are sample indices below
    ``DEFAULT_WORD_CAP``; their number moves the statistics by rounding at most.
    """
    rows = stop - start
    parts = -(-(t + 1) // max(1, _SEGMENT_CELLS // rows))
    cuts = [-(-(t + 1) * part // parts) for part in range(parts + 1)]
    lanes = max(1, min(_LANE_CELLS // rows, cuts[1]))
    x_states, y_states = _pcg64_states(seed, t, start, stop)
    x_draws = _Draws(x_states, lanes)
    y_draws = _Draws(y_states, lanes, x_draws.work)
    # one buffer holds every segment's uniforms, of both streams in turn: a new
    # array a segment, one draw wider or narrower, did not take the memory the
    # last one freed, and smb on S = 128 at t = 800 peaked at 49.6 MB, not 43.0
    cells = np.empty(rows * cuts[1])
    x_walk, y_walk, front = _Walk(t), _Walk(t), _Front(t)
    for lo, hi in zip(cuts, cuts[1:]):
        uniforms = cells[: rows * (hi - lo)].reshape(hi - lo, rows)  # time-major
        x_words, log_px = _walk_batch(xm, x_draws.fill(uniforms).T, x_walk)
        y_words, log_py = _walk_batch(ym, y_draws.fill(uniforms).T, y_walk)
        z_words = coder[x_words, y_words]
        del x_words, y_words
        log_pz = chain.forward_log2(z_words, front)
    return -(log_px + log_py - log_pz) / t


def concentration_experiment(
    xm: SourceModel,
    ym: SourceModel,
    spec: CipherSpec,
    t_list,
    samples: int,
    epsilon: float,
    delta: float,
    seed: int,
    *,
    h_ref: float | None = None,
    bracket_order: int = 10,
) -> ConcentrationReport:
    """Monte Carlo check that the posterior surprisal rate concentrates.

    Draws ``samples`` independent (plaintext, key) pairs per length, computes
    ``W = -(1/t) (log2 P_X(x) + log2 P_Y(y) - log2 P(z))`` with the marginal
    ``log2 P(z)`` from the forward recursion (so lengths up to 10^4 stay
    cheap), and reports the fraction landing strictly inside the epsilon band
    around ``h_ref``.  The recursion costs n**(K+1) multiply-adds per sample
    and symbol, K the larger of the driving source's order and the other's
    order plus one (see :meth:`runkey.inference._ProductChain.forward_log2`).
    Sample i at length t draws its plaintext and key uniforms from
    ``default_rng(SeedSequence((seed, t, i, stream)))``, stream 0 and 1, bit
    for bit; the seeding of both streams is computed in one call per chunk
    (see :func:`_pcg64_states`), not constructed per sample, and so are the
    draws, with no numpy.random (see :class:`_Draws`).  So identical
    arguments give identical reports, and the batch width moves the
    statistics only by float rounding.  ``seed`` must be a non-negative
    integer, and epsilon and a given ``h_ref`` finite.  A sample's uniforms
    over all lengths, ``sum(t + 1)``, must be within a 512th of
    ``_SAMPLED_SYMBOLS`` (they bound the steps of one row), the samples within
    ``DEFAULT_WORD_CAP`` (a length keeps each one's statistic) and
    ``samples * sum(t + 1)`` within ``_SAMPLED_SYMBOLS``, or
    EnumerationCapError, as must the forward's factor table.  All are
    checked before the bracket is enumerated or anything sampled.

    Samples go in chunks of up to ``_SAMPLE_CHUNK`` rows and of at most
    ``_CELL // S`` rows (one at least), whatever t, which bounds the
    front's (n**K, rows) floats.  A chunk goes in time segments of at most
    ``_SEGMENT_CELLS`` uniforms (see :func:`_sampled_rates`): a segment's
    uniforms are drawn, walked, enciphered and run through the forward,
    and the walks (:func:`runkey.sources._walk_batch`) and the forward
    (:meth:`runkey.inference._ProductChain.forward_log2`) carry their state
    to the next.  Both step every model order a position at a time and add
    each row's log terms in sequence, so the statistics are bit for bit
    those of whole rows, wherever the segments are cut.
    Within a segment one stream's uniforms are alive at a time: they are
    walked before the other's are drawn into the same buffer.  The
    plaintext, key and ciphertext words stay in the walk's symbol type
    through the coder and the forward: one byte a symbol up to n = 256, an
    eighth of the uniforms' bytes.  The plaintext and key words are dropped
    once the ciphertext words exist.  So the working memory is one
    segment's uniforms and words, the chunk's front and its generators'
    eight arrays of at most ``_LANE_CELLS`` words, whatever t.
    """
    lengths = [int(t) for t in t_list]
    _check_band(epsilon, h_ref=h_ref, lengths=lengths)
    _check_seed(seed)
    if not 0.0 < delta < 1.0:
        raise ValueError("need 0 < delta < 1")
    if samples < 1:
        raise ValueError("need at least one sample per length")
    steps = sum(t + 1 for t in lengths)
    for value, cap, what in ((steps, _SAMPLED_SYMBOLS >> 9,
                              "uniforms a row over all lengths, sum(t + 1)"),
                             (samples, DEFAULT_WORD_CAP, "samples a length"),
                             (samples * steps, _SAMPLED_SYMBOLS,
                              "sampled symbols, samples * sum(t + 1)")):
        if value > cap:
            raise EnumerationCapError(f"sampling exceeds cap {cap} {what}")
    if spec.key_table is None:
        raise UnsupportedCipherError(
            "the surprisal statistic needs a key-recoverable cipher"
        )
    chain = _ProductChain(xm, ym, spec)
    chain._driver  # the forward's factor table is checked before any work
    if h_ref is None:
        h_ref = hxz_bracket(xm, ym, spec, bracket_order).midpoint
    # the ciphertext words in the walk's symbol type, not widened to int64
    coder = spec.coder.astype(np.min_scalar_type(spec.alphabet_size - 1))

    fractions: list[float] = []
    means: list[float] = []
    variances: list[float] = []
    for t in lengths:
        chunk = max(1, min(_SAMPLE_CHUNK, _CELL // chain.size))
        stats = np.concatenate([
            _sampled_rates(xm, ym, chain, coder, seed, t, start, min(start + chunk, samples))
            for start in range(0, samples, chunk)
        ])
        fractions.append(float(np.mean(np.abs(stats - h_ref) < epsilon)))
        means.append(float(stats.mean()))
        variances.append(float(stats.var()))

    onset = next(
        (t for t, frac in zip(lengths, fractions) if frac >= 1.0 - delta), None
    )
    return ConcentrationReport(
        lengths=tuple(lengths),
        sample_counts=tuple(samples for _ in lengths),
        band_fractions=tuple(fractions),
        means=tuple(means),
        variances=tuple(variances),
        onset_length=onset,
        epsilon=float(epsilon),
        delta=float(delta),
        h_ref=float(h_ref),
    )


@dataclass(frozen=True)
class SecrecyReport:
    """Entropy rates, redundancies, and certified equivocation bounds."""

    h_x: float
    h_y: float
    r_x: float
    r_y: float
    bracket: EntropyBracket
    bound_corollary: float
    bound_forms: tuple[float, float, float]
    growth_series: tuple[GrowthPoint, ...] = ()
    tau: float | None = None

    def as_dict(self) -> dict:
        out = {
            "h_x": self.h_x,
            "h_y": self.h_y,
            "r_x": self.r_x,
            "r_y": self.r_y,
            "h_xz_lower": self.bracket.lower,
            "h_xz_upper": self.bracket.upper,
            "bracket_order": self.bracket.order_used,
            "bound_corollary": self.bound_corollary,
            "bound_hx_minus_ry": self.bound_forms[0],
            "bound_hy_minus_rx": self.bound_forms[1],
            "bound_logn_minus_redundancy": self.bound_forms[2],
        }
        if self.tau is not None:
            out["tau"] = self.tau
        if self.growth_series:
            out["growth_series"] = [p.as_dict() for p in self.growth_series]
        return out


def certify_bounds(
    xm: SourceModel,
    ym: SourceModel,
    spec: CipherSpec,
    m: int,
) -> SecrecyReport:
    """Compute and certify the closed-form equivocation bounds at order m.

    Raises CertificationError if the three redundancy forms of the bound
    disagree beyond 1e-10 or the bracket lower end undercuts the bound by
    more than 1e-9; both would indicate a numerical defect, never a property
    of the models.
    """
    log_n = float(np.log2(spec.alphabet_size))
    h_x, h_y = xm.entropy_rate(), ym.entropy_rate()
    r_x, r_y = xm.redundancy(), ym.redundancy()
    bracket = hxz_bracket(xm, ym, spec, m)
    bound = h_x + h_y - log_n
    forms = (h_x - r_y, h_y - r_x, log_n - (r_x + r_y))
    for value in forms:
        if abs(value - bound) > 1e-10:
            raise CertificationError(
                f"redundancy form {value!r} deviates from bound {bound!r}"
            )
    if bracket.lower < bound - 1e-9:
        raise CertificationError(
            f"bracket lower {bracket.lower!r} undercuts corollary bound {bound!r}"
        )
    return SecrecyReport(
        h_x=h_x,
        h_y=h_y,
        r_x=r_x,
        r_y=r_y,
        bracket=bracket,
        bound_corollary=bound,
        bound_forms=forms,
    )


def robustness_sweep(
    xm: SourceModel,
    spec: CipherSpec,
    taus,
    m: int,
    *,
    t_list=None,
    epsilon: float = 0.05,
    seed: int | None = None,
) -> list[SecrecyReport]:
    """Certified bounds for key models ``P(0) = 0.5 - tau, P(1) = 0.5 + tau``.

    At tau = 0 the key is the exact one-time pad and the report collapses to
    ``h(X|Z) = h(X)`` with zero key redundancy.  With ``t_list`` given (and a
    non-negative integer seed for sampling), each report also carries a
    typical-set growth series.  Every tau and growth argument is checked first.
    To second order the bias costs 8 tau**2 p0 p1 / ln 2 bits a symbol of
    h(X|Z), (p0, p1) the plaintext's one-symbol law: at most 2 tau**2 / ln 2,
    2.9e-4 at the paper's P(0) = 0.49, whatever the plaintext's memory.
    """
    if spec.alphabet_size != 2 or xm.alphabet_size != 2:
        raise ValueError("the bias sweep is defined for the binary alphabet")
    if t_list is not None:
        if seed is None:
            raise ValueError("growth series sampling needs a seed")
        _check_growth(spec, xm.order, t_list, epsilon, seed)  # keys: order 0
    keys = []
    for tau in map(float, taus):
        if not 0.0 <= tau < 0.5:
            raise ValueError(f"tau {tau!r} outside [0, 0.5)")
        keys.append((tau, make_bernoulli((0.5 - tau, 0.5 + tau))))
    reports = []
    for tau, ym in keys:
        base = certify_bounds(xm, ym, spec, m)
        series: tuple[GrowthPoint, ...] = ()
        if t_list is not None:
            series = tuple(typical_set_growth(
                xm, ym, spec, t_list, epsilon, seed, h_ref=base.bracket.midpoint
            ))
        reports.append(replace(base, growth_series=series, tau=tau))
    return reports
