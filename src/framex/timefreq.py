"""Finite time-frequency tools on the cyclic group Z_L.

A signal is a length-L complex sample vector indexed by t = 0..L-1.
Translation rolls the index and modulation multiplies by a
root-of-unity character; both are exactly unitary.  Gabor systems
collect the modulated translates of one window over a list of shift
pairs, and exponential systems restrict characters of arbitrary real
frequency to a subset of the grid.

The density amplifier at the bottom replaces the leading elements of a
Gabor frame by clusters of nearby time-frequency copies while keeping
the mixed reconstruction operator close to the identity.  Shift
parameters live on the integer grid; one grid step counts as
1/sqrt(L) in the normalized units the perturbation caps refer to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridTooCoarseError, NotAFrameError, PreconditionError
from .frames import VectorFamily, frame_bounds, frame_operator
from .linalg import _times_pow2, _top_exponents

__all__ = [
    "CyclicSignal",
    "GaborSpec",
    "ExponentialSpec",
    "DensificationReport",
    "translate",
    "modulate",
    "gabor_family",
    "full_lattice_shifts",
    "exponential_family",
    "gaussian_window",
    "densify_gabor_frame",
]


class CyclicSignal:
    """A complex signal on Z_L, stored as its L samples."""

    __slots__ = ("_samples",)

    def __init__(self, samples):
        arr = np.asarray(samples, dtype=complex)
        if arr.ndim != 1 or arr.size == 0:
            raise PreconditionError("a cyclic signal needs a nonempty 1-d sample vector")
        if not np.isfinite(arr).all():
            raise PreconditionError("signal samples must be finite")
        self._samples = arr.copy()
        self._samples.flags.writeable = False

    @property
    def samples(self):
        return self._samples

    @property
    def length(self):
        return int(self._samples.size)

    @property
    def norm(self):
        # the samples are sized by a power of two first, so their squares neither overflow nor underflow
        e = int(_top_exponents(self._samples[None])[0])
        with np.errstate(over="ignore"):
            return float(_times_pow2(np.linalg.norm(_times_pow2(self._samples, -e)), e))

    def __len__(self):
        return self.length


def _as_signal(obj):
    if isinstance(obj, CyclicSignal):
        return obj
    return CyclicSignal(obj)


def _character_table(length):
    # e^{2 pi i k / L} for k = 0..L-1, evaluated once at reduced angles
    return np.exp(2j * np.pi * np.arange(length) / length)


def translate(f, a):
    """Cyclic time shift: (T_a f)(t) = f(t - a).

    a is an integer; a bool or a non-integral number raises PreconditionError.
    """
    f = _as_signal(f)
    return CyclicSignal(np.roll(f.samples, _integer(a, "shift") % f.length))


def modulate(f, b):
    """Frequency shift: (M_b f)(t) = e^{2 pi i b t / L} f(t).

    b is an integer, as for translate.  The character exponent is reduced
    mod L in integer arithmetic, so equal frequencies always produce
    bit-identical phase factors.
    """
    f = _as_signal(f)
    length = f.length
    idx = (np.arange(length) * (_integer(b, "shift") % length)) % length
    return CyclicSignal(f.samples * _character_table(length)[idx])


def _integer(value, what: str) -> int:
    """value as an int; a bool, or a number int() would truncate, raises naming what."""
    if isinstance(value, (bool, np.bool_)):
        raise PreconditionError(f"{what} {value!r} is a bool, not an integer")
    try:
        whole = int(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise PreconditionError(f"{what} {value!r} is not an integer") from exc
    if whole != value:
        raise PreconditionError(f"{what} {value!r} is not an integer")
    return whole


class GaborSpec:
    """A window plus an (m, 2) array of (time, frequency) shift pairs.

    Shift pairs are integers, reduced mod L and kept as one int64 array; an
    integer array is checked and reduced as a whole, anything else pair by
    pair, where a bool or a non-integral number raises PreconditionError.
    Duplicates are permitted and mean repeated elements in the generated
    family.  shifts gives the pairs as a tuple of int pairs.
    """

    __slots__ = ("_window", "_shifts", "_pairs", "_family")

    def __init__(self, window, shifts):
        self._window = _as_signal(window)
        self._shifts = _shift_array(shifts, self._window.length)
        self._shifts.setflags(write=False)
        self._pairs = None
        self._family = None

    @property
    def window(self):
        return self._window

    @property
    def shifts(self):
        if self._pairs is None:
            self._pairs = tuple(zip(*self._shifts.T.tolist()))
        return self._pairs

    @property
    def length(self):
        return self._window.length

    def __len__(self):
        return self._shifts.shape[0]


def _shift_array(shifts, length):
    """shifts as an (m, 2) int64 array reduced mod length, m >= 1."""
    arr = shifts if isinstance(shifts, np.ndarray) else np.asarray(list(shifts), dtype=object)
    if arr.size == 0:
        raise PreconditionError("a Gabor spec needs at least one shift pair")
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise PreconditionError(f"shift pairs must form an (m, 2) array, got shape {arr.shape}")
    if arr.dtype.kind in "iu":
        # unsigned values are reduced before the cast, so none wraps
        wide = np.uint64 if arr.dtype.kind == "u" else np.int64
        return (arr.astype(wide) % length).astype(np.int64)
    return np.array([_integer(v, "shift") % length for v in arr.flat], np.int64).reshape(arr.shape)


class ExponentialSpec:
    """Characters e^{2 pi i lambda t / L} restricted to a domain mask.

    The mask is a nonempty subset of {0..L-1} listing which sample
    points survive; vectors live on the masked coordinates in sorted
    order.  L and the mask points are integers, as shifts are;
    frequencies may be any finite reals.
    """

    __slots__ = ("_length", "_mask", "_frequencies")

    def __init__(self, length, domain_mask, frequencies):
        self._length = _integer(length, "length")
        if self._length < 1:
            raise PreconditionError("length must be at least 1")
        mask = sorted({_integer(t, "mask point") for t in domain_mask})
        if not mask:
            raise PreconditionError("the domain mask must be nonempty")
        if mask[0] < 0 or mask[-1] >= self._length:
            raise PreconditionError("mask points must lie in 0..L-1")
        freqs = tuple(float(x) for x in frequencies)
        if not freqs:
            raise PreconditionError("at least one frequency is required")
        for lam in freqs:
            if not math.isfinite(lam):
                raise PreconditionError(f"frequency {lam!r} is not finite")
        self._mask = tuple(mask)
        self._frequencies = freqs

    @property
    def length(self):
        return self._length

    @property
    def mask(self):
        return self._mask

    @property
    def frequencies(self):
        return self._frequencies


def full_lattice_shifts(length):
    """All L^2 shift pairs (a, b) in row-major order; L is an integer."""
    length = _integer(length, "length")
    return tuple((a, b) for a in range(length) for b in range(length))


# entries of each block of Gabor rows gabor_family multiplies at once
_BLOCK_ENTRIES = 1 << 16


def gabor_family(spec):
    """The family of M_b T_a window for every shift pair, in input order.

    The family is built once per spec and returned on every later call, so
    it forms its frame once too, from the window and the shift histogram.
    Its rows and labels are formed when first read.
    """
    if spec._family is None:
        if not spec.window.samples.any():
            raise PreconditionError("the Gabor window must be nonzero")
        spec._family = _GaborFamily(spec.window.samples, spec._shifts)
    return spec._family


class _GaborFamily(VectorFamily):
    """The Gabor family of window samples over an (m, 2) shift array, kept as the two."""

    __slots__ = ("_window", "_shifts")

    def __init__(self, window, shifts):
        self._window, self._shifts = window, shifts
        self._vectors = self._labels = self._scalars = self._frame = None

    @property
    def vectors(self):
        if self._vectors is None:  # checked and made read-only as any family's rows
            self._vectors = VectorFamily(_gabor_rows(self._window, self._shifts)).vectors
        return self._vectors

    @property
    def labels(self):
        if self._labels is None:
            self._labels = tuple(f"{a},{b}" for a, b in self._shifts.tolist())
        return self._labels

    @property
    def dim(self):
        return self._window.size

    @property
    def field(self):
        return "complex"

    def __len__(self):
        return self._shifts.shape[0]

    def _operator(self, e=0):
        with np.errstate(over="ignore", invalid="ignore"):
            return _walnut(_times_pow2(self._window, -e), self._shifts)


def _gabor_rows(window, shifts):
    """The rows M_b T_a window of window's samples, one per (a, b) row of shifts."""
    length = window.size
    t = np.arange(length)
    a_values, a_index = np.unique(shifts[:, 0], return_inverse=True)
    b_values, b_index = np.unique(shifts[:, 1], return_inverse=True)
    # one row per distinct a, np.roll(window, a), and per distinct b, its characters
    translates = window[(t - a_values[:, None]) % length]
    characters = _character_table(length)[(t * b_values[:, None]) % length]
    # the rows are written in blocks, so no temporary grows with the family
    rows = np.empty((shifts.shape[0], length), dtype=complex)
    step = max(1, _BLOCK_ENTRIES // length)
    for lo in range(0, shifts.shape[0], step):
        block = slice(lo, lo + step)
        np.multiply(translates[a_index[block]], characters[b_index[block]], out=rows[block])
    return rows


def _walnut(g, shifts):
    """S = sum over the rows (a, b) of shifts of (M_b T_a g)(M_b T_a g)^*, without its rows.

    Walnut's representation: S[t, t - tau] = sum_a K[a, tau] q(t - a, tau),
    with K[a, tau] = sum_b counts[a, b] e^{2 pi i b tau / L}, counts the
    histogram of shifts, and q(u, tau) = g(u) conj g(u - tau), a cyclic
    convolution over a for each tau, formed by FFTs in O(L^2 log L).
    """
    length = g.size
    counts = np.bincount(shifts @ [length, 1], minlength=length * length).reshape(length, length)
    t = np.arange(length)
    lag = (t[:, None] - t) % length  # lag[t, s] = t - s
    kernel = np.fft.fft(counts, axis=1).conj()
    q = g[:, None] * g.conj()[lag]
    bands = np.fft.ifft(np.fft.fft(kernel, axis=0) * np.fft.fft(q, axis=0), axis=0)
    return bands[t[:, None], lag]


def _dual_norms(spec):
    """(||S^-1 x|| for the distinct shift pairs of spec in increasing a L + b, S^-1).

    S is the frame operator of the Gabor family of spec.  With P = S^-* S^-1,
    ||S^-1 M_b T_a g||^2 = sum_tau e^{2 pi i b tau / L} sum_t conj g(t - a)
    g(t + tau - a) P[t, t + tau]: a correlation over a, then a DFT over tau,
    so two L x L FFT passes give every pair's norm and no dual is formed.
    """
    inverse = np.linalg.inv(frame_operator(gabor_family(spec)).matrix)
    g, length = spec.window.samples, spec.length
    t = np.arange(length)
    ahead = (t[:, None] + t) % length  # ahead[t, tau] = t + tau
    band = (inverse.conj().T @ inverse)[t[:, None], ahead]
    pairs = g[:, None] * g.conj()[ahead]
    corr = np.fft.ifft(np.fft.fft(band, axis=0) * np.fft.fft(pairs, axis=0).conj(), axis=0)
    squares = length * np.fft.ifft(corr, axis=1).real
    return np.sqrt(squares.ravel()[np.unique(spec._shifts @ [length, 1])].clip(0.0)), inverse


def exponential_family(spec):
    """Characters restricted to the mask, one vector per frequency."""
    t_vals = np.asarray(spec.mask, dtype=float)
    rows = np.empty((len(spec.frequencies), t_vals.size), dtype=complex)
    for k, lam in enumerate(spec.frequencies):
        rows[k] = np.exp(2j * np.pi * lam * t_vals / spec.length)
    labels = [repr(lam) for lam in spec.frequencies]
    return VectorFamily(rows, labels=labels)


def gaussian_window(length):
    """Unit-normalized samples of e^{-pi (t - L/2)^2 / L}.

    The spread sqrt(L) balances the time and frequency step sizes, so one
    grid step in either direction moves the window by about the same
    amount.  length is an integer, as for translate.
    """
    length = _integer(length, "length")
    if length < 1:
        raise PreconditionError("length must be at least 1")
    t = np.arange(length, dtype=float)
    spread = math.sqrt(length)  # squared as a float below, which is not always L
    g = np.exp(-np.pi * (t - length / 2.0) ** 2 / spread**2)
    return CyclicSignal(g / np.linalg.norm(g))


@dataclass(frozen=True, eq=False)
class DensificationReport:
    """Audit trail for a cluster-replacement construction."""

    operator_deviation: float
    cluster_sizes: tuple
    parameter_caps: tuple
    vector_caps: tuple
    parameter_distances: tuple
    vector_distances: tuple
    dual_norm_sup: float
    weights_nonzero: bool
    base_count: int
    emitted_count: int
    shifts: tuple
    weights: tuple


def _spiral_offsets(limit_sq_num, limit_sq_den, seed, tag):
    """Integer grid offsets with |off|^2 < limit, ordered spiral-wise.

    The strict bound is checked in exact integer arithmetic
    (den * |off|^2 < num).  Ties at equal radius are broken by angle,
    rotated by a seeded amount for reproducible variety.
    """
    bound = int(math.isqrt(max(limit_sq_num // max(limit_sq_den, 1), 0))) + 1
    rot = float(np.random.default_rng((seed, tag)).uniform(0.0, 2.0 * np.pi))
    offsets = []
    for da in range(-bound, bound + 1):
        for db in range(-bound, bound + 1):
            norm_sq = da * da + db * db
            if limit_sq_den * norm_sq < limit_sq_num:
                ang = (math.atan2(db, da) - rot) % (2.0 * np.pi)
                offsets.append((norm_sq, ang, da, db))
    offsets.sort()
    return [(da, db) for _, _, da, db in offsets]


def densify_gabor_frame(base, counts, *, seed=0):
    """Replace leading frame elements by clusters of perturbed copies.

    The n-th base element (1-based, n up to len(counts)) is replaced
    by counts[n-1] copies at pairwise-distinct shift parameters, each
    within 1/n of the original in normalized parameter units and
    within (4^n * sup_dual_norm)^{-1} of the original vector; the
    remaining base elements pass through untouched.  The mixed
    operator S x = sum_n K_n^{-1} sum_i <x, dual_n> copy_{n,i} is
    assembled against the base's canonical dual and must stay within
    distance 1 of the identity, which the caps guarantee whenever the
    grid is fine enough to honor them.

    Cluster sizes and the seed are integers, as shifts are, and the seed
    is non-negative; both are read before any work.  Returns the emitted
    family and a report with the worst distances actually realized.
    """
    sizes = [_integer(k, "cluster size") for k in counts]
    seed = _integer(seed, "seed")
    if seed < 0:
        raise PreconditionError(f"seed must be non-negative, got {seed}")
    if not sizes:
        raise PreconditionError("at least one cluster size is required")
    if any(k < 1 for k in sizes):
        raise PreconditionError("cluster sizes must be positive")
    if any(b < a for a, b in zip(sizes, sizes[1:])):
        raise PreconditionError("cluster sizes must be non-decreasing")
    if len(sizes) > len(base):
        raise PreconditionError("more cluster sizes than base elements")
    fam = gabor_family(base)
    if not frame_bounds(fam).is_frame:
        raise NotAFrameError("the base Gabor system must be a frame")

    length = base.length
    dual_norms, inverse = _dual_norms(base)
    sup_dual = float(dual_norms.max())
    root_length = math.sqrt(length)
    window = base.window
    lead = len(sizes)
    head = _gabor_rows(window.samples, base._shifts[:lead])

    used, cluster_shifts = set(), []
    param_caps, vector_caps, worst_param, worst_vector = [], [], [], []

    for n, k_n in enumerate(sizes, start=1):
        a0, b0 = base._shifts[n - 1].tolist()
        cap_vec = 1.0 / (4**n * sup_dual)
        param_caps.append(root_length / n)
        vector_caps.append(cap_vec)
        chosen = []
        # condition: n^2 * |off|^2 < L, exact in integers
        for da, db in _spiral_offsets(length, n * n, seed, n):
            pair = ((a0 + da) % length, (b0 + db) % length)
            if pair in used:
                continue
            cand = modulate(translate(window, pair[0]), pair[1]).samples
            dist = float(np.linalg.norm(cand - head[n - 1]))
            if dist >= cap_vec:
                continue
            used.add(pair)
            chosen.append((pair, math.hypot(da, db) / root_length, dist))
            if len(chosen) == k_n:
                break
        if len(chosen) < k_n:
            raise GridTooCoarseError(
                f"cluster {n} admits only {len(chosen)} of {k_n} copies; "
                "the shift grid is too coarse for the requested caps"
            )
        worst_param.append(max(c[1] for c in chosen))
        worst_vector.append(max(c[2] for c in chosen))
        cluster_shifts += [c[0] for c in chosen]

    # the cluster pairs, then the base pairs passed through as they are
    spec = GaborSpec(window, np.concatenate([np.array(cluster_shifts), base._shifts[lead:]]))
    clusters = _gabor_rows(window.samples, spec._shifts[: len(cluster_shifts)])  # each bit-equal to its cand
    # S = sum over emitted copies of weight * copy (x) dual of its source
    mixed = np.zeros((length, length), dtype=complex)
    pos = 0
    for n, k_n in enumerate(sizes, start=1):
        block = clusters[pos : pos + k_n]
        mixed += block.sum(axis=0)[:, None] * np.conj(inverse @ head[n - 1])[None, :] / k_n
        pos += k_n
    if lead < len(base):
        # sum over the pass-through elements of x_n (S^-1 x_n)^*, as (S - S_lead) S^-1;
        # I - S_lead S^-1 would hide the error of the inverse from the deviation
        mixed += (frame_operator(fam).matrix - head.T @ head.conj()) @ inverse.conj().T
    deviation = float(np.linalg.norm(mixed - np.eye(length), ord=2))
    if deviation >= 1.0:
        raise PreconditionError(
            f"mixed operator strays {deviation:.3g} from the identity; "
            "the construction does not certify invertibility"
        )

    report = DensificationReport(
        operator_deviation=deviation,
        cluster_sizes=tuple(sizes),
        parameter_caps=tuple(param_caps),
        vector_caps=tuple(vector_caps),
        parameter_distances=tuple(worst_param),
        vector_distances=tuple(worst_vector),
        dual_norm_sup=sup_dual,
        weights_nonzero=bool(np.all(dual_norms > 0.0)),
        base_count=len(base),
        emitted_count=len(spec),
        shifts=spec.shifts,
        weights=tuple(1.0 / k for k in sizes for _ in range(k)) + (1.0,) * (len(base) - lead),
    )
    return gabor_family(spec), report
