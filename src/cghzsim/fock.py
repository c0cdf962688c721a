"""Truncated photon-number-basis simulator used as a brute-force oracle.

Everything here is deliberately independent of the analytic coherent
algebra: coherent states are expanded as exp(-|a|^2/2) a^n / sqrt(n!),
the beam splitter acts through exact photon-number-conserving block
rotations, the coherent-qubit Hadamard is the rank-2 product of the
truncated even/odd cat vectors and the frame dual to {|a>, |-a>} from
their numerically inverted Gram matrix, and vacuum heralding slices the
tensor at photon number zero.  Agreement between this pipeline and the
analytic engine is the package's strongest correctness evidence.  Only
the instruction loop, ``engine._execute``, is shared with the analytic
engine; the kernels it drives here share no arithmetic with it.

Every ``FockTensor`` is stored in Fortran order (first mode varies
fastest), the layout the kernels leave, so the backend's final tensor is
already Fortran order on every paper build and ``run_fock`` hands it
over without a copy.  The backend holds the last prepared mode as a
vector of its own until a gate entangles it: a Hadamard on that mode
acts on the vector alone, and a beam splitter with it as the second mode
is held only to be heralded.  A vacuum selection on that beam
splitter's first mode, the end of every growth step of the protocol,
computes only the slice it keeps: one (d, d) by (d, cols) product of the
blocks' first rows, scaled by the vector, with the input rows, and its
input norm from their (d, d) Gram matrix, so the wider tensor is never
formed.  Anything else multiplies the vector into the tensor, the new
axis leading the memory, and applies a held beam splitter there.  The
beam-splitter blocks are real orthogonal matrices; on the tensor, each
is applied in place by one matrix product on a strided slice of rows of
the tensor viewed as float64, with no index gather or scatter, and the
tensor is copied once only when the two modes do not already lead its
memory.  A split is one kernel, as on the analytic side: the vacuum
leaves one column of each block, so the output is one contiguous scaled
copy of the input rows per photon number on the new mode, which leads
the memory, then the split mode, then the others as they were.  The
Hadamard contracts one axis with its two dual vectors, normalizes the
small coefficient tensor and expands it with the two cat vectors in
place.  Heralding copies only the vacuum slice.  An analytic state is
expanded by one matrix product of two tables of row-wise Kronecker
products of coherent vectors, taken over the modes in reverse so that
the product is the Fortran-order tensor; entries of the two tables below
the smallest normal float64, which round-off labels such as 1e-16 leave,
are flushed to zero first.  Norms are single-pass dot products, but for
the input of a selection after a held beam splitter, which comes from
the Gram matrix; each tensor's squared norm is taken once: ``run_fock``
and ``csstate_to_fock`` hand the one they computed to the ``FockTensor``
they return.

Gates are applied only by running a circuit: ``run_fock`` executes it,
``csstate_to_fock`` expands an analytic state for comparison and
``fock_fidelity`` compares two tensors.  ``FockTensor`` and
``coherent_fock`` are the building blocks they expose; the kernels
themselves are private.  A tensor may hold zero modes: the 0-d array of
the empty tensor product, which a circuit that ends with no live mode
leaves and a zero-mode analytic state expands to, so the oracle runs
every valid circuit that fits its limits.

The representation is dense, (n_max+1)^modes amplitudes, whose dtype
follows the data: a tensor is float64 while every amplitude that built
it was real, and complex128 from the first prep of an amplitude with an
imaginary part on.  The kernels are the same for both; NumPy promotes
the tensor.  A circuit of real preps (every paper build) runs and is
expanded in float64, half the bytes of complex arithmetic.  Its one size
limit is MAX_FOCK_BYTES (2 GiB) for a tensor plus the one scratch copy a
kernel may hold beside it, priced at complex128 since any circuit may
turn complex: n_max <= 89, 35 and 19 at 4, 5 and 6 modes.  A build's
widest tensor has n*m modes.  A larger tensor raises ResourceLimitError
before it is allocated.

Tensor memory is reused across calls.  The output of a split and the
product ``csstate_to_fock`` expands into, when at least _REUSE_BYTES (4
MiB), are written into a buffer kept from an earlier call if one has
their byte size and no array refers to it: a held ``FockTensor``, its
``amps`` alone or any view of them keeps a buffer from reuse.  So a
process that runs the oracle repeatedly at one cutoff and width reuses
that memory instead of handing it back to the system and having fresh
pages zeroed for the next call.  At most two buffers, a tensor each,
stay allocated between calls, within what MAX_FOCK_BYTES prices; a call
that finds no kept buffer of its size first releases every kept one
nothing refers to.  The arithmetic is the same as into fresh memory.

The cutoff leaks norm, and the oracle refuses a run it makes inaccurate
with FockTruncationError: a prep whose vector loses more than
LOST_NORM_LIMIT (1e-6) of its norm, and a tensor whose squared norm has
fallen by more than that since it was last renormalized, which beam
splitters cause.  Every renormalization first refuses a loss above
LOST_NORM_LIMIT: each vacuum selection and the end of ``run_fock`` check
the norm they take anyway (after a held beam splitter, the exact norm of
the truncated output it never forms; the final tensor is not rescaled
but carries the squared norm measured), and a Hadamard on a mode
already in the tensor, which renormalizes from its small coefficient
tensor, takes one more pass over the tensor to check its input.  A
Hadamard on a held mode normalizes only that mode's vector and leaves
the tensor as it is.
"""

from __future__ import annotations

import math
import sys
import threading
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .coherent import ZERO_NORM, CsState, _as_real
from .engine import (
    Circuit,
    Prep,
    SelectVacuum,
    Split,
    _check_valid,
    _execute,
    _is_int,
    validate,
)
from .errors import (
    DomainError,
    FockTruncationError,
    ModeShapeError,
    ResourceLimitError,
    ZeroProbabilityError,
    ZeroStateError,
    _out_of_memory_typed,
)

MAX_FOCK_BYTES = 2 * 1024 ** 3
# amplitudes held by the two Kronecker factors of one block of terms
EXPAND_BLOCK = 2 ** 20
# _empty reuses buffers of at least this many bytes.  At n_max 40 a
# 4-mode float64 tensor is 22.6 MB and a 3-mode one 0.55 MB.  With this
# floor one pass over the oracle benchmark's points (shuffled, one BLAS
# thread) took about 2,200 minor page faults; floors of 0, 64 KiB and
# 512 KiB, which let 3-mode tensors take the kept slots and so release
# the 4-mode buffers, left 7,000 to 8,900, against 6,600 to 9,900 with no
# reuse
_REUSE_BYTES = 4 * 2 ** 20
DEFAULT_NMAX = 40
LOST_NORM_LIMIT = 1e-6


@dataclass(frozen=True, eq=False)
class FockTensor:
    """Dense number-basis amplitudes on zero or more modes.

    ``amps`` has shape (n_max+1,) * mode_count, a 0-d array at zero
    modes (the empty tensor product, one amplitude), and is a read-only
    array in Fortran order (first mode varies fastest): float64 when the
    oracle computed it from real data, complex128 otherwise.  The
    constructor always copies the array it is given, as float64 if that
    array is real and as complex128 if it is complex, so the caller's
    array stays its own and writeable.  Truncation may lose norm but
    never gain it.  The squared norm is computed once, at construction.
    """

    n_max: int
    amps: np.ndarray
    _squared_norm: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_cutoff(self.n_max)
        amps = np.asarray(self.amps)
        amps = np.array(amps, dtype=np.result_type(amps.dtype, np.float64),
                        order="F", copy=True)
        if any(d != self.n_max + 1 for d in amps.shape):
            raise ModeShapeError(
                f"tensor shape {amps.shape} does not match n_max={self.n_max}")
        total = _sq_norm(amps)
        if total > 1.0 + 1e-9:
            raise DomainError(f"squared amplitude sum {total} exceeds 1")
        self._freeze(amps, total)

    @classmethod
    def _adopt(cls, n_max: int, amps: np.ndarray,
               squared_norm: float) -> FockTensor:
        """Wrap a Fortran-order float64 or complex128 tensor the oracle
        owns and whose squared norm it already knows: no copy, no norm
        pass."""
        t = object.__new__(cls)
        object.__setattr__(t, "n_max", n_max)
        t._freeze(amps, squared_norm)
        return t

    def _freeze(self, amps: np.ndarray, squared_norm: float):
        amps.setflags(write=False)
        object.__setattr__(self, "amps", amps)
        object.__setattr__(self, "_squared_norm", squared_norm)

    @property
    def mode_count(self) -> int:
        return self.amps.ndim

    def squared_norm(self) -> float:
        return self._squared_norm


def _sq_norm(x: np.ndarray) -> float:
    """Squared 2-norm in one pass.  ``ravel(order="K")`` is a view for
    contiguous data and for the axis permutations the kernels return."""
    flat = x.ravel(order="K")
    return float(np.vdot(flat, flat).real)


def _check_cutoff(n_max: int):
    """Raise DomainError unless n_max is an integer (not a bool) >= 1;
    every public entry point takes its cutoff through this check."""
    if not _is_int(n_max):
        raise DomainError(f"n_max must be an integer, got {n_max!r}")
    if n_max < 1:
        raise DomainError("n_max must be >= 1")


def _check_tensor_size(n_max: int, modes: int):
    """Check the cutoff (_check_cutoff), and raise ResourceLimitError if a
    tensor of this shape and the one scratch copy a kernel holds beside
    it would exceed MAX_FOCK_BYTES at complex128, the widest dtype a
    circuit can reach; called before the tensor is allocated."""
    _check_cutoff(n_max)
    per_amp = 2 * np.dtype(np.complex128).itemsize
    nbytes = (n_max + 1) ** modes * per_amp
    if nbytes > MAX_FOCK_BYTES:
        # the float root may be one below or above the integer one
        d = int((MAX_FOCK_BYTES // per_amp) ** (1 / modes)) + 1
        while d ** modes * per_amp > MAX_FOCK_BYTES:
            d -= 1
        raise ResourceLimitError(
            f"a {modes}-mode tensor at n_max={n_max} and its scratch copy "
            f"need {nbytes / 2 ** 30:.3g} GiB, over the oracle's limit of "
            f"{MAX_FOCK_BYTES / 2 ** 30:g} GiB; the largest n_max that "
            f"fits {modes} modes is {d - 1}")


def _refcounts(bufs: list) -> list:
    """``sys.getrefcount`` of each buffer in ``bufs``."""
    return [sys.getrefcount(buf) for buf in bufs]


# what _refcounts reads for a buffer that nothing but its list refers to,
# measured the same way on every interpreter
_UNHELD = _refcounts([np.empty(0)])[0]
# the buffers _empty keeps, at most two: a tensor and the one scratch copy
# MAX_FOCK_BYTES prices beside it
_kept: list = []
_kept_lock = threading.Lock()


def _empty(shape: tuple, dtype) -> np.ndarray:
    """An uninitialized C-order array for a kernel to write.

    One of at least _REUSE_BYTES is a view of a buffer kept from an
    earlier call when a kept buffer has its byte size and no array
    refers to it, so a process that runs the oracle repeatedly at one
    size does not hand the memory back to the system after each call and
    fault it in again for the next.  An array a caller still holds, or
    any view of it, refers to its buffer, whose reference count then
    reads above _UNHELD.  When no kept buffer fits, every kept buffer
    nothing refers to is released before a new one is allocated and
    kept.
    """
    dtype = np.dtype(dtype)
    nbytes = math.prod(shape) * dtype.itemsize
    if nbytes < _REUSE_BYTES:
        return np.empty(shape, dtype)
    with _kept_lock:
        free = [c == _UNHELD for c in _refcounts(_kept)]
        for buf, is_free in zip(_kept, free):
            if is_free and buf.nbytes == nbytes:
                break
        else:
            _kept[:] = [b for b, f in zip(_kept, free) if not f]
            # float64 words: every tensor dtype is a whole number of them
            buf = np.empty(nbytes // 8)
            _kept.append(buf)
            del _kept[:-2]
        return buf.view(dtype).reshape(shape)


def coherent_fock(alpha: complex, n_max: int) -> np.ndarray:
    """Truncated coherent expansion exp(-|a|^2/2) a^n / sqrt(n!).

    A complex128 vector, even at real alpha, where its imaginary parts
    are exactly zero.  Raises FockTruncationError when the cutoff loses
    more than 1e-6 of the norm.
    """
    _check_cutoff(n_max)
    alpha = complex(alpha)
    if not (math.isfinite(alpha.real) and math.isfinite(alpha.imag)):
        raise DomainError("amplitude must be finite")
    # v[n] = v[n-1] * alpha / sqrt(n), one cumulative product; starting
    # from v[0] keeps every partial product within the norm
    v = np.empty(n_max + 1, dtype=np.complex128)
    v[0] = math.exp(-0.5 * abs(alpha) ** 2)
    v[1:] = alpha / np.sqrt(np.arange(1, n_max + 1))
    np.cumprod(v, out=v)
    lost = 1.0 - float(np.vdot(v, v).real)
    if lost > LOST_NORM_LIMIT:
        raise FockTruncationError(
            f"cutoff {n_max} loses {lost:.3g} of the norm at |a|={abs(alpha)}")
    return v


@lru_cache(maxsize=8)
def _bs_blocks(n_max: int) -> tuple:
    """Per-total-photon-number blocks of the two-mode 50:50 unitary.

    The unitary is P_b exp((pi/4)(a^+ b - a b^+)) with P_b the photon
    parity of the second mode, which sends |a>|b> to
    |(a+b)/sqrt2>|(a-b)/sqrt2>.  Block n is built on the full (n+1)-dim
    photon-number-n subspace and then restricted to the retained indices,
    so matrix elements are exact and truncation only leaks amplitude.
    Entry [k', k] connects k and k' photons in the first mode.

    The generator is real antisymmetric and the parity real, so every
    block is real orthogonal; the eigendecomposition leaves only
    round-off in the imaginary parts, and the blocks keep the real part,
    read-only.
    """
    blocks = []
    theta = math.pi / 4.0
    for n in range(2 * n_max + 1):
        dim = n + 1
        gen = np.zeros((dim, dim))
        for k in range(n):
            # a^+ b : (k, n-k) -> (k+1, n-k-1)
            gen[k + 1, k] = math.sqrt((k + 1) * (n - k))
        gen = gen - gen.T
        # exp(theta G) via the hermitian matrix iG
        w, vec = np.linalg.eigh(1j * gen)
        u = (vec * np.exp(-1j * theta * w)) @ vec.conj().T
        parity = np.array([(-1.0) ** (n - k) for k in range(dim)])
        u = parity[:, None] * u
        lo = max(0, n - n_max)
        hi = min(n, n_max)
        block = np.ascontiguousarray(u[lo:hi + 1, lo:hi + 1].real)
        block.setflags(write=False)
        blocks.append((lo, hi, block))
    return tuple(blocks)


def _memory_order(x: np.ndarray) -> tuple:
    """Axes of ``x`` from the largest stride to the smallest: the order
    in which a permuted view of a C-contiguous buffer lays them out."""
    return tuple(np.argsort([-st for st in x.strides], kind="stable"))


def _apply_two_mode(amps: np.ndarray, i: int, j: int,
                    n_max: int) -> np.ndarray:
    """Apply the cached beam-splitter blocks on axes (i, j).

    The tensor is laid out with axes i and j leading, then the others,
    each group in memory order, and flattened to (d*d, cols): row k*d + l
    holds k and l photons on the two leading modes, so the rows (k, n-k)
    of block n, k = lo..hi, are every (d-1)-th row.  Each block is one
    real matrix product on that basic strided slice of the tensor viewed
    as float64 (a complex tensor's real and imaginary parts as adjacent
    columns; a real tensor is float64 already), written back in place
    through a reused (d, cols) scratch.  Every row belongs to exactly one
    block.  With j leading,
    the slice holds the block's photon numbers on mode i in reverse, so
    the block is applied reversed in both indices.

    The blocks run on ``amps`` itself when axes i and j already lead its
    memory, and on one C-ordered copy of it otherwise.  Returns a view
    with the input's axis order.
    """
    d = n_max + 1
    mem = _memory_order(amps)
    lead = tuple(ax for ax in mem if ax in (i, j))
    order = lead + tuple(ax for ax in mem if ax not in lead)
    work = amps.transpose(order)
    if not work.flags.c_contiguous:
        work = work.copy()
    flat = work.reshape(d * d, -1).view(np.float64)
    scratch = np.empty((d, flat.shape[1]))
    for n, (lo, hi, u) in enumerate(_bs_blocks(n_max)):
        if lead[0] == j:
            u = u[::-1, ::-1]
        rows = slice(n + lo * (d - 1), n + hi * (d - 1) + 1, d - 1)
        block = scratch[:hi - lo + 1]
        np.matmul(u, flat[rows], out=block)
        flat[rows] = block
    return work.transpose(np.argsort(order))


@lru_cache(maxsize=8)
def _fresh_tables(n_max: int) -> tuple:
    """Read-only tables (first, split, grams) of ``_bs_blocks`` for a
    beam splitter onto a fresh mode, ``split`` for ``_split`` and the
    others for ``_herald_bs_fresh``; as there, photon numbers count on
    the beam splitter's first mode.

    ``first`` is (d, d), lower triangular: row n is the row of block n
    for no photon on the first mode, defined for n <= n_max, which a
    vacuum selection on that mode keeps.  ``split`` is (d, d): entry
    [q, p] is the amplitude of p photons on the first mode and q on the
    second in the image of |p+q> and the vacuum under block p+q, and zero
    where p + q > n_max.  ``grams`` holds U^T U of each truncated block
    n = n_max+1 .. 2*n_max, in order; on the full blocks n <= n_max,
    U^T U is the identity.  Together they hold fewer entries than
    ``_bs_blocks``.
    """
    d = n_max + 1
    blocks = _bs_blocks(n_max)
    first = np.zeros((d, d))
    split = np.zeros((d, d))
    for n in range(d):
        u = blocks[n][2]
        first[n, :n + 1] = u[0]
        split[n - np.arange(n + 1), np.arange(n + 1)] = u[:, n]
    grams = tuple(u.T @ u for _, _, u in blocks[d:])
    for table in (first, split) + grams:
        table.setflags(write=False)
    return first, split, grams


def _lead_rows(amps: np.ndarray, i: int) -> tuple:
    """The axes of ``amps`` other than i, in memory order, and ``amps``
    with axis i leading them as a C-contiguous (d, cols) matrix: a view
    when axis i leads the memory, else one copy of the input."""
    rest = tuple(ax for ax in _memory_order(amps) if ax != i)
    src = np.ascontiguousarray(
        amps.transpose((i,) + rest).reshape(amps.shape[i], -1))
    return rest, src


def _herald_bs_fresh(amps: np.ndarray, i: int, vec: np.ndarray,
                     n_max: int) -> tuple[np.ndarray, float]:
    """Vacuum selection on mode i right after a beam splitter on (i, j),
    where mode j, axis ``amps.ndim``, is in the single-mode state ``vec``:
    ``_vacuum_project(_apply_two_mode(_prep(amps, vec), i, amps.ndim,
    n_max), i)``, computing only the kept slice and never the beam
    splitter's output.

    With src the input with axis i leading (``_lead_rows``), block n
    has input x_n[k] = vec[n-k] src[k], k photons on mode i.  The kept
    slice holds n photons on mode j: row n is block n's first row
    applied to x_n, so the slice is one (d, d) by (d, cols) product.
    The input norm of the selection is that of the truncated output,
    sum_n |U_n x_n|^2, which is taken from the Gram matrix S = src^H
    src: block n contributes x_n^H (U_n^T U_n) x_n, so the full blocks
    give the diagonal of S weighted by |vec|^2 and each truncated block
    one small contraction with its ``_fresh_tables`` entry.  It ends as
    ``_vacuum_project`` does (``_renormalize_kept``).  The slice is laid
    out with mode j leading its memory, then the other axes in the
    input's memory order, as the selection on the written output leaves
    it; ``amps`` is read, not written.
    """
    d = n_max + 1
    rest, src = _lead_rows(amps, i)
    first, _, grams = _fresh_tables(n_max)
    # toeplitz[n, k] = vec[n - k], zero where k > n
    padded = np.concatenate([np.zeros(n_max, dtype=vec.dtype), vec])
    toeplitz = np.lib.stride_tricks.sliding_window_view(padded, d)[:, ::-1]
    kept = (first * toeplitz) @ src
    # S[k, k'] = <src[k], src[k']>; conj() of a real array is the array
    gram = src.conj() @ src.T
    total = float(np.cumsum(np.abs(vec) ** 2)[::-1] @ gram.diagonal().real)
    for lo, g in enumerate(grams, start=1):
        # block n = n_max + lo takes k = lo .. n_max, so vec[n_max .. lo]
        w = vec[lo:][::-1]
        total += float((w.conj() @ (g * gram[lo:, lo:]) @ w).real)
    prob = _renormalize_kept(kept, total, i, n_max)
    kept = kept.reshape((d,) + tuple(amps.shape[ax] for ax in rest))
    return kept.transpose(np.argsort((amps.ndim,) + rest)), prob


def _split(amps: np.ndarray, i: int, n_max: int) -> np.ndarray:
    """Split mode i against a new vacuum mode j, axis ``amps.ndim``:
    ``_apply_two_mode(_prep(amps, vacuum), i, amps.ndim, n_max)``, written
    once with no product tensor formed.

    The vacuum leaves one column of each block, so the rows with q
    photons on j are src[q:], the input with axis i leading
    (``_lead_rows``), scaled by row q of the ``split`` table of
    ``_fresh_tables``: one contiguous product per q.  The output is laid
    out with j leading its memory, then i, then the other axes in the
    input's memory order; ``amps`` is read, not written.
    """
    d = n_max + 1
    rest, src = _lead_rows(amps, i)
    split = _fresh_tables(n_max)[1]
    out = _empty((d, d) + tuple(amps.shape[ax] for ax in rest), amps.dtype)
    grid = out.reshape(d, d, -1)
    for q in range(d):
        np.multiply(split[q, :d - q, None], src[q:], out=grid[q, :d - q])
        grid[q, d - q:] = 0
    return out.transpose(np.argsort((amps.ndim, i) + rest))


def _prep(amps: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """Append an axis in the single-mode state ``vec``: amps (x) vec.

    The new axis leads the output's memory, so a beam splitter between
    it and the mode leading the input's memory needs no copy.  A real
    tensor stays real under a float64 vector and a complex one promotes
    it.
    """
    return np.moveaxis(np.multiply.outer(vec, amps), 0, -1)


def _hadamard(amps: np.ndarray, i: int, cats: np.ndarray,
              duals: np.ndarray) -> np.ndarray:
    """Apply the rank-2 Hadamard ``cats @ duals`` on axis i and
    renormalize.

    In memory order the tensor is reshaped to (a, d, c) with axis i in
    the middle.  Contracting it with ``duals`` gives a (a, 2, c)
    coefficient tensor; because the columns of ``cats`` are orthonormal,
    that small tensor has the norm of the output and is normalized
    before ``cats`` expands it.  On the last memory axis (c = 1) both
    steps are single 2-D products, and the output is written into
    ``amps``.  Returns a tensor with the input's axis order.
    """
    order = _memory_order(amps)
    mem = amps.transpose(order)
    k = order.index(i)
    x = mem.reshape(math.prod(mem.shape[:k]), mem.shape[k], -1)
    if x.shape[2] == 1:
        x = x[:, :, 0]
        coef = x @ duals.T
    else:
        coef = np.matmul(duals, x)
    n = math.sqrt(_sq_norm(coef))
    if n <= ZERO_NORM:
        raise ZeroStateError(f"hadamard image has vanishing norm {n}")
    coef /= n
    if x.ndim == 2:
        np.matmul(coef, cats.T, out=x)
    else:
        np.matmul(cats, coef, out=x)
    return x.reshape(mem.shape).transpose(np.argsort(order))


def _check_leak(sq_norm: float, n_max: int):
    """Raise FockTruncationError when a tensor renormalized to 1 has since
    leaked more than LOST_NORM_LIMIT of its squared norm past the cutoff,
    the limit ``coherent_fock`` applies to one prep."""
    lost = 1.0 - sq_norm
    if lost > LOST_NORM_LIMIT:
        raise FockTruncationError(
            f"cutoff {n_max} loses {lost:.3g} of the norm since the state "
            f"was last renormalized")


def _renormalize_kept(kept: np.ndarray, total: float, i: int,
                      n_max: int) -> float:
    """The tail of a vacuum selection on mode i: refuse a leak in its
    input's squared norm ``total`` (_check_leak) and a vanishing
    probability, then renormalize the kept slice in place; returns the
    heralding probability relative to ``total``."""
    _check_leak(total, n_max)
    kept_sq = _sq_norm(kept)
    prob = kept_sq / total
    if prob <= ZERO_NORM ** 2:
        raise ZeroProbabilityError(
            f"vacuum heralding on mode {i} has vanishing probability")
    kept /= math.sqrt(kept_sq)
    return prob


def _vacuum_project(amps: np.ndarray, i: int) -> tuple[np.ndarray, float]:
    """Slice axis i at photon number zero; returns the renormalized slice
    and the heralding probability relative to the input norm.

    The input is a tensor renormalized to 1 before its last gates, so a
    squared norm lost past the cutoff is refused (_check_leak).  The slice
    is a view; only it is copied, in the input's memory order.  A 1-mode
    input leaves a 0-d array, the zero-mode tensor.
    """
    sliced = amps[(slice(None),) * i + (0, ...)].copy(order="K")
    prob = _renormalize_kept(sliced, _sq_norm(amps), i, amps.shape[0] - 1)
    return sliced, prob


@lru_cache(maxsize=8)
def _hadamard_factors(alpha_ref: float, n_max: int) -> tuple:
    """Read-only factors (cats, duals) of the coherent-qubit Hadamard.

    Built purely from truncated coherent vectors, which are real since
    alpha_ref is a positive real (``validate`` requires it), so both
    factors are float64.  ``cats`` is (n_max+1, 2): the even and odd cat
    outputs, normalized numerically.
    Since the |-a> expansion is the |a> one with odd entries negated,
    the even cat is exactly zero on odd photon numbers and the odd cat
    on even ones, so the columns are orthonormal up to round-off in
    their norms.  ``duals`` is (2, n_max+1): the input frame dual to
    {|a>, |-a>}, from the numerically inverted 2x2 Gram matrix.
    """
    va = coherent_fock(alpha_ref, n_max).real
    vm = coherent_fock(-alpha_ref, n_max).real
    gram = np.array([[va @ va, va @ vm],
                     [vm @ va, vm @ vm]])
    duals = np.linalg.solve(gram, np.stack([va, vm]))
    even = va + vm
    odd = va - vm
    cats = np.stack([even / np.linalg.norm(even),
                     odd / np.linalg.norm(odd)], axis=1)
    cats.setflags(write=False)
    duals.setflags(write=False)
    return cats, duals


def _row_kron(tables: list, weights: np.ndarray) -> np.ndarray:
    """Row-wise Kronecker products: row t is weights[t] times the outer
    product of row t of each (T, d) table, flattened in C order."""
    acc = weights[:, None]
    for table in tables:
        acc = (acc[:, :, None] * table[:, None, :]).reshape(
            len(weights), acc.shape[1] * table.shape[1])
    return acc


def _expand_block(vecs: list, where: list, coeffs: np.ndarray,
                  half: int, rows: slice) -> np.ndarray:
    """Sum over the terms in ``rows`` of their outer products, as the
    (d^half, d^(modes-half)) matrix left.T @ right."""
    tables = [v[w[rows]] for v, w in zip(vecs, where)]
    left = _row_kron(tables[:half], coeffs[rows])
    right = _row_kron(tables[half:], np.ones(len(left)))
    # subnormal operands slow the product twofold; left may be a
    # read-only view of the coefficients, so both are flushed by copy
    tiny = np.finfo(np.float64).tiny
    left, right = (np.where(abs(x) < tiny, 0, x) for x in (left, right))
    out = _empty((left.shape[1], right.shape[1]), np.result_type(left, right))
    return np.matmul(left.T, right, out=out)


@_out_of_memory_typed
def csstate_to_fock(s: CsState, n_max: int = DEFAULT_NMAX) -> FockTensor:
    """Expand a coherent superposition in the truncated number basis.

    Each mode's labels become a (T, n_max+1) table of coherent vectors,
    gathered from one vector per distinct label.  Over the modes in
    reverse, the coefficient-weighted row-wise Kronecker products of the
    first half (``left``) and those of the second half (``right``) give
    the tensor as the one matrix product ``left.T @ right``, the sum over
    terms of their outer products; in C order over the reversed modes it
    is the Fortran-order tensor.  A mode whose labels are all real gets a
    float64 table, and a state's real coefficients are float64, so a real
    state expands as a float64 product into a float64 tensor.
    Terms are taken in blocks whose two factors hold at most
    EXPAND_BLOCK amplitudes, so memory beyond the tensor stays bounded;
    the oracle's states fit one block.  A tensor over MAX_FOCK_BYTES
    raises ResourceLimitError before it is allocated, and so does, once
    it fails, an allocation that does not fit the address space.
    """
    modes = s.mode_count
    _check_tensor_size(n_max, modes)
    d = n_max + 1
    vecs, where = [], []
    for col in s.amps.T[::-1]:
        labels, inverse = np.unique(col, return_inverse=True)
        vecs.append(_as_real(np.array([coherent_fock(a, n_max)
                                       for a in labels]).reshape(-1, d)))
        where.append(inverse)
    half = modes // 2
    step = max(1, EXPAND_BLOCK // (d ** half + d ** (modes - half)))
    acc = _expand_block(vecs, where, s.coeffs, half, slice(0, step))
    for lo in range(step, s.term_count, step):
        acc += _expand_block(vecs, where, s.coeffs, half,
                             slice(lo, lo + step))
    acc = acc.reshape((d,) * modes).transpose()
    sq = _sq_norm(acc)
    if sq > 1.0 + 1e-6:
        raise DomainError(
            f"state has squared norm {sq}; convert normalized states only")
    if sq > 1.0:  # round-off above unit norm
        acc /= math.sqrt(sq)
        sq = 1.0
    return FockTensor._adopt(n_max, acc, sq)


def fock_fidelity(t1: FockTensor, t2: FockTensor) -> float:
    """|<t1|t2>|^2 with both tensors normalized first.

    Raises ModeShapeError unless both tensors have the same mode count
    and cutoff.
    """
    if t1.mode_count != t2.mode_count or t1.n_max != t2.n_max:
        raise ModeShapeError("fock tensors are not comparable")
    n1 = t1.squared_norm()
    n2 = t2.squared_norm()
    if n1 <= 0 or n2 <= 0:
        raise DomainError("fidelity of a zero tensor")
    # both tensors are Fortran order, so these are views
    inner = np.vdot(t1.amps.ravel(order="F"), t2.amps.ravel(order="F"))
    return abs(complex(inner)) ** 2 / (n1 * n2)


@dataclass(frozen=True, eq=False)
class FockRunResult:
    final: FockTensor
    mode_order: tuple[str, ...]
    probabilities: tuple[float, ...]
    p_success: float


# Live-mode change of each instruction kind, for the static width check.
_MODE_DELTA = {Prep: 1, Split: 1, SelectVacuum: -1}


class _Fock:
    """Backend of ``run_fock``: the number-basis kernels on a dense tensor
    and, until a gate entangles it, the last prepared mode as a vector of
    its own.  A beam splitter onto that mode is held only to be heralded:
    a selection of its first mode next runs both in one kernel, and any
    other instruction first makes the state dense, which applies it.  A
    split is one kernel on the dense tensor."""

    def __init__(self, n_max: int):
        self.n_max = n_max
        # the empty tensor product: a zero-mode tensor of norm one, real
        # until a complex prep promotes it
        self.amps = np.ones((), dtype=np.float64)
        # the state of mode amps.ndim, the last prepared one, while it is
        # still a product factor; None once it is multiplied in
        self.fresh: np.ndarray | None = None
        # mode i of a beam splitter (i, amps.ndim) onto the fresh mode,
        # recorded but not yet applied; None when there is none
        self.held: int | None = None

    def _is_fresh(self, i: int) -> bool:
        return (self.fresh is not None and self.held is None
                and i == self.amps.ndim)

    def dense(self) -> np.ndarray:
        """The whole state as one tensor: multiplies the fresh mode in
        and applies a held beam splitter onto it."""
        if self.fresh is not None:
            self.amps = _prep(self.amps, self.fresh)
            if self.held is not None:
                self.amps = _apply_two_mode(self.amps, self.held,
                                            self.amps.ndim - 1, self.n_max)
            self.fresh = self.held = None
        return self.amps

    def prep(self, amp: complex):
        self.dense()
        # a real amplitude's vector is float64, so a real tensor stays real
        self.fresh = _as_real(coherent_fock(amp, self.n_max))

    def hadamard(self, i: int, alpha_ref: float):
        factors = _hadamard_factors(alpha_ref, self.n_max)
        if self._is_fresh(i):
            # normalizes the vector only: a leak in the tensor is still
            # refused at its next renormalization
            self.fresh = _hadamard(self.fresh, 0, *factors)
        else:
            if self.held is not None:
                self.dense()
            _check_leak(_sq_norm(self.amps), self.n_max)
            self.amps = _hadamard(self.amps, i, *factors)

    def bs(self, i: int, j: int):
        if self._is_fresh(j):
            self.held = i
        else:
            self.amps = _apply_two_mode(self.dense(), i, j, self.n_max)

    def split(self, i: int):
        self.amps = _split(self.dense(), i, self.n_max)

    def select(self, i: int, name: str) -> float:
        if self.held == i:
            self.amps, prob = _herald_bs_fresh(self.amps, i, self.fresh,
                                               self.n_max)
            self.fresh = self.held = None
        else:
            self.amps, prob = _vacuum_project(self.dense(), i)
        return prob


def run_fock(circuit: Circuit, n_max: int = DEFAULT_NMAX) -> FockRunResult:
    """Execute a circuit in the truncated number basis.

    Runs through the analytic executor's instruction loop (same
    instruction semantics, probabilities relative to the pre-selection
    norm, state renormalized after Hadamards and selections) so the two
    pipelines are comparable point by point: ``run_fock`` runs every
    circuit ``run`` runs whose widest tensor and its scratch copy fit
    MAX_FOCK_BYTES at this cutoff.  A circuit with no instructions, or
    one that ends with no live mode, returns the zero-mode tensor, a 0-d
    array.  An invalid circuit (CircuitValidationError, checked first),
    a cutoff that is not an integer >= 1 (DomainError) and an oversized
    tensor (ResourceLimitError) raise before anything is allocated.  The
    final tensor is not rescaled: it carries the squared norm measured at
    the end of the run, which ``fock_fidelity`` divides out.  A
    renormalization, or that end-of-run measure, that finds more than
    LOST_NORM_LIMIT of the norm leaked past the cutoff raises
    FockTruncationError, wrapped in RunError at an instruction and bare
    at the end of the run.
    """
    _check_valid(validate(circuit))
    live = peak = 0
    for ins in circuit.instructions:
        live += _MODE_DELTA.get(type(ins), 0)
        peak = max(peak, live)
    _check_tensor_size(n_max, peak)
    backend = _Fock(n_max)
    order, probs = _execute(circuit, backend)
    # the backend owns its tensor, Fortran order on every paper build:
    # checked for a leak and handed over with the squared norm measured,
    # not rescaled; unlike asfortranarray, require keeps a 0-d tensor 0-d
    amps = np.require(backend.dense(), requirements="F")
    sq = _sq_norm(amps)
    _check_leak(sq, n_max)
    return FockRunResult(final=FockTensor._adopt(n_max, amps, sq),
                         mode_order=order,
                         probabilities=probs,
                         p_success=math.prod(probs, start=1.0))
