"""Truncated photon-number-basis simulator used as a brute-force oracle.

Everything here is deliberately independent of the analytic coherent
algebra: coherent states are expanded as exp(-|a|^2/2) a^n / sqrt(n!),
the beam splitter acts through exact photon-number-conserving block
rotations, the coherent-qubit Hadamard matrix is assembled from the
truncated vectors and their numerically inverted Gram matrix, and vacuum
heralding slices the tensor at photon number zero.  Agreement between
this pipeline and the analytic engine is the package's strongest
correctness evidence.  Only the instruction loop, ``engine._execute``, is
shared with the analytic engine; the kernels it drives here share no
arithmetic with it.

The representation is dense, (n_max+1)^modes complex amplitudes, so the
mode count is capped at 4: enough for every primitive and for every
generation circuit whose live modes stay within 4, i.e. the (2, 2),
(3, 1), (4, 1) and (1, 4) builds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .coherent import CsState
from .engine import (
    Circuit,
    Prep,
    SelectVacuum,
    Split,
    _check_valid,
    _execute,
    validate,
)
from .errors import (
    DomainError,
    FockTruncationError,
    ModeShapeError,
    ZeroProbabilityError,
)

MAX_FOCK_MODES = 4
DEFAULT_NMAX = 40
LOST_NORM_LIMIT = 1e-6


@dataclass(frozen=True)
class FockTensor:
    """Dense number-basis amplitudes on up to four modes.

    ``amps`` has shape (n_max+1,) * mode_count.  Truncation may lose
    norm but never gain it.
    """

    n_max: int
    amps: np.ndarray

    def __post_init__(self):
        if self.n_max < 1:
            raise DomainError("n_max must be >= 1")
        amps = np.asarray(self.amps, dtype=np.complex128)
        if amps.ndim < 1 or amps.ndim > MAX_FOCK_MODES:
            raise ModeShapeError(
                f"fock tensors support 1..{MAX_FOCK_MODES} modes, "
                f"got {amps.ndim}")
        if any(d != self.n_max + 1 for d in amps.shape):
            raise ModeShapeError(
                f"tensor shape {amps.shape} does not match n_max={self.n_max}")
        total = float(np.sum(np.abs(amps) ** 2))
        if total > 1.0 + 1e-9:
            raise DomainError(f"squared amplitude sum {total} exceeds 1")
        amps.setflags(write=False)
        object.__setattr__(self, "amps", amps)

    @property
    def mode_count(self) -> int:
        return self.amps.ndim

    def squared_norm(self) -> float:
        return float(np.sum(np.abs(self.amps) ** 2))


def coherent_fock(alpha: complex, n_max: int) -> np.ndarray:
    """Truncated coherent expansion exp(-|a|^2/2) a^n / sqrt(n!).

    Raises FockTruncationError when the cutoff loses more than 1e-6 of
    the norm.
    """
    if n_max < 1:
        raise DomainError("n_max must be >= 1")
    alpha = complex(alpha)
    if not (math.isfinite(alpha.real) and math.isfinite(alpha.imag)):
        raise DomainError("amplitude must be finite")
    v = np.zeros(n_max + 1, dtype=np.complex128)
    v[0] = math.exp(-0.5 * abs(alpha) ** 2)
    for n in range(1, n_max + 1):
        v[n] = v[n - 1] * alpha / math.sqrt(n)
    lost = 1.0 - float(np.sum(np.abs(v) ** 2))
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
        blocks.append((lo, hi, np.ascontiguousarray(u[lo:hi + 1, lo:hi + 1])))
    return tuple(blocks)


def _apply_two_mode(amps: np.ndarray, i: int, j: int, n_max: int) -> np.ndarray:
    """Apply the cached beam-splitter blocks on axes (i, j)."""
    d = n_max + 1
    moved = np.moveaxis(amps, (i, j), (-2, -1))
    lead = moved.shape[:-2]
    flat = np.ascontiguousarray(moved).reshape(-1, d * d)
    out = np.zeros_like(flat)
    for n, (lo, hi, u) in enumerate(_bs_blocks(n_max)):
        cols = np.array([k * d + (n - k) for k in range(lo, hi + 1)])
        out[:, cols] = flat[:, cols] @ u.T
    return np.moveaxis(out.reshape(lead + (d, d)), (-2, -1), (i, j))


def _prep(amps: np.ndarray, amp: complex, n_max: int) -> np.ndarray:
    """Append an axis in the coherent state |amp>: amps (x) |amp>."""
    return np.multiply.outer(amps, coherent_fock(amp, n_max))


def _hadamard(amps: np.ndarray, i: int, mat: np.ndarray) -> np.ndarray:
    """Apply a single-mode matrix on axis i and renormalize."""
    out = np.moveaxis(np.tensordot(mat, amps, axes=([1], [i])), 0, i)
    n = np.linalg.norm(out.ravel())
    if n <= 1e-12:
        raise ZeroProbabilityError("hadamard annihilated the state")
    return out / n


def _vacuum_project(amps: np.ndarray, i: int) -> tuple[np.ndarray, float]:
    """Slice axis i at photon number zero; returns the renormalized slice
    and the heralding probability relative to the input norm."""
    if amps.ndim == 1:
        raise ModeShapeError("cannot remove the last fock mode")
    total = float(np.sum(np.abs(amps) ** 2))
    sliced = np.take(amps, 0, axis=i)
    kept = float(np.sum(np.abs(sliced) ** 2))
    prob = kept / total if total > 0 else 0.0
    if prob <= 1e-14:
        raise ZeroProbabilityError(
            f"vacuum heralding on mode {i} has vanishing probability")
    return sliced / math.sqrt(kept), prob


def bs_fock(t: FockTensor, i: int, j: int) -> FockTensor:
    """50:50 beam splitter on modes (i, j) in the number basis."""
    if not (0 <= i < t.mode_count and 0 <= j < t.mode_count) or i == j:
        raise ModeShapeError(f"invalid mode pair ({i}, {j})")
    return FockTensor(t.n_max, _apply_two_mode(t.amps, i, j, t.n_max))


def split_fock(t: FockTensor, i: int) -> FockTensor:
    """Append a vacuum mode and beam-split mode i against it."""
    if not 0 <= i < t.mode_count:
        raise ModeShapeError(f"mode index {i} out of range")
    if t.mode_count + 1 > MAX_FOCK_MODES:
        raise ModeShapeError("mode cap exceeded by split")
    grown = FockTensor(t.n_max, _prep(t.amps, 0, t.n_max))
    return bs_fock(grown, i, t.mode_count)


@lru_cache(maxsize=8)
def hadamard_fock_matrix(alpha_ref: float, n_max: int) -> np.ndarray:
    """Coherent-qubit Hadamard as a read-only (n_max+1)^2 matrix.

    Built purely from truncated coherent vectors: the even/odd cat
    outputs are normalized numerically, and the input frame dual to
    {|a>, |-a>} comes from the numerically inverted 2x2 Gram matrix.
    """
    if not (math.isfinite(alpha_ref) and alpha_ref > 0):
        raise DomainError(f"alpha_ref must be positive, got {alpha_ref}")
    va = coherent_fock(alpha_ref, n_max)
    vm = coherent_fock(-alpha_ref, n_max)
    gram = np.array([[np.vdot(va, va), np.vdot(va, vm)],
                     [np.vdot(vm, va), np.vdot(vm, vm)]])
    duals = np.linalg.solve(gram, np.stack([va.conj(), vm.conj()]))
    even = va + vm
    even = even / np.linalg.norm(even)
    odd = va - vm
    odd = odd / np.linalg.norm(odd)
    mat = np.outer(even, duals[0]) + np.outer(odd, duals[1])
    mat.setflags(write=False)
    return mat


def hadamard_fock(t: FockTensor, i: int, alpha_ref: float) -> FockTensor:
    """Coherent-qubit Hadamard on mode i, renormalized.

    The gate is not an isometry outside the exact qubit basis, so the
    output is rescaled to unit norm; heralding probabilities elsewhere
    are relative and unaffected.
    """
    if not 0 <= i < t.mode_count:
        raise ModeShapeError(f"mode index {i} out of range")
    return FockTensor(t.n_max, _hadamard(
        t.amps, i, hadamard_fock_matrix(alpha_ref, t.n_max)))


def vacuum_project_fock(t: FockTensor, i: int) -> tuple[FockTensor, float]:
    """Herald photon number zero on mode i.

    Returns the renormalized sliced tensor and the relative heralding
    probability.
    """
    if not 0 <= i < t.mode_count:
        raise ModeShapeError(f"mode index {i} out of range")
    amps, prob = _vacuum_project(t.amps, i)
    return FockTensor(t.n_max, amps), prob


def csstate_to_fock(s: CsState, n_max: int = DEFAULT_NMAX) -> FockTensor:
    """Expand a coherent superposition in the truncated number basis."""
    if s.mode_count < 1 or s.mode_count > MAX_FOCK_MODES:
        raise ModeShapeError(
            f"fock conversion supports 1..{MAX_FOCK_MODES} modes, "
            f"got {s.mode_count}")
    shape = (n_max + 1,) * s.mode_count
    acc = np.zeros(shape, dtype=np.complex128)
    for c, row in zip(s.coeffs, s.amps):
        piece = np.ones((), dtype=np.complex128)
        for a in row:
            piece = _prep(piece, a, n_max)
        acc = acc + c * piece
    sq = float(np.sum(np.abs(acc) ** 2))
    if sq > 1.0 + 1e-6:
        raise DomainError(
            f"state has squared norm {sq}; convert normalized states only")
    if sq > 1.0:  # round-off above unit norm
        acc = acc / math.sqrt(sq)
    return FockTensor(n_max, acc)


def fock_inner(t1: FockTensor, t2: FockTensor) -> complex:
    if t1.mode_count != t2.mode_count or t1.n_max != t2.n_max:
        raise ModeShapeError("fock tensors are not comparable")
    return complex(np.vdot(t1.amps, t2.amps))


def fock_fidelity(t1: FockTensor, t2: FockTensor) -> float:
    """|<t1|t2>|^2 with both tensors normalized first."""
    n1 = t1.squared_norm()
    n2 = t2.squared_norm()
    if n1 <= 0 or n2 <= 0:
        raise DomainError("fidelity of a zero tensor")
    return abs(fock_inner(t1, t2)) ** 2 / (n1 * n2)


@dataclass(frozen=True)
class FockRunResult:
    final: FockTensor
    mode_order: tuple[str, ...]
    probabilities: tuple[float, ...]
    p_success: float


# Live-mode change of each instruction kind, for the static width check.
_MODE_DELTA = {Prep: 1, Split: 1, SelectVacuum: -1}


def _check_fits(circuit: Circuit):
    """Reject, before any tensor is allocated, a circuit the oracle cannot
    run: an invalid one (CircuitValidationError, checked first), one with
    no instructions, or one that needs more than MAX_FOCK_MODES live
    modes at some point."""
    _check_valid(validate(circuit))
    if not circuit.instructions:
        raise DomainError("cannot run an empty circuit through the oracle")
    live = 0
    for ins in circuit.instructions:
        live += _MODE_DELTA.get(type(ins), 0)
        if live > MAX_FOCK_MODES:
            raise ModeShapeError(
                f"circuit needs more than {MAX_FOCK_MODES} live modes")


class _Fock:
    """Backend of ``run_fock``: the number-basis kernels on a dense tensor."""

    def __init__(self, n_max: int):
        self.n_max = n_max
        # the empty tensor product: a zero-mode tensor of norm one
        self.amps = np.ones((), dtype=np.complex128)
        self.probs: list[float] = []

    def prep(self, amp: complex):
        self.amps = _prep(self.amps, amp, self.n_max)

    def hadamard(self, i: int, alpha_ref: float):
        self.amps = _hadamard(self.amps, i,
                              hadamard_fock_matrix(alpha_ref, self.n_max))

    def bs(self, i: int, j: int):
        self.amps = _apply_two_mode(self.amps, i, j, self.n_max)

    def split(self, i: int):
        self.prep(0)
        self.bs(i, self.amps.ndim - 1)

    def select(self, i: int, name: str):
        self.amps, prob = _vacuum_project(self.amps, i)
        self.probs.append(prob)


def run_fock(circuit: Circuit, n_max: int = DEFAULT_NMAX) -> FockRunResult:
    """Execute a circuit in the truncated number basis.

    Runs through the analytic executor's instruction loop (same
    instruction semantics, probabilities relative to the pre-selection
    norm, state renormalized after Hadamards and selections) so the two
    pipelines are comparable point by point.  Only circuits whose live
    mode count stays within the cap can run; invalid, wider or empty
    circuits raise before anything is allocated.
    """
    _check_fits(circuit)
    backend = _Fock(n_max)
    order = _execute(circuit, backend)
    amps = backend.amps / np.linalg.norm(backend.amps.ravel())
    return FockRunResult(final=FockTensor(n_max, amps),
                         mode_order=order,
                         probabilities=tuple(backend.probs),
                         p_success=math.prod(backend.probs, start=1.0))
