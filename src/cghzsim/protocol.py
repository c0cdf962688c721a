"""Builders for the concatenated-GHZ generation protocol and its targets.

The construction is one growth step applied twice, through one helper,
``_grow``: Hadamard a block's leader, then for each new mode prepare a
coherent ancilla, Hadamard it, fuse it onto the block end on a beam
splitter, herald vacuum on that end and split the ancilla.  Stage one
grows an n-mode GHZ-type entangled coherent state from the first of n
input coherent states; stage two grows every chain mode into an m-mode
GHZ-type block, one logical qubit at a time, in chain order.  Every
selection heralds on "no photon", so each step succeeds with
probability 1/2 asymptotically and a full (n, m) build carries n*m - 1
selections.

All intermediate states are regenerated from the primitive gate rules;
nothing is transcribed from closed-form displays.  The ideal targets the
circuits approximate are built here as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import count

import numpy as np

from .coherent import CsState, ghz_norm
from .engine import (
    BeamSplitter,
    Circuit,
    Hadamard,
    Instruction,
    Prep,
    SelectVacuum,
    Split,
    _is_int,
    _positive_real,
)
from .errors import DomainError, _out_of_memory_typed

DEFAULT_NM_CAP = 16


@dataclass(frozen=True)
class ProtocolParams:
    """Logical width, physical depth, and base amplitude of one build.

    The n*m product is capped (default 16).  The cap bounds intermediate
    term growth only under ``branch`` selection.  ``exact`` selection
    keeps every false-vacuum term, so its term count still grows
    exponentially in n*m inside the cap; the README gives the measured
    peaks and times of the costliest builds.
    """

    n_logical: int
    m_physical: int
    alpha: float
    cap: int = DEFAULT_NM_CAP

    def __post_init__(self):
        for name in ("n_logical", "m_physical", "cap"):
            value = getattr(self, name)
            if not _is_int(value):
                raise DomainError(f"{name} must be an integer, got {value!r}")
        if self.n_logical < 1 or self.m_physical < 1:
            raise DomainError("n_logical and m_physical must be >= 1")
        if not _positive_real(self.alpha):
            raise DomainError(
                f"alpha must be a positive finite real, got {self.alpha!r}")
        if self.n_logical * self.m_physical > self.cap:
            raise DomainError(
                f"n*m = {self.n_logical * self.m_physical} exceeds the "
                f"cap of {self.cap}")


def ideal_ghz_state(k: int, alpha: float, sign: int) -> CsState:
    """Normalized k-mode GHZ-type entangled coherent state.

    Returns [2(1 +- exp(-2 k alpha^2))]^(-1/2) (|a>^k +- |-a>^k).
    The minus state degenerates as the two branches become parallel at
    small alpha, which raises a DomainError.
    """
    c = ghz_norm(k, alpha, sign)
    return CsState([c, sign * c], [[alpha] * k, [-alpha] * k])


@_out_of_memory_typed
def ideal_cghz_state(params: ProtocolParams) -> CsState:
    """Ideal concatenated target (|GHZ+>^n + |GHZ->^n)/sqrt2 over the
    normalized m-mode GHZ states.

    Each branch has 2^n terms, one per choice of term 0 or 1 in every
    block: row r takes the binary digits of r, most significant first,
    as its block choices, its coefficient is the product of the chosen
    block coefficients and its labels are the chosen block rows side by
    side.  The plus branch comes first, and terms are kept unmerged.

    The overall constant is 1/sqrt2 in closed form: at real alpha the
    two branches are orthogonal unit vectors, since <GHZ+|GHZ-> is
    c+ c- (1 - <a^m|-a^m> + <-a^m|a^m> - 1) and <a^m|-a^m> is real.  A
    Gram norm of the 2^(n+1) terms would cancel alternating terms up to
    c-^(2n) in size: normalizing by it leaves the squared norm, taken in
    the number basis, at 1 + 4.6e-6 at (6,1), alpha 0.1, where this
    constant leaves it within 2e-12 of 1.

    Arrays that do not fit the address space raise ResourceLimitError.
    """
    n, m, alpha = params.n_logical, params.m_physical, params.alpha
    choice = (np.arange(2**n)[:, None] >> np.arange(n - 1, -1, -1)) & 1
    blocks = [ideal_ghz_state(m, alpha, sign) for sign in (1, -1)]
    coeffs = np.concatenate([b.coeffs[choice].prod(axis=1) for b in blocks])
    amps = np.concatenate([b.amps[choice].reshape(2**n, n * m)
                           for b in blocks])
    return CsState._adopt(coeffs / math.sqrt(2.0), amps)


def _grow(leader: str, steps, amp: complex) -> list[Instruction]:
    """One block's growth from ``leader``, a mode already in the state.

    Hadamard the leader, then for each ``(ancilla, new)`` pair of mode
    names in ``steps`` apply one growth step: prepare the ancilla at
    ``amp``, Hadamard it, fuse it onto the block end on a beam splitter,
    herald vacuum on the end (which removes it) and split the ancilla
    onto ``new``, which becomes the block's end.  Each step grows the
    block by one mode.
    """
    ins: list[Instruction] = [Hadamard(leader)]
    end = leader
    for anc, new in steps:
        ins += [Prep(anc, amp), Hadamard(anc), BeamSplitter(end, anc),
                SelectVacuum(end), Split(anc, new)]
        end = new
    return ins


def build_cghz_circuit(params: ProtocolParams) -> Circuit:
    """Full two-stage generation circuit for the (n, m) target.

    Both stages are ``_grow`` calls.  Stage one grows the n-mode chain
    from s1 over the steps (s2, c1), (s3, c2), ..., (sn, c{n-1}), which
    leaves the chain s2, ..., sn, c{n-1}.  Stage two grows each chain
    mode, in chain order, into block i over the steps (q{i}_1, x...),
    ..., (q{i}_{m-1}, q{i}_m), with intermediate block ends x1, x2, ...
    numbered across blocks.  Stage one runs only when n > 1 and stage
    two only when m > 1, so the (1, 1) build is a single preparation.
    These two guards are why the (n, 1) builds with n >= 3 and the
    (1, m) builds with m >= 2 miss the target (README "Known
    limitations").  The result always passes static validation and
    carries exactly n*m - 1 vacuum selections.
    """
    n, m, alpha = params.n_logical, params.m_physical, params.alpha
    amp = complex(alpha)
    ins: list[Instruction] = [Prep("s1", amp)]
    steps = [(f"s{k}", f"c{k - 1}") for k in range(2, n + 1)]
    # README "Known limitations": at n = 1 the first guard leaves out
    # stage one's Hadamard of s1, and at m = 1 the second leaves out each
    # chain mode's Hadamard, so (n, 1) with n >= 3 and (1, m) with m >= 2
    # miss the target.
    if n > 1:
        ins += _grow("s1", steps, amp)
    # the heralded ends are gone; the ancillas and the last end remain
    chain = [anc for anc, _ in steps] + [steps[-1][1] if steps else "s1"]
    if m > 1:
        temps = count(1)
        for i, leader in enumerate(chain, start=1):
            ancs = [f"q{i}_{j}" for j in range(1, m)]
            ends = [f"x{next(temps)}" for _ in range(m - 2)] + [f"q{i}_{m}"]
            ins += _grow(leader, zip(ancs, ends), amp)
    return Circuit(alpha=alpha, instructions=tuple(ins))
