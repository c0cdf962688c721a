"""Builders for the concatenated-GHZ generation protocol and its targets.

The construction repeats one growth step: Hadamard a fresh coherent
ancilla, fuse it onto a block end on a beam splitter, herald vacuum on
that end and split the ancilla.  Stage one applies the step across N
input coherent states and grows an N-mode GHZ-type entangled coherent
state; stage two applies it within each block, turning every surviving
chain mode into an m-mode GHZ-type block, one logical qubit at a time,
left to right.  Every selection heralds on "no photon", so each step
succeeds with probability 1/2 asymptotically and a full (N, m) build
carries N*m - 1 selections.

All intermediate states are regenerated from the primitive gate rules;
nothing is transcribed from closed-form displays.  The ideal targets the
circuits approximate are built here as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import count, product

import numpy as np

from .coherent import CsState, ghz_norm, normalize
from .engine import (
    BeamSplitter,
    Circuit,
    Hadamard,
    Instruction,
    Prep,
    SelectVacuum,
    Split,
)
from .errors import DomainError

DEFAULT_NM_CAP = 16


@dataclass(frozen=True)
class ProtocolParams:
    """Logical width, physical depth, and base amplitude of one build.

    The n*m product is capped (default 16).  The cap bounds intermediate
    term growth only under ``branch`` selection.  ``exact`` selection
    keeps every false-vacuum term, so its term count still grows
    exponentially in n*m inside the cap: exact (4, 4) does not fit in
    memory.
    """

    n_logical: int
    m_physical: int
    alpha: float
    cap: int = DEFAULT_NM_CAP

    def __post_init__(self):
        if self.n_logical < 1 or self.m_physical < 1:
            raise DomainError("n_logical and m_physical must be >= 1")
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise DomainError(f"alpha must be positive, got {self.alpha}")
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
    return CsState(
        np.array([c, sign * c], dtype=np.complex128),
        np.array([[alpha] * k, [-alpha] * k], dtype=np.complex128))


def ideal_cghz_state(params: ProtocolParams) -> CsState:
    """Ideal concatenated target: both tensor-power branches of the
    normalized m-mode GHZ states, summed and renormalized.

    The plus and minus branches are built term-by-term (2^n terms each,
    kept unmerged) and the overall constant is computed from the Gram
    norm rather than assumed.
    """
    n, m, alpha = params.n_logical, params.m_physical, params.alpha
    coeffs = []
    amps = []
    for sign in (1, -1):
        block = ideal_ghz_state(m, alpha, sign)
        bc = block.coeffs
        ba = block.amps
        for choice in product(range(2), repeat=n):
            c = 1.0 + 0.0j
            row = []
            for b in choice:
                c *= bc[b]
                row.extend(ba[b])
            coeffs.append(c)
            amps.append(row)
    state = CsState(np.asarray(coeffs), np.asarray(amps))
    return normalize(state)


def _fuse(end: str, anc: str, new: str) -> list[Instruction]:
    """One growth step on a freshly prepared ancilla: Hadamard it, fuse
    it onto the block end on a beam splitter, herald vacuum on the end
    (which removes it) and split the ancilla onto ``new``.  The block
    grows by one mode and ``new`` is its end."""
    return [Hadamard(anc), BeamSplitter(end, anc), SelectVacuum(end),
            Split(anc, new)]


def build_cghz_circuit(params: ProtocolParams) -> Circuit:
    """Full two-stage generation circuit for the (n, m) target.

    Stage one grows the n-mode chain s1 -> (s2, c1) -> (s2, s3, c2) ...
    by fusing ancilla s{k} onto the chain end.  Stage two Hadamards each
    surviving chain mode and grows it into the block q{i}_1 ... q{i}_m
    the same way, with intermediate block ends x1, x2, ... numbered
    across blocks.  The degenerate (1, 1) build is a single preparation.
    The result always passes static validation and carries exactly
    n*m - 1 vacuum selections.
    """
    n, m, alpha = params.n_logical, params.m_physical, params.alpha
    amp = complex(alpha)
    ins: list[Instruction] = [Prep("s1", amp)]
    chain = ["s1"]
    for k in range(2, n + 1):
        ins.append(Prep(f"s{k}", amp))
        if k == 2:
            # s1 is an ancilla too: it gets the same Hadamard
            ins.append(Hadamard("s1"))
        ins += _fuse(chain[-1], f"s{k}", f"c{k - 1}")
        # the heralded end is gone; the ancilla and its split copy remain
        chain[-1:] = [f"s{k}", f"c{k - 1}"]
    temps = count(1)
    # m = 1 needs no stage two: each chain mode is its own block
    for i, leader in enumerate(chain if m > 1 else [], start=1):
        ins.append(Hadamard(leader))
        end = leader
        for j in range(1, m):
            anc = f"q{i}_{j}"
            new = f"q{i}_{m}" if j == m - 1 else f"x{next(temps)}"
            ins += [Prep(anc, amp)] + _fuse(end, anc, new)
            end = new
    return Circuit(alpha=alpha, instructions=tuple(ins))
