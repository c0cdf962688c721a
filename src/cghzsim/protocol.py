"""Builders for the concatenated-GHZ generation protocol and its targets.

The construction runs in two stages.  Stage one grows an N-mode GHZ-type
entangled coherent state by chaining beam-splitter + vacuum-herald +
split steps across N input coherent states.  Stage two turns each
surviving chain mode into an m-mode GHZ-type block the same way, one
logical qubit at a time, left to right.  Every selection heralds on "no
photon", so each step succeeds with probability 1/2 asymptotically and a
full (N, m) build carries N*m - 1 selections.

All intermediate states are regenerated from the primitive gate rules;
nothing is transcribed from closed-form displays.  The ideal targets the
circuits approximate are built here as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

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


def chain_mode_names(n: int) -> list[str]:
    """Names of the modes holding the stage-one chain, in chain order."""
    if n == 1:
        return ["s1"]
    names = ["s2", "c1"]
    for k in range(3, n + 1):
        names = names[:-1] + [f"s{k}", f"c{k - 1}"]
    return names


def build_ghz_chain(n: int, alpha: float) -> Circuit:
    """Circuit growing the n-mode GHZ-type chain (stage one).

    Each growth step interferes the current chain end with a fresh
    Hadamard-ed coherent state, heralds vacuum on the sum port, and
    splits the survivor back into two modes, extending the chain by one.
    """
    if n < 2:
        raise DomainError("the chain needs at least 2 modes")
    if not (math.isfinite(alpha) and alpha > 0):
        raise DomainError(f"alpha must be positive, got {alpha}")
    ins: list[Instruction] = [
        Prep("s1", complex(alpha)), Prep("s2", complex(alpha)),
        Hadamard("s1"), Hadamard("s2"),
        BeamSplitter("s1", "s2"), SelectVacuum("s1"), Split("s2", "c1"),
    ]
    end = "c1"
    for k in range(3, n + 1):
        src = f"s{k}"
        new = f"c{k - 1}"
        ins += [Prep(src, complex(alpha)), Hadamard(src),
                BeamSplitter(end, src), SelectVacuum(end), Split(src, new)]
        end = new
    return Circuit(alpha=alpha, instructions=tuple(ins))


def expand_logical(leaders: list[str], m: int, alpha: float,
                   temp_start: int = 1) -> list[Instruction]:
    """Stage-two fragment: grow each leader mode into an m-mode block.

    Per leader: one Hadamard on the leader, then m-1 rounds of
    {prep + Hadamard a fresh coherent state, beam-split against the
    block end, herald vacuum on the end, split the survivor}.  Block i
    ends up on modes q{i}_1 ... q{i}_m.  m = 1 needs no expansion and
    yields an empty fragment.
    """
    if m < 1:
        raise DomainError("m must be >= 1")
    if m == 1:
        return []
    ins: list[Instruction] = []
    temp = temp_start
    for i, leader in enumerate(leaders, start=1):
        ins.append(Hadamard(leader))
        end = leader
        for j in range(1, m):
            anc = f"q{i}_{j}"
            new = f"q{i}_{m}" if j == m - 1 else f"x{temp}"
            if j < m - 1:
                temp += 1
            ins += [Prep(anc, complex(alpha)), Hadamard(anc),
                    BeamSplitter(end, anc), SelectVacuum(end),
                    Split(anc, new)]
            end = new
    return ins


def build_cghz_circuit(params: ProtocolParams) -> Circuit:
    """Full two-stage generation circuit for the (n, m) target.

    Stage one builds the n-mode chain, stage two expands each chain mode
    into its m-mode block.  The degenerate (1, 1) build is a single
    preparation.  The result always passes static validation and carries
    exactly n*m - 1 vacuum selections.
    """
    n, m, alpha = params.n_logical, params.m_physical, params.alpha
    if n == 1:
        ins: list[Instruction] = [Prep("s1", complex(alpha))]
        leaders = ["s1"]
    else:
        chain = build_ghz_chain(n, alpha)
        ins = list(chain.instructions)
        leaders = chain_mode_names(n)
    ins += expand_logical(leaders, m, alpha)
    return Circuit(alpha=alpha, instructions=tuple(ins))
