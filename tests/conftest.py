import numpy as np
import pytest

from cghzsim import CsState, normalize, state_norm
from cghzsim.coherent import coherent_overlap, ghz_norm, merge_terms
from cghzsim.fock import coherent_fock


def random_complex(rng, n, max_mag):
    """n complex numbers uniform in the disk of radius max_mag."""
    r = max_mag * np.sqrt(rng.uniform(0, 1, n))
    phi = rng.uniform(0, 2 * np.pi, n)
    return r * np.exp(1j * phi)


def random_state(rng, max_terms=64, modes=None, max_amp=4.0,
                 normalized=False):
    """Random coherent superposition; coefficients bounded by 1."""
    t = rng.integers(1, max_terms + 1)
    m = modes if modes is not None else int(rng.integers(1, 5))
    coeffs = random_complex(rng, t, 1.0)
    amps = random_complex(rng, t * m, max_amp).reshape(t, m)
    s = CsState(coeffs, amps)
    if normalized:
        if state_norm(s) < 1e-6:
            s = CsState(np.ones(1), amps[:1])
        s = normalize(s)
    return s


def hadamard_image(s, i, alpha):
    """The coherent-qubit Hadamard on mode i written term by term from its
    defining map, neither merged nor normalized: the in-span part of |b>
    is u |a> + v |-a>, with (u, v) solving the 2x2 Gram system, and
    |a> -> (|a> + |-a>) N/sqrt2, |-a> -> (|a> - |-a>) N'/sqrt2.  The +a
    rows come first, then the -a rows, each in input order."""
    gram = np.array([[1.0, coherent_overlap(alpha, -alpha)],
                     [coherent_overlap(-alpha, alpha), 1.0]])
    even, odd = ghz_norm(1, alpha, 1), ghz_norm(1, alpha, -1)
    coeffs, rows = [], []
    for sign in (1, -1):
        for c, row in zip(s.coeffs, s.amps):
            u, v = np.linalg.solve(gram, [coherent_overlap(alpha, row[i]),
                                          coherent_overlap(-alpha, row[i])])
            coeffs.append(c * (u * even + sign * v * odd))
            rows.append(np.concatenate([row[:i], [sign * alpha],
                                        row[i + 1:]]))
    return CsState(coeffs, rows)


def hadamard_reference(s, i, alpha):
    """hadamard_image merged and normalized by its Gram sum."""
    return normalize(merge_terms(hadamard_image(s, i, alpha)))


def fock_expansion_reference(s, n_max):
    """The number-basis tensor of s term by term: each term's coefficient
    times the outer product of its modes' truncated coherent vectors,
    accumulated one term at a time."""
    acc = np.zeros((n_max + 1,) * s.mode_count, dtype=np.complex128)
    for c, row in zip(s.coeffs, s.amps):
        piece = np.ones((), dtype=np.complex128)
        for a in row:
            piece = np.multiply.outer(piece, coherent_fock(a, n_max))
        acc += c * piece
    return acc


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)
