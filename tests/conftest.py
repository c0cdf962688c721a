import numpy as np
import pytest

from cghzsim import CsState, normalize, state_norm
from cghzsim.coherent import _code_labels, _mode_groups, ghz_norm, merge_terms
from cghzsim.engine import BeamSplitter, Hadamard, Prep, SelectVacuum, Split
from cghzsim.fock import _hadamard_factors, coherent_fock
from cghzsim.optics import apply_bs, apply_hadamard, split_mode


def coherent_overlap(a, b):
    """<a|b> of two single-mode coherent states, one pair at a time:
    exp(-(|a|^2 + |b|^2)/2 + conj(a) b) in one exponential, the scalar
    reference for the Gram kernels."""
    a, b = complex(a), complex(b)
    expo = -0.5 * (a.real * a.real + a.imag * a.imag
                   + b.real * b.real + b.imag * b.imag) + a.conjugate() * b
    return complex(np.exp(expo))


def label_groups(amps):
    """The mode groups of ``state_norm``'s factored sum over the label
    rows amps, coded on their own (see ``coherent._mode_groups``)."""
    return _mode_groups(_code_labels(amps), amps.dtype.kind == "c")


def coherent_product(amps):
    """The one-term product coherent state |a_1>...|a_M> (unit norm)."""
    return CsState([1.0], [list(amps)])


def hadamard_matrix(alpha_ref, n_max):
    """The oracle's coherent-qubit Hadamard as a dense (n_max+1)^2
    matrix: the product ``cats @ duals`` of its cached factors."""
    cats, duals = _hadamard_factors(alpha_ref, n_max)
    return cats @ duals


def false_vacuum_weights(circuit):
    """Step a circuit through the optics primitives one instruction at a
    time, with branch selection written out by hand, merging after every
    instruction; return the false-vacuum weight of each selection, the
    silent-heralding weight sum |c|^2 exp(-|a|^2) of its non-vacuum terms
    relative to the state's squared norm."""
    state = CsState(np.ones(1), np.zeros((1, 0)))
    order, weights = [], []
    for ins in circuit.instructions:
        if isinstance(ins, Prep):
            col = np.full((state.term_count, 1), complex(ins.amp))
            state = CsState(state.coeffs,
                            np.concatenate([state.amps, col], axis=1))
            order.append(ins.mode)
        elif isinstance(ins, Hadamard):
            ref = circuit.alpha if ins.alpha_ref is None else ins.alpha_ref
            state = normalize(apply_hadamard(
                state, order.index(ins.mode), ref))
        elif isinstance(ins, BeamSplitter):
            state = apply_bs(state, order.index(ins.mode_a),
                             order.index(ins.mode_b))
        elif isinstance(ins, Split):
            state = split_mode(state, order.index(ins.mode))
            order.append(ins.new_mode)
        elif isinstance(ins, SelectVacuum):
            i = order.index(ins.mode)
            labels = state.amps[:, i]
            dead = np.abs(labels) > 1e-9
            weights.append(float(np.sum(
                np.abs(state.coeffs[dead]) ** 2
                * np.exp(-np.abs(labels[dead]) ** 2)))
                / state_norm(state) ** 2)
            cols = [k for k in range(state.mode_count) if k != i]
            state = normalize(CsState(state.coeffs[~dead],
                                      state.amps[~dead][:, cols]))
            order.pop(i)
        state = merge_terms(state)
    return weights


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


def complex_twin(s):
    """s with both arrays stored as complex128 whatever its data: the
    reference that a real state's float64 arithmetic is checked against."""
    return CsState._adopt(s.coeffs.astype(complex), s.amps.astype(complex))


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
