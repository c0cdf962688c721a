"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Every tolerance is pinned here; nothing is deferred to calibration.
"""

import json
import math
import subprocess
import sys
import time
from pathlib import Path

import cghzsim
import numpy as np
from cghzsim import (
    CsState,
    ProtocolParams,
    SelectionMode,
    build_cghz_circuit,
    csstate_to_fock,
    fidelity,
    fock_fidelity,
    ideal_cghz_state,
    parse,
    run,
    run_fock,
    serialize,
    state_inner,
    state_norm,
    theoretical_p,
)
from cghzsim.coherent import cat_norm, ghz_norm
from cghzsim.optics import apply_bs, apply_hadamard
from conftest import (
    coherent_product,
    false_vacuum_weights,
    random_complex,
    random_state,
)

BRANCH = SelectionMode.branch()
EXACT = SelectionMode.exact()


def report(name: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_formula_reproduction():
    ok = theoretical_p(2, 2) == 0.125 and theoretical_p(2, 3) == 0.03125
    report("formula-reproduction", ok,
           f"p(2,2)={theoretical_p(2, 2)!r} p(2,3)={theoretical_p(2, 3)!r}")


def test_normalization_constants():
    worst = 0.0
    for alpha in (0.5, 1.0, 2.0, 5.0, 10.0):
        q = math.exp(-2.0 * alpha * alpha)
        pairs = [
            (cat_norm(alpha, 1), (1 + q) ** -0.5),
            (cat_norm(alpha, -1), (1 - q) ** -0.5),
        ]
        for k in range(1, 9):
            qk = math.exp(-2.0 * k * alpha * alpha)
            pairs.append((ghz_norm(k, alpha, 1),
                          (2 * (1 + qk)) ** -0.5))
            pairs.append((ghz_norm(k, alpha, -1),
                          (2 * (1 - qk)) ** -0.5))
        worst = max(worst, max(abs(a - b) for a, b in pairs))
    report("normalization-constants", worst <= 1e-12,
           f"max |deviation| = {worst:.3e} (tolerance 1e-12)")


def test_protocol_convergence():
    margins = []
    ok = True
    for alpha in (1.5, 2.0, 2.5, 3.0):
        params = ProtocolParams(2, 2, alpha)
        r = run(build_cghz_circuit(params), BRANCH)
        infidelity = 1.0 - fidelity(r.final_state, ideal_cghz_state(params))
        bound = 10.0 * math.exp(-2.0 * alpha * alpha)
        margins.append(f"a={alpha}: 1-F={infidelity:.3e} <= {bound:.3e}")
        ok = ok and infidelity <= bound
    report("protocol-convergence", ok, "; ".join(margins))


def _losses(n, m, alpha):
    """1 - F of the branch and exact runs of one build against its target."""
    params = ProtocolParams(n, m, alpha)
    circuit = build_cghz_circuit(params)
    target = ideal_cghz_state(params)
    return {sel.kind: 1.0 - fidelity(run(circuit, sel).final_state, target)
            for sel in (BRANCH, EXACT)}


def test_infidelity_asymptotics():
    # exact 1 - F approaches K exp(-2 alpha^2) with K = 2 at (2,2) and
    # K = 3 at (3,2) (measured); branch 1 - F sits >= 1e3 below it.
    # (2,3) is left out here: its ratio is 2.69, 2.19, 2.05 at alpha 2,
    # 2.5, 3 and has not settled on a constant yet.
    lines = []
    ok = True
    for (n, m), k in (((2, 2), 2.0), ((3, 2), 3.0)):
        for alpha in (2.0, 2.5, 3.0):
            loss = _losses(n, m, alpha)
            margin = loss["exact"] / loss["branch"]
            line = f"({n},{m}) a={alpha}: exact/branch {margin:.3g}"
            ok = ok and margin >= 1e3
            if alpha >= 2.5:
                ratio = loss["exact"] / math.exp(-2.0 * alpha * alpha)
                line += f", exact/exp(-2a^2) {ratio:.5f} ~ {k:g}"
                ok = ok and abs(ratio / k - 1.0) <= 1e-2
            lines.append(line)
    # at alpha 3.5 every shape with n, m >= 2 and n*m <= 12 has settled:
    # K = n whatever m is (worst measured +0.72 % at (2,6)), and branch
    # 1 - F is at most 1e-3 of exact (worst 9.6e-6 at (2,6); it is often
    # exactly 0, so the margin is a product, not a quotient)
    alpha = 3.5
    for n in range(2, 7):
        for m in range(2, 12 // n + 1):
            loss = _losses(n, m, alpha)
            ratio = loss["exact"] / math.exp(-2.0 * alpha * alpha)
            lines.append(f"({n},{m}) a={alpha}: exact/exp(-2a^2) "
                         f"{ratio:.5f} ~ {n}, branch/exact "
                         f"{loss['branch'] / loss['exact']:.2g}")
            ok = (ok and abs(ratio / n - 1.0) <= 1e-2
                  and loss["branch"] <= 1e-3 * loss["exact"])
    report("infidelity-asymptotics", ok, "; ".join(lines))


def test_success_probability_convergence():
    checks = []
    ok = True
    for (n, m, alpha, tol) in ((2, 2, 3.0, 1e-2), (2, 2, 4.0, 1e-4),
                               (2, 3, 3.0, 1e-2)):
        r = run(build_cghz_circuit(ProtocolParams(n, m, alpha)), EXACT)
        rel = abs(r.p_success / theoretical_p(n, m) - 1.0)
        checks.append(f"({n},{m}) a={alpha}: rel dev {rel:.2e} <= {tol:.0e}")
        ok = ok and rel <= tol
    report("success-probability-convergence", ok, "; ".join(checks))


def test_oracle_equivalence():
    lines = []
    ok = True
    for alpha in (0.8, 1.0, 1.5):
        params = ProtocolParams(2, 2, alpha)
        circuit = build_cghz_circuit(params)
        analytic = run(circuit, EXACT)
        numeric = run_fock(circuit, n_max=40)
        target = ideal_cghz_state(params)
        f_analytic = fidelity(analytic.final_state, target)
        f_numeric = fock_fidelity(csstate_to_fock(target, 40), numeric.final)
        df = abs(f_analytic - f_numeric)
        dp = abs(analytic.p_success - numeric.p_success)
        lines.append(f"a={alpha}: |dF|={df:.2e} |dp|={dp:.2e}")
        ok = ok and df <= 1e-6 and dp <= 1e-6
    report("oracle-equivalence", ok, "; ".join(lines))


def test_primitive_invariant_suite():
    rng = np.random.default_rng(1905)
    cases = 1000

    worst_bs_norm = 0.0
    worst_involution = 0.0
    for _ in range(cases):
        s = random_state(rng, max_terms=64, modes=int(rng.integers(2, 5)),
                         max_amp=4.0)
        out = apply_bs(s, 0, 1)
        worst_bs_norm = max(worst_bs_norm,
                            abs(state_norm(out) - state_norm(s)))
        back = apply_bs(out, 0, 1)
        worst_involution = max(worst_involution,
                               float(np.max(np.abs(back.amps - s.amps))))

    worst_h = 0.0
    for _ in range(cases):
        alpha = float(rng.uniform(0.5, 3.0))
        sign = 1.0 if rng.uniform() < 0.5 else -1.0
        out = apply_hadamard(coherent_product([sign * alpha]), 0, alpha)
        worst_h = max(worst_h, abs(state_norm(out) ** 2 - 1.0))

    worst_neg = 0.0
    worst_imag = 0.0
    for _ in range(cases):
        s = random_state(rng, max_terms=64, modes=int(rng.integers(1, 5)),
                         max_amp=4.0, normalized=True)
        if rng.uniform() < 0.3:
            # stress positivity with exactly cancelling superpositions
            s = CsState(np.concatenate([s.coeffs, -s.coeffs]),
                        np.concatenate([s.amps, s.amps]))
        g = state_inner(s, s)
        worst_neg = min(worst_neg, g.real)
        worst_imag = max(worst_imag, abs(g.imag))

    worst_conj = 0.0
    a = random_complex(rng, cases, 4.0)
    b = random_complex(rng, cases, 4.0)
    for x, y in zip(a, b):
        sx, sy = coherent_product([x]), coherent_product([y])
        worst_conj = max(worst_conj, abs(
            state_inner(sx, sy) - state_inner(sy, sx).conjugate()))

    ok = (worst_bs_norm <= 1e-10 and worst_involution <= 1e-12
          and worst_h <= 1e-12 and worst_neg >= -1e-12
          and worst_imag <= 1e-12 and worst_conj <= 1e-12)
    report("primitive-invariants", ok,
           f"bs-norm {worst_bs_norm:.1e}; involution {worst_involution:.1e};"
           f" h-norm {worst_h:.1e}; gram re>={worst_neg:.1e},"
           f" |im|<={worst_imag:.1e}; conj {worst_conj:.1e}"
           f" ({cases} cases each)")


def test_heralding_error_behavior():
    alphas = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0)
    totals = []
    for alpha in alphas:
        r = run(build_cghz_circuit(ProtocolParams(2, 2, alpha)), BRANCH)
        totals.append(r.total_false_vacuum)
    monotone = all(b < a for a, b in zip(totals, totals[1:]))

    # independent recomputation at alpha = 2 by stepping the primitives
    manual_total = sum(false_vacuum_weights(
        build_cghz_circuit(ProtocolParams(2, 2, 2.0))))
    engine_total = totals[3]  # alpha = 2.0 entry
    agree = abs(engine_total - manual_total) <= 1e-12

    report("heralding-error-behavior", monotone and agree,
           f"totals {['%.3e' % t for t in totals]} monotone={monotone}; "
           f"alpha=2 engine {engine_total:.6e} vs manual "
           f"{manual_total:.6e}")


def test_dsl_round_trip_and_fuzz():
    count = 0
    for n in range(1, 13):
        for m in range(1, 13):
            if n * m > 12:
                continue
            circuit = build_cghz_circuit(ProtocolParams(n, m, 1.7))
            res = parse(serialize(circuit))
            assert res.ok and res.circuit == circuit, (n, m)
            count += 1

    rng = np.random.default_rng(424242)
    base = serialize(build_cghz_circuit(ProtocolParams(2, 3, 2.0)))
    pool = list(base) + list("\x00\t\r\n#+-.eE0123456789iq_ ~!{}[]();\"'\\")
    crashes = 0
    for _ in range(10_000):
        text = list(base)
        for _ in range(int(rng.integers(1, 8))):
            op = rng.integers(0, 3)
            pos = int(rng.integers(0, max(1, len(text))))
            ch = pool[int(rng.integers(0, len(pool)))]
            if op == 0 and text:
                text[pos % len(text)] = ch
            elif op == 1:
                text.insert(pos, ch)
            elif text:
                del text[pos % len(text)]
        mutated = "".join(text)[:65536]
        try:
            res = parse(mutated)
            assert res is not None
        except Exception:  # noqa: BLE001 - the whole point of the fuzz
            crashes += 1
    report("dsl-round-trip-and-fuzz", crashes == 0,
           f"{count} builder circuits round-tripped; "
           f"10000 mutations, {crashes} crashes")


def test_scale_ceiling():
    t0 = time.perf_counter()
    circuit = build_cghz_circuit(ProtocolParams(3, 3, 2.0))
    result = run(circuit, BRANCH)
    elapsed = time.perf_counter() - t0
    ok = elapsed < 1.0 and result.max_term_count <= 2 ** 10
    report("scale-ceiling", ok,
           f"(3,3) built+ran in {elapsed * 1000:.0f} ms with max "
           f"{result.max_term_count} terms (limits: 1000 ms, 1024 terms)")


# The child caps its own address space before it imports anything, so the
# limit covers NumPy and BLAS too and never touches the test process.
EXACT_44_CHILD = """
import json, resource, sys
hard = resource.getrlimit(resource.RLIMIT_AS)[1]
cap = 4 << 30 if hard == resource.RLIM_INFINITY else min(4 << 30, hard)
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
sys.path.insert(0, sys.argv[1])
import cghzsim as cg
params = cg.ProtocolParams(4, 4, 2.0)
result = cg.run(cg.build_cghz_circuit(params), cg.SelectionMode.exact())
print(json.dumps({"terms": result.max_term_count, "p": result.p_success,
                  "f": cg.fidelity(result.final_state,
                                   cg.ideal_cghz_state(params))}))
"""


def test_exact_four_by_four_in_four_gigabytes():
    src = str(Path(cghzsim.__file__).resolve().parents[1])
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", EXACT_44_CHILD, src],
                          capture_output=True, text=True, timeout=600)
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    ok = (out["terms"] == 20736 and 0.0 < out["p"] < 1.0
          and 0.99 < out["f"] <= 1.0)
    report("exact-4x4-in-4GB", ok,
           f"{out['terms']} terms, F={out['f']:.6f}, p={out['p']:.4e} "
           f"in {elapsed:.1f} s under a 4 GB address-space cap")
