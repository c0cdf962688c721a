import csv
import dataclasses
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

import cghzsim
from cghzsim import cli, parse
from cghzsim.analysis import SweepPoint
from cghzsim.cli import main


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_build_emits_parsable_circuit(capsys):
    code, out, err = run_cli(["build", "--n", "2", "--m", "2",
                              "--alpha", "2"], capsys)
    assert code == 0
    res = parse(out)
    assert res.ok
    assert res.circuit.alpha == 2.0


def test_build_to_file_and_run(tmp_path, capsys):
    path = tmp_path / "c.cir"
    code, _, _ = run_cli(["build", "--n", "2", "--m", "2", "--alpha", "2",
                          "-o", str(path)], capsys)
    assert code == 0
    code, out, err = run_cli(["run", str(path)], capsys)
    assert code == 0
    assert "p_success" in out


def test_run_json_payload(tmp_path, capsys):
    path = tmp_path / "c.cir"
    run_cli(["build", "--n", "2", "--m", "2", "--alpha", "3", "-o",
             str(path)], capsys)
    code, out, _ = run_cli(["run", str(path), "--mode", "exact", "--json"],
                           capsys)
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["p_success"] / 0.125 - 1) < 0.01
    assert payload["mode_order"] == ["q1_1", "q1_2", "q2_1", "q2_2"]
    assert len(payload["selections"]) == 3
    assert payload["final_state"]["mode_count"] == 4


def test_run_missing_file(capsys):
    code, _, err = run_cli(["run", "definitely_missing.cir"], capsys)
    assert code == 2
    assert "error" in err


def test_run_invalid_circuit_exits_three(tmp_path, capsys):
    path = tmp_path / "bad.cir"
    path.write_text("alpha 2.0\nbs a b\n")
    code, _, err = run_cli(["run", str(path)], capsys)
    assert code == 3
    assert "unbound" in err


@pytest.mark.parametrize("command", ["run", "oracle"])
def test_non_utf8_circuit_file_exits_three(tmp_path, capsys, command):
    path = tmp_path / "binary.cir"
    path.write_bytes(b"alpha 2.0\nprep a \xff\n")
    code, out, err = run_cli([command, str(path)], capsys)
    assert code == 3
    assert out == ""
    assert err.count("\n") == 1
    assert "not UTF-8 text" in err


@pytest.mark.parametrize("command", ["run", "oracle"])
def test_circuit_file_with_a_byte_order_mark_reads_as_without(
        tmp_path, capsys, command):
    plain, marked = tmp_path / "c.cir", tmp_path / "bom.cir"
    run_cli(["build", "--n", "2", "--m", "2", "--alpha", "2", "-o",
             str(plain)], capsys)
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    want = run_cli([command, str(plain)], capsys)
    assert want[0] == 0
    assert run_cli([command, str(marked)], capsys) == want


def test_usage_error_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run"])  # missing file argument
    assert exc.value.code == 1


def test_sweep_csv_grid(capsys):
    code, out, _ = run_cli(["sweep", "--n", "2", "--m", "2",
                            "--alpha", "1:4:0.5", "--format", "csv"], capsys)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["alpha", "n", "m", "mode", "fidelity",
                       "p_success_sim", "p_success_theory",
                       "false_vacuum_total", "term_count"]
    assert len(rows) == 1 + 7
    assert [r[0] for r in rows[1:]] == ["1.0", "1.5", "2.0", "2.5", "3.0",
                                        "3.5", "4.0"]


def test_sweep_csv_header_is_the_point_dict_keys(capsys):
    # every point fails the size cap, so only the header is written
    code, out, _ = run_cli(["sweep", "--n", "5", "--m", "5",
                            "--alpha", "2", "--format", "csv"], capsys)
    assert code == 2
    point = SweepPoint(alpha=2.0, n_logical=2, m_physical=2, fidelity=1.0,
                       p_success_sim=0.125, p_success_theory=0.125,
                       false_vacuum_total=0.0, term_count=4,
                       selection_mode="branch")
    assert list(csv.reader(io.StringIO(out))) == [list(point.as_dict())]


def test_sweep_json_matches_csv_numbers(capsys):
    code, csv_out, _ = run_cli(["sweep", "--n", "2", "--m", "2",
                                "--alpha", "1:2:0.5"], capsys)
    assert code == 0
    code, json_out, _ = run_cli(["sweep", "--n", "2", "--m", "2",
                                 "--alpha", "1:2:0.5", "--format", "json"],
                                capsys)
    assert code == 0
    payload = json.loads(json_out)
    assert payload["version"] == 1
    rows = list(csv.reader(io.StringIO(csv_out)))
    header = rows[0]
    assert len(payload["points"]) == len(rows) - 1
    for row, point in zip(rows[1:], payload["points"]):
        for key, text in zip(header, row):
            value = point[key]
            if isinstance(value, float):
                assert repr(value) == text
            else:
                assert str(value) == text


def test_sweep_single_alpha_value(capsys):
    code, out, _ = run_cli(["sweep", "--n", "1", "--m", "2",
                            "--alpha", "2.0"], capsys)
    assert code == 0
    assert len(out.strip().splitlines()) == 2


def test_sweep_bad_range_is_usage_error(capsys):
    code, _, err = run_cli(["sweep", "--n", "2", "--m", "2",
                            "--alpha", "3:1:0.5"], capsys)
    assert code == 1
    assert "range" in err
    code, _, err = run_cli(["sweep", "--n", "2", "--m", "2",
                            "--alpha", "1:2"], capsys)
    assert code == 1
    assert "alpha range must be START:STOP:STEP" in err


@pytest.mark.parametrize("spec", ["1:inf:1", "1:nan:1", "inf:1:0.5",
                                  "1:2:inf", "nan", "0:1e308:1e-308"])
def test_sweep_non_finite_range_is_usage_error(capsys, spec):
    code, out, err = run_cli(["sweep", "--n", "2", "--m", "2",
                              "--alpha", spec], capsys)
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1
    assert f"alpha range {spec!r}" in err


def test_sweep_range_of_the_bound_parses_and_one_more_is_refused():
    bound = cli.MAX_ALPHA_VALUES
    assert len(cli._parse_alpha_range(f"0:{bound - 1}:1")) == bound
    with pytest.raises(ValueError, match=f"has {bound + 1} values"):
        cli._parse_alpha_range(f"0:{bound}:1")


# The child caps its own address space before it imports anything, so a
# range that would be built in full fails there and not in the test process.
HUGE_SWEEP_CHILD = """
import resource, sys
hard = resource.getrlimit(resource.RLIMIT_AS)[1]
cap = 1 << 30 if hard == resource.RLIM_INFINITY else min(1 << 30, hard)
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
sys.path.insert(0, sys.argv[1])
from cghzsim.cli import main
sys.exit(main(["sweep", "--n", "1", "--m", "2", "--alpha", "1:1e12:1"]))
"""


def test_huge_sweep_range_is_refused_before_it_is_built():
    src = str(Path(cghzsim.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", HUGE_SWEEP_CHILD, src],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "alpha range '1:1e12:1' has 1000000000000 values" in proc.stderr
    assert "Traceback" not in proc.stderr


# Caps the child's address space argv[2] MiB above what it maps when this
# runs.  The child imports the package from argv[1] first, so a run whose
# state outgrows the cap runs out of memory partway, and not in the test
# process.
CAP_ADDRESS_SPACE = """
with open("/proc/self/status") as f:
    vm_kb = int(re.search(r"VmSize:\\s+(\\d+) kB", f.read()).group(1))
hard = resource.getrlimit(resource.RLIMIT_AS)[1]
cap = (vm_kb << 10) + (int(sys.argv[2]) << 20)
cap = cap if hard == resource.RLIM_INFINITY else min(cap, hard)
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
"""
OUT_OF_MEMORY_CHILD = """
import re, resource, sys
sys.path.insert(0, sys.argv[1])
from cghzsim.cli import main
""" + CAP_ADDRESS_SPACE + """
sys.exit(main(sys.argv[3:]))
"""


def run_out_of_memory(headroom_mib, argv):
    """Run the CLI on argv in a child process whose address space is
    capped headroom_mib MiB above its size after import; the child must
    exit 2 with an "out of memory" error and no traceback."""
    src = str(Path(cghzsim.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", OUT_OF_MEMORY_CHILD, src,
                           str(headroom_mib), *argv],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 2, proc.stderr
    assert "out of memory" in proc.stderr
    assert "Traceback" not in proc.stderr
    return proc.stderr


needs_vm_size = pytest.mark.skipif(
    not Path("/proc/self/status").exists(),
    reason="reads VmSize from /proc/self/status")


@needs_vm_size
def test_running_out_of_memory_mid_run_exits_two(tmp_path):
    # each Hadamard on a fresh mode doubles the terms: 2^24 rows of 24
    # labels (3 GiB) by the end, past the cap from about 2^18 on
    modes = [f"q{i}" for i in range(24)]
    path = tmp_path / "wide.cir"
    path.write_text("alpha 2.0\n" + "".join(f"prep {q} +\n" for q in modes)
                    + "".join(f"h {q}\n" for q in modes))
    err = run_out_of_memory(64, ["run", str(path), "--mode", "exact"])
    assert err.startswith("cghzsim run: error: instruction ")


# 8 MiB fails in ideal_cghz_state's choice table, with NumPy's message;
# 64 MiB fails later, in the JSON payload, with a bare MemoryError
@needs_vm_size
@pytest.mark.parametrize("headroom_mib", [8, 64])
def test_running_out_of_memory_outside_a_run_exits_two(headroom_mib):
    err = run_out_of_memory(headroom_mib, ["target", "--n", "16", "--m", "1",
                                           "--alpha", "2", "--json"])
    assert err.startswith("cghzsim target: error: out of memory")
    assert err.count("\n") == 1


# Calls the library function named by argv[3] on a small input, which
# leaves lazy set-up such as BLAS buffers done, then caps the address
# space and calls it on an input whose arrays outgrow the cap; prints the
# ResourceLimitError it must raise.
LIBRARY_OUT_OF_MEMORY_CHILD = """
import re, resource, sys
sys.path.insert(0, sys.argv[1])
import cghzsim as cg
P = cg.ProtocolParams
small = cg.ideal_cghz_state(P(2, 2, 2.0))
wide = cg.ideal_cghz_state(P(14, 1, 2.0))
call = {
    "ideal_cghz_state": lambda big: cg.ideal_cghz_state(P(16 if big else 2,
                                                          1, 2.0)),
    "fidelity": lambda big: cg.fidelity(*[wide if big else small] * 2),
    "csstate_to_fock": lambda big: cg.csstate_to_fock(small,
                                                      60 if big else 20),
}[sys.argv[3]]
call(False)
""" + CAP_ADDRESS_SPACE + """
try:
    call(True)
except cg.ResourceLimitError as exc:
    print(exc)
"""


# ideal (16,1) needs an 8 MiB choice table, fidelity of the 32768-term
# (14,1) target with itself 8 MiB Gram blocks, and a 4-mode tensor at
# n_max 60 106 MiB
@needs_vm_size
@pytest.mark.parametrize("name", ["ideal_cghz_state", "fidelity",
                                  "csstate_to_fock"])
def test_running_out_of_memory_in_the_library_is_a_resource_limit(name):
    src = str(Path(cghzsim.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", LIBRARY_OUT_OF_MEMORY_CHILD,
                           src, "8", name],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("out of memory: ")
    assert proc.stderr == ""


def test_target_json(capsys):
    code, out, _ = run_cli(["target", "--n", "2", "--m", "2", "--alpha",
                            "2", "--json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["mode_count"] == 4
    assert len(payload["terms"]) == 8


def test_target_text_mentions_theory_probability(capsys):
    code, out, _ = run_cli(["target", "--n", "2", "--m", "3",
                            "--alpha", "2"], capsys)
    assert code == 0
    assert "0.03125" in out


def test_oracle_reports_agreement(tmp_path, capsys):
    path = tmp_path / "c.cir"
    run_cli(["build", "--n", "2", "--m", "2", "--alpha", "1", "-o",
             str(path)], capsys)
    code, out, _ = run_cli(["oracle", str(path), "--nmax", "40"], capsys)
    assert code == 0
    assert "agreement within 1e-6: yes" in out


@pytest.mark.parametrize("text", ["alpha 1.0\n",
                                  "alpha 1.0\nprep a +\nselect0 a\n"],
                         ids=["empty", "select-only-mode"])
def test_oracle_agrees_on_a_circuit_that_ends_with_no_mode(tmp_path, capsys,
                                                          text):
    path = tmp_path / "zero.cir"
    path.write_text(text)
    code, out, err = run_cli(["oracle", str(path)], capsys)
    assert code == 0, err
    assert "modes: \n" in out
    assert "agreement within 1e-6: yes" in out


def test_oracle_disagreement_exits_two(tmp_path, capsys):
    # |4 sqrt2> after the first splitter does not fit below 40 photons;
    # the Hadamard checks that leak before it renormalizes, so the oracle
    # refuses the cutoff typed instead of comparing a lossy state
    path = tmp_path / "lossy.cir"
    path.write_text("alpha 4.0\nprep a +\nprep b +\nbs a b\nbs a b\n"
                    "h a\n")
    code, out, err = run_cli(["oracle", str(path), "--nmax", "40"], capsys)
    assert code == 2
    assert "instruction 4: cutoff 40 loses 0.0707 of the norm" in err
    assert "agreement" not in out


def test_oracle_gates_a_tiny_p_success_relative_to_its_size(
        tmp_path, capsys, monkeypatch):
    # p_success is about 1.9e-22 here: an oracle 7.8 % high differs by
    # 1.5e-23, far below any absolute tolerance, and still disagrees
    path = tmp_path / "faint.cir"
    path.write_text("alpha 5.0\nprep a 5\nprep b -5\nbs a b\n"
                    "select0 b\n")
    run_fock = cli.run_fock

    def high(circuit, n_max):
        res = run_fock(circuit, n_max=n_max)
        return dataclasses.replace(res, p_success=1.078 * res.p_success)

    code, out, _ = run_cli(["oracle", str(path), "--nmax", "100"], capsys)
    assert code == 0
    assert "agreement within 1e-6: yes" in out
    monkeypatch.setattr(cli, "run_fock", high)
    code, out, _ = run_cli(["oracle", str(path), "--nmax", "100"], capsys)
    assert code == 2
    assert "agreement within 1e-6: NO" in out
    p = [float(line.split()[-1]) for line in out.splitlines()
         if line.startswith("p_success")]
    assert p[0] < 1e-21
    assert p[1] / p[0] == pytest.approx(1.078, rel=1e-6)


def test_oracle_refuses_a_leak_past_the_cutoff(tmp_path, capsys):
    # without the Hadamard the leak reaches the final renormalization
    path = tmp_path / "lossy.cir"
    path.write_text("alpha 4.0\nprep a +\nprep b +\nbs a b\nbs a b\n")
    code, out, err = run_cli(["oracle", str(path), "--nmax", "40"], capsys)
    assert code == 2
    assert out == ""
    assert err == ("cghzsim oracle: error: cutoff 40 loses 0.0707 of the "
                   "norm since the state was last renormalized\n")


def test_oracle_rejects_wide_circuit(tmp_path, capsys):
    # six live modes at n_max 20 exceed the byte budget; 19 is the largest
    # cutoff that fits
    path = tmp_path / "wide.cir"
    run_cli(["build", "--n", "2", "--m", "3", "--alpha", "1", "-o",
             str(path)], capsys)
    code, _, err = run_cli(["oracle", str(path), "--nmax", "20"], capsys)
    assert code == 2
    assert err.count("\n") == 1
    assert "largest n_max that fits 6 modes is 19" in err


def test_oracle_refuses_oversized_tensor(tmp_path, capsys):
    # 201^4 amplitudes are 24.3 GiB: refused typed, never allocated
    path = tmp_path / "c.cir"
    run_cli(["build", "--n", "2", "--m", "2", "--alpha", "2", "-o",
             str(path)], capsys)
    code, _, err = run_cli(["oracle", str(path), "--nmax", "200"], capsys)
    assert code == 2
    assert err.count("\n") == 1
    assert err.startswith("cghzsim oracle: error: ")
    assert "GiB" in err


def test_oracle_refuses_before_the_analytic_run(tmp_path, capsys,
                                                monkeypatch):
    path = tmp_path / "c.cir"
    run_cli(["build", "--n", "2", "--m", "2", "--alpha", "2", "-o",
             str(path)], capsys)

    def no_run(*args):
        raise AssertionError("analytic run before the oracle's byte check")

    monkeypatch.setattr(cli, "run", no_run)
    code, _, err = run_cli(["oracle", str(path), "--nmax", "200"], capsys)
    assert code == 2
    assert err.count("\n") == 1
    assert "GiB" in err


def test_oracle_refuses_a_cutoff_below_one(tmp_path, capsys):
    # the cutoff is an argument error, not a failing instruction
    path = tmp_path / "c22.cir"
    run_cli(["build", "--n", "2", "--m", "2", "--alpha", "2", "-o",
             str(path)], capsys)
    code, _, err = run_cli(["oracle", str(path), "--nmax", "0"], capsys)
    assert code == 2
    assert err == "cghzsim oracle: error: n_max must be >= 1\n"


def test_nm_cap_env_override(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CGHZ_MAX_NM", "4")
    code, _, err = run_cli(["build", "--n", "3", "--m", "2",
                            "--alpha", "2"], capsys)
    assert code == 2
    assert "cap" in err
    monkeypatch.setenv("CGHZ_MAX_NM", "20")
    code, out, _ = run_cli(["build", "--n", "5", "--m", "4",
                            "--alpha", "2"], capsys)
    assert code == 0
    assert parse(out).ok
    monkeypatch.setenv("CGHZ_MAX_NM", "banana")
    code, _, err = run_cli(["build", "--n", "2", "--m", "2",
                            "--alpha", "2"], capsys)
    assert code == 2
    monkeypatch.setenv("CGHZ_MAX_NM", "0")
    code, _, err = run_cli(["build", "--n", "1", "--m", "1",
                            "--alpha", "2"], capsys)
    assert code == 2
    assert err == "cghzsim build: error: CGHZ_MAX_NM=0 must be >= 1\n"
