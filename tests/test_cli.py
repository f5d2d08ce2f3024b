import itertools
import json
import random
from fractions import Fraction

from oracles import de_bruijn_word
from shiftopt.cli import main
from shiftopt.potentials import (LocallyConstantPotential, canonical_a2,
                                 constant, leplaideur_member, save_potential)

F = Fraction


def _windows(word, k):
    p = len(word)
    return {tuple(word[(i + t) % p] for t in range(k)) for i in range(p)}


def _hamiltonian(k):
    """0 on the windows of a de Bruijn cycle, -1 elsewhere: its unique
    maximizing orbit visits all 2^(k-1) nodes."""
    edges = _windows(de_bruijn_word(k - 1), k)
    return LocallyConstantPotential(2, k, tuple(
        F(0) if w in edges else F(-1)
        for w in itertools.product((0, 1), repeat=k)))


def _planted(rng, k, word):
    """Random values, with the windows of `word` (a simple cycle) raised
    above all of them: the word spells the unique maximizing orbit."""
    values = [F(rng.randrange(-16, 17), rng.choice((1, 2, 4, 8)))
              for _ in range(2 ** k)]
    top = max(values) + F(1, 16)
    edges = _windows(word, k)
    return LocallyConstantPotential(2, k, tuple(
        top if w in edges else v
        for w, v in zip(itertools.product((0, 1), repeat=k), values)))


def _fixtures(tmp_path):
    paths = {}
    paths["a2"] = tmp_path / "a2.pot"
    save_potential(canonical_a2(), paths["a2"])
    paths["const"] = tmp_path / "const.pot"
    save_potential(constant(2, 2), paths["const"])
    paths["d1"] = tmp_path / "d1.pot"
    save_potential(LocallyConstantPotential(2, 1, (F(0), F(-1))), paths["d1"])
    paths["d3"] = tmp_path / "d3.pot"
    save_potential(LocallyConstantPotential(3, 1, (F(0), F(-1), F(-2))), paths["d3"])
    paths["fam"] = tmp_path / "fam.pot"
    save_potential(leplaideur_member(1, F(1, 2), 4), paths["fam"])
    paths["broken"] = tmp_path / "broken.pot"
    paths["broken"].write_text("alphabet_size: 2\nvalues:\n  00: huh\n")
    return paths


def run(capsys, argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- analyze -------------------------------------------------------------------

def test_analyze_canonical(tmp_path, capsys):
    p = _fixtures(tmp_path)
    code, out, err = run(capsys, ["analyze", p["a2"]])
    assert code == 0 and err == ""
    assert "maximizing mean value m = 0" in out
    assert "gamma = 1" in out
    assert "turning cut: (0(1) | 1(0))" in out
    assert "optimal cost = -1/2 via permutation 1,0" in out
    assert "support is a permutation: yes" in out


def test_analyze_artifacts_deterministic(tmp_path, capsys):
    p = _fixtures(tmp_path)
    blobs = []
    for name in ("one", "two"):
        out_dir = tmp_path / name
        code, _, _ = run(capsys, ["analyze", p["a2"], "--out", out_dir])
        assert code == 0
        blobs.append({f.name: f.read_bytes() for f in sorted(out_dir.iterdir())})
    assert blobs[0] == blobs[1]
    assert set(blobs[0]) == {"analysis.json", "b_table.csv", "intervals.txt",
                             "summary.txt", "transport_plan.csv"}
    doc = json.loads(blobs[0]["analysis.json"])
    assert doc["mean"] == "0"
    assert doc["gamma"] == "1"
    assert doc["transport_cost"] == "-1/2"
    assert doc["transport_permutation"] == [1, 0]
    assert doc["turning_cut"] == "(0(1) | 1(0))"


def test_analyze_base_point_flag(tmp_path, capsys):
    p = _fixtures(tmp_path)
    code, out, _ = run(capsys, ["analyze", p["a2"], "--base-point", "(1)"])
    assert code == 0
    assert "gamma = 0, base point (1)" in out


def test_analyze_non_unique_exits_3(tmp_path, capsys):
    p = _fixtures(tmp_path)
    code, _, err = run(capsys, ["analyze", p["const"]])
    assert code == 3
    assert err.startswith("precondition not met:")


def test_analyze_non_unique_names_critical_classes(tmp_path, capsys):
    p = _fixtures(tmp_path)
    code, out, _ = run(capsys, ["analyze", p["const"]])
    assert code == 3
    assert ("[maxplus] critical edges: 4, critical nodes: 2, "
            "critical classes: 1") in out.splitlines()
    code, out, _ = run(capsys, ["analyze", p["a2"]])
    assert code == 0
    assert ("[maxplus] critical edges: 2, critical nodes: 2, orbits: 1"
            in out.splitlines())


def test_analyze_hamiltonian_d11_names_the_report_limit(tmp_path, capsys):
    # a 1024-edge maximizing orbit once overflowed the recursive orbit
    # enumeration with a RecursionError
    path = tmp_path / "ham11.pot"
    save_potential(_hamiltonian(11), path)
    code, out, err = run(capsys, ["analyze", path])
    assert code == 3 and out == ""
    assert err == ("precondition not met: duality report is quadratic in "
                   "nodes; 1024 exceeds 256\n")


def test_analyze_three_letters_stops_at_twist(tmp_path, capsys):
    p = _fixtures(tmp_path)
    code, out, err = run(capsys, ["analyze", p["d3"]])
    assert code == 3
    # the exact pipeline still prints everything up to the pairing step
    assert "maximizing mean value m = " in out
    assert "gamma = " in out
    assert "stopped" in out
    assert err.startswith("precondition not met:")


def test_depth_reprojection(tmp_path, capsys):
    p = _fixtures(tmp_path)
    # the family document regenerates its table at the requested depth
    code, out, _ = run(capsys, ["scan", p["fam"], "--depth", "6",
                                "--betas", "1,2"])
    assert code == 0
    assert "maximizing mean value m = 0" in out
    # a plain table carries no generating family, so there is nothing to reproject
    code, _, err = run(capsys, ["analyze", p["a2"], "--depth", "3"])
    assert code == 3
    assert err.startswith("precondition not met:")


def test_parse_failure_exits_2(tmp_path, capsys):
    p = _fixtures(tmp_path)
    code, _, err = run(capsys, ["analyze", p["broken"]])
    assert code == 2
    assert err.startswith("error:")
    code, _, err = run(capsys, ["analyze", tmp_path / "missing.pot"])
    assert code == 2


# -- scan ------------------------------------------------------------------------

def test_scan_default_ladder(tmp_path, capsys):
    p = _fixtures(tmp_path)
    code, out, _ = run(capsys, ["scan", p["a2"]])
    assert code == 0
    lines = out.splitlines()
    header = lines[lines.index("beta,pressure_over_beta,subaction_gap,tv_distance")]
    rows = lines[lines.index(header) + 1:]
    assert len(rows) == 7
    assert [r.split(",")[0] for r in rows] == ["1", "2", "4", "8", "16", "32", "64"]
    gaps = [float(r.split(",")[1]) for r in rows]
    assert all(a > b for a, b in zip(gaps, gaps[1:])) or gaps[-1] == 0


def test_scan_custom_betas_and_out(tmp_path, capsys):
    p = _fixtures(tmp_path)
    out_dir = tmp_path / "scanout"
    code, _, _ = run(capsys, ["scan", p["a2"], "--betas", "1,2",
                              "--beta", "4", "--out", out_dir])
    assert code == 0
    text = (out_dir / "scan.csv").read_text()
    assert text.splitlines()[0] == "beta,pressure_over_beta,subaction_gap,tv_distance"
    assert len(text.splitlines()) == 4


def test_scan_constant_depth_6_answers(tmp_path, capsys):
    # every cycle of the zero potential maximizes; the scan needs only
    # m and V, and once refused at the orbit-enumeration limit
    path = tmp_path / "const6.pot"
    save_potential(constant(2, 6), path)
    code, out, err = run(capsys, ["scan", path])
    assert code == 0 and err == ""
    assert "maximizing mean value m = 0" in out
    assert "orbit-measure comparison skipped" in out


def test_scan_non_unique_drops_tv_column(tmp_path, capsys):
    p = _fixtures(tmp_path)
    code, out, _ = run(capsys, ["scan", p["const"]])
    assert code == 0
    assert "orbit-measure comparison skipped" in out
    assert "tv_distance" not in out
    assert "beta,pressure_over_beta,subaction_gap" in out


# -- verify ----------------------------------------------------------------------

def test_verify_canonical_all_ok(tmp_path, capsys):
    p = _fixtures(tmp_path)
    code, out, _ = run(capsys, ["verify", p["a2"]])
    assert code == 0
    assert "[FAIL]" not in out
    assert out.rstrip().endswith("all identities hold")


def test_verify_planted_depth_7_all_ok(tmp_path, capsys):
    # the double-dual line runs is_coboundary on a coboundary, where
    # every edge is critical; it once refused at the orbit limit
    path = tmp_path / "planted7.pot"
    save_potential(_planted(random.Random(3), 7, (0, 0, 1)), path)
    code, out, err = run(capsys, ["verify", path])
    assert code == 0 and err == ""
    status = [ln for ln in out.splitlines() if ln.startswith("  [")]
    assert len(status) == 9
    assert all(ln.startswith("  [ok ]") for ln in status[:-1])
    assert "double dual returns modulo coboundary" in out
    assert out.rstrip().endswith("all identities hold")


def test_verify_depth_one_notes_skip(tmp_path, capsys):
    p = _fixtures(tmp_path)
    code, out, _ = run(capsys, ["verify", p["d1"]])
    assert code == 0
    assert "twist chain skipped" in out


def test_verify_corrupted_kernel_names_witness(tmp_path, capsys):
    p = _fixtures(tmp_path)
    code, out, _ = run(capsys, ["verify", p["a2"], "--corrupt-w"])
    assert code == 4
    assert "[FAIL] fundamental relation (with corrupted kernel)" in out
    assert "witness: FR at x-node" in out
    assert "verification FAILED" in out


def test_verify_writes_report(tmp_path, capsys):
    p = _fixtures(tmp_path)
    out_dir = tmp_path / "vr"
    code, out, _ = run(capsys, ["verify", p["a2"], "--out", out_dir])
    assert code == 0
    text = (out_dir / "verify.txt").read_text()
    assert "[FAIL]" not in text
    assert "subaction calibration" in text
    assert "transport optimum" in text


# -- suite -----------------------------------------------------------------------

def test_suite_writes_csv(tmp_path, capsys):
    p = _fixtures(tmp_path)
    out_dir = tmp_path / "sx"
    code, out, _ = run(capsys, ["suite", "--seed", "1", "--samples", "6",
                                "--depth", "2", "--out", out_dir])
    assert code == 0
    text = (out_dir / "suite.csv").read_text()
    assert text.startswith("index,unique,")
    assert "summary,flag,satisfied,total" in text
    assert "6" in out


def test_suite_no_perturb_matches_library(tmp_path, capsys):
    code, out, _ = run(capsys, ["suite", "--seed", "1", "--samples", "30",
                                "--depth", "1", "--no-perturb"])
    assert code == 0
    assert "unique" in out
    assert "28" in out


# -- unreadable flag values exit 2, naming the flag ------------------------------

def test_suite_bad_eps_exits_2(tmp_path, capsys):
    for text in ("abc", "1/0"):
        code, out, err = run(capsys, ["suite", "--samples", "2", "--eps", text])
        assert code == 2 and out == ""
        assert err == f"error: --eps: cannot read {text!r}\n"


def test_scan_bad_betas_exits_2(tmp_path, capsys):
    p = _fixtures(tmp_path)
    for argv in (["--betas", "x"], ["--betas", "1,2,y"], ["--beta", "x"]):
        code, out, err = run(capsys, ["scan", p["a2"], *argv])
        assert code == 2 and out == ""
        assert err.startswith("error: --betas/--beta: cannot read ")
