import hashlib
import json
import subprocess
import sys

from setopt.cli import run
from setopt.instance import from_json_dict, load
from setopt.solver_direct import solve_direct
from setopt.vectorizer import membership_vp


def test_example_then_solve_pipeline(tmp_path, capsys):
    inst_path = tmp_path / "i.json"
    out_path = tmp_path / "r.json"
    assert run(["example", "mfdvp", "-o", str(inst_path), "--exact"]) == 0
    assert run(["solve", "-i", str(inst_path), "--exact",
                "--concept", "type2", "--eps", "0",
                "-o", str(out_path)]) == 0
    captured = capsys.readouterr().out
    assert "members=['0', '1', '2']" in captured
    data = json.loads(out_path.read_text())
    assert data["members"] == ["0", "1", "2"]
    # CLI output matches a direct library call
    inst = load(inst_path, exact=True)
    assert data == solve_direct(inst, "type2", 0).to_json_dict()


def test_vectorize_matches_library(tmp_path):
    inst_path = tmp_path / "i.json"
    out_path = tmp_path / "v.json"
    run(["example", "mfdvp", "-o", str(inst_path), "--exact"])
    assert run(["vectorize", "-i", str(inst_path), "--exact", "--p", "2",
                "--kind", "weak", "-o", str(out_path)]) == 0
    inst = load(inst_path, exact=True)
    assert json.loads(out_path.read_text()) == \
        membership_vp(inst, 2, 0, "weak").to_json_dict()


def test_minimal_p_verb(tmp_path, capsys):
    inst_path = tmp_path / "i.json"
    run(["example", "mfdvp", "-o", str(inst_path), "--exact"])
    assert run(["minimal-p", "-i", str(inst_path), "--exact",
                "--x", "0", "--kind", "weak"]) == 0
    assert "p_star=2" in capsys.readouterr().out


def test_weighted_sum_and_covering(tmp_path, capsys):
    inst_path = tmp_path / "i.json"
    run(["example", "mfdvp", "-o", str(inst_path), "--exact"])
    assert run(["weighted-sum", "-i", str(inst_path), "--exact",
                "--p", "1", "--weights", "1,1"]) == 0
    out = capsys.readouterr().out
    assert "label=1" in out and "label=2" in out
    assert run(["covering-p", "-i", str(inst_path), "--exact",
                "--x", "0", "--eps", "1"]) == 0
    assert "p=2" in capsys.readouterr().out


def test_covering_bad_gamma_exit_two(tmp_path, capsys):
    inst_path = tmp_path / "i.json"
    run(["example", "mfdvp", "-o", str(inst_path), "--exact"])
    for exact in (["--exact"], []):
        for gamma in ("abc", "1/0"):
            assert run(["covering-p", "-i", str(inst_path), *exact,
                        "--x", "0", "--eps", "1", "--gamma", gamma]) == 2
            assert "error: bad rational literal" in capsys.readouterr().err


def test_discretize_and_distance(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run(["example", "random_finite", "--seed", "4", "-o", str(a), "--exact"])
    assert run(["discretize", "-i", str(a), "--exact", "--eps", "3/2",
                "-o", str(b)]) == 0
    assert run(["distance", str(a), str(b), "--exact"]) == 0
    out = capsys.readouterr().out
    assert "distance=" in out


def test_discretize_without_out_writes_instance_to_stdout(tmp_path, capsys):
    src = tmp_path / "a.json"
    dst = tmp_path / "b.json"
    run(["example", "random_finite", "--seed", "4", "-o", str(src), "--exact"])
    capsys.readouterr()
    argv = ["discretize", "-i", str(src), "--exact", "--eps", "1"]
    assert run(argv) == 0
    out = capsys.readouterr().out
    assert run(argv + ["-o", str(dst)]) == 0
    assert out == dst.read_text()
    assert from_json_dict(json.loads(out), exact=True) == load(dst, exact=True)


def test_plot_svg_structure(tmp_path):
    inst_path = tmp_path / "i.json"
    svg_path = tmp_path / "i.svg"
    run(["example", "mfdvp", "-o", str(inst_path), "--exact"])
    assert run(["plot", "-i", str(inst_path), "--exact",
                "-o", str(svg_path)]) == 0
    text = svg_path.read_text()
    assert text.startswith("<?xml")
    assert text.count("<circle") == 6  # three image sets, two points each
    assert 'version="1.1"' in text


def test_plot_byte_identical(tmp_path):
    inst_path = tmp_path / "i.json"
    run(["example", "t_one", "--g", "4", "-o", str(inst_path), "--exact"])
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    run(["plot", "-i", str(inst_path), "--exact", "-o", str(a)])
    run(["plot", "-i", str(inst_path), "--exact", "-o", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_reports_byte_identical(tmp_path):
    inst_path = tmp_path / "i.json"
    run(["example", "random_finite", "--seed", "6", "-o", str(inst_path),
         "--exact"])
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        run(["solve", "-i", str(inst_path), "--exact", "--concept", "weak",
             "--eps", "1/7", "-o", str(path)])
    assert a.read_bytes() == b.read_bytes()


def test_instance_files_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(["example", "cantor", "--T", "3", "--N", "4", "-o", str(a), "--exact"])
    run(["example", "cantor", "--T", "3", "--N", "4", "-o", str(b), "--exact"])
    assert a.read_bytes() == b.read_bytes()


def test_csv_output(tmp_path):
    inst_path = tmp_path / "i.json"
    csv_path = tmp_path / "r.csv"
    run(["example", "random_finite", "--seed", "3", "-o", str(inst_path),
         "--exact"])
    common = ["-i", str(inst_path), "--exact", "--eps", "1/2",
              "--csv", str(csv_path)]
    pinned = (
        (["solve"],
         b"label,member,concept,epsilon,threshold\n0,1,weak,1/2,0\n"
         b"1,1,weak,1/2,0\n2,0,weak,1/2,1\n3,1,weak,1/2,0\n"
         b"4,0,weak,1/2,1\n5,1,weak,1/2,0\n"),
        (["solve", "--concept", "type1"],
         b"label,member,concept,epsilon,threshold\n0,1,type1,1/2,\n"
         b"1,1,type1,1/2,\n2,0,type1,1/2,\n3,1,type1,1/2,\n"
         b"4,0,type1,1/2,\n5,1,type1,1/2,\n"),
        (["vectorize", "--p", "2", "--kind", "min"],
         b"label,member,kind,p,epsilon\n0,1,min,2,1/2\n1,1,min,2,1/2\n"
         b"2,0,min,2,1/2\n3,1,min,2,1/2\n4,0,min,2,1/2\n"
         b"5,1,min,2,1/2\n"),
    )
    for verb, expected in pinned:
        assert run(verb + common) == 0
        assert csv_path.read_bytes() == expected


def test_usage_errors_exit_two(tmp_path):
    assert run(["solve"]) == 2                      # missing -i
    assert run(["bogus-verb"]) == 2
    inst_path = tmp_path / "i.json"
    run(["example", "mfdvp", "-o", str(inst_path)])
    assert run(["solve", "-i", str(inst_path), "--bad-flag"]) == 2
    assert run(["solve", "-i", str(tmp_path / "missing.json")]) == 2
    assert run(["minimal-p", "-i", str(inst_path), "--x", "nope"]) != 0


def test_bad_instance_content_exit_two(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"cone": {"rows": [[1,0]], "e": [1,0]}, '
                   '"decisions": [{"label": "a", "x": [0]}], '
                   '"images": [{"type": "finite", "points": [[0,0]]}]}')
    assert run(["solve", "-i", str(bad)]) == 2


def test_mixed_dimension_polytope_exit_two(tmp_path, capsys):
    bad = tmp_path / "mixed.json"
    bad.write_text(json.dumps({
        "cone": {"rows": [[1, 0], [0, 1]], "e": [1, 1]},
        "decisions": [{"label": "a", "x": [0]}],
        "images": [{"type": "polytope", "points": [[0, 0], [1, 0, 0], [0, 1]]}],
    }))
    assert run(["solve", "-i", str(bad), "--exact"]) == 2
    assert "points of mixed dimension" in capsys.readouterr().err


def test_verify_verb_small(tmp_path, capsys):
    out_path = tmp_path / "verify.json"
    rc = run(["verify", "--seed-count", "1", "-o", str(out_path)])
    assert rc == 0
    assert "hard failures" in capsys.readouterr().out
    data = json.loads(out_path.read_text())
    assert data["failed_hard"] == 0
    # the report's bytes are part of the contract, not only its verdicts
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == (
        "3a4b2a418ffe7615ceb501fbc82e75283d3d4020e28f55ec35c70252a6bce35d")


def test_verify_verb_default_report_pinned(tmp_path, capsys):
    out_path = tmp_path / "verify.json"
    assert run(["verify", "-o", str(out_path)]) == 0
    assert "236 checks, 0 hard failures" in capsys.readouterr().out
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == (
        "d38d49dfeab1efb590f14e1f10fde4855f8e219c2944cf25f7806b65935fc839")


def test_convex_exp_verb(tmp_path, capsys):
    rc = run(["convex-exp", "--count", "2", "--g", "7"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "agreement=" in out


def test_console_entry_point(tmp_path):
    inst_path = tmp_path / "i.json"
    proc = subprocess.run(
        [sys.executable, "-m", "setopt.cli", "example", "mfdvp",
         "-o", str(inst_path)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert inst_path.exists()
    assert "mfdvp" in proc.stdout


def test_verify_exit_one_on_hard_failure(monkeypatch, tmp_path):
    import setopt.verifier as verifier_mod
    from setopt.verifier import CheckResult, SuiteReport

    def fake_suite(config):
        report = SuiteReport()
        report.checks.append(CheckResult("fake", "x", False, hard=True,
                                         counterexample={"why": "injected"}))
        return report

    monkeypatch.setattr(verifier_mod, "run_suite", fake_suite)
    import setopt.cli as cli_mod
    monkeypatch.setattr(cli_mod.verifier, "run_suite", fake_suite)
    assert run(["verify"]) == 1


def test_plot_csv_fallback_for_higher_dimension(tmp_path):
    # three-dimensional images cannot be drawn; the plot verb emits CSV
    inst_path = tmp_path / "i3.json"
    inst_path.write_text(json.dumps({
        "cone": {"rows": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "e": [1, 1, 1]},
        "decisions": [{"label": "a", "x": [0]}, {"label": "b", "x": [1]}],
        "images": [{"type": "finite", "points": [[0, 0, 0], [1, 2, 3]]},
                   {"type": "finite", "points": [[2, 2, 2]]}],
        "metadata": {},
    }))
    out_path = tmp_path / "coords.csv"
    assert run(["plot", "-i", str(inst_path), "-o", str(out_path)]) == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0].startswith("label,member,kind,point_index,y0,y1,y2")
    assert len(lines) == 4
