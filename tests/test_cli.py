import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from flatlyap import cli, golden
from flatlyap.cli import main
from flatlyap.errors import InputError
from flatlyap.orbits import orbit
from flatlyap.origami import Origami, Stratum

from conftest import FIG1, WOLLMILCHSAU


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_stratum_command(capsys):
    code, out, _ = run(capsys, "stratum", FIG1, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["stratum"] == [2]
    assert payload["genus"] == 2
    assert payload["component"] == "hyperelliptic"


def test_lyap_command(capsys):
    code, out, _ = run(capsys, "lyap", FIG1, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["L"] == "4/3"
    assert payload["s"] == "10/1"
    assert payload["orbit_size"] == 18


def test_lyap_text_output(capsys):
    code, out, _ = run(capsys, "lyap", FIG1)
    assert code == 0
    assert "L: 4/3" in out


def test_lyap_from_json_file(tmp_path, capsys):
    path = tmp_path / "surface.json"
    path.write_text(
        json.dumps({"degree": 5, "right": [2, 3, 4, 1, 5], "up": [5, 2, 3, 4, 1]})
    )
    code, out, _ = run(capsys, "lyap", str(path), "--format", "json")
    assert code == 0
    assert json.loads(out)["L"] == "4/3"


def test_cylinders_command(capsys):
    code, out, _ = run(capsys, "cylinders", FIG1, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["cylinders"] == [
        {"width": 4, "height": 1},
        {"width": 1, "height": 1},
    ]
    assert payload["sum_h_over_w"] == "5/4"


def test_classify_command(capsys):
    code, out, _ = run(capsys, "classify", WOLLMILCHSAU, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["component"] == "connected"
    assert payload["involution"] is None


def test_orbit_command(capsys, monkeypatch):
    members = [str(m) for m in orbit(Origami.from_text(FIG1))]
    code, out, _ = run(capsys, "orbit", FIG1, "--format", "json", "--list")
    assert code == 0
    assert json.loads(out) == {"orbit_size": 18, "members": members}
    # only the listed members are built as origamis
    built = []
    from_key = Origami.from_key.__func__
    monkeypatch.setattr(
        Origami, "from_key", classmethod(lambda cls, key: built.append(key) or from_key(cls, key))
    )
    assert run(capsys, "orbit", FIG1, "--list", "--limit", "3")[1].splitlines() == [
        "orbit_size: 18", *members[:3]
    ]
    assert len(built) == 3
    assert run(capsys, "orbit", FIG1)[1] == "orbit_size: 18\n"
    assert len(built) == 3


def test_slope_solve_named(capsys):
    code, out, _ = run(
        capsys, "slope-solve", "--stratum", "4", "--divisor", "H", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["s"] == "9/1"
    assert payload["L"] == "8/5"


def test_slope_solve_logan(capsys):
    code, out, _ = run(
        capsys,
        "slope-solve",
        "--stratum", "2,1,1",
        "--marks", "1,2",
        "--divisor", "logan",
        "--weights", "1,2",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["s"] == "98/11" and payload["L"] == "11/6"


def test_slope_solve_spin(capsys):
    code, out, _ = run(
        capsys, "slope-solve", "--stratum", "2,2", "--divisor", "spin",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["s"] == "44/5" and payload["L"] == "5/3"


@pytest.mark.parametrize("stratum", ["3,1", "6"])
def test_slope_solve_spin_needs_every_zero_of_order_two(stratum):
    # the spin slope holds only where every zero has order two: H(6) has
    # an odd-spin component, but its L is 13/7, not the slope's 12/7
    _assert_input_error(("slope-solve", "--stratum", stratum, "--divisor", "spin"))


def test_slope_solve_explicit_coefficients(capsys):
    code, out, _ = run(
        capsys,
        "slope-solve",
        "--stratum", "6",
        "--marks", "1",
        "--lambda", "30",
        "--omega", "60",
        "--delta0", "-4",
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["s"] == "60/7"


def test_slope_solve_bound(capsys):
    code, out, _ = run(
        capsys,
        "slope-solve",
        "--stratum", "4,1,1",
        "--marks", "1,2",
        "--divisor", "logan",
        "--weights", "2,2",
        "--bound",
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["L_max"] == "21/10"


def test_hyp_locus_command(capsys):
    code, out, _ = run(
        capsys, "hyp-locus", "--signature", "2,2,-1^8", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["L"] == "2/1"


def test_double_cover_command(capsys):
    code, out, _ = run(
        capsys, "double-cover", "--signature", "3,2,-1^9", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["stratum"] == [4, 1, 1] and payload["genus"] == 4


def test_enumerate_command(capsys):
    code, out, _ = run(
        capsys, "enumerate", "--stratum", "2", "--dmax", "4", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload and payload[0]["L"] == "4/3"


def test_enumerate_csv(capsys):
    code, out, _ = run(capsys, "enumerate", "--stratum", "2", "--dmax", "4")
    assert code == 0
    assert out.splitlines()[0] == "stratum,component,degree,orbit_size,L,c,s,witness"


def test_input_error_exit_code(capsys):
    code, _, err = run(capsys, "stratum", "r=(1 2); u=(1 2; d=x")
    assert code == 2
    assert "error" in err


def test_disconnected_exit_code(capsys):
    code, _, err = run(capsys, "lyap", "r=(); u=(); d=2")
    assert code == 2


def test_orbit_cap_exit_code(capsys):
    code, _, err = run(capsys, "lyap", FIG1, "--max-orbit", "2")
    assert code == 3
    assert "cap" in err


@pytest.mark.parametrize("extra", [(), ("--per-orbit",)])
def test_enumerate_past_the_scan_cap_exit_code(capsys, extra):
    # d=13 walks 13! > 12! permutations: refused before the first degree
    code, out, err = run(capsys, "enumerate", "--stratum", "2", "--dmax", "13", *extra)
    assert code == 3
    assert out == ""
    assert "cap" in err


@pytest.mark.parametrize("extra", [(), ("--per-orbit",)])
def test_enumerate_with_a_reversed_degree_range_exit_code(capsys, extra):
    code, out, err = run(
        capsys, "enumerate", "--stratum", "2", "--dmin", "5", "--dmax", "3", *extra
    )
    assert code == 2
    assert out == ""
    assert "above" in err


def test_enumerate_below_the_support_is_an_empty_report(capsys):
    # H(2) needs 3 squares: nothing to scan at d <= 2
    code, out, _ = run(capsys, "enumerate", "--stratum", "2", "--dmax", "2")
    assert code == 0
    assert out.splitlines() == ["stratum,component,degree,orbit_size,L,c,s,witness"]


def test_cache_cli_round_trip(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("FLATLYAP_CACHE_DIR", str(tmp_path))
    code, out1, _ = run(capsys, "lyap", FIG1, "--format", "json")
    assert code == 0
    assert (tmp_path / "orbits.cache").exists()
    code, out2, _ = run(capsys, "lyap", FIG1, "--format", "json")
    assert code == 0
    assert json.loads(out1) == json.loads(out2)


def test_cache_with_an_undecodable_line_is_recomputed(tmp_path, capsys):
    (tmp_path / "orbits.cache").write_bytes(b"\xff\xfe\n")
    code, out, _ = run(capsys, "lyap", FIG1, "--cache-dir", str(tmp_path), "--format", "json")
    assert code == 0
    assert json.loads(out)["L"] == "4/3"


@pytest.mark.parametrize("through", ["--cache-dir", "FLATLYAP_CACHE_DIR"])
def test_a_regular_file_as_cache_directory_is_an_input_error(tmp_path, capsys, monkeypatch, through):
    # exit 1 means a verification mismatch; a path that cannot hold the
    # cache is bad input, named in the message
    plain = tmp_path / "plain"
    plain.write_text("")
    if through == "--cache-dir":
        code, out, err = run(capsys, "lyap", FIG1, "--cache-dir", str(plain))
    else:
        monkeypatch.setenv("FLATLYAP_CACHE_DIR", str(plain))
        code, out, err = run(capsys, "lyap", FIG1)
    assert code == 2
    assert out == ""
    assert str(plain / "orbits.cache") in err


def test_a_missing_golden_file_is_an_input_error(tmp_path, capsys):
    missing = tmp_path / "missing.txt"
    code, out, err = run(capsys, "verify-tables", "--golden", str(missing))
    assert code == 2
    assert out == ""
    assert str(missing) in err


def test_a_malformed_golden_file_is_named_in_its_error(tmp_path, capsys):
    notes = tmp_path / "notes.txt"
    notes.write_text("core: not a golden line\n")
    code, out, err = run(capsys, "verify-tables", "--golden", str(notes))
    assert code == 2
    assert out == ""
    assert f"{notes} line 1: bad token" in err and "golden.txt" not in err


def test_verify_tables_quick(capsys):
    code, out, _ = run(capsys, "verify-tables", "3", "--skip-enumeration")
    assert code == 0
    assert "checks passed" in out
    assert "MISMATCH" not in out


def test_verify_tables_times_each_check_on_stderr(capsys):
    # one line per check, its id and seconds, on stderr only: stdout is
    # the same as a run that times nothing would print
    code, out, err = run(capsys, "verify-tables", "2", "--skip-enumeration")
    selected = golden.select_checks(golden.load_golden(), genus="2", skip_enumeration=True)
    assert code == 0
    assert out == f"{len(selected)}/{len(selected)} checks passed\n"
    lines = [line.split(" ") for line in err.splitlines()]
    assert [line[0] for line in lines] == [check.id for check in selected]
    assert all(len(line) == 3 and line[2] == "s" and float(line[1]) >= 0 for line in lines)


def test_verify_tables_detects_corruption(tmp_path, capsys):
    import importlib.resources

    good = (
        importlib.resources.files("flatlyap") / "data" / "golden.txt"
    ).read_text()
    bad = good.replace(
        "g3/slope/4-odd          slope g=3 stratum=4 divisor=H s=9/1 L=8/5",
        "g3/slope/4-odd          slope g=3 stratum=4 divisor=H s=9/1 L=7/5",
    )
    assert bad != good
    path = tmp_path / "golden.txt"
    path.write_text(bad)
    code, out, _ = run(
        capsys, "verify-tables", "3", "--skip-enumeration", "--golden", str(path)
    )
    assert code == 1
    diff_lines = [l for l in out.splitlines() if l.startswith("MISMATCH")]
    assert len(diff_lines) == 1
    assert "g3/slope/4-odd" in diff_lines[0]


def test_verify_tables_makes_one_report_per_scan(tmp_path, capsys, monkeypatch):
    # two rows read the (2,2) scan to d=7: each run makes its report once
    # and both rows share it; a second run makes its own
    report, calls = golden.nonvarying_report, []

    def counting(s, d_max, d_min=None):
        calls.append((s, d_max))
        return report(s, d_max, d_min)

    monkeypatch.setattr(golden, "nonvarying_report", counting)
    path = tmp_path / "golden.txt"
    path.write_text(
        "a enum g=3 stratum=2,2 dmax=7 mode=const component=odd L=5/3\n"
        "b enum g=3 stratum=2,2 dmax=7 mode=const component=hyperelliptic L=2/1\n"
        "c enum g=2 stratum=2 dmax=6 mode=const component=hyperelliptic L=4/3\n"
    )
    for runs in (1, 2):
        code, out, _ = run(capsys, "verify-tables", "--golden", str(path))
        assert code == 0 and "3/3 checks passed" in out
        assert calls == [(Stratum((2, 2)), 7), (Stratum((2,)), 6)] * runs


def test_a_key_error_inside_a_check_is_not_an_unknown_kind(monkeypatch):
    # only the lookup of the kind turns a KeyError into "unknown kind"
    def broken(check, cache):
        raise KeyError("inside the check")

    monkeypatch.setitem(golden._DISPATCH, "triple", broken)
    check = next(c for c in golden.load_golden() if c.kind == "triple")
    with pytest.raises(KeyError, match="inside the check"):
        golden.run_check(check)
    with pytest.raises(InputError, match="unknown golden check kind 'nope'"):
        golden.run_check(golden.GoldenCheck("x", "nope", {}))


def test_max_orbit_must_be_positive(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["orbit", FIG1, "--max-orbit", "0"])
    assert exc.value.code == 2
    assert "argument --max-orbit: must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ("lyap", FIG1, "--jobs", "2"),
        ("stratum", FIG1, "--format", "csv"),
        ("enumerate", "--stratum", "2", "--dmax", "4", "--format", "csv"),
        ("classify", FIG1, "--cache-dir", "x"),
        ("orbit", FIG1, "--cache-dir", "x"),
        ("cylinders", FIG1, "--max-orbit", "5"),
        ("enumerate", "--stratum", "2", "--dmax", "4", "--max-orbit", "5"),
        ("verify-tables", "3", "--format", "json"),
        ("enumerate", "--stratum", "2", "--dmax", "4", "--cache-dir", "x"),
    ],
)
def test_options_a_subcommand_does_not_read_are_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ("enumerate", "--stratum", "a", "--dmax", "4"),
        ("slope-solve", "--stratum", "x", "--divisor", "H"),
        ("slope-solve", "--stratum", "4", "--divisor", "H", "--marks", "a"),
        ("slope-solve", "--stratum", "2,1,1", "--divisor", "logan", "--weights", "a"),
        ("slope-solve", "--stratum", "4", "--lambda", "1", "--omega", "a"),
        ("slope-solve", "--stratum", "4", "--lambda", "1", "--delta0", "a"),
        ("slope-solve", "--stratum", "4", "--lambda", "1/0"),
        ("hyp-locus", "--signature", "x"),
        ("double-cover", "--signature", "x"),
        ("orbit", FIG1, "--list", "--limit", "-1"),
        ("enumerate", "--stratum", "2", "--dmax", "0"),
        ("enumerate", "--stratum", "2", "--dmax", "4", "--dmin", "-1"),
    ],
)
def test_malformed_numbers_are_input_errors(argv):
    _assert_input_error(argv)


@pytest.mark.parametrize(
    "text",
    [
        '{"degree": 2, "right": 5, "up": [1,2]}',
        '{"degree": 2, "right": ["a", 2], "up": [1,2]}',
        '{"degree": 2, ',
        '{"degree": 2, "right": [1.5, 2], "up": [2,1]}',
        "r=2 3 1; u=1 -2 3; d=3",
        "r=2 3 1; u=1 2x 3; d=3",
        "bad.json",
        ".",
        '{"degree": true, "right": [true], "up": [1]}',
    ],
)
def test_malformed_origamis_are_input_errors(tmp_path, text):
    # "bad.json" is a file that does not parse, "." a directory
    (tmp_path / "bad.json").write_text('{"degree": 2, ')
    _assert_input_error(("stratum", text), cwd=tmp_path)


@pytest.mark.parametrize(
    "how",
    [("--divisor", "H"), ("--divisor", "spin"), ("--lambda", "1", "--omega", "1")],
)
def test_weights_without_logan_are_input_errors(how):
    _assert_input_error(("slope-solve", "--stratum", "4", *how, "--weights", "1,2"))


def _assert_input_error(argv, cwd=None):
    # a separate interpreter, so that an escaping exception shows as the
    # traceback and exit code 1 a user would see
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run(
        [sys.executable, "-m", "flatlyap.cli", *argv],
        env=env, cwd=cwd, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2
    assert "error:" in done.stderr
    assert "Traceback" not in done.stderr
