"""Command-line interface: flags, exit codes, file outputs."""

import hashlib
import json
import shlex
from pathlib import Path

import pytest

import cremona_orbits as co
from cremona_orbits import serialize
from cremona_orbits.cli import main
from helpers import cfg_from_rows, special_coplanar_config

GOOD = ["--seed", "7", "--height", "50", "--k", "8"]


def run(argv):
    return main([str(a) for a in argv])


def write_config(path, cfg):
    serialize.dump_config(path, cfg)
    return path


# ---------------------------------------------------------------------------
# gen

def test_gen_is_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["gen", *GOOD, "--out", a]) == 0
    assert run(["gen", *GOOD, "--out", b]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.json.manifest.json").exists()


def test_gen_roundtrips_through_reader(tmp_path):
    out = tmp_path / "cfg.json"
    run(["gen", *GOOD, "--out", out])
    again = tmp_path / "again.json"
    serialize.dump_config(again, serialize.load_config(out))
    assert out.read_bytes() == again.read_bytes()


# ---------------------------------------------------------------------------
# cremona

def test_cremona_involution_via_files(tmp_path, capsys):
    src = write_config(tmp_path / "p.json", co.random_config(3, 9))
    once = tmp_path / "q.json"
    twice = tmp_path / "r.json"
    assert run(["cremona", src, "--centers", 1, 2, 3, 4, "--out", once]) == 0
    assert "condition (*) holds" in capsys.readouterr().out
    assert run(["cremona", once, "--centers", 1, 2, 3, 4, "--out", twice]) == 0
    assert run(["equiv", src, twice]) == 0
    assert capsys.readouterr().out.strip().endswith("EQUIVALENT")


def test_cremona_coplanar_centers_exit_3(tmp_path, capsys):
    src = write_config(tmp_path / "p.json", special_coplanar_config(0))
    assert run(["cremona", src, "--centers", 5, 6, 7, 8, "--out", tmp_path / "q.json"]) == 3
    assert "coplanar" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# iterate

def test_iterate_writes_report_and_degree_table(tmp_path):
    src = write_config(tmp_path / "p.json", co.random_config(7, 10))
    out = tmp_path / "report.json"
    assert run(["iterate", src, "--steps", 6, "--out", out]) == 0
    report = json.loads(out.read_text())
    assert report["steps_completed"] == 6
    assert len(report["configurations"]) == 7
    assert report["all_pairwise_inequivalent"] is True
    expected = [c.d for c in co.iterate_class(co.plane_through_last_four(8), 6)]
    assert report["degrees"] == expected
    csv_lines = (tmp_path / "report.json.degrees.csv").read_text().splitlines()
    assert csv_lines[0] == "step,degree"
    assert [int(line.split(",")[1]) for line in csv_lines[1:]] == expected


def test_iterate_star_violation_writes_partial_report(tmp_path, capsys):
    cfg = cfg_from_rows(
        [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
         (1, 1, 1, 0), (1, 2, 3, 4), (1, 1, 2, 3), (3, 1, 1, 2)]
    )
    src = write_config(tmp_path / "p.json", cfg)
    out = tmp_path / "r.json"
    assert run(["iterate", src, "--steps", 2, "--out", out]) == 3
    err = capsys.readouterr().err
    assert "plane" in err and "partial report" in err
    assert json.loads(out.read_text())["steps_completed"] == 0


# ---------------------------------------------------------------------------
# orbit

def test_orbit_depth_zero(tmp_path):
    src = write_config(tmp_path / "p.json", co.random_config(5, 8))
    out = tmp_path / "orbit.json"
    assert run(["orbit", src, "--max-depth", 0, "--out", out]) == 0
    graph = json.loads(out.read_text())
    assert len(graph["nodes"]) == 1
    assert graph["truncated"] is False


def test_orbit_depth_one_node_count(tmp_path, monkeypatch):
    src = write_config(tmp_path / "p.json", co.random_config(5, 6))
    out = tmp_path / "orbit.json"
    assert run(["orbit", src, "--max-depth", 1, "--out", out]) == 0
    graph = json.loads(out.read_text())
    assert len(graph["nodes"]) == 71
    assert len(graph["edges"]) == 70
    depth_of = {n["canonical_form"]: n["depth"] for n in graph["nodes"]}
    for edge in graph["edges"]:
        assert depth_of[edge["source"]] == 0
        assert depth_of[edge["target"]] == 1
    # rerun with a different worker count: output bytes must not change
    monkeypatch.setenv("CREMONA_ORBITS_WORKERS", "2")
    out2 = tmp_path / "orbit2.json"
    assert run(["orbit", src, "--max-depth", 1, "--out", out2]) == 0
    assert out.read_bytes() == out2.read_bytes()


# ---------------------------------------------------------------------------
# equiv

def test_equiv_against_scrambled_self(tmp_path, capsys):
    import random
    from helpers import rand_invertible_map, rand_permutation

    rng = random.Random(71)
    cfg = co.random_config(6, 9)
    image = co.transform_config(
        co.permute_config(cfg, rand_permutation(rng, 8)), rand_invertible_map(rng)
    )
    a = write_config(tmp_path / "a.json", cfg)
    b = write_config(tmp_path / "b.json", image)
    assert run(["equiv", a, b]) == 0
    assert capsys.readouterr().out.strip() == "EQUIVALENT"


def test_equiv_negative_verdict(tmp_path, capsys):
    cfg = co.random_config(6, 9)
    a = write_config(tmp_path / "a.json", cfg)
    b = write_config(tmp_path / "b.json", co.cremona_at(cfg, co.CenterSet((1, 2, 3, 4))))
    assert run(["equiv", a, b]) == 1
    assert capsys.readouterr().out.strip() == "INEQUIVALENT"


def test_equiv_separates_iteration_stages(tmp_path, capsys):
    report = co.coxeter_iterate(co.random_config(6, 9), 3)
    p0 = write_config(tmp_path / "p0.json", report.configs[0])
    p3 = write_config(tmp_path / "p3.json", report.configs[3])
    assert run(["equiv", p0, p3]) == 1
    assert capsys.readouterr().out.strip() == "INEQUIVALENT"


def test_equiv_malformed_file(tmp_path, capsys):
    a = write_config(tmp_path / "a.json", co.random_config(6, 9))
    bad = tmp_path / "bad.json"
    bad.write_text("{ nope")
    assert run(["equiv", a, bad]) == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_equiv_float_coordinates_are_input_error(tmp_path, capsys):
    obj = serialize.config_to_obj(co.random_config(6, 9))
    obj["points"][0] = [1.5, 2, 3, 4.9]
    a = write_config(tmp_path / "a.json", co.random_config(6, 9))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    assert run(["equiv", a, bad]) == 2
    captured = capsys.readouterr()
    assert "INEQUIVALENT" not in captured.out
    assert len(captured.err.strip().splitlines()) == 1


def test_equiv_no_frame_is_input_error(tmp_path, capsys):
    planar = cfg_from_rows(
        [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 1, 0, 0),
         (1, 0, 1, 0), (0, 1, 1, 0), (1, 1, 1, 0), (1, 2, 3, 0)]
    )
    a = write_config(tmp_path / "a.json", planar)
    assert run(["equiv", a, a]) == 2
    assert "frame" in capsys.readouterr().err


@pytest.mark.parametrize("argv, digest", [
    (["orbit", "P", "--max-depth", 1],
     "109acfeca7a27b85811c65fb9b279e4830fb58d83d0e61001209db7a3d3fc452"),
    (["iterate", "P", "--steps", 8],
     "23d7ae8e4d739edfcf343f2b3d89dd6363367e75d45bbc1c78bdb81a61fae075"),
], ids=["orbit-depth1", "iterate-steps8"])
def test_canonical_bytes_are_pinned(tmp_path, argv, digest):
    # both outputs carry canonical forms: any change to the chosen candidate shows here
    src = tmp_path / "p.json"
    assert run(["gen", "--seed", 7, "--height", 10, "--out", src]) == 0
    out = tmp_path / "out.json"
    assert run([src if a == "P" else a for a in argv] + ["--out", out]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# ---------------------------------------------------------------------------
# lattice-cert

def test_lattice_cert_k8(tmp_path):
    out = tmp_path / "cert.json"
    assert run(["lattice-cert", "--k", 8, "--N", 40, "--out", out]) == 0
    cert = json.loads(out.read_text())
    assert cert["coxeter_matrix"] == [list(r) for r in co.coxeter_element(8).entries]
    assert cert["jordan"]["multiplicity_of_one"] == 3
    assert cert["jordan"]["ranks"] == [8, 7, 6, 6]
    assert cert["distinctness"]["all_distinct"] is True
    assert cert["coxeter_relations_all_hold"] is True
    assert (tmp_path / "cert.json.degrees.csv").exists()
    assert (tmp_path / "cert.json.manifest.json").exists()


def test_lattice_cert_k9_relations(tmp_path):
    out = tmp_path / "cert9.json"
    assert run(["lattice-cert", "--k", 9, "--N", 20, "--out", out]) == 0
    cert = json.loads(out.read_text())
    assert cert["coxeter_relations_all_hold"] is True
    assert len(cert["coxeter_matrix"]) == 10


@pytest.mark.parametrize("k, digest", [
    (8, "ddc166bf6afeda89e088f40c57d4f101dbd2be21ca91f8c836c860181d155a82"),
    (12, "c87e9242061efb0f5ec899e5117c880088bcd0432c93b3306e3fcfb3680bb159"),
    (16, "87a3055d9721411cb34a6984cedef53e69c33ad6ade83102429396b1ec77c584"),
    (20, "fb3e5b9b3436b41205759a50391cf1233e4ff60b8f30156bcd310d20714716db"),
    (24, "878412cfb9a1b683e3f4cf4648e62a384e0a4b6ef23fa1d856f8e82f655e0015"),
])
def test_lattice_cert_bytes_are_pinned(tmp_path, k, digest):
    out = tmp_path / "cert.json"
    assert run(["lattice-cert", "--k", k, "--N", 100, "--out", out]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# ---------------------------------------------------------------------------
# exit codes

@pytest.mark.parametrize("argv, workers, message", [
    (["gen", "--seed", 1, "--k", 7], None, "k must be >= 8"),
    (["gen", "--seed", 1, "--height", 1], None, "height must be >= 2"),
    (["iterate", "P8", "--steps", 0], None, "steps must be >= 1"),
    (["iterate", "P9", "--steps", 1], None, "iteration is defined for k = 8, got k = 9"),
    (["orbit", "P8", "--max-depth", -1], None, "max_depth must be >= 0"),
    (["orbit", "P8", "--max-depth", 1, "--max-nodes", 0], None, "max_nodes must be >= 1"),
    (["orbit", "P8", "--max-depth", 1], "abc", "CREMONA_ORBITS_WORKERS"),
    (["lattice-cert", "--k", 7], None, "need k >= 8, got 7"),
    (["lattice-cert", "--k", 0], None, "need k >= 8, got 0"),
    (["lattice-cert", "--k", -5], None, "need k >= 8, got -5"),
    (["lattice-cert", "--N", 0], None, "N must be >= 1"),
    (["cremona", "P8", "--centers", 1, 1, 3, 4], None, "need exactly 4 distinct labels"),
    (["cremona", "P8", "--centers", 1, 2, 3, 9], None, "(1, 2, 3, 9) out of range 1..8"),
    (["gen", "--seed", 1, "--k", "abc"], None, "argument --k: invalid int value: 'abc'"),
    (["gen", "--height", 10], None, "the following arguments are required: --seed"),
], ids=["gen-k7", "gen-height1", "iterate-steps0", "iterate-k9", "orbit-depth-1",
        "orbit-nodes0", "orbit-workers-abc", "lattice-cert-k7", "lattice-cert-k0",
        "lattice-cert-k-5", "lattice-cert-N0", "cremona-repeated", "cremona-out-of-range",
        "gen-k-abc", "gen-no-seed"])
def test_argument_out_of_range_is_one_usage_line(tmp_path, capsys, monkeypatch,
                                                 argv, workers, message):
    inputs = {"P8": write_config(tmp_path / "p8.json", co.random_config(7, 10)),
              "P9": tmp_path / "p9.json"}
    assert run(["gen", "--seed", 1, "--height", 10, "--k", 9, "--out", inputs["P9"]]) == 0
    if workers is not None:
        monkeypatch.setenv("CREMONA_ORBITS_WORKERS", workers)
    capsys.readouterr()
    out = tmp_path / "out.json"
    assert run([inputs.get(a, a) for a in argv] + ["--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and err.count("\n") == 1
    assert message in err
    assert not list(tmp_path.glob("out.json*"))


@pytest.mark.parametrize("flag", ["--help", "--version"])
def test_help_and_version_exit_zero(capsys, flag):
    with pytest.raises(SystemExit) as exit_info:
        run([flag])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out


@pytest.mark.parametrize("exc", [RuntimeError, ValueError], ids=["RuntimeError", "ValueError"])
def test_unexpected_exception_is_internal_error(tmp_path, capsys, monkeypatch, exc):
    # a plain ValueError is an internal fault too: only UsageError means exit 2
    from cremona_orbits import cli

    def broken(*args):
        raise exc("synthetic\nfailure")

    monkeypatch.setattr(cli, "random_config", broken)
    assert run(["gen", *GOOD, "--out", tmp_path / "x.json"]) == cli.EXIT_INTERNAL == 4
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["internal error: %s: synthetic failure" % exc.__name__]


def test_unwritable_output_is_input_error(tmp_path, capsys):
    assert run(["gen", *GOOD, "--out", tmp_path / "missing" / "x.json"]) == 2
    assert len(capsys.readouterr().err.strip().splitlines()) == 1


def test_missing_input_file_is_input_error(tmp_path, capsys):
    assert run(["iterate", tmp_path / "nope.json", "--steps", 1,
                "--out", tmp_path / "r.json"]) == 2


def test_readme_cli_walkthrough_runs(tmp_path, capsys, monkeypatch):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = readme.split("\n## CLI\n", 1)[1].split("```\n", 2)[1].splitlines()
    assert lines and all(line.startswith("cremona-orbits ") for line in lines)
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("CREMONA_ORBITS_WORKERS", raising=False)
    assert [main(shlex.split(line)[1:]) for line in lines] == [0, 0, 1, 0, 0, 0]
    assert "INEQUIVALENT" in capsys.readouterr().out.splitlines()
