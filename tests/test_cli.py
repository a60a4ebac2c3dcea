"""Command-line interface: flags, exit codes, file outputs."""

import hashlib
import json

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


def test_gen_rejects_small_k(tmp_path):
    with pytest.raises(SystemExit) as err:
        run(["gen", "--seed", "1", "--k", "7", "--out", tmp_path / "x.json"])
    assert err.value.code == 2


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


def test_cremona_repeated_center_is_usage_error(tmp_path):
    src = write_config(tmp_path / "p.json", co.random_config(4, 9))
    assert run(["cremona", src, "--centers", 1, 1, 3, 4, "--out", tmp_path / "q.json"]) == 2


def test_cremona_center_out_of_range(tmp_path):
    src = write_config(tmp_path / "p.json", co.random_config(4, 9))
    assert run(["cremona", src, "--centers", 1, 2, 3, 9, "--out", tmp_path / "q.json"]) == 2


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


def test_iterate_rejects_zero_steps(tmp_path):
    src = write_config(tmp_path / "p.json", co.random_config(7, 10))
    with pytest.raises(SystemExit) as err:
        run(["iterate", src, "--steps", "0", "--out", tmp_path / "r.json"])
    assert err.value.code == 2


def test_iterate_nine_points_is_usage_error(tmp_path, capsys):
    src = tmp_path / "p.json"
    assert run(["gen", "--seed", 1, "--height", 10, "--k", 9, "--out", src]) == 0
    capsys.readouterr()
    assert run(["iterate", src, "--steps", 1, "--out", tmp_path / "r.json"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and err.count("\n") == 1
    assert not (tmp_path / "r.json").exists()


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


def test_orbit_bad_worker_count_is_usage_error(tmp_path, capsys, monkeypatch):
    src = write_config(tmp_path / "p.json", co.random_config(5, 8))
    monkeypatch.setenv("CREMONA_ORBITS_WORKERS", "abc")
    assert run(["orbit", src, "--max-depth", 1, "--out", tmp_path / "o.json"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "CREMONA_ORBITS_WORKERS" in err[0]
    assert not (tmp_path / "o.json").exists()


def test_unexpected_exception_is_internal_error(tmp_path, capsys, monkeypatch):
    from cremona_orbits import cli

    def broken(*args):
        raise RuntimeError("synthetic\nfailure")

    monkeypatch.setattr(cli, "random_config", broken)
    assert run(["gen", *GOOD, "--out", tmp_path / "x.json"]) == cli.EXIT_INTERNAL == 4
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["internal error: RuntimeError: synthetic failure"]


def test_unwritable_output_is_input_error(tmp_path, capsys):
    assert run(["gen", *GOOD, "--out", tmp_path / "missing" / "x.json"]) == 2
    assert len(capsys.readouterr().err.strip().splitlines()) == 1


def test_missing_input_file_is_input_error(tmp_path, capsys):
    assert run(["iterate", tmp_path / "nope.json", "--steps", 1,
                "--out", tmp_path / "r.json"]) == 2
