"""Command-line interface: flags, exit codes, file outputs."""

import ast
import hashlib
import itertools
import json
import random
import shlex
from pathlib import Path

import pytest

import cremona_orbits as co
from cremona_orbits import serialize
from cremona_orbits.cli import main
from cremona_orbits.digits import decimal_to_int
from helpers import cfg_from_rows, small_config, special_coplanar_config

GOOD = ["--seed", "7", "--height", "50", "--k", "8"]

# eight points on the plane X3 = 0: no 5 of them form a frame
PLANAR = cfg_from_rows(
    [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 1, 0, 0),
     (1, 0, 1, 0), (0, 1, 1, 0), (1, 1, 1, 0), (1, 2, 3, 0)]
)


def run(argv):
    return main([str(a) for a in argv])


def write_config(path, cfg):
    serialize.dump_json(path, serialize.config_to_obj(cfg))
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
    serialize.dump_json(again, serialize.config_to_obj(serialize.load_config(out)))
    assert out.read_bytes() == again.read_bytes()


def test_gen_gives_up_with_exit_3(tmp_path, capsys):
    # 14 points in general position at height 2 exhaust the sampler's budget
    out = tmp_path / "cfg.json"
    assert run(["gen", "--seed", 1, "--k", 14, "--height", 2, "--out", out]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: could not sample")
    assert not list(tmp_path.iterdir())


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

def test_iterate_writes_report_and_degree_table(tmp_path, capsys):
    src = write_config(tmp_path / "p.json", co.random_config(7, 10))
    out = tmp_path / "report.json"
    assert run(["iterate", src, "--steps", 6, "--out", out]) == 0
    assert capsys.readouterr().out == (
        "completed 6 steps; pairwise inequivalent: yes; consistency OK\n")
    report = json.loads(out.read_text())
    assert len(report["configurations"]) - 1 == 6
    assert len(report["configurations"]) == 7
    assert report["all_pairwise_inequivalent"] is True
    expected = [c.d for c in co.iterate_class(co.plane_through_last_four(8), 6)]
    assert report["degrees"] == expected
    csv_lines = (tmp_path / "report.json.degrees.csv").read_text().splitlines()
    assert csv_lines[0] == "step,degree"
    assert [int(line.split(",")[1]) for line in csv_lines[1:]] == expected


def test_iterate_judges_the_report_it_wrote(tmp_path, capsys, monkeypatch):
    # a coplanar tuple that only the written file claims: the check must read the file
    real = serialize.report_to_obj

    def corrupted(report):
        obj = real(report)
        obj["coplanar_tuples"][0].append([1, 2, 3, 4])
        return obj

    monkeypatch.setattr(serialize, "report_to_obj", corrupted)
    src = write_config(tmp_path / "p.json", co.random_config(7, 10))
    assert run(["iterate", src, "--steps", 2, "--out", tmp_path / "report.json"]) == 1
    assert capsys.readouterr().out.rstrip().endswith("consistency FAILED")


def test_iterate_fails_a_report_that_does_not_read_back(tmp_path, capsys, monkeypatch):
    # the tool's own output is not bad input: a written report that
    # report_from_obj rejects fails the consistency check, exit 1
    real = serialize.report_to_obj

    def corrupted(report):
        obj = real(report)
        obj["degrees"][0] += 1
        return obj

    monkeypatch.setattr(serialize, "report_to_obj", corrupted)
    src = write_config(tmp_path / "p.json", co.random_config(7, 10))
    assert run(["iterate", src, "--steps", 2, "--out", tmp_path / "report.json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "completed 2 steps; pairwise inequivalent: yes; consistency FAILED\n"
    err = captured.err.splitlines()
    assert len(err) == 1 and "'degrees' disagrees" in err[0]


def test_iterate_star_violation_writes_partial_report(tmp_path, capsys):
    cfg = cfg_from_rows(
        [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
         (1, 1, 1, 0), (1, 2, 3, 4), (1, 1, 2, 3), (3, 1, 1, 2)]
    )
    src = write_config(tmp_path / "p.json", cfg)
    out = tmp_path / "r.json"
    assert run(["iterate", src, "--steps", 2, "--out", out]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: ") and "plane" in err[0]
    assert err[0].endswith("wrote partial report to %s" % out)
    assert len(json.loads(out.read_text())["configurations"]) - 1 == 0
    partial = serialize.report_from_obj(serialize.load_json(out))
    assert partial.truncated and partial.star_ok == (False,)
    assert not co.consistency_check(partial)


# ---------------------------------------------------------------------------
# orbit

def test_orbit_depth_zero(tmp_path):
    src = write_config(tmp_path / "p.json", co.random_config(5, 8))
    out = tmp_path / "orbit.json"
    assert run(["orbit", src, "--max-depth", 0, "--out", out]) == 0
    graph = json.loads(out.read_text())
    assert len(graph["nodes"]) == 1
    assert graph["truncated"] is False


@pytest.mark.parametrize("root, digest", [
    (co.random_config(9, 3, 9),
     "54b4cd61df79fac2e5c1f4b00eb2a0b19102df39bf818e47dda510be77b0f852"),
    (small_config(random.Random(3), 10),  # 3 of its 210 center sets satisfy (*)
     "5f4a81a1641d484859fbfab294e86f23d0d72efc8819e1c1aacf4bda9c4c0be9"),
    (special_coplanar_config(3),
     "339575a2f85c0654d363995a8ca547c4d854d8bb010138ef049f38e8b4e26f9e"),
], ids=["random-k9", "small-k10", "coplanar-k8"])
def test_orbit_away_from_k8_and_general_position(tmp_path, monkeypatch, capsys, root, digest):
    # every child has a frame (orbit_bfs), so no run warns and none is
    # degenerate; the digests were measured before the form expanded only
    # the least-bound image sets, so they guard its bytes at k = 9, 10 and
    # on a coplanar root
    src = write_config(tmp_path / "p.json", root)
    moves = sum(co.star_violation(root, co.CenterSet(sub)) is None
                for sub in itertools.combinations(range(1, root.k + 1), 4))
    files = []
    for workers in (1, 2):
        monkeypatch.setenv("CREMONA_ORBITS_WORKERS", str(workers))
        files.append(tmp_path / ("orbit-%d.json" % workers))
        assert run(["orbit", src, "--max-depth", 1, "--out", files[-1]]) == 0
        assert capsys.readouterr().err == ""
    graph = json.loads(files[0].read_text())
    assert len(graph["edges"]) == moves > 0
    assert graph["degenerate"] == []
    assert files[0].read_bytes() == files[1].read_bytes()
    assert hashlib.sha256(files[0].read_bytes()).hexdigest() == digest


def test_orbit_depth_one_node_count(tmp_path, monkeypatch):
    src = write_config(tmp_path / "p.json", co.random_config(5, 6))
    out = tmp_path / "orbit.json"
    assert run(["orbit", src, "--max-depth", 1, "--out", out]) == 0
    graph = json.loads(out.read_text())
    assert len(graph["nodes"]) == 71
    assert len(graph["edges"]) == 70
    for source, target, _centers in graph["edges"]:
        assert graph["nodes"][source]["depth"] == 0
        assert graph["nodes"][target]["depth"] == 1
    # rerun with a different worker count: output bytes must not change
    monkeypatch.setenv("CREMONA_ORBITS_WORKERS", "2")
    out2 = tmp_path / "orbit2.json"
    assert run(["orbit", src, "--max-depth", 1, "--out", out2]) == 0
    assert out.read_bytes() == out2.read_bytes()


# ---------------------------------------------------------------------------
# equiv

def test_equiv_against_scrambled_self(tmp_path, capsys):
    import random
    from helpers import moved, rand_invertible_map, rand_permutation

    rng = random.Random(71)
    cfg = co.random_config(6, 9)
    image = moved(co.permute_config(cfg, rand_permutation(rng, 8)), rand_invertible_map(rng))
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


@pytest.mark.parametrize("argv", [
    ["equiv", "A", "A"],
    ["equiv", "G", "A"],
    ["equiv", "A", "G9"],
    ["equiv", "G9", "A"],
    ["iterate", "A", "--steps", 2, "--out", "OUT"],
    ["orbit", "A", "--max-depth", 1, "--out", "OUT"],
], ids=["equiv", "equiv-framed-first", "equiv-other-k", "equiv-other-k-framed-first",
        "iterate", "orbit"])
def test_no_frame_is_input_error(tmp_path, capsys, argv):
    # iterate fails at step 0 before any report exists: (*) at {1,2,3,4}
    # would make {1,2,3,4,5} a frame
    names = {"A": write_config(tmp_path / "a.json", PLANAR),
             "G": write_config(tmp_path / "g.json", co.random_config(7, 10)),
             "G9": write_config(tmp_path / "g9.json", co.random_config(3, 10, k=9)),
             "OUT": tmp_path / "out.json"}
    assert run([names.get(x, x) for x in argv]) == 2
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert captured.out == ""
    assert len(err) == 1 and err[0].startswith("input error:") and "frame" in err[0]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.json", "g.json", "g9.json"]


def test_deeply_nested_json_is_input_error(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200000 + "]" * 200000)
    assert run(["equiv", deep, deep]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("input error:")


@pytest.mark.parametrize("argv, digest", [
    (["orbit", "P", "--max-depth", 1],
     "8f07dd15962b0a96125a73a1619e3b5aeab7aeed67e2241be765915a793a350b"),
    (["iterate", "P", "--steps", 8],
     "bb7232e0478286f339bb9b3c965e55d9810c3159af21608d2dd5fa3b0e19ebf9"),
    (["lattice-cert", "--k", 8, "--N", 500],
     "51e24e08eca20276777669d7600218d500831bec649501b7493f33ad59078c17"),
], ids=["orbit-depth1", "iterate-steps8", "lattice-cert-k8-N500"])
def test_canonical_bytes_are_pinned(tmp_path, argv, digest):
    # the orbit and the iterate carry canonical forms: any change to the chosen
    # candidate shows here; the lattice certificate pins the README's walkthrough run
    src = tmp_path / "p.json"
    assert run(["gen", "--seed", 7, "--height", 10, "--out", src]) == 0
    out = tmp_path / "out.json"
    assert run([src if a == "P" else a for a in argv] + ["--out", out]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_iterate_canonical_forms_are_pinned(tmp_path):
    # the forms alone, so a change of the canonical bytes shows apart from the report schema
    src = tmp_path / "p.json"
    assert run(["gen", "--seed", 7, "--height", 10, "--out", src]) == 0
    out = tmp_path / "out.json"
    assert run(["iterate", src, "--steps", 8, "--out", out]) == 0
    forms = "\n".join(json.loads(out.read_text())["canonical_forms"])
    assert hashlib.sha256(forms.encode("ascii")).hexdigest() == (
        "0e8e1856048070b6be776a6749d83bc3d1d901e7ec498c50ace549f9fb1d4ffd")


# ---------------------------------------------------------------------------
# lattice-cert

def test_lattice_cert_k8(tmp_path):
    out = tmp_path / "cert.json"
    assert run(["lattice-cert", "--k", 8, "--N", 40, "--out", out]) == 0
    cert = json.loads(out.read_text())
    assert set(cert) == {"k", "N", "coxeter_matrix", "jordan", "distinctness",
                         "coxeter_relations", "coxeter_relations_all_hold"}
    assert set(cert["jordan"]) == {"multiplicity_of_one", "ranks", "charpoly",
                                   "eigenvalue_one_block_sizes"}
    assert set(cert["distinctness"]) == {"start", "first_collision", "all_distinct", "degrees",
                                         "quadratic_part_nonzero"}
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
    (8, "8aa824049e0dfa3ac40e76d86846e98f82dd250a35ed38e09a2d8ea7eba41e0e"),
    (9, "f5d69abf7693e5a026beea733016d8bfbfb5e935abcdb39c7bc12da8d4edcfd2"),
    (12, "07d1e01ce929de43d74a6a177db574afd8acc8c30a70386747f004035ca8fc92"),
    (16, "8633565145f0d53a68c2332b12dea97890e93458c542b8f55bc655789f31873b"),
    (20, "fe27e5b48c9c7c948c3a6b4c2adf9ae58de20c10ed435b1166b79dd5a0088e04"),
    (24, "97e31ce57f4bd59c0be602b8373a43063734d4300485391c068e1dc3e80d033c"),
    (64, "c0059cb76d69125aea6f52f14e619f420f84b37876e1231280925d3f6d9e52e9"),
], ids=["k8", "k9", "k12", "k16", "k20", "k24", "k64"])
def test_lattice_cert_bytes_are_pinned(tmp_path, k, digest):
    out = tmp_path / "cert.json"
    assert run(["lattice-cert", "--k", k, "--N", 100, "--out", out]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_lattice_cert_bytes_past_the_digit_split_are_pinned(tmp_path):
    # at N = 4000, 518 of the k = 24 degrees pass 10 ** 579 (about 1923 bits);
    # they are Decimals rendered by str, not by digits.int_to_decimal, whose
    # split test_serialize's test_degree_csv_matches_csv_writer checks against
    # the csv module at 1919-4000 bits
    out = tmp_path / "cert.json"
    table = tmp_path / "cert.json.degrees.csv"
    assert run(["lattice-cert", "--k", 24, "--N", 4000, "--out", out]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "5b34a220474fc530f4211ee0b7675968c76423e00b36ec803f09d4f0d0364d7e")
    assert hashlib.sha256(table.read_bytes()).hexdigest() == (
        "330949757af4ec66574a1c75e26feadcc2f71bdb748cbb7f567fba84af4bcf4b")
    degrees = serialize.load_json(out)["distinctness"]["degrees"]
    rows = table.read_text(encoding="ascii").splitlines()
    assert rows[0] == "step,degree"
    assert [decimal_to_int(row.split(",")[1]) for row in rows[1:]] == degrees
    assert sum(d.bit_length() > 1920 for d in degrees) == 518
    assert len(degrees) == 4001 and degrees[-1].bit_length() == 2206


# ---------------------------------------------------------------------------
# exit codes

@pytest.mark.parametrize("argv, workers, message", [
    (["gen", "--seed", 1, "--k", 7], None, "need k >= 8, got 7"),
    (["gen", "--seed", 1, "--k", 65], None, "need k <= 64, got 65"),
    (["gen", "--seed", 1, "--height", 1], None, "height must be >= 2"),
    (["iterate", "P8", "--steps", 0], None, "steps must be >= 1"),
    (["iterate", "P9", "--steps", 1], None, "iteration is defined for k = 8, got k = 9"),
    (["orbit", "P8", "--max-depth", -1], None, "max_depth must be >= 0"),
    (["orbit", "P8", "--max-depth", 1, "--max-nodes", 0], None, "max_nodes must be >= 1"),
    (["orbit", "P8", "--max-depth", 1], "abc", "CREMONA_ORBITS_WORKERS"),
    (["lattice-cert", "--k", 7], None, "need k >= 8, got 7"),
    (["lattice-cert", "--k", 0], None, "need k >= 8, got 0"),
    (["lattice-cert", "--k", -5], None, "need k >= 8, got -5"),
    (["lattice-cert", "--k", 65], None, "need k <= 64, got 65"),
    (["lattice-cert", "--N", 0], None, "N must be >= 1"),
    (["lattice-cert", "--k", 24, "--N", 50001], None, "N must be <= 50000"),
    (["cremona", "P8", "--centers", 1, 1, 3, 4], None, "need exactly 4 distinct labels"),
    (["cremona", "P8", "--centers", 1, 2, 3, 9], None, "(1, 2, 3, 9) out of range 1..8"),
    (["gen", "--seed", 1, "--k", "abc"], None, "argument --k: invalid int value: 'abc'"),
    (["gen", "--height", 10], None, "the following arguments are required: --seed"),
], ids=["gen-k7", "gen-k65", "gen-height1", "iterate-steps0", "iterate-k9", "orbit-depth-1",
        "orbit-nodes0", "orbit-workers-abc", "lattice-cert-k7", "lattice-cert-k0",
        "lattice-cert-k-5", "lattice-cert-k65", "lattice-cert-N0", "lattice-cert-N-over-cap",
        "cremona-repeated",
        "cremona-out-of-range", "gen-k-abc", "gen-no-seed"])
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


def test_readme_library_example_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    code = readme.split("\n## Library example\n", 1)[1].split("```python\n", 1)[1]
    code = code.split("```", 1)[0]
    assert "import cremona_orbits" in code
    exec(compile(code, "README.md", "exec"), {})


def test_public_names_are_pinned():
    # a name may leave or join the package only with this list
    import types

    names = sorted(name for name, value in vars(co).items()
                   if not name.startswith("__") and not isinstance(value, types.ModuleType))
    assert names == [
        "CenterSet", "Configuration", "DegeneratePointError", "DistinctnessReport",
        "DivisorClass", "FormatError", "GenerationError", "IterationReport",
        "JordanCertificate", "LatticeMap", "NoFrameError", "OrbitGraph", "OrbitNode",
        "ProjectivePoint", "StarViolation", "StarViolationError", "UsageError",
        "canonical_form", "consistency_check", "coplanar", "coplanar_scan", "coxeter_element",
        "coxeter_iterate", "coxeter_relations", "cremona_at", "cyclic_shift",
        "distinctness_certificate", "equivalent", "iterate_class", "jordan_certificate",
        "normalize_point", "orbit_bfs", "permute_config", "plane_through_last_four",
        "random_config", "star_violation",
    ]


def test_library_imports_no_test_code_and_no_sympy():
    # sympy is a test oracle only, and the tests' modules are not installed
    tests = Path(__file__).parent
    banned = {"sympy", "tests"} | {p.stem for p in tests.glob("*.py")}
    src = Path(co.__file__).parent
    modules = sorted(src.glob("*.py"))
    assert len(modules) > 5
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] not in banned, (path.name, name)
