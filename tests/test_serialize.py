"""JSON round trips, schema validation, manifests, CSV."""

import csv
import decimal
import io
import json
import random

import pytest

import cremona_orbits as co
from cremona_orbits import digits, serialize
from cremona_orbits.digits import decimal_to_int, int_to_decimal
from helpers import cfg_from_rows, moved, special_coplanar_config


def test_config_roundtrip(tmp_path):
    cfg = co.random_config(7, 50)
    path = tmp_path / "cfg.json"
    serialize.dump_json(path, serialize.config_to_obj(cfg))
    assert serialize.load_config(path) == cfg
    obj = json.loads(path.read_text())
    assert obj["k"] == 8
    assert all(isinstance(v, str) for row in obj["points"] for v in row)


def test_reader_accepts_plain_ints(tmp_path):
    path = tmp_path / "cfg.json"
    cfg = co.random_config(8, 9)
    obj = {"k": 8, "points": [[int(v) for v in p.coords] for p in cfg.points]}
    path.write_text(json.dumps(obj))
    assert serialize.load_config(path) == cfg


def test_reader_recanonicalizes(tmp_path):
    cfg = co.random_config(9, 9)
    obj = serialize.config_to_obj(cfg)
    obj["points"][0] = [str(-3 * int(v)) for v in obj["points"][0]]  # rescale a point
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(obj))
    assert serialize.load_config(path) == cfg


@pytest.mark.parametrize(
    "mutate",
    [
        lambda o: o.pop("points"),
        lambda o: o.__setitem__("k", 9),
        lambda o: o["points"][2].pop(),
        lambda o: o["points"][1].__setitem__(0, "x"),
        lambda o: o["points"].__setitem__(0, list(o["points"][1])),
        lambda o: o["points"][3].append("1"),
    ],
)
def test_reader_rejects_bad_documents(tmp_path, mutate):
    obj = serialize.config_to_obj(co.random_config(10, 9))
    mutate(obj)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(co.FormatError):
        serialize.load_config(path)


@pytest.mark.parametrize("bad", [1.5, 4.0, True, None, [1], "1.5", "1e3", ""])
def test_reader_rejects_non_integer_coordinates(tmp_path, bad):
    obj = serialize.config_to_obj(co.random_config(10, 9))
    obj["points"][0][1] = bad
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(co.FormatError):
        serialize.load_config(path)


def test_decimal_text_splits_at_a_bounded_ladder():
    # str(Decimal(n)) is decimal's own conversion, under no int/str digit cap.
    # Up to about 50k digits the splits use the rungs 10 ** (579 * 2 ** j),
    # j = 0..6, whatever the bit lengths in between: no rung per bit length
    digits._rung.cache_clear()
    rng = random.Random(7)
    values = [9, 10 ** 579 - 1, 10 ** 579, 10 ** 1158, 10 ** 37056 - 1, 10 ** 37056 + 1]
    for bits in [1920, 1921, 1923, 1924, 1930, *range(2000, 166000, 8191), 166096]:
        values.append(rng.getrandbits(bits) | 1 << (bits - 1))
    assert int_to_decimal(0) == "0"
    for v in values:
        want = str(decimal.Decimal(v))
        assert int_to_decimal(v) == want and int_to_decimal(-v) == "-" + want
    assert max(values).bit_length() == 166096  # 50,000 digits
    assert digits._rung.cache_info().currsize == 7


def test_decimal_reading_splits_at_the_same_ladder():
    # int(Decimal(text)) is decimal's own conversion, under no int/str digit
    # cap.  Texts on both sides of each rung width 579 * 2 ** j, signed and
    # with leading zeros; a 50k-digit read takes the rungs j = 0..6 alone
    rng = random.Random(11)
    lengths = [1, 578, 579, 580, 1158, 1159, 1160, 2316, 2317, 2318, 4633, 9265, 18529,
               37055, 37056, 37057, 50000]
    for n in lengths:
        body = str(rng.randint(1, 9)) + "".join(rng.choice("0123456789") for _ in range(n - 1))
        for text in (body, "-" + body, "+" + body, "0" * rng.randint(1, 700) + body,
                     "-" + "0" * 579 + body):
            assert decimal_to_int(text) == int(decimal.Decimal(text)), (n, text[:3])
    digits._rung.cache_clear()
    assert decimal_to_int("7" * 50000) == int(decimal.Decimal("7" * 50000))
    assert digits._rung.cache_info().currsize == 7


def test_reader_rejects_zero_point(tmp_path):
    obj = serialize.config_to_obj(co.random_config(10, 9))
    obj["points"][0] = [0, "0", 0, 0]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(co.FormatError):
        serialize.load_config(path)


def test_decimal_text_past_the_digit_cap():
    rng = random.Random(3)
    for bits in (1, 64, 1920, 1921, 14300, 40000):
        n = rng.getrandbits(bits) | 1 << (bits - 1)
        for v in (n, -n):
            assert decimal_to_int(int_to_decimal(v)) == v
    assert int_to_decimal(12345) == "12345"
    assert int_to_decimal(-10 ** 5000) == "-1" + "0" * 5000
    assert decimal_to_int("+" + "0" * 6000 + "42") == 42
    for bad in ("", "-", "1.5", "1_000", "0x10", "1e5"):
        with pytest.raises(ValueError):
            decimal_to_int(bad)


def test_tall_coordinates_roundtrip(tmp_path):
    # a projective image with coordinates past Python's 4300-digit int/str cap
    small = co.random_config(7, 10)
    rng = random.Random(4)
    big = 10 ** 4400
    rows = [[big * (i == j) + rng.randint(-9, 9) for j in range(4)] for i in range(4)]
    tall = moved(small, rows)
    assert max(abs(v).bit_length() for p in tall.points for v in p.coords) > 14300
    path = tmp_path / "tall.json"
    serialize.dump_json(path, serialize.config_to_obj(tall))
    assert serialize.load_config(path) == tall
    assert co.canonical_form(serialize.load_config(path)) == co.canonical_form(small)
    # the same coordinates as plain JSON integers
    rows = ("[%s]" % ",".join(row) for row in serialize.config_to_obj(tall)["points"])
    path.write_text('{"k": 8, "points": [%s]}' % ",".join(rows))
    assert serialize.load_config(path) == tall


def test_canonical_encoding_past_the_digit_cap():
    form = co.canonical.serialize_points(8, [(1, 0, 0, 0), (10 ** 5000, -3, 0, 7)])
    assert form == b"8|1,0,0,0;1" + b"0" * 5000 + b",-3,0,7"


def test_reader_rejects_non_json(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("not json {")
    with pytest.raises(co.FormatError):
        serialize.load_config(path)


def test_dump_is_deterministic(tmp_path):
    cfg = co.random_config(11, 30)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    serialize.dump_json(a, serialize.config_to_obj(cfg))
    serialize.dump_json(b, serialize.config_to_obj(cfg))
    assert a.read_bytes() == b.read_bytes()


def test_report_object_shape():
    report = co.coxeter_iterate(special_coplanar_config(0), 1)
    obj = serialize.report_to_obj(report)
    assert set(obj) == {"steps_requested", "configurations", "star_ok", "coplanar_tuples",
                        "tracked", "degrees", "canonical_forms", "all_pairwise_inequivalent"}
    assert len(obj["configurations"]) - 1 == 1
    assert obj["degrees"] == [1, 3]
    assert obj["coplanar_tuples"] == [[[5, 6, 7, 8]], []]
    assert obj["tracked"][0] == {"d": 1, "m": [0, 0, 0, 0, 1, 1, 1, 1]}
    assert len(obj["configurations"]) == 2
    json.dumps(obj)  # must be serializable as-is


def test_report_roundtrip(tmp_path):
    full = co.coxeter_iterate(co.random_config(7, 10), 12)
    # points 5 and 6 share the ratio x0 : x3, so their images and e1, e2 are
    # coplanar after one step, and (*) fails there
    with pytest.raises(co.StarViolationError) as err:
        co.coxeter_iterate(cfg_from_rows(
            [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
             (1, 1, 1, 1), (1, 2, 3, 1), (1, 1, 2, 3), (3, 1, 1, 2)]), 3)
    partial = err.value.partial_report
    assert partial.steps_completed == 1 and partial.star_ok == (True, False)
    assert len(partial.coplanar_tuples[0]) == 3  # no plane class: the check fails
    for report, verdict in ((full, True), (partial, False)):
        obj = serialize.report_to_obj(report)
        assert serialize.report_from_obj(obj) == report
        path = tmp_path / "report.json"
        serialize.dump_json(path, obj)
        back = serialize.report_from_obj(serialize.load_json(path))
        assert back == report and co.consistency_check(back) is verdict


@pytest.mark.parametrize("mutate", [
    lambda o: o["degrees"].__setitem__(-1, o["degrees"][-1] + 1),
    lambda o: o["degrees"].pop(),
    lambda o: o["tracked"].__setitem__(0, {"d": 2, "m": [0, 0, 0, 0, 1, 1, 1, 1]}),
    lambda o: o.__setitem__("all_pairwise_inequivalent", False),
    lambda o: o["star_ok"].__setitem__(0, 1),
    lambda o: o["star_ok"].__setitem__(0, False),
    lambda o: o["coplanar_tuples"].__setitem__(0, 5),
    lambda o: o["coplanar_tuples"].__setitem__(0, ["1234"]),
    lambda o: o["coplanar_tuples"].__setitem__(0, [[1, 2, 3]]),
    lambda o: o["coplanar_tuples"].__setitem__(0, [[1, 2, 3, 9]]),
    lambda o: o["coplanar_tuples"].__setitem__(0, [[2, 1, 3, 4]]),
    lambda o: o["coplanar_tuples"].__setitem__(0, [["1", "2", "3", "4"]]),
    lambda o: o["canonical_forms"].__setitem__(0, None),
    lambda o: o.pop("configurations"),
    lambda o: o.update(star_ok=[], degrees=[], tracked=[], coplanar_tuples=[],
                       configurations=[], canonical_forms=[]),
    lambda o: o["tracked"][1]["m"].__setitem__(0, o["tracked"][1]["m"][0] + 1),
    lambda o: o["tracked"][0].__setitem__("e", 0),
    # tracked[0] is {"d": 1, "m": [0, 0, 0, 0, 1, 1, 1, 1]}: equal values, other JSON types
    lambda o: o["tracked"].__setitem__(0, {"d": 1.0, "m": [0, 0, 0, 0, 1, 1, 1, 1]}),
    lambda o: o["tracked"].__setitem__(0, {"d": True, "m": [0, 0, 0, 0, 1, 1, 1, 1]}),
    lambda o: o["tracked"].__setitem__(0, {"d": 1, "m": [0, 0, 0, 0, 1, 1, 1, 1.0]}),
    lambda o: o["tracked"].__setitem__(0, {"d": 1, "m": [False, 0, 0, 0, 1, 1, 1, 1]}),
    lambda o: o["tracked"].__setitem__(0, {"d": 1, "m": "00001111"}),
    lambda o: o["degrees"].__setitem__(0, "1"),
    lambda o: o["degrees"].__setitem__(0, 1.0),
    lambda o: o.pop("tracked"),
    lambda o: o.__setitem__("configurations",
                            [serialize.config_to_obj(co.random_config(1, 6, k=9))] * 3),
    # 2 steps completed, the last with (*) holding: only 2 is the request the iterate wrote
    lambda o: o.__setitem__("steps_requested", "2"),
    lambda o: o.__setitem__("steps_requested", 0),
    lambda o: o.__setitem__("steps_requested", 1),
    lambda o: o.__setitem__("steps_requested", 3),
    # (*) failing before the last step, which the iterate never writes: it stops there
    lambda o: (o["coplanar_tuples"].__setitem__(0, [[1, 2, 3, 4]]),
               o["star_ok"].__setitem__(0, False)),
])
def test_report_reader_rejects_inconsistent_reports(mutate):
    obj = serialize.report_to_obj(co.coxeter_iterate(co.random_config(7, 10), 2))
    mutate(obj)
    with pytest.raises(co.FormatError):
        serialize.report_from_obj(obj)


def test_orbit_object_shape():
    cfg = co.random_config(12, 6)
    graph = co.orbit_bfs(cfg, 0, 10)
    obj = serialize.orbit_to_obj(graph)
    assert len(obj["nodes"]) == 1
    assert obj["nodes"][0]["depth"] == 0
    assert set(obj["nodes"][0]) == {"canonical_form", "depth", "points"}
    assert obj["edges"] == [] and obj["degenerate"] == []
    json.dumps(obj)


def test_jordan_and_distinctness_objects():
    jc = serialize.jordan_to_obj(co.jordan_certificate(co.coxeter_element(8)))
    assert jc["multiplicity_of_one"] == 3
    assert jc["ranks"] == [8, 7, 6, 6]
    assert jc["eigenvalue_one_block_sizes"] == [3]
    dc = serialize.distinctness_to_obj(
        co.distinctness_certificate(co.plane_through_last_four(8), 20)
    )
    assert dc["all_distinct"] is True
    assert dc["degrees"][:4] == ("1", "3", "2", "3")  # rendered once, as DecimalTexts
    json.dumps(jc)
    json.dumps(dc)


def test_manifest_and_degree_csv(tmp_path):
    out = tmp_path / "out.json"
    serialize.write_manifest(out, "gen", {"seed": 1}, [out])
    manifest = json.loads((tmp_path / "out.json.manifest.json").read_text())
    assert manifest["command"] == "gen"
    assert manifest["parameters"] == {"seed": 1}
    assert manifest["tool_version"] == co.__version__
    assert "generated_at" in manifest

    csv_path = tmp_path / "deg.csv"
    serialize.write_degree_csv(csv_path, (1, 3, 2))
    assert csv_path.read_text().splitlines() == ["step,degree", "0,1", "1,3", "2,2"]


def test_degree_csv_matches_csv_writer(tmp_path):
    # degrees on both sides of 10 ** 579 (about 1923 bits), where digits.int_to_decimal splits
    rng = random.Random(5)
    degrees = [0, 1, -7]
    degrees += [rng.getrandbits(bits) | 1 << (bits - 1) for bits in (64, 1919, 1920, 1921, 4000)]
    path = tmp_path / "deg.csv"
    serialize.write_degree_csv(path, degrees)
    want = io.StringIO(newline="")
    writer = csv.writer(want)
    writer.writerow(["step", "degree"])
    writer.writerows(enumerate(degrees))
    assert path.read_bytes() == want.getvalue().encode("ascii")
    text = want.getvalue()
    assert text.startswith("step,degree\r\n") and text.count("\r\n") == len(degrees) + 1
    assert text.count("\n") == len(degrees) + 1


def test_decimal_texts_write_as_the_ints_they_render(tmp_path):
    # rendered once, for both writers: the bytes must be those of the ints
    rng = random.Random(6)
    ints = [0, 5, -7, 10 ** 700, -(10 ** 700) - 1]
    ints += [rng.getrandbits(bits) for bits in (64, 1920, 1921, 4000, 14000)]
    texts = serialize.DecimalTexts(ints)
    assert list(texts) == [str(n) for n in ints]
    for obj, want in (({"degrees": texts, "k": 8}, {"degrees": ints, "k": 8}),
                      ([texts, serialize.DecimalTexts([])], [ints, []])):
        path = tmp_path / "out.json"
        serialize.dump_json(path, obj)
        assert path.read_text() == json.dumps(want, indent=2, sort_keys=True) + "\n"
    serialize.write_degree_csv(tmp_path / "texts.csv", texts)
    serialize.write_degree_csv(tmp_path / "ints.csv", ints)
    assert (tmp_path / "texts.csv").read_bytes() == (tmp_path / "ints.csv").read_bytes()


def test_decimal_texts_render_a_decimal_as_the_equal_int(tmp_path):
    # a Decimal by str, an int by int_to_decimal: one text, past the 4300-digit cap too
    ints = [0, -7, 10 ** 579 - 1, 10 ** 579 + 1, random.Random(8).getrandbits(1921) | 1 << 1920,
            10 ** 4999 + 7, -(10 ** 4999)]
    decimals = [decimal.Decimal(n) for n in ints]
    assert decimals == ints
    texts = serialize.DecimalTexts(decimals)
    assert texts == serialize.DecimalTexts(ints) == tuple(map(int_to_decimal, ints))
    assert texts[-2:] == ("1" + "0" * 4998 + "7", "-1" + "0" * 4999)
    serialize.write_degree_csv(tmp_path / "decimals.csv", decimals)
    serialize.write_degree_csv(tmp_path / "ints.csv", ints)
    assert (tmp_path / "decimals.csv").read_bytes() == (tmp_path / "ints.csv").read_bytes()


def test_json_writer_matches_json_dumps(tmp_path):
    cfg = co.random_config(7, 10)
    objs = [
        serialize.report_to_obj(co.coxeter_iterate(cfg, 3)),
        serialize.orbit_to_obj(co.orbit_bfs(cfg, 1, 100, workers=1)),
        {"k": 8, "empty": [], "none": {}, "t": (1, (2, 3)), "flags": [True, False, None],
         "x": 1.5, "text": "caf\u00e9 \"q\"\n", "neg": -3, "nested": [[], [{}], {"a": [1]}]},
        [],
        "plain",
    ]
    path = tmp_path / "out.json"
    for obj in objs:
        serialize.dump_json(path, obj)
        assert path.read_text() == json.dumps(obj, indent=2, sort_keys=True) + "\n"


def test_distinctness_past_the_digit_cap(tmp_path):
    # degrees past Python's 4300-digit int/str cap, as lattice-cert reaches near N = 30000
    degrees = (1, 3, 10 ** 4999 + 7, -(10 ** 4999))
    rep = co.DistinctnessReport(co.plane_through_last_four(8), None, degrees, True)
    path = tmp_path / "cert.json"
    serialize.dump_json(path, serialize.distinctness_to_obj(rep))
    obj = serialize.load_json(path)
    assert tuple(obj["degrees"]) == degrees
    assert obj["start"] == serialize.divisor_to_obj(rep.start)
    csv_path = tmp_path / "cert.json.degrees.csv"
    serialize.write_degree_csv(csv_path, rep.degrees)
    rows = csv_path.read_text().splitlines()
    assert rows[0] == "step,degree"
    assert [tuple(map(decimal_to_int, row.split(","))) for row in rows[1:]] == list(enumerate(degrees))
