"""Orbit drivers: the Cremona-then-shift iteration and the BFS exploration."""

import collections
import dataclasses
import itertools
import os
import random
import subprocess
import sys

import pytest

import cremona_orbits as co
from cremona_orbits import linalg
from cremona_orbits import orbit as orbit_mod
from cremona_orbits import serialize
from cremona_orbits.canonical import _scan, normalized_at
from cremona_orbits.projective import BracketTable, cremona_image
from helpers import (cfg_from_rows, same_labelled_points, small_config, special_coplanar_config,
                     star_failing_configs, stored_stepping_iterate, table_zeros)

CENTERS = co.CenterSet((1, 2, 3, 4))


# ---------------------------------------------------------------------------
# the iteration

def test_iteration_on_generic_configuration():
    cfg = co.random_config(7, 10)
    report = co.coxeter_iterate(cfg, 3)
    assert report.steps_completed == 3
    assert not report.truncated
    assert report.star_ok == (True,) * 4
    assert report.coplanar_tuples == ((), (), (), ())
    assert report.tracked == tuple(co.iterate_class(co.plane_through_last_four(8), 3))
    assert report.degrees == (1, 3, 2, 3)
    assert report.all_pairwise_inequivalent
    assert not co.equivalent(report.configs[0], report.configs[1])
    assert all(4 * c.d == sum(c.m) for c in report.tracked)  # root classes
    assert co.consistency_check(report)


def test_iteration_tracks_coplanar_tuple_of_special_configuration():
    report = co.coxeter_iterate(special_coplanar_config(0), 1)
    assert report.coplanar_tuples == (((5, 6, 7, 8),), ())
    assert report.star_ok == (True, True)
    assert co.consistency_check(report)


def test_iteration_validates_arguments():
    with pytest.raises(co.UsageError):
        co.coxeter_iterate(co.random_config(1, 6, k=9), 1)
    with pytest.raises(co.UsageError):
        co.coxeter_iterate(co.random_config(1, 6), 0)


@pytest.mark.parametrize("steps", [2, 10**9])
def test_iteration_star_violation_carries_partial_report(steps):
    # a huge step count must fail at once: nothing is computed ahead of the moves
    cfg = cfg_from_rows(
        [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
         (1, 1, 1, 0), (1, 2, 3, 4), (1, 1, 2, 3), (3, 1, 1, 2)]
    )
    with pytest.raises(co.StarViolationError) as err:
        co.coxeter_iterate(cfg, steps)
    assert str(err.value).startswith("at step 0: ")
    partial = err.value.partial_report
    assert partial is not None
    assert partial.steps_completed == 0
    assert partial.star_ok == (False,)
    assert partial.truncated


def test_one_bracket_table_per_configuration(monkeypatch):
    cfg = co.random_config(7, 10)  # drawn before counting: random_config uses adjugate4
    calls = {"det4": 0, "adjugate4": 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(co.projective, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(co.projective, name, counted)
    monkeypatch.setattr(orbit_mod, "det4", co.projective.det4)  # the rescan's det4
    report = co.coxeter_iterate(cfg, 3)
    # per configuration: the 17 brackets around the centers, the 70 of its normalized copy
    iterate = 4 * (17 + 70)
    assert calls == {"det4": iterate, "adjugate4": 0}
    assert co.consistency_check(report)
    assert calls == {"det4": iterate + 4 * 70, "adjugate4": 0}
    graph = co.orbit_bfs(cfg, 1, 1000, workers=1)
    assert len(graph.nodes) == 71
    assert calls == {"det4": iterate + (4 + 71) * 70, "adjugate4": 0}


def test_iterate_scans_from_normalized_copy_match_full_tables():
    # oracles: canonical_form and table_zeros build the full table of the stored points
    # two_planes: the scan must not follow the order in which the iterate's table read
    # its brackets
    unit_not_5, no_base, two_planes = star_failing_configs()
    short = normalized_at(BracketTable(unit_not_5), CENTERS.indices)
    assert short is not None and short.point(5).coords != (1, 1, 1, 1)
    # [1234] = 0: the iterate falls back to the full table
    assert normalized_at(BracketTable(no_base), CENTERS.indices) is None
    reports = [co.coxeter_iterate(co.random_config(7, 10), 12),
               co.coxeter_iterate(special_coplanar_config(0), 1)]
    for bad in (unit_not_5, no_base, two_planes):
        with pytest.raises(co.StarViolationError) as err:
            co.coxeter_iterate(bad, 1)
        reports.append(err.value.partial_report)
    for report in reports:
        for i, cfg in enumerate(report.configs):
            assert report.canonical_forms[i] == co.canonical_form(cfg)
            assert report.coplanar_tuples[i] == table_zeros(cfg)
    assert reports[1].coplanar_tuples[0] == ((5, 6, 7, 8),)
    assert reports[3].coplanar_tuples[0] == ((1, 2, 3, 4),)
    assert reports[4].coplanar_tuples[0] == ((1, 2, 3, 4), (1, 2, 7, 8), (2, 3, 5, 8), (5, 6, 7, 8))


def test_condition_star_is_read_off_the_cramer_vectors_of_the_move(monkeypatch):
    # a lone star_violation or cremona_at makes one Cramer call at the
    # centers, which gives the k - 4 vectors that decide (*);
    # consistency_check makes none
    generic, special = co.random_config(7, 10), special_coplanar_config(0)
    report = co.coxeter_iterate(generic, 3)  # built before counting: its moves use cramer
    calls = []
    real = co.projective.cramer

    def counted(br, base):
        vecs = real(br, base)
        calls.append(len(vecs))
        return vecs

    monkeypatch.setattr(co.projective, "cramer", counted)
    assert co.consistency_check(report)
    assert calls == []
    witness = co.StarViolation(plane=(5, 6, 7), point=8)
    assert co.star_violation(special, co.CenterSet((1, 5, 6, 7))) == witness
    assert calls == [8 - 4]
    with pytest.raises(co.StarViolationError) as err:
        co.cremona_at(special, co.CenterSet((1, 5, 6, 7)))
    assert err.value.violation == witness
    assert calls == [8 - 4] * 2
    for cfg in (generic, co.random_config(7, 10, k=13)):
        calls.clear()
        assert co.star_violation(cfg, CENTERS) is None
        assert calls == [cfg.k - 4]
        co.cremona_at(cfg, CENTERS)
        assert calls == [cfg.k - 4] * 2


def test_cramer_plans_hold_every_base_of_k13():
    # one plan per base: the 715 bases of k = 13 fit the cache, so a second
    # sweep of star_violation over every center set builds none.  A fresh
    # import builds no plan and interns no subset
    fresh = subprocess.run(
        [sys.executable, "-c", "import cremona_orbits.projective as p; "
         "print(p._cramer_plan.cache_info().currsize, len(p._SUBSETS))"],
        env={**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(co.__file__))},
        capture_output=True, text=True, check=True)
    assert fresh.stdout.split() == ["0", "0"]
    cfg = co.random_config(5, 10, k=13)
    plans = co.projective._cramer_plan
    subsets = [co.CenterSet(sub) for sub in itertools.combinations(range(1, 14), 4)]
    assert len(subsets) == 715
    for centers in subsets:
        assert co.star_violation(cfg, centers) is None
    before = plans.cache_info()
    for centers in subsets:
        co.star_violation(cfg, centers)
    after = plans.cache_info()
    assert after.hits - before.hits == 715
    assert after.misses == before.misses
    assert after.currsize >= 715


def test_consistency_check_reads_only_residues_of_a_tall_report(monkeypatch):
    # the 17-step report has no zero bracket, so no bracket has a zero residue
    # mod p = 2^61 - 1: the check takes one det4 per bracket, of residues
    # (absolute value at most (p - 1) / 2), and no exact one of the stored
    # points; stepped from the stored points, they reach 15.9k bits
    report = stored_stepping_iterate(co.random_config(7, 10), 17)
    assert report.coplanar_tuples == ((),) * 18 and max(report.bit_lengths) > 15000
    operands = []
    real = orbit_mod.det4

    def counted(m):
        operands.extend(v for row in m for v in row)
        return real(m)

    monkeypatch.setattr(orbit_mod, "det4", counted)
    assert co.consistency_check(report)
    assert len(operands) == 18 * 70 * 16
    assert all(abs(v) <= ((1 << 61) - 1) // 2 for v in operands)


@pytest.mark.parametrize("seed, height", [(7, 10), (3, 20)])
def test_copy_stepped_iterate_matches_stored_stepping(seed, height):
    # the move from the normalized copy changes the stored points' frame, not
    # their class: every step keeps its labelled points up to PGL(4), and
    # with them every field the scans and the lattice give
    root = co.random_config(seed, height)
    new, old = co.coxeter_iterate(root, 17), stored_stepping_iterate(root, 17)
    assert new.steps_completed == old.steps_completed == 17
    for field in ("canonical_forms", "star_ok", "coplanar_tuples", "tracked"):
        assert getattr(new, field) == getattr(old, field), field
    assert all(same_labelled_points(new.configs[n], old.configs[n]) for n in (1, 2, 9, 17))
    assert new.bit_lengths[17] * 3 < old.bit_lengths[17]


def step_three_failing_root():
    """A root on which condition (*) first fails at step 3 of the iterate.

    [2345] = 0 puts point 5 on the plane of centers 2, 3, 4; three Coxeter
    steps back (the shift undone, then the Cremona move, its own inverse)
    give the root.
    """
    root = co.permute_config(special_coplanar_config(0), (1, 5, 6, 7, 8, 2, 3, 4))
    unshift = (8, 1, 2, 3, 4, 5, 6, 7)
    for _ in range(3):
        root = co.cremona_at(co.permute_config(root, unshift), CENTERS)
    return root


def test_copy_stepped_iterate_fails_where_stored_stepping_fails():
    root = step_three_failing_root()
    errors = []
    for iterate in (co.coxeter_iterate, stored_stepping_iterate):
        with pytest.raises(co.StarViolationError) as err:
            iterate(root, 6)
        errors.append(err.value)
    new, old = errors
    assert new.partial_report.steps_completed == old.partial_report.steps_completed == 3
    assert str(new) == str(old) == "at step 3: " + new.violation.describe()
    assert new.violation == old.violation == co.StarViolation(plane=(2, 3, 4), point=5)
    for field in ("canonical_forms", "star_ok", "coplanar_tuples", "tracked"):
        assert getattr(new.partial_report, field) == getattr(old.partial_report, field), field


def test_stored_steps_follow_cremona_at_of_the_stored_points():
    # a route that never builds the normalized copy: the Cremona move of the
    # stored points themselves, then the shift
    report = co.coxeter_iterate(co.random_config(7, 10), 6)
    shift = co.cyclic_shift(8)
    for n in (0, 1, 5):
        step = co.permute_config(co.cremona_at(report.configs[n], CENTERS), shift)
        assert co.equivalent(step, report.configs[n + 1])
        assert same_labelled_points(step, report.configs[n + 1])


def test_derived_star_matches_the_stored_points_own_table():
    # the report derives (*) from the coplanar tuples of the copy it scanned;
    # the oracle reads the witness from the stored points' own table.  The
    # special root's coplanar tuple {5,6,7,8} holds no three centers.
    reports = [co.coxeter_iterate(co.random_config(7, 10), 17),
               co.coxeter_iterate(special_coplanar_config(0), 1)]
    for bad in (*star_failing_configs(), step_three_failing_root()):
        with pytest.raises(co.StarViolationError) as err:
            co.coxeter_iterate(bad, 6)
        reports.append(err.value.partial_report)
    verdicts = []
    for report in reports:
        for i, cfg in enumerate(report.configs):
            assert report.star_ok[i] == (co.star_violation(cfg, CENTERS) is None), i
            verdicts.append(report.star_ok[i])
    assert len(verdicts) == 18 + 2 + 1 + 1 + 1 + 4 and verdicts.count(False) == 4


def test_consistency_check_detects_corruption():
    report = co.coxeter_iterate(co.random_config(7, 10), 2)
    assert co.consistency_check(report)
    bad_scan = dataclasses.replace(
        report, coplanar_tuples=(((1, 2, 3, 4),),) + report.coplanar_tuples[1:]
    )
    assert not co.consistency_check(bad_scan)
    # a true coplanar 4-tuple left out of the report: its zero must be found
    special = co.coxeter_iterate(special_coplanar_config(0), 1)
    assert co.consistency_check(special)
    missed = dataclasses.replace(special, coplanar_tuples=((),) + special.coplanar_tuples[1:])
    assert not co.consistency_check(missed)
    # step 0 repeated as step 1: its scan still finds {5,6,7,8}, but the
    # class derived for step 1 has d = 3, not a plane class
    repeated = dataclasses.replace(
        special, configs=special.configs[:1] * 2,
        coplanar_tuples=special.coplanar_tuples[:1] * 2,
        canonical_forms=special.canonical_forms[:1] * 2)
    assert repeated.tracked[1].d == 3
    assert not co.consistency_check(repeated)


# ---------------------------------------------------------------------------
# the zero rescan

P = (1 << 61) - 1  # the prime of the rescan's residues


def test_coplanar_scan_is_the_bracket_zeros():
    configs = list(co.coxeter_iterate(co.random_config(7, 10), 17).configs)
    for seed in range(4):
        special = special_coplanar_config(seed)
        configs += [special, co.cremona_at(special, CENTERS)]
    # past k = 8: general position, and its Cremona image at the centers
    for k in (9, 10, 12):
        cfg = co.random_config(60 + k, 10, k=k)
        configs += [cfg, co.cremona_at(cfg, CENTERS)]
    # the stored points of the iterate's partial reports
    for bad in star_failing_configs():
        with pytest.raises(co.StarViolationError) as err:
            co.coxeter_iterate(bad, 1)
        configs += err.value.partial_report.configs
    for cfg in configs:
        assert co.coplanar_scan(cfg) == table_zeros(cfg)


# e0, e1, e2 and a point whose last coordinate is +-p or 2p, so [1234] is a
# nonzero multiple of p; every other point has a coordinate of absolute value
# at least p, and so does every 4-subset
E0, E1, E2 = (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)
TALL = [(1, 5, 3, P + 2), (2, 1, P + 4, 3), (3, 2 * P + 1, 1, 1), (P + 6, 1, 1, 5)]
MULTIPLE_OF_P = [
    [E0, E1, E2, (1, 2, 3, P)] + TALL,
    [E0, E1, E2, (1, 2, 3, 2 * P)] + TALL,
    [E0, E1, E2, (1, 2, 3, -P)] + TALL,
    # tall and negative coordinates; e1 and points 5 and 6 are collinear, so five
    # 4-subsets are coplanar
    [E0, E1, E2, (4, -3, P + 2, P), (1, 5, P + 1, 2), (2, -3, 2 * P + 2, 4),
     (3, -(P + 7), 11, P + 5), (5, 1, -(2 * P + 3), -1)],
]


@pytest.mark.parametrize("rows", MULTIPLE_OF_P)
def test_coplanar_scan_confirms_each_zero_residue_exactly_once(rows, monkeypatch):
    cfg = cfg_from_rows(rows)
    subsets = list(itertools.combinations(range(1, 9), 4))
    exact = {sub: linalg.det_bareiss([cfg.point(i).coords for i in sub]) for sub in subsets}
    assert exact[(1, 2, 3, 4)] in (P, -P, 2 * P, -2 * P)
    assert all(any(abs(v) >= P for i in sub for v in cfg.point(i).coords) for sub in subsets)
    # residues lie in -(p - 1)/2..(p - 1)/2, so a det4 call with an operand of
    # absolute value above p - 1 is an exact one; its rows name its 4-subset
    label = {p.coords: t for t, p in enumerate(cfg.points, 1)}
    tall = collections.Counter()
    real = orbit_mod.det4

    def counted(m):
        if any(abs(v) >= P for row in m for v in row):
            tall[tuple(label[row] for row in m)] += 1
        return real(m)

    monkeypatch.setattr(orbit_mod, "det4", counted)
    zeros = co.coplanar_scan(cfg)
    assert tall == {sub: 1 for sub in subsets if exact[sub] % P == 0}
    assert zeros == tuple(sub for sub in subsets if exact[sub] == 0)
    assert (1, 2, 3, 4) not in zeros


# ---------------------------------------------------------------------------
# orbit BFS

def assert_parent_edges_derive(obj):
    """The parent rule of the orbit file, applied to ``orbit_to_obj`` output.

    Every node past the root has an edge from one level up, and the first such
    edge in file order carries the node's points: they are the Cremona image of
    its source's points at its centers.
    """
    nodes = obj["nodes"]
    for target, node in enumerate(nodes):
        if node["depth"] == 0:
            continue
        parent = next(((s, c) for s, t, c in obj["edges"]
                       if t == target and nodes[s]["depth"] == node["depth"] - 1), None)
        assert parent is not None, "node %d has no edge from one level up" % target
        source = serialize.config_from_obj({"k": len(node["points"]),
                                            "points": nodes[parent[0]]["points"]})
        child = co.cremona_at(source, co.CenterSet(tuple(parent[1])))
        assert serialize.config_to_obj(child)["points"] == node["points"]


def test_orbit_depth_zero():
    cfg = co.random_config(55, 8)
    graph = co.orbit_bfs(cfg, 0, 100)
    assert len(graph.nodes) == 1
    assert graph.edges == ()
    assert not graph.truncated
    assert graph.frontier_remaining == 1
    ((form, node),) = graph.nodes.items()
    assert node.depth == 0
    assert form == co.canonical_form(cfg)


def test_orbit_depth_one_counts_and_parents():
    cfg = co.random_config(56, 6)
    graph = co.orbit_bfs(cfg, 1, 1000)
    assert len(co.orbit_bfs(cfg, 0, 1000).nodes) <= len(graph.nodes)
    assert len(graph.nodes) == 71
    assert len(graph.edges) == 70
    for form, node in graph.nodes.items():
        assert form == co.canonical_form(node.representative)
    assert_parent_edges_derive(serialize.orbit_to_obj(graph))
    assert graph.frontier_remaining == 70
    assert not graph.truncated


def test_orbit_depth_two_counts_and_workers(tmp_path, monkeypatch):
    # points 2 and 4..8 on the plane X3 = 0: every depth-1 node is expanded in 0.8 s
    cfg = cfg_from_rows(
        [(3, 4, -8, -1), (7, 6, 3, 0), (6, 2, 9, -3), (7, -5, 0, 0),
         (6, 1, -8, 0), (0, 6, 7, 0), (3, 4, -3, 0), (4, 1, -3, 0)]
    )
    calls = {"det4": 0}
    real = co.projective.det4

    def counted(*args):
        calls["det4"] += 1
        return real(*args)

    with monkeypatch.context() as patched:
        patched.setattr(co.projective, "det4", counted)
        graph = co.orbit_bfs(cfg, 2, 1000, workers=1)
    # the root's table and the forms of 240 children, 70 brackets each; the
    # 15 expanded depth-1 nodes read their children from a second table each
    assert calls["det4"] == (1 + 240 + 15) * 70
    depths = [node.depth for node in graph.nodes.values()]
    assert (len(graph.nodes), len(graph.edges), len(graph.degenerate)) == (31, 240, 0)
    assert (depths.count(1), depths.count(2)) == (15, 15)
    assert graph.frontier_remaining == 15 and not graph.truncated
    obj = serialize.orbit_to_obj(graph)
    assert_parent_edges_derive(obj)
    paths = [tmp_path / "orbit-1.json", tmp_path / "orbit-2.json"]
    serialize.dump_json(paths[0], obj)
    serialize.dump_json(paths[1], serialize.orbit_to_obj(co.orbit_bfs(cfg, 2, 1000, workers=2)))
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_orbit_parent_edges_derive_on_a_coplanar_root():
    # {5,6,7,8} is coplanar at the root: center sets that fail (*) have no edge
    graph = co.orbit_bfs(special_coplanar_config(3), 1, 1000, workers=1)
    assert (len(graph.nodes), len(graph.edges), len(graph.degenerate)) == (54, 53, 0)
    assert_parent_edges_derive(serialize.orbit_to_obj(graph))


def test_orbit_node_budget_truncates_deterministically():
    cfg = co.random_config(56, 6)
    g1 = co.orbit_bfs(cfg, 1, 12, workers=1)
    g2 = co.orbit_bfs(cfg, 1, 12, workers=2)
    assert g1.truncated and g2.truncated
    assert len(g1.nodes) == 12
    assert g1.frontier_remaining == 11
    assert set(g1.nodes) == set(g2.nodes)
    assert g1.edges == g2.edges


def test_orbit_validates_limits():
    cfg = co.random_config(57, 8)
    with pytest.raises(co.UsageError):
        co.orbit_bfs(cfg, -1, 10)
    with pytest.raises(co.UsageError):
        co.orbit_bfs(cfg, 1, 0)


def test_worker_count_is_capped(monkeypatch):
    monkeypatch.setattr(orbit_mod.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3},
                        raising=False)
    assert orbit_mod.worker_count(1000, 70) == 4
    assert orbit_mod.worker_count(1000, 3) == 3
    assert orbit_mod.worker_count(2, 70) == 2
    assert orbit_mod.worker_count(0, 70) == 1
    assert orbit_mod.worker_count(5, 0) == 1
    # pinned to fewer CPUs than the machine has: the affinity set caps the count
    monkeypatch.setattr(orbit_mod.os, "cpu_count", lambda: 8)
    monkeypatch.setattr(orbit_mod.os, "sched_getaffinity", lambda pid: {3}, raising=False)
    assert orbit_mod.worker_count(8, 70) == 1
    # without an affinity call, as on macOS, the machine's count caps it
    monkeypatch.delattr(orbit_mod.os, "sched_getaffinity", raising=False)
    assert orbit_mod.worker_count(1000, 70) == 8
    monkeypatch.setattr(orbit_mod.os, "cpu_count", lambda: None)
    assert orbit_mod.worker_count(8, 70) == 1


def test_env_workers(monkeypatch):
    monkeypatch.delenv("CREMONA_ORBITS_WORKERS", raising=False)
    assert orbit_mod.env_workers() == 1
    monkeypatch.setenv("CREMONA_ORBITS_WORKERS", " 3 ")
    assert orbit_mod.env_workers() == 3
    monkeypatch.setenv("CREMONA_ORBITS_WORKERS", "abc")
    with pytest.raises(ValueError, match="CREMONA_ORBITS_WORKERS"):
        orbit_mod.env_workers()


def test_orbit_bfs_starts_capped_pool(monkeypatch):
    # a stand-in executor records the pool size and runs the tasks in-process
    sizes = []

    class Recording:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            results = list(map(fn, tasks))
            # a worker sends back a form, never a bracket table
            assert all(type(r) is bytes for r in results)
            return results

    monkeypatch.setattr(orbit_mod, "ProcessPoolExecutor", Recording)
    monkeypatch.setattr(orbit_mod.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    graph = co.orbit_bfs(co.random_config(56, 6), 1, 1000, workers=10 ** 6)
    assert sizes == [2]
    assert len(graph.nodes) == 71


def test_every_admissible_child_has_a_frame():
    # orbit_bfs's proof, on roots full of coplanar 4-tuples and zero brackets:
    # where (*) holds at C, the child has five nonzero brackets on C + t for
    # every t, so the frame scan, where alone a form can raise NoFrameError,
    # finds a frame; each special root's first child also gets its form
    rng = random.Random(37)
    special = [special_coplanar_config(s) for s in range(8)]
    roots = special + [small_config(rng, k) for k in (8, 9, 10, 11) for _ in range(30)]
    roots += [co.random_config(s, 3, k) for s in range(5) for k in (8, 9, 10)]
    moves = 0
    for root in roots:
        br = BracketTable(root)
        children = []
        for sub in itertools.combinations(range(1, root.k + 1), 4):
            centers = co.CenterSet(sub)
            try:
                child = cremona_image(br, centers)
            except co.StarViolationError:
                continue
            child_br = BracketTable(child)
            for t in centers.complement(root.k):
                assert all(child_br[s] for s in itertools.combinations(sorted(sub + (t,)), 4))
            _scan(child_br)
            children.append(child)
        moves += len(children)
        if root in special:
            assert co.canonical_form(children[0]).startswith(b"8|")
    assert moves == 3134
