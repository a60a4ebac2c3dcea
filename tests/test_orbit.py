"""Orbit drivers: words, the Cremona-then-shift iteration, BFS exploration."""

import dataclasses
import random

import pytest

import cremona_orbits as co
from cremona_orbits import linalg
from cremona_orbits import orbit as orbit_mod
from cremona_orbits import serialize
from cremona_orbits.canonical import normalized_at
from cremona_orbits.projective import BracketTable
from helpers import cfg_from_rows, rand_permutation, special_coplanar_config, star_failing_configs

CENTERS = co.CenterSet((1, 2, 3, 4))


# ---------------------------------------------------------------------------
# apply_word

def test_empty_word_is_identity():
    cfg = co.random_config(50, 8)
    out, shadow = co.apply_word(cfg, co.CremonaWord(()))
    assert out == cfg
    assert shadow.entries == linalg.identity(9)


def test_cremona_twice_word():
    cfg = co.random_config(51, 8)
    word = co.CremonaWord((co.CremonaMove(CENTERS), co.CremonaMove(CENTERS)))
    out, shadow = co.apply_word(cfg, word)
    assert shadow.entries == linalg.identity(9)
    assert co.equivalent(out, cfg)


def test_coxeter_step_word_shadow():
    cfg = co.random_config(52, 8)
    out, shadow = co.apply_word(cfg, co.CremonaWord.coxeter_step(8))
    assert shadow == co.coxeter_element(8)
    assert out == co.permute_config(co.cremona_at(cfg, CENTERS), co.cyclic_shift(8))


def test_shadow_is_multiplicative():
    cfg = co.random_config(53, 8)
    w1 = co.CremonaWord((co.CremonaMove(CENTERS),))
    w2 = co.CremonaWord((co.PermuteMove(co.cyclic_shift(8)),))
    mid, s1 = co.apply_word(cfg, w1)
    out, s2 = co.apply_word(mid, w2)
    both, s12 = co.apply_word(cfg, co.CremonaWord(w1.moves + w2.moves))
    assert both == out
    assert s12.entries == linalg.mat_mul(s2.entries, s1.entries)  # later moves on the left


def _dense_shadow(k, word):
    """The product of the dense maps of the word's moves, later moves on the left."""
    prod = linalg.identity(k + 1)
    for mv in word.moves:
        step = (co.cremona_map(k, mv.centers.indices) if isinstance(mv, co.CremonaMove)
                else co.permutation_map(k, mv.perm))
        prod = linalg.mat_mul(step.entries, prod)
    return prod


@pytest.mark.parametrize("k", [8, 9])
def test_shadow_equals_dense_product(k):
    # seeded so that every word satisfies (*) at each of its Cremona moves
    rng = random.Random(10 * k)
    cfg = co.random_config(10 * k, 10, k=k)
    for _ in range(20):
        word = co.CremonaWord(
            co.CremonaMove(co.CenterSet(tuple(rng.sample(range(1, k + 1), 4))))
            if rng.random() < 0.5 else co.PermuteMove(rand_permutation(rng, k))
            for _ in range(rng.randint(1, 6)))
        _, shadow = co.apply_word(cfg, word)
        assert shadow.entries == _dense_shadow(k, word)


def test_word_reports_violating_step():
    cfg = special_coplanar_config(0)
    word = co.CremonaWord((
        co.PermuteMove(tuple(range(1, 9))),
        co.CremonaMove(co.CenterSet((5, 6, 7, 8))),
    ))
    with pytest.raises(co.StarViolationError) as err:
        co.apply_word(cfg, word)
    assert err.value.step == 1
    assert err.value.violation.plane == (5, 6, 7, 8)


def test_word_validates_indices():
    cfg = co.random_config(54, 8)
    with pytest.raises(ValueError):
        co.apply_word(cfg, co.CremonaWord((co.CremonaMove(co.CenterSet((1, 2, 3, 9))),)))


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
    assert all(co.is_root_class(c) for c in report.tracked)
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
    assert err.value.step == 0
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
    # oracles: canonical_form and coplanar_scan build the full table of the stored points
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
            assert report.coplanar_tuples[i] == co.coplanar_scan(cfg)
    assert reports[1].coplanar_tuples[0] == ((5, 6, 7, 8),)
    assert reports[3].coplanar_tuples[0] == ((1, 2, 3, 4),)
    assert reports[4].coplanar_tuples[0] == ((1, 2, 3, 4), (1, 2, 7, 8), (2, 3, 5, 8), (5, 6, 7, 8))


def test_condition_star_reads_brackets_without_cramer(monkeypatch):
    generic, special = co.random_config(7, 10), special_coplanar_config(0)
    report = co.coxeter_iterate(generic, 3)  # built before counting: its moves use cramer
    calls = {"cramer": 0}
    real = co.projective.cramer

    def counted(*args):
        calls["cramer"] += 1
        return real(*args)

    monkeypatch.setattr(co.projective, "cramer", counted)
    assert co.star_violation(generic, CENTERS) is None
    witness = co.StarViolation(plane=(5, 6, 7), point=8)
    assert co.star_violation(special, co.CenterSet((1, 5, 6, 7))) == witness
    assert co.consistency_check(report)
    assert calls["cramer"] == 0
    co.cremona_at(generic, CENTERS)
    assert calls["cramer"] == 8 - 4


def test_consistency_check_reads_only_residues_of_a_tall_report(monkeypatch):
    # the 17-step report has no zero bracket, so no bracket has a zero residue
    # mod p = 2^61 - 1: the check takes one det4 per bracket, of residues
    # (absolute value at most (p - 1) / 2), and no exact one of the stored
    # points, which reach 15.9k bits
    report = co.coxeter_iterate(co.random_config(7, 10), 17)
    assert report.coplanar_tuples == ((),) * 18 and max(report.bit_lengths) > 15000
    operands = []
    real = co.projective.det4

    def counted(m):
        operands.extend(v for row in m for v in row)
        return real(m)

    monkeypatch.setattr(co.projective, "det4", counted)
    assert co.consistency_check(report)
    assert len(operands) == 18 * 70 * 16
    assert all(abs(v) <= ((1 << 61) - 1) // 2 for v in operands)


def test_consistency_check_detects_corruption():
    report = co.coxeter_iterate(co.random_config(7, 10), 2)
    assert co.consistency_check(report)
    bad_star = dataclasses.replace(report, star_ok=(False,) + report.star_ok[1:])
    assert not co.consistency_check(bad_star)
    bad_tracked = dataclasses.replace(
        report, tracked=(co.hyperplane_class(8),) + report.tracked[1:]
    )
    assert not co.consistency_check(bad_tracked)
    bad_scan = dataclasses.replace(
        report, coplanar_tuples=(((1, 2, 3, 4),),) + report.coplanar_tuples[1:]
    )
    assert not co.consistency_check(bad_scan)
    # a true coplanar 4-tuple left out of the report: its zero must be found
    special = co.coxeter_iterate(special_coplanar_config(0), 1)
    assert co.consistency_check(special)
    missed = dataclasses.replace(special, coplanar_tuples=((),) + special.coplanar_tuples[1:])
    assert not co.consistency_check(missed)


# ---------------------------------------------------------------------------
# orbit BFS

def test_orbit_depth_zero():
    cfg = co.random_config(55, 8)
    graph = co.orbit_bfs(cfg, 0, 100)
    assert len(graph.nodes) == 1
    assert graph.edges == ()
    assert not graph.truncated
    assert graph.frontier_remaining == 1
    (node,) = graph.nodes.values()
    assert node.depth == 0
    assert node.parent_edge is None
    assert node.canonical_form == co.canonical_form(cfg)


def test_orbit_depth_one_counts_and_parents():
    cfg = co.random_config(56, 6)
    graph = co.orbit_bfs(cfg, 1, 1000)
    assert len(co.orbit_bfs(cfg, 0, 1000).nodes) <= len(graph.nodes)
    assert len(graph.nodes) == 71
    assert len(graph.edges) == 70
    root = co.canonical_form(cfg)
    for node in graph.nodes.values():
        if node.depth == 1:
            assert node.parent_edge[0] == root
            assert node.canonical_form == co.canonical_form(node.representative)
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
    paths = [tmp_path / "orbit-1.json", tmp_path / "orbit-2.json"]
    serialize.dump_json(paths[0], serialize.orbit_to_obj(graph))
    serialize.dump_json(paths[1], serialize.orbit_to_obj(co.orbit_bfs(cfg, 2, 1000, workers=2)))
    assert paths[0].read_bytes() == paths[1].read_bytes()


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
    monkeypatch.setattr(orbit_mod.os, "cpu_count", lambda: 4)
    assert orbit_mod.worker_count(1000, 70) == 4
    assert orbit_mod.worker_count(1000, 3) == 3
    assert orbit_mod.worker_count(2, 70) == 2
    assert orbit_mod.worker_count(0, 70) == 1
    assert orbit_mod.worker_count(5, 0) == 1
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
            # a worker sends back a form or None, never a bracket table
            assert all(r is None or type(r) is bytes for r in results)
            return results

    monkeypatch.setattr(orbit_mod, "ProcessPoolExecutor", Recording)
    monkeypatch.setattr(orbit_mod.os, "cpu_count", lambda: 2)
    graph = co.orbit_bfs(co.random_config(56, 6), 1, 1000, workers=10 ** 6)
    assert sizes == [2]
    assert len(graph.nodes) == 71


def test_orbit_records_degenerate_children(monkeypatch):
    cfg = co.random_config(58, 8)
    real = orbit_mod.canonical_form
    root = co.canonical_form(cfg)
    calls = {"n": 0}

    def flaky(config):
        calls["n"] += 1
        if calls["n"] in (1, 2):  # the root's form is not a worker's
            raise co.NoFrameError("synthetic degenerate child")
        return real(config)

    monkeypatch.setattr(orbit_mod, "canonical_form", flaky)
    graph = co.orbit_bfs(cfg, 1, 1000, workers=1)
    assert len(graph.degenerate) == 2
    assert all(parent == root for parent, _ in graph.degenerate)
    assert len(graph.nodes) == 69  # two children were skipped
