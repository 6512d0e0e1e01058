"""The line sweep agrees with the per-point routes it replaces: the runs of
``SweepIndex.line_runs`` with ``SweepIndex.mask`` at every degree of a
widened box, ``degree_region`` with the adjugate reference, ``check_shell``
with a per-point scan of the shell, and the table with one lookup per
degree.  The batteries are the acceptance suite's random cases, the deep 3-D
fans, the polytope corpus, seeded 4-D cross-polytope fans, 1-D fans and the
5-D RP^2 fan on a small box, whose lines have three outer axes."""

import random

import pytest

from toricgf import ShellCheckFailed, build_fan, support_from_ray_values
from toricgf.cohomology import (DegreeRegion, SweepIndex, check_shell, cohomology_table,
                                degree_region, sweep_index)
from toricgf.genfun import box_points

from conftest import (adjugate_degree_region, fan_battery, first_shell_failure,
                      random_fan_3d, random_support_3d, rp2_torsion_fan_data)


def line_fan(values):
    fan = build_fan(1, [[1], [-1]], [[0], [1]])
    return fan, support_from_ray_values(fan, values)


@pytest.fixture(scope="module", params=["acceptance", "deep", "polytopes", "cross4d", "1d", "rp2"])
def battery(request):
    """(fan, support, box) triples, the box the support's derived region;
    for the RP^2 fan it is (-1..1)^5, whose region (-5..5)^5 is too large
    for the per-point references."""
    if request.param == "rp2":
        rays, maximal, values = rp2_torsion_fan_data()
        fan = build_fan(5, rays, maximal)
        return [(fan, support_from_ray_values(fan, values), ((-1, 1),) * 5)]
    if request.param == "1d":
        cases = [line_fan([a, b]) for a in range(-3, 3) for b in range(-3, 3)]
    else:
        cases = fan_battery(request.param, request)
    return [(fan, h, degree_region(h).box) for fan, h in cases]


def assert_runs_give_the_mask(idx, box):
    """The lines come in box order, their runs tile the line with adjacent
    masks distinct, and each run's mask is ``mask`` at each of its degrees."""
    *head, (lo, hi) = box
    lines = list(idx.line_runs(box))
    assert [prefix for prefix, _ in lines] == list(box_points(head))
    for prefix, runs in lines:
        assert runs[0][0] == 0 and runs[-1][1] == hi - lo + 1
        assert all(a[1] == b[0] and a[2] != b[2] for a, b in zip(runs, runs[1:]))
        for first, end, m in runs:
            assert first < end
            assert all(idx.mask((*prefix, lo + i)) == m for i in range(first, end))


def test_region_equals_the_adjugate_reference(battery):
    for _, h, _ in battery:
        assert degree_region(h).box == adjugate_degree_region(h)


def test_line_runs_give_the_mask_on_a_widened_box(battery):
    for _, h, region in battery:
        box = [(lo - 2, hi + 1) for lo, hi in region]
        assert_runs_give_the_mask(SweepIndex(h), box)


def test_shell_check_fails_where_the_per_point_scan_does(battery):
    # Shrunk boxes leave nonzero counts on the shell of most fans; both routes
    # must agree on the first failing degree in box order and its count.
    for _, h, full in battery:
        idx = sweep_index(h)
        shrunk = [(lo + 1, max(lo + 1, hi - 1)) for lo, hi in full]
        for box in (full, shrunk, [(lo, lo) for lo, _ in full], [(hi, hi) for _, hi in full]):
            expected = first_shell_failure(idx, box)
            if expected is None:
                check_shell(h, box)
                continue
            pt, count = expected
            with pytest.raises(ShellCheckFailed,
                               match=rf"^nonzero signed count {count} at shell degree "
                                     rf"{pt}$".replace("(", r"\(").replace(")", r"\)")):
                check_shell(h, box)


def bits(fan):
    """Each ray's bit in the sweep's masks: bit k for the k-th listed ray."""
    return {r: 1 << k for k, r in enumerate(fan.input_rays)}


def test_sweep_reads_the_fan_masks(battery):
    # The sweep keys every cone by the ray mask the fan keeps, and that mask
    # is the cone's rays over the listed rays.
    for fan, h, _ in battery:
        assert [m for m, _ in SweepIndex(h)._cones] == list(fan.masks)
        assert list(fan.masks) == [sum(bits(fan)[r] for r in c.rays) for c in fan.cones]
        assert all(fan.cone_id(c.rays) == i for i, c in enumerate(fan.cones))


def test_line_runs_hand_cases():
    # 1-D: ray (1) is on for b >= -h(1), ray (-1) for b <= h(-1).
    # Thresholds land on either end of the box, one past it, or nowhere in it.
    fan, h = line_fan([0, 0])
    idx = SweepIndex(h)
    up, down = bits(fan)[(1,)], bits(fan)[(-1,)]
    assert list(idx.line_runs([(0, 3)])) == [((), [(0, 1, up | down), (1, 4, up)])]
    assert list(idx.line_runs([(-3, 0)])) == [((), [(0, 3, down), (3, 4, up | down)])]
    assert list(idx.line_runs([(1, 3)])) == [((), [(0, 3, up)])]
    assert list(idx.line_runs([(-3, -1)])) == [((), [(0, 3, down)])]
    assert list(idx.line_runs([(0, 0)])) == [((), [(0, 1, up | down)])]
    assert list(idx.line_runs([(5, 5)])) == [((), [(0, 1, up)])]
    # 2-D with last entry 0 on rays (1, 0) and (-1, 0): those are on over a
    # whole line or not at all.  The rays ask x >= -1, y >= 0, x <= 0 and
    # y <= 2 in turn.
    fan = build_fan(2, [[1, 0], [0, 1], [-1, 0], [0, -1]], [[0, 1], [1, 2], [2, 3], [3, 0]])
    idx = SweepIndex(support_from_ray_values(fan, [1, 0, 0, 2]))
    east, north, west, south = (bits(fan)[r] for r in ((1, 0), (0, 1), (-1, 0), (0, -1)))
    bases = {-2: west | south, -1: east | west | south, 0: east | west | south,
             1: east | south}
    # y <= 2 is on up to the last index; y >= 0 turns on inside the line.
    assert list(idx.line_runs([(-2, 1), (-3, 2)])) == [
        ((x,), [(0, 3, m), (3, 6, m | north)]) for x, m in bases.items()]
    # Both thresholds land on the ends of the line.
    assert list(idx.line_runs([(-2, 1), (0, 2)])) == [
        ((x,), [(0, 3, m | north)]) for x, m in bases.items()]
    # y <= 2 turns off one past the last index of this line.
    assert list(idx.line_runs([(-2, 1), (3, 4)])) == [
        ((x,), [(0, 2, m & ~south | north)]) for x, m in bases.items()]
    # One point wide on every axis, and on the last axis alone.
    assert_runs_give_the_mask(idx, [(0, 0), (0, 0)])
    assert_runs_give_the_mask(idx, [(-4, 4), (2, 2)])
    assert_runs_give_the_mask(idx, [(3, 3), (-6, 6)])


def test_headline_table_equals_the_per_point_route():
    # random_fan_3d(Random(1), 12) with spread-2 support: one lookup per
    # degree of the derived box gives the same entries, in the same order,
    # and the same first degree of each distinct subcomplex.
    fan = random_fan_3d(random.Random(1), 12)
    h = random_support_3d(random.Random(1), fan, spread=2)
    table = cohomology_table(h)
    idx = sweep_index(h)
    firsts, entries = {}, {}
    for b in box_points(table.region.box):
        sub = idx.subcomplex(b)
        firsts.setdefault(sub, b)
        dims, torsion, chi = idx.cohomology(sub)
        if any(dims) or any(torsion):
            entries[b] = (dims, torsion, chi)
    assert list(table.entries.items()) == list(entries.items())
    assert [(b, sub.keep) for b, sub in table.subcomplexes] == \
        [(b, sub.keep) for sub, b in firsts.items()]


@pytest.mark.parametrize("box", [((3, 1), (0, 0)), ((0, 0), (1, -1)), ((0.0, 1), (0, 0)),
                                 ((0, True), (0, 0)), ((0, "1"), (0, 0)), ()])
def test_degree_region_rejects_an_empty_or_non_integer_axis(box, ex1):
    # The CLI's box parser rejects these too; a library caller used to get a
    # table from a one-column shell check and no degrees.
    with pytest.raises(ValueError, match="needs integer axes with lo <= hi"):
        cohomology_table(ex1, region=DegreeRegion(box))
