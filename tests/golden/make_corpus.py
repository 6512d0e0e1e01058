"""Write the golden corpus of ``--format machine`` reports.

    PYTHONPATH=src:tests python tests/golden/make_corpus.py

Runs the CLI on the README fan, the acceptance polytopes, a seeded battery
of random 2-D and 3-D fans from ``conftest``, the degree-0 query of the
5-D RP^2 fan with torsion and its table over the box (-1..1)^5,
``validate`` on incomplete fans and on cone collections that are not fans,
``polytope`` and ``validate`` on point lists with points that are not
vertices, and on 4-D point lists.  It stores each spec, its argv, the exit
code and the exact stdout and stderr bytes in ``machine_corpus.json``.  A
run that escapes the CLI with a traceback is left out.  ``test_golden.py``
replays the corpus; rerun this script only when a change to the machine
output or to an error is intended.
"""

import io
import json
import random
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from itertools import product
from pathlib import Path

from conftest import (DOUBLE_COVER, FOLDED, PENTAGRAM, POLYTOPES, SQUARE_AND_INNER_CONE,
                      ZIGZAG, fan3d_brion_pool, random_fan_2d, random_fan_3d,
                      random_support_2d, random_support_3d, rp2_torsion_fan_data)
from toricgf.cli import FanSpec, emit_spec, main

HERE = Path(__file__).resolve().parent
SEED = 20261018

README_FAN = FanSpec(dim=2, rays=((1, 1), (0, 1), (-1, 1), (0, -1)),
                     maximal_cones=((0, 1), (1, 2), (2, 3), (3, 0)),
                     support=(0, -2, 0, -2))

# Point lists with points that are not vertices, so that the vertex test
# drops some; the last is collinear and raises DegeneratePolytope.
POINT_LISTS = (
    ("square-3x3-all-points", 2, [(x, y) for x in range(3) for y in range(3)]),
    ("triangle-3-with-inner-points", 2,
     [(0, 0), (3, 0), (0, 3), (1, 0), (2, 0), (1, 1), (1, 2)]),
    ("cube-2-with-inner-points", 3,
     [(x, y, z) for x in (0, 2) for y in (0, 2) for z in (0, 2)] + [(1, 1, 1), (1, 0, 0)]),
    ("square-repeated-point", 2, [(0, 0), (1, 0), (0, 1), (1, 1), (1, 0)]),
    ("segment-0-1-2", 1, [(0,), (1,), (2,)]),
    ("collinear-points", 2, [(0, 0), (1, 0), (2, 0)]),
)

# 4-D point lists, run through ``polytope`` and ``validate`` only: the
# 4-cube, the cross-polytope, a simplex with an interior point and a point
# on an edge, and a set of rank 3, which raises DegeneratePolytope.
POINT_LISTS_4D = (
    ("cube-4", 4, list(product((0, 1), repeat=4))),
    ("cross-polytope-4", 4, [tuple(s * (i == j) for j in range(4))
                             for i in range(4) for s in (1, -1)]),
    ("simplex-4-with-inner-and-edge-points", 4,
     [(0, 0, 0, 0), (5, 0, 0, 0), (0, 5, 0, 0), (0, 0, 5, 0), (0, 0, 0, 5),
      (1, 1, 1, 1), (2, 0, 0, 0)]),
    ("rank-3-points", 4, [(x, y, z, 0) for x, y, z in product((0, 1), repeat=3)]),
)

FAN_COMMANDS = (
    ("cohomology",),
    ("brion",),
    ("cohomology", "--coefficients", "modp:3"),
)


def fan_spec(h) -> FanSpec:
    fan = h.fan
    index = {r: i for i, r in enumerate(fan.input_rays)}
    cones = tuple(tuple(index[r] for r in fan.cones[i].rays) for i in fan.maximal_ids)
    return FanSpec(dim=fan.ambient_dim, rays=fan.input_rays, maximal_cones=cones,
                   support=tuple(h.value(r) for r in fan.input_rays))


def cone_list_spec(dim, rays, maximal, support=None) -> str:
    return emit_spec(FanSpec(dim=dim, rays=tuple(map(tuple, rays)),
                             maximal_cones=tuple(map(tuple, maximal)), support=support))


def validation_cases():
    """Fans that are not complete and cone collections that are not fans,
    each with the commands to run on it."""
    readme_less = README_FAN.maximal_cones[1:]
    yield "readme-less-a-cone", cone_list_spec(2, README_FAN.rays, readme_less,
                                               README_FAN.support), [("validate",), ("cohomology",)]
    pool = fan3d_brion_pool()[0]
    index = {r: i for i, r in enumerate(pool.input_rays)}
    less = [[index[r] for r in pool.cones[i].rays] for i in pool.maximal_ids[1:]]
    yield "pool-0-less-a-cone", cone_list_spec(3, pool.input_rays, less), [("validate",)]
    yield "half-line", cone_list_spec(1, [(1,)], [[0]]), [("validate",)]
    for name, data in (("zigzag", ZIGZAG), ("pentagram", PENTAGRAM), ("folded", FOLDED),
                       ("double-cover", DOUBLE_COVER),
                       ("square-and-inner-cone", SQUARE_AND_INNER_CONE)):
        yield name, cone_list_spec(*data), [("validate",)]
    yield "repeated-cone", cone_list_spec(2, [(1, 0), (0, 1), (-1, 0), (0, -1)],
                                          [[0, 1], [1, 0], [1, 2], [2, 3], [3, 0]]), [("validate",)]


def random_supports():
    rng = random.Random(SEED)
    out = []
    for i in range(10):
        fan = random_fan_2d(rng)
        out.append((f"fan2d-{i}", random_support_2d(rng, fan)))
    for i in range(10):
        try:
            fan = random_fan_3d(rng, i % 4)
        except Exception:  # a fan the library rejects is left out
            continue
        out.append((f"fan3d-{i}", random_support_3d(rng, fan, spread=1 + i % 2)))
    return out


def cases():
    yield "readme", emit_spec(README_FAN), [
        ("cohomology",), ("brion",), ("brion", "--oracle"),
        ("cohomology", "--coefficients", "modp:3"),
        ("cohomology", "--degree=0,-1"),
        ("cohomology", "--box=-3:3,-3:3"),
        ("brion", "--box=-1:1,-1:2"),
        ("brion", "--coefficients", "modp:3"),
        ("brion", "--box=-1:1,-1:2", "--oracle"),
        ("cohomology", "--coefficients", "modp:3", "--oracle"),
    ]
    for name, dim, verts in POLYTOPES:
        extra = [("polytope", "--oracle")] if name == "square" else []
        yield name, emit_spec(FanSpec(dim=dim, polytope=tuple(map(tuple, verts)))), \
            [("polytope",)] + extra
    for k, (name, h) in enumerate(random_supports()):
        extra = [("brion", "--oracle")] if k % 5 == 0 else []
        if name in ("fan3d-0", "fan3d-1"):
            extra.append(("brion", "--coefficients", "modp:2"))
        yield name, emit_spec(fan_spec(h)), list(FAN_COMMANDS) + extra
    rays, maximal, values = rp2_torsion_fan_data()
    yield "rp2-torsion", emit_spec(FanSpec(dim=5, rays=tuple(rays),
                                           maximal_cones=tuple(map(tuple, maximal)),
                                           support=tuple(values))), [
        ("cohomology", "--degree=0,0,0,0,0"),
        ("cohomology", "--degree=0,0,0,0,0", "--coefficients", "modp:2"),
        ("cohomology", "--box=-1:1,-1:1,-1:1,-1:1,-1:1", "--coefficients", "modp:2"),
    ]
    yield from validation_cases()
    for name, dim, points in POINT_LISTS:
        yield name, emit_spec(FanSpec(dim=dim, polytope=tuple(map(tuple, points)))), \
            [("polytope",), ("polytope", "--oracle"), ("validate",)]
    for name, dim, points in POINT_LISTS_4D:
        yield name, emit_spec(FanSpec(dim=dim, polytope=tuple(map(tuple, points)))), \
            [("polytope",), ("validate",)]


def run_cli(spec_text, args):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "spec"
        path.write_text(spec_text)
        out_buf, err_buf = io.BytesIO(), io.BytesIO()
        out = io.TextIOWrapper(out_buf, encoding="utf-8")
        err = io.TextIOWrapper(err_buf, encoding="utf-8")
        with redirect_stdout(out), redirect_stderr(err):
            code = main([args[0], str(path), *args[1:], "--format", "machine"])
            out.flush()
            err.flush()
        return code, out_buf.getvalue(), err_buf.getvalue()


def write_corpus():
    corpus = []
    for name, spec_text, commands in cases():
        for args in commands:
            try:
                code, out, err = run_cli(spec_text, args)
            except Exception as exc:  # a traceback escaping the CLI: leave it out
                print(f"skip {name} {args}: {type(exc).__name__}", file=sys.stderr)
                continue
            corpus.append({"name": name, "args": list(args), "spec": spec_text,
                           "output": out.decode(), "code": code, "stderr": err.decode()})
    (HERE / "machine_corpus.json").write_text(json.dumps(corpus, indent=0) + "\n")
    print(f"{len(corpus)} reports", file=sys.stderr)


if __name__ == "__main__":
    write_corpus()
