"""Seeded inputs for the three benchmark workloads.

Every operation is one command line of the ``toricgf`` CLI plus the spec
document it reads.  The geometry of every input (the fan's rays and cones, or
the polytope's shape) comes from a fixed pool drawn once with fixed generator
seeds, so an input that trips a geometric fault of the program trips it in
every run.  The workload seed draws what varies between runs: a twist of the
line bundle by a character (which moves every degree but keeps the amount of
work), and, for the query workload, the support values and queried degrees.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from itertools import product

WORKLOADS = ("fan3d_brion", "polytope_brion", "degree_queries")

# Subdivision depth of each fan in the pool; fan i is drawn with Random(i).
FAN_DEPTHS = (2, 2, 3) * 5
SUPPORT_SPREAD = 2
TWIST = 3


@dataclass(frozen=True)
class Operation:
    """One CLI invocation: its argv (with ``{spec}`` for the spec path), the
    spec document as data, and what the checker needs to know about it."""

    label: str
    kind: str  # "fan", "polytope" or "query"
    argv: tuple[str, ...]
    spec: dict
    degree: tuple[int, ...] | None = None
    p: int | None = None


def subdivided_octahedron_fan(rng: random.Random, subdivisions: int):
    """The octahedron fan with barycentric ray insertions into random
    maximal cones; every cone stays simplicial and unimodular, so each
    inserted ray (the sum of a unimodular cone's rays) is primitive."""
    rays = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, 0, 0), (0, -1, 0), (0, 0, -1)]
    maximal = [[a, b, c] for a in (0, 3) for b in (1, 4) for c in (2, 5)]
    for _ in range(subdivisions):
        cone = maximal.pop(rng.randrange(len(maximal)))
        rays.append(tuple(sum(rays[i][j] for i in cone) for j in range(3)))
        new = len(rays) - 1
        for omit in range(3):
            maximal.append([new] + [cone[j] for j in range(3) if j != omit])
    return rays, maximal


def fan_pool():
    """(label, rays, maximal cones, base support values) per pool fan."""
    pool = []
    for i, depth in enumerate(FAN_DEPTHS):
        rng = random.Random(i)
        rays, maximal = subdivided_octahedron_fan(rng, depth)
        support = [rng.randint(-SUPPORT_SPREAD, SUPPORT_SPREAD) for _ in rays]
        pool.append((f"fan{i}-d{depth}", rays, maximal, support))
    return pool


def _cube(k, n=3):
    return [list(v) for v in product((0, k), repeat=n)]


def _cross(k, n=3):
    out = []
    for i in range(n):
        for s in (k, -k):
            v = [0] * n
            v[i] = s
            out.append(v)
    return out


# Lattice polytopes whose vertex cones are mostly not unimodular or not
# simplicial, plus dilated cubes as the unimodular reference.
POLYTOPES = (
    ("simplex-5-7-11", [[0, 0, 0], [5, 0, 0], [0, 7, 0], [0, 0, 11]]),
    ("reeve-2", [[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 2]]),
    ("reeve-3", [[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 3]]),
    ("reeve-5", [[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 5]]),
    ("pyramid-2x2x2", [[0, 0, 0], [2, 0, 0], [0, 2, 0], [2, 2, 0], [1, 1, 2]]),
    ("pyramid-3x2x3", [[0, 0, 0], [3, 0, 0], [0, 2, 0], [3, 2, 0], [1, 1, 3]]),
    ("prism-2-3x2", [[0, 0, 0], [2, 0, 0], [0, 3, 0], [0, 0, 2], [2, 0, 2], [0, 3, 2]]),
    ("cube-2", _cube(2)),
    ("cube-3", _cube(3)),
    ("cross-1", _cross(1)),
    ("cross-2", _cross(2)),
    ("triangle-4-3", [[0, 0], [4, 0], [0, 3]]),
    ("hexagon", [[1, 0], [2, 1], [2, 2], [1, 2], [0, 1], [0, 0]]),
)

# Query slots per fan: (argv form, sign of the first coordinate, field).
# The space form with a negative first coordinate is rejected by argparse.
QUERY_SLOTS = (
    ("=", -1, "rational"),
    ("=", -1, "modp"),
    ("=", 1, "rational"),
    (" ", 1, "modp"),
    (" ", 1, "rational"),
    (" ", -1, "rational"),
)
QUERY_PRIMES = (2, 3, 5, 7)
QUERY_RADIUS = 3


def fan_spec(rays, maximal, support) -> dict:
    return {"dim": len(rays[0]), "rays": [list(r) for r in rays],
            "maximal_cones": [list(c) for c in maximal],
            "support": list(support)}


def spec_text(spec: dict) -> str:
    """Render a spec in the CLI's flat key-value input format."""
    lines = [f"dim: {spec['dim']}"]
    for key in ("rays", "maximal_cones", "support", "polytope"):
        if key in spec:
            lines.append(f"{key}: {json.dumps(spec[key])}")
    return "\n".join(lines) + "\n"


def _twist(rng, n):
    return [rng.randint(-TWIST, TWIST) for _ in range(n)]


def _fan3d_brion(rng):
    ops = []
    for label, rays, maximal, support in fan_pool():
        m = _twist(rng, 3)
        twisted = [h + sum(a * b for a, b in zip(m, r)) for h, r in zip(support, rays)]
        ops.append(Operation(label, "fan", ("brion", "{spec}", "--format", "machine"),
                             fan_spec(rays, maximal, twisted)))
    return ops


def _polytope_brion(rng):
    ops = []
    for label, verts in POLYTOPES:
        t = _twist(rng, len(verts[0]))
        moved = [[x + y for x, y in zip(v, t)] for v in verts]
        ops.append(Operation(label, "polytope",
                             ("polytope", "{spec}", "--format", "machine"),
                             {"dim": len(t), "polytope": moved}))
    return ops


def _degree_queries(rng):
    ops = []
    for label, rays, maximal, _ in fan_pool():
        support = [rng.randint(-SUPPORT_SPREAD, SUPPORT_SPREAD) for _ in rays]
        spec = fan_spec(rays, maximal, support)
        for slot, (form, sign, field) in enumerate(QUERY_SLOTS):
            first = sign * rng.randint(1 if sign < 0 else 0, QUERY_RADIUS)
            degree = (first,) + tuple(rng.randint(-QUERY_RADIUS, QUERY_RADIUS)
                                      for _ in range(2))
            text = ",".join(str(x) for x in degree)
            flag = ("--degree=" + text,) if form == "=" else ("--degree", text)
            p = rng.choice(QUERY_PRIMES) if field == "modp" else None
            coeff = "rational" if p is None else f"modp:{p}"
            argv = ("cohomology", "{spec}") + flag + ("--coefficients", coeff,
                                                       "--format", "machine")
            ops.append(Operation(f"{label}#{slot}@{text}/{coeff}", "query", argv, spec,
                                 degree=degree, p=p))
    return ops


_GENERATORS = {"fan3d_brion": _fan3d_brion, "polytope_brion": _polytope_brion,
             "degree_queries": _degree_queries}


def operations(workload: str, seed: int) -> list[Operation]:
    """The round of operations a run of ``workload`` repeats; the same seed
    gives the same operations."""
    return _GENERATORS[workload](random.Random(f"{workload}/{seed}"))
