"""Command line interface: structured-text input, four commands, and
deterministic text / machine reports.

Input documents are flat key-value with JSON-style arrays, e.g.

    dim: 2
    rays: [[1,1],[0,1],[-1,1],[0,-1]]
    maximal_cones: [[0,1],[1,2],[2,3],[3,0]]
    support: [0,-2,0,-2]

or, mutually exclusively, a ``polytope:`` vertex list.  Exit codes: 0 on
success (and a verified identity for ``brion``/``polytope``), 1 for domain
errors, 2 for parse errors, 3 when the identity check fails, 4 when an
internal consistency check fails.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from dataclasses import dataclass, field, fields
from functools import cache
from math import isqrt

from .cellular import NoIncidenceWitness
from .cohomology import (
    REGION_CAVEAT,
    DegreeRegion,
    ShellCheckFailed,
    NoArrangementVertices,
    brion_terms,
    chi_polynomial,
    cohomology_table,
    reference_subcomplex,
    sweep_index,
    verify_identity,
)
from .genfun import (
    DependentGenerators,
    NotFullDimensional,
    NotPointed,
    box_points,
    expand_in_box,
    truncated_series,
)
from .intlinalg import InternalCheckFailed
from .polyhedral import (
    DegeneratePolytope,
    FanAxiomViolation,
    NonPointedCone,
    NotIntegral,
    NotLinearOnCone,
    build_fan,
    check_complete,
    dual_cone,
    lattice_polytope,
    normal_fan_of_polytope,
    support_from_ray_values,
)

DOMAIN_ERRORS = (FanAxiomViolation, NonPointedCone, NotLinearOnCone, NotIntegral,
                 DegeneratePolytope, NotPointed, NotFullDimensional,
                 DependentGenerators, ShellCheckFailed, NoArrangementVertices,
                 NoIncidenceWitness, ValueError)


class SchemaError(Exception):
    """Missing, extra, or badly typed fields in an input document."""


class DimensionMismatch(Exception):
    """A vector in the input does not match the declared dimension."""


@dataclass(frozen=True)
class FanSpec:
    dim: int
    rays: tuple | None = None
    maximal_cones: tuple | None = None
    support: tuple | None = None
    polytope: tuple | None = None


_ALLOWED_KEYS = {"dim", "rays", "maximal_cones", "support", "polytope"}
# A spec nests three deep (the mapping, a list, its vectors).  Both PyYAML
# loaders recurse once per level, and libyaml's crashes the process.
MAX_NESTING = 64
_FLAT_LINE = re.compile(r"(dim|rays|maximal_cones|support|polytope): ([-0-9\[\], ]+)")


def _int_vector(v, what):
    if not isinstance(v, (list, tuple)) or not all(type(x) is int for x in v):  # no bool
        raise SchemaError(f"{what} must be a list of integers, got {v!r}")
    return tuple(v)


def _read_flat(text: str) -> dict | None:
    """The mapping of a document whose every line is ``key: value``, an allowed
    key and integers in JSON arrays, as PyYAML reads it; None for any other.
    Only '\\n' splits lines: PyYAML rejects '\\x0c', which splitlines splits on."""
    data = {}
    for line in text.removesuffix("\n").split("\n"):
        if not (m := _FLAT_LINE.fullmatch(line)):
            return None
        try:
            data[m[1]] = json.loads(m[2])
        except (ValueError, RecursionError):  # PyYAML decides these
            return None
    return data


def parse_spec(text: str) -> FanSpec:
    """Parse and validate an input document."""
    data = _read_flat(text)
    if data is None:
        # PyYAML is loaded only here.  Its event parser does not recurse, so
        # nesting past MAX_NESTING is refused on the events, before the load.
        import yaml
        loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
        depth = 0
        try:
            for event in yaml.parse(text, Loader=loader):
                depth += isinstance(event, yaml.CollectionStartEvent)
                depth -= isinstance(event, yaml.CollectionEndEvent)
                if depth > MAX_NESTING:
                    raise SchemaError(f"document nests deeper than {MAX_NESTING} levels")
            data = yaml.load(text, Loader=loader)
        except (yaml.YAMLError, ValueError) as exc:  # ValueError: past int's digit limit
            raise SchemaError(f"syntax error: {exc}") from exc
    if not isinstance(data, dict):
        raise SchemaError("document must be a key-value mapping")
    extra = set(data) - _ALLOWED_KEYS
    if extra:
        raise SchemaError(f"unknown fields: {sorted(extra)}")
    if type(data.get("dim")) is not int or data["dim"] < 1:
        raise SchemaError("field 'dim' must be a positive integer")
    dim = data["dim"]
    has_fan = "rays" in data or "maximal_cones" in data or "support" in data
    has_polytope = "polytope" in data
    if has_fan == has_polytope:
        raise SchemaError(
            "exactly one of {rays+maximal_cones, polytope} must be given")
    if has_polytope:
        verts = data["polytope"]
        if not isinstance(verts, list) or not verts:
            raise SchemaError("field 'polytope' must be a nonempty list of vertices")
        verts = tuple(_int_vector(v, "polytope vertex") for v in verts)
        for v in verts:
            if len(v) != dim:
                raise DimensionMismatch(f"vertex {list(v)} is not {dim}-dimensional")
        return FanSpec(dim=dim, polytope=verts)
    if "rays" not in data or "maximal_cones" not in data:
        raise SchemaError("fan documents need both 'rays' and 'maximal_cones'")
    rays = data["rays"]
    if not isinstance(rays, list) or not rays:
        raise SchemaError("field 'rays' must be a nonempty list of vectors")
    rays = tuple(_int_vector(r, "ray") for r in rays)
    for r in rays:
        if len(r) != dim:
            raise DimensionMismatch(f"ray {list(r)} is not {dim}-dimensional")
    cones = data["maximal_cones"]
    if not isinstance(cones, list) or not cones:
        raise SchemaError("field 'maximal_cones' must be a nonempty list")
    cones = tuple(_int_vector(c, "maximal cone") for c in cones)
    for c in cones:
        if any(i < 0 or i >= len(rays) for i in c):
            raise SchemaError(f"maximal cone {list(c)} indexes a missing ray")
    support = None
    if "support" in data:
        support = _int_vector(data["support"], "support")
        if len(support) != len(rays):
            raise SchemaError(
                f"support has {len(support)} values for {len(rays)} rays")
    return FanSpec(dim=dim, rays=rays, maximal_cones=cones, support=support)


def emit_spec(spec: FanSpec) -> str:
    """Render a FanSpec back into the input document format."""
    lines = [f"dim: {spec.dim}"]
    if spec.polytope is not None:
        lines.append("polytope: " + json.dumps([list(v) for v in spec.polytope]))
    else:
        lines.append("rays: " + json.dumps([list(r) for r in spec.rays]))
        lines.append("maximal_cones: "
                     + json.dumps([list(c) for c in spec.maximal_cones]))
        if spec.support is not None:
            lines.append("support: " + json.dumps(list(spec.support)))
    return "\n".join(lines) + "\n"


@dataclass
class Flags:
    degree: tuple | None = None
    box: tuple | None = None
    oracle: bool = False
    p: int | None = None


@dataclass
class Report:
    """Plain-data result of a command; everything JSON-serializable."""

    command: str
    fan: dict
    support_values: list | None = None
    coefficient_field: str = "rational"
    region: list | None = None
    region_caveat: str | None = None
    table: list | None = None
    chi_polynomial: list | None = None
    brion_terms: list | None = None
    identity_holds: bool | None = None
    corollaries: dict | None = None
    oracle: dict | None = None
    timing_ms: float | None = field(default=None, compare=False)


def _poly_data(poly) -> list:
    return [[list(e), c] for e, c in poly.sorted_terms()]


def _table_data(entries) -> list:
    rows = []
    for deg in sorted(entries, key=lambda e: (sum(e), e)):
        dims, torsion, chi = entries[deg]
        rows.append({"degree": list(deg), "dims": list(dims),
                     "torsion": [list(t) for t in torsion], "chi": chi})
    return rows


def _fan_summary(fan, completeness) -> dict:
    return {
        "dim": fan.ambient_dim,
        "rays": [list(r) for r in fan.input_rays],
        "num_cones": len(fan.cones),
        "num_maximal": len(fan.maximal_ids),
        "complete": completeness.complete,
        "witness": completeness.witness,
    }


def _build(spec: FanSpec):
    if spec.polytope is not None:
        poly = lattice_polytope(spec.dim, spec.polytope)
        fan, support = normal_fan_of_polytope(poly)
        return fan, support
    fan = build_fan(spec.dim, spec.rays, spec.maximal_cones)
    support = None
    if spec.support is not None:
        support = support_from_ray_values(fan, spec.support)
    return fan, support


# The series cross-check reads the run's region, cut to at most this many
# degrees on each axis.
ORACLE_WIDTH = 6


def _oracle_box(region) -> tuple[tuple, bool]:
    """The region cut to its middle ORACLE_WIDTH degrees on each wider axis,
    and whether any axis was cut."""
    box = []
    for lo, hi in region:
        cut = max(0, hi - lo + 1 - ORACLE_WIDTH)
        box.append((lo + cut // 2, hi - (cut - cut // 2)))
    return tuple(box), box != list(region)


def _run_oracle(h, table, terms, chi) -> dict:
    """Series cross-check of the run's maximal cone generating functions
    ``terms`` on the table's region, cut by ``_oracle_box``, and of ``chi``,
    the Euler polynomial read from the table's cohomology, against the
    per-cone signed count of ``reference_subcomplex`` on every degree of the
    region, which bypasses the sweep."""
    fan = h.fan
    box, clipped = _oracle_box(table.region.box)
    matches = all(
        expand_in_box(gf, box) == truncated_series(
            tuple(-x for x in h.linear_part(i)), dual_cone(fan.cones[i]), box)
        for i, gf in terms)
    counts_ok = all(reference_subcomplex(h, b).signed_count == chi.coefficient(b)
                    for b in box_points(table.region.box))
    return {"box": [list(b) for b in box],
            "box_clipped": clipped,
            "cones_checked": len(terms),
            "series_match": matches,
            "signed_counts_match": counts_ok}


def _check_flags(command: str, flags: Flags) -> None:
    """Reject the flags that the command would ignore: ``--degree`` is for
    ``cohomology`` only, and ``--box`` and ``--oracle`` need a table, which
    neither ``validate`` nor a one-degree query builds."""
    ignored = []
    if flags.degree is not None and command != "cohomology":
        ignored.append("--degree")
    if command == "validate" or flags.degree is not None:
        if flags.box is not None:
            ignored.append("--box")
        if flags.oracle:
            ignored.append("--oracle")
    if ignored:
        raise SchemaError(f"'{command}' ignores {', '.join(ignored)}"
                          + (" with --degree" if command == "cohomology" else ""))


def run(command: str, spec: FanSpec, flags: Flags | None = None) -> Report:
    """Execute a command against a parsed spec and return its report."""
    flags = flags or Flags()
    _check_flags(command, flags)
    t0 = time.monotonic()
    fan, support = _build(spec)
    completeness = check_complete(fan)
    report = Report(command=command, fan=_fan_summary(fan, completeness))
    if support is not None:
        report.support_values = [support.value(r) for r in fan.input_rays]
    report.coefficient_field = "rational" if flags.p is None else f"modp:{flags.p}"

    if command == "validate":
        report.timing_ms = 1000 * (time.monotonic() - t0)
        return report

    if support is None:
        raise SchemaError(f"command '{command}' needs support values or a polytope")
    if not completeness.complete:
        raise FanAxiomViolation(f"fan is not complete: {completeness.witness}")

    if command == "cohomology" and flags.degree is not None:
        if len(flags.degree) != fan.ambient_dim:
            raise DimensionMismatch(
                f"degree {list(flags.degree)} is not {fan.ambient_dim}-dimensional")
        idx = sweep_index(support)
        report.table = _table_data(
            {tuple(flags.degree): idx.cohomology(idx.subcomplex(flags.degree), flags.p)})
        report.timing_ms = 1000 * (time.monotonic() - t0)
        return report

    region = None
    if flags.box is not None:
        if len(flags.box) != fan.ambient_dim:
            raise DimensionMismatch(
                f"box {list(flags.box)} is not {fan.ambient_dim}-dimensional")
        region = DegreeRegion(box=tuple(flags.box))

    if command not in ("cohomology", "brion", "polytope"):
        raise SchemaError(f"unknown command {command!r}")
    # The run's one pass over its region; the report, the identity, the
    # corollaries and the oracle all read this table.
    table = cohomology_table(support, flags.p, region)
    report.table = _table_data(table.entries)
    report.region = [list(b) for b in table.region.box]
    report.region_caveat = REGION_CAVEAT
    terms = brion_terms(support) if command != "cohomology" or flags.oracle else None
    if command == "cohomology":
        chi = chi_polynomial(support, table)
    else:
        verification = verify_identity(support, table, terms)
        chi = verification.chi_polynomial
        report.brion_terms = [
            {"cone_rays": [list(r) for r in fan.cones[i].rays],
             "numerator": _poly_data(gf.numerator),
             "denominator_factors": [list(g) for g in gf.denominator_factors]}
            for i, gf in terms]
        report.identity_holds = verification.identity_holds
        report.corollaries = {
            name: {"holds": res.holds, "witness": res.witness}
            for name, res in verification.corollary_results.items()}
    report.chi_polynomial = _poly_data(chi)

    if flags.oracle:
        report.oracle = _run_oracle(support, table, terms, chi)
    report.timing_ms = 1000 * (time.monotonic() - t0)
    return report


def format_monomial(exponent) -> str:
    bits = [f"x{i + 1}^{e}" if e != 1 else f"x{i + 1}"
            for i, e in enumerate(exponent) if e != 0]
    return "*".join(bits)


def format_polynomial(terms) -> str:
    """Render [[exponent, coeff], ...] (graded-lex order) as readable text."""
    if not terms:
        return "0"
    out = []
    for exponent, coeff in terms:
        mono = format_monomial(exponent)
        mag = abs(coeff)
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        if not out:
            out.append(body if coeff > 0 else f"-{body}")
        else:
            out.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(out)


def emit_report(report: Report, fmt: str = "text") -> bytes:
    """Render a report; the machine format is stable JSON that round-trips."""
    if fmt == "machine":
        # The fields are plain JSON data already; asdict would deep-copy them.
        data = {f.name: getattr(report, f.name) for f in fields(report)
                if f.name != "timing_ms"}
        return (json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n").encode()
    if fmt != "text":
        raise ValueError(f"unknown format {fmt!r}")
    lines = [f"command: {report.command}"]
    fan = report.fan
    lines.append(f"dim: {fan['dim']}")
    lines.append(f"rays: {len(fan['rays'])}")
    lines.append(f"cones: {fan['num_cones']}")
    lines.append(f"maximal_cones: {fan['num_maximal']}")
    lines.append(f"complete: {str(fan['complete']).lower()}")
    if fan["witness"]:
        lines.append(f"witness: {fan['witness']}")
    if report.support_values is not None:
        lines.append(f"support: {report.support_values}")
    lines.append(f"coefficients: {report.coefficient_field}")
    if report.region is not None:
        box = ", ".join(f"{lo}:{hi}" for lo, hi in report.region)
        lines.append(f"degree_box: {box}")
    if report.table is not None:
        lines.append(f"table_entries: {len(report.table)}")
        for row in report.table:
            dims = " ".join(f"h{k}={d}" for k, d in enumerate(row["dims"]))
            tors = ""
            if any(row["torsion"]):
                tors = "  torsion " + str(row["torsion"])
            lines.append(f"  degree {tuple(row['degree'])}: {dims}  "
                         f"chi={row['chi']}{tors}")
    if report.chi_polynomial is not None:
        lines.append(f"chi_polynomial: {format_polynomial(report.chi_polynomial)}")
    if report.brion_terms is not None:
        lines.append(f"rational_terms: {len(report.brion_terms)}")
        for term in report.brion_terms:
            num = format_polynomial(term["numerator"])
            dens = "".join(f"(1 - {format_monomial(g) or '1'})"
                           for g in term["denominator_factors"])
            lines.append(f"  ({num}) / {dens}")
    if report.identity_holds is not None:
        lines.append(f"identity_holds: {str(report.identity_holds).lower()}")
    if report.corollaries is not None:
        for name, res in sorted(report.corollaries.items()):
            suffix = "" if res["witness"] is None else f"  ({res['witness']})"
            lines.append(f"corollary {name}: {str(res['holds']).lower()}{suffix}")
    if report.oracle is not None:
        lines.append(f"oracle_series_match: {str(report.oracle['series_match']).lower()}")
        lines.append("oracle_signed_counts_match: "
                     f"{str(report.oracle['signed_counts_match']).lower()}")
    if report.region_caveat:
        lines.append(f"note: {report.region_caveat}")
    if report.timing_ms is not None:
        lines.append(f"timing_ms: {report.timing_ms:.1f}")
    return ("\n".join(lines) + "\n").encode()


def parse_report(data: bytes) -> Report:
    """Rebuild a Report from its machine format."""
    raw = json.loads(data.decode())
    raw["fan"] = dict(raw["fan"])
    return Report(**raw)


def _parse_degree(text: str) -> tuple:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise SchemaError(f"bad degree {text!r}: expected a1,a2,...") from exc


def _parse_box(text: str) -> tuple:
    out = []
    for part in text.split(","):
        try:
            lo, hi = part.split(":")
            out.append((int(lo), int(hi)))
        except ValueError as exc:
            raise SchemaError(f"bad box {text!r}: expected lo1:hi1,lo2:hi2") from exc
        if out[-1][0] > out[-1][1]:
            raise SchemaError(f"empty box interval {part!r}")
    return tuple(out)


def _parse_coefficients(text: str) -> int | None:
    if text == "rational":
        return None
    if text.startswith("modp:"):
        try:
            p = int(text.split(":", 1)[1])
        except ValueError:
            p = 0
        # Z/p is a field, and universal coefficients hold, only for p prime;
        # below 2^31 trial division decides that in a few milliseconds.
        if not 1 < p < 2 ** 31 or any(p % q == 0 for q in range(2, isqrt(p) + 1)):
            raise SchemaError(f"bad characteristic in {text!r}: p must be a prime below 2^31")
        return p
    raise SchemaError(f"unknown coefficient field {text!r}")


_VALUE_FLAGS = ("--degree", "--box")
_NEGATIVE_VALUE = re.compile(r"-\d")


def _bind_negative_values(argv) -> list[str]:
    """Rewrite ``--degree -1,0`` as ``--degree=-1,0`` (likewise ``--box``).

    argparse takes a value that starts with '-' and is not a plain number
    for an option, so in the space-separated form it would reject the
    negative degrees and box bounds that are the common case.
    """
    out = []
    for arg in argv:
        if out and out[-1] in _VALUE_FLAGS and _NEGATIVE_VALUE.match(arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


@cache
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toricgf",
        description="Lattice point generating functions and line bundle "
                    "cohomology on complete fans.")
    parser.add_argument("command",
                        choices=["validate", "cohomology", "brion", "polytope"])
    parser.add_argument("spec", help="input document path, or - for stdin")
    parser.add_argument("--degree", help="restrict to one degree: a1,a2,...")
    parser.add_argument("--box", help="override the degree region of the table, the "
                        "identity and the corollaries: lo1:hi1,lo2:hi2")
    parser.add_argument("--oracle", action="store_true",
                        help="run the truncated-series cross-check")
    parser.add_argument("--format", default="text", choices=["text", "machine"])
    parser.add_argument("--coefficients", default="rational",
                        help="homology dimension field: rational or modp:<p>")
    return parser


def main(argv=None) -> int:
    """Run one command on ``argv`` (default ``sys.argv[1:]``) and return its exit code.
    Repeated calls in one process share one parser, built on the first call."""
    args = _parser().parse_args(_bind_negative_values(
        sys.argv[1:] if argv is None else argv))

    try:
        if args.spec == "-":
            text = sys.stdin.read()
        else:
            with open(args.spec, encoding="utf-8") as fh:
                text = fh.read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except UnicodeDecodeError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2

    try:
        spec = parse_spec(text)
        flags = Flags(
            degree=None if args.degree is None else _parse_degree(args.degree),
            box=None if args.box is None else _parse_box(args.box),
            oracle=args.oracle,
            p=_parse_coefficients(args.coefficients),
        )
    except (SchemaError, DimensionMismatch) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2

    try:
        report = run(args.command, spec, flags)
    except (SchemaError, DimensionMismatch) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (*DOMAIN_ERRORS, InternalCheckFailed) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4 if isinstance(exc, InternalCheckFailed) else 1

    sys.stdout.buffer.write(emit_report(report, args.format))
    if report.identity_holds is False:
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
