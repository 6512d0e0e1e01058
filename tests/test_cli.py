import json
import os
import random
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from toricgf.cli import (
    DimensionMismatch,
    FanSpec,
    Flags,
    SchemaError,
    emit_report,
    emit_spec,
    format_polynomial,
    main,
    parse_report,
    parse_spec,
    run,
)
from toricgf.polyhedral import build_fan, support_from_ray_values

from conftest import fan3d_brion_pool, fan_battery, first_shell_failure

EX1_DOC = """\
dim: 2
rays: [[1,1],[0,1],[-1,1],[0,-1]]
maximal_cones: [[0,1],[1,2],[2,3],[3,0]]
support: [0,-2,0,-2]
"""

SQUARE_DOC = """\
dim: 2
polytope: [[0,0],[1,0],[0,1],[1,1]]
"""

# The fan over the 4-D cross-polytope's faces: ray k is e_(k+1) and ray
# k + 4 is -e_(k+1).  Its table has 27 distinct subcomplexes and one H^3.
CROSS4_DOC = """\
dim: 4
rays: [[1,0,0,0],[0,1,0,0],[0,0,1,0],[0,0,0,1],[-1,0,0,0],[0,-1,0,0],[0,0,-1,0],[0,0,0,-1]]
maximal_cones: [%s]
support: [-1,-1,-1,0,-1,-1,-1,0]
""" % ",".join(f"[{a},{b},{c},{d}]" for a in (0, 4) for b in (1, 5) for c in (2, 6)
               for d in (3, 7))

OCTAHEDRON_DOC = """\
dim: 3
rays: [[1,0,0],[0,1,0],[0,0,1],[-1,0,0],[0,-1,0],[0,0,-1]]
maximal_cones: [[0,1,2],[0,1,5],[0,4,2],[0,4,5],[3,1,2],[3,1,5],[3,4,2],[3,4,5]]
support: [1,-1,0,-1,0,1]
"""


def write(tmp_path, text, name="spec.fan"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def child_env():
    """The environment of a child interpreter that imports this checkout's package."""
    path = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}


def test_parse_spec_example1():
    spec = parse_spec(EX1_DOC)
    assert spec.dim == 2
    assert spec.rays == ((1, 1), (0, 1), (-1, 1), (0, -1))
    assert spec.maximal_cones == ((0, 1), (1, 2), (2, 3), (3, 0))
    assert spec.support == (0, -2, 0, -2)
    assert spec.polytope is None


def test_parse_spec_polytope_mode():
    spec = parse_spec(SQUARE_DOC)
    assert spec.polytope == ((0, 0), (1, 0), (0, 1), (1, 1))
    assert spec.rays is None


def test_parse_spec_wrong_support_length():
    bad = EX1_DOC.replace("[0,-2,0,-2]", "[0,-2,0]")
    with pytest.raises(SchemaError):
        parse_spec(bad)


def test_parse_spec_rejects_extra_and_missing_fields():
    with pytest.raises(SchemaError):
        parse_spec(EX1_DOC + "color: blue\n")
    with pytest.raises(SchemaError):
        parse_spec("dim: 2\nrays: [[1,0]]\n")
    with pytest.raises(SchemaError):
        parse_spec("dim: 2\n")
    with pytest.raises(SchemaError):
        parse_spec(EX1_DOC + "polytope: [[0,0]]\n")


def test_parse_spec_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        parse_spec("dim: 3\nrays: [[1,0],[0,1],[-1,-1]]\n"
                   "maximal_cones: [[0,1],[1,2],[2,0]]\n")
    with pytest.raises(DimensionMismatch):
        parse_spec("dim: 1\npolytope: [[0,0],[1,1]]\n")


def test_parse_spec_syntax_error():
    with pytest.raises(SchemaError):
        parse_spec("dim: [unclosed\n")


def test_libyaml_and_python_loaders_read_every_golden_spec_alike():
    # parse_spec reads with libyaml's loader where PyYAML has it; the pure
    # Python loader must give the same document, booleans and all.
    from pathlib import Path

    import yaml

    if not hasattr(yaml, "CSafeLoader"):
        pytest.skip("PyYAML is built without libyaml")
    corpus = json.loads((Path(__file__).parent / "golden" / "machine_corpus.json").read_text())
    specs = {case["spec"] for case in corpus} | {EX1_DOC, SQUARE_DOC, "dim: true\nrays: [[true]]\n"}
    for text in specs:
        fast = yaml.load(text, Loader=yaml.CSafeLoader)
        assert repr(fast) == repr(yaml.safe_load(text)), text


GOLDEN_SPECS = [case["spec"] for case in json.loads(
    (Path(__file__).parent / "golden" / "machine_corpus.json").read_text())]


def test_flat_documents_never_reach_pyyaml(monkeypatch):
    # The golden specs, and what emit_spec writes for them and for the
    # benchmark's fan pool, are flat: the line reader reads them all.
    import yaml

    def refuse(*args, **kwargs):
        raise AssertionError("PyYAML read a flat document")

    monkeypatch.setattr(yaml, "load", refuse)
    specs = [parse_spec(text) for text in GOLDEN_SPECS]
    assert len(specs) == 126
    specs += [FanSpec(dim=3, rays=fan.input_rays,
                      maximal_cones=tuple(tuple(fan.input_rays.index(r) for r in fan.cones[i].rays)
                                          for i in fan.maximal_ids),
                      support=tuple(range(len(fan.input_rays))))
              for fan in fan3d_brion_pool()]
    for spec in specs:
        assert parse_spec(emit_spec(spec)) == spec


def fuzz_value(rng, depth):
    """An integer literal (negative, zero with a sign, leading zeros, or past
    int's digit limit) or a JSON-style array of them, with random spacing."""
    if depth and rng.random() < 0.5:
        items = [fuzz_value(rng, depth - 1) for _ in range(rng.randint(0, 3))]
        return "[" + rng.choice((",", ", ", " ,")).join(items) + "]"
    r = rng.random()
    if r < 0.03:
        return "1" * 5000
    if r < 0.06:
        return "0" + str(rng.randint(0, 9))
    return "-0" if r < 0.1 else str(rng.randint(-30, 30))


def fuzz_document(rng):
    """A flat document of allowed and unknown keys, with duplicate keys and
    blank lines, then a few characters from a small alphabet put in or taken
    out."""
    keys = ("dim", "rays", "maximal_cones", "support", "polytope") * 4 + ("dims", "Color")
    lines = [f"{rng.choice(keys)}{rng.choice((': ',) * 4 + (':  ', ':'))}{fuzz_value(rng, 2)}"
             for _ in range(rng.randint(1, 4))]
    if rng.random() < 0.2:
        lines.append(rng.choice(lines))
    if rng.random() < 0.1:
        lines.insert(rng.randint(0, len(lines)), "")
    doc = "\n".join(lines) + rng.choice(("\n", "\n", "\n", "", "\n\n"))
    for _ in range(rng.choice((0, 0, 0, 1, 2))):
        # Half of the edits go to the end of a line, where a line break that
        # PyYAML does not know would split a flat document into flat lines.
        ends = [j for j, ch in enumerate(doc) if ch == "\n"] + [len(doc)]
        i = rng.choice(ends) if rng.random() < 0.5 else rng.randint(0, len(doc))
        if rng.random() < 0.7:
            doc = doc[:i] + rng.choice("\r\t\x0c#_ -0[],:\n") + doc[i:]
        else:
            doc = doc[:i] + doc[i + 1:]
    return doc


@pytest.mark.parametrize("doc,loaded", [(EX1_DOC, False), ("# a comment\n" + EX1_DOC, True)],
                         ids=["flat", "commented"])
def test_pyyaml_is_imported_only_for_a_document_that_is_not_flat(doc, loaded, tmp_path):
    # In a fresh interpreter: importing the CLI and validating a flat spec
    # leave PyYAML unloaded; a comment makes the line reader decline.
    code = ("import sys; from toricgf.cli import main; "
            "code = main(['validate', sys.argv[1]]); print(code, 'yaml' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code, write(tmp_path, doc)],
                          capture_output=True, text=True, env=child_env(), timeout=120)
    assert done.stdout.splitlines()[-1] == f"0 {loaded}"


def test_flat_reader_reads_what_pyyaml_reads():
    import yaml

    from toricgf.cli import _read_flat

    loaders = [yaml.SafeLoader] + ([yaml.CSafeLoader] if hasattr(yaml, "CSafeLoader") else [])
    rng = random.Random(1603)
    accepted = declined = 0
    for _ in range(3000):
        doc = fuzz_document(rng)
        data = _read_flat(doc)
        if data is None:
            declined += 1
            continue
        accepted += 1
        for loader in loaders:
            assert repr(yaml.load(doc, Loader=loader)) == repr(data), doc
    assert accepted > 400 and declined > 1500, (accepted, declined)


def test_spec_roundtrip():
    for doc in (EX1_DOC, SQUARE_DOC):
        spec = parse_spec(doc)
        assert parse_spec(emit_spec(spec)) == spec


def test_run_validate():
    report = run("validate", parse_spec(EX1_DOC))
    assert report.fan["complete"]
    assert report.table is None


def test_validate_a_wide_hexagonal_pyramid(tmp_path, capsys):
    # The support solve on the apex's normal cone, six rays with entries
    # near 2*10^4, takes the Smith form: the Euclid-with-swaps step it had
    # grew the entries without bound there.
    doc = ("dim: 3\npolytope: [[150, 7, 0], [62, 137, 0], [-90, 120, 0], [-148, -26, 0], "
           "[-62, -136, 0], [96, -115, 0], [-3, 3, 109]]\n")
    assert main(["validate", write(tmp_path, doc)]) == 0
    assert "complete: true\n" in capsys.readouterr().out


def test_run_brion_example1():
    report = run("brion", parse_spec(EX1_DOC))
    assert report.identity_holds
    assert report.chi_polynomial == [
        [[0, -1], 1], [[-1, 1], -1], [[0, 0], -1], [[0, 1], -1], [[1, 1], -1]]
    assert len(report.brion_terms) == 4
    assert all(res["holds"] for res in report.corollaries.values())


def test_run_polytope_square():
    report = run("polytope", parse_spec(SQUARE_DOC))
    assert report.identity_holds
    assert report.chi_polynomial == [
        [[0, 0], 1], [[0, 1], 1], [[1, 0], 1], [[1, 1], 1]]
    assert all(row["dims"][0] == 1 for row in report.table)


def test_run_cohomology_single_degree():
    report = run("cohomology", parse_spec(EX1_DOC), Flags(degree=(0, -1)))
    assert report.table == [
        {"degree": [0, -1], "dims": [0, 0, 1], "torsion": [[], [], []], "chi": 1}]


def test_run_cohomology_box_override():
    report = run("cohomology", parse_spec(EX1_DOC),
                 Flags(box=((-3, 3), (-3, 3))))
    assert len(report.table) == 5


def test_run_box_override_too_small():
    from toricgf import ShellCheckFailed

    with pytest.raises(ShellCheckFailed):
        run("cohomology", parse_spec(EX1_DOC), Flags(box=((0, 0), (0, 0))))


def test_run_oracle_flag():
    report = run("brion", parse_spec(EX1_DOC), Flags(oracle=True))
    assert report.oracle["series_match"]
    assert report.oracle["signed_counts_match"]
    assert report.oracle["cones_checked"] == 4


@pytest.mark.parametrize("box, oracle_box, clipped", [
    (None, [[-2, 2], [-2, 2]], False),
    (((-1, 1), (-1, 2)), [[-1, 1], [-1, 2]], False),
    (((-4, 4), (-2, 3)), [[-3, 2], [-2, 3]], True),
    (((-4, 5), (-9, 9)), [[-2, 3], [-3, 2]], True),
], ids=["region", "box", "one-axis-cut", "both-axes-cut"])
def test_oracle_reads_the_region_cut_to_its_width(box, oracle_box, clipped):
    # The series box is the run's region, cut to its middle ORACLE_WIDTH
    # degrees on a wider axis; the report says whether it was cut.
    from toricgf.cli import ORACLE_WIDTH

    report = run("brion", parse_spec(EX1_DOC), Flags(box=box, oracle=True))
    assert report.oracle["box"] == oracle_box
    assert report.oracle["box_clipped"] is clipped
    assert all(hi - lo < ORACLE_WIDTH for lo, hi in oracle_box)
    assert report.oracle["series_match"] and report.oracle["signed_counts_match"]


def test_run_modp():
    report = run("cohomology", parse_spec(EX1_DOC), Flags(p=5))
    assert report.coefficient_field == "modp:5"
    assert len(report.table) == 5


def test_run_needs_support():
    doc = "dim: 2\nrays: [[1,0],[0,1],[-1,-1]]\nmaximal_cones: [[0,1],[1,2],[2,0]]\n"
    run("validate", parse_spec(doc))
    with pytest.raises(SchemaError):
        run("brion", parse_spec(doc))


def test_emit_text_golden_lines():
    report = run("brion", parse_spec(EX1_DOC))
    text = emit_report(report, "text").decode()
    assert "chi_polynomial: x2^-1 - x1^-1*x2 - 1 - x2 - x1*x2" in text
    assert "identity_holds: true" in text
    assert "timing_ms:" in text


def test_emit_text_zero_polynomial():
    assert format_polynomial([]) == "0"


def test_emit_text_empty_table():
    # these values produce identically vanishing Euler characteristics
    doc = EX1_DOC.replace("[0,-2,0,-2]", "[-2,-2,-2,1]")
    report = run("brion", parse_spec(doc))
    assert report.identity_holds
    text = emit_report(report, "text").decode()
    assert "chi_polynomial: 0" in text


def test_machine_roundtrip():
    report = run("brion", parse_spec(EX1_DOC), Flags(oracle=True))
    blob = emit_report(report, "machine")
    parsed = parse_report(blob)
    assert parsed == replace(report, timing_ms=None)
    assert emit_report(parsed, "machine") == blob
    # no timestamps or timing in the machine format
    assert b"timing" not in blob


def test_machine_format_deterministic():
    a = emit_report(run("brion", parse_spec(EX1_DOC)), "machine")
    b = emit_report(run("brion", parse_spec(EX1_DOC)), "machine")
    assert a == b


def test_main_exit_codes(tmp_path, capsys):
    good = write(tmp_path, EX1_DOC)
    assert main(["brion", good]) == 0
    capsys.readouterr()

    assert main(["brion", write(tmp_path, "dim: [oops\n", "bad.fan")]) == 2
    capsys.readouterr()

    overlap = ("dim: 2\nrays: [[1,0],[1,1],[0,1]]\n"
               "maximal_cones: [[0,1],[0,2]]\n"
               "support: [0,0,0]\n")
    assert main(["brion", write(tmp_path, overlap, "overlap.fan")]) == 1
    capsys.readouterr()

    incomplete = ("dim: 2\nrays: [[1,0],[0,1]]\n"
                  "maximal_cones: [[0,1]]\nsupport: [0,0]\n")
    assert main(["brion", write(tmp_path, incomplete, "inc.fan")]) == 1
    capsys.readouterr()

    assert main(["validate", write(tmp_path, incomplete, "inc.fan")]) == 0
    capsys.readouterr()

    assert main(["brion", str(tmp_path / "missing.fan")]) == 2
    capsys.readouterr()


LONG = "1" * 5000
LONG_SUPPORT = EX1_DOC.replace("support: [0,-2,0,-2]", f"support: [0,-2,0,{LONG}]")


@pytest.mark.parametrize("doc", [f"dim: {LONG}\n", LONG_SUPPORT, "# a comment\n" + LONG_SUPPORT],
                         ids=["dim", "support", "not-flat"])
def test_main_rejects_integers_past_the_digit_limit(doc, tmp_path, capsys):
    # int() refuses a literal of more than 4,300 digits with a ValueError,
    # in the line reader and in PyYAML alike: a parse error, not a traceback.
    assert main(["validate", write(tmp_path, doc)]) == 2
    assert capsys.readouterr().err.startswith("parse error: ")


@pytest.mark.parametrize("command,doc", [
    ("validate", "dim: true\nrays: [[true]]\nmaximal_cones: [[0]]\n"),
    ("validate", "dim: 1\nrays: [[true]]\nmaximal_cones: [[0]]\n"),
    ("brion", "dim: 2\nrays: [[1,0],[0,1],[-1,-1]]\n"
              "maximal_cones: [[0,1],[1,2],[2,0]]\nsupport: [true,0,false]\n"),
], ids=["dim", "ray", "support"])
def test_main_rejects_booleans_as_integers(command, doc, tmp_path, capsys):
    assert main([command, write(tmp_path, doc)]) == 2
    assert "parse error" in capsys.readouterr().err


def test_main_identity_failure_exit_code(tmp_path, capsys, monkeypatch):
    # The identity is a theorem, so force a failing report to pin the exit code.
    import toricgf.cli as cli

    real_run = cli.run

    def failing_run(command, spec, flags=None):
        report = real_run(command, spec, flags)
        report.identity_holds = False
        return report

    monkeypatch.setattr(cli, "run", failing_run)
    assert main(["brion", write(tmp_path, EX1_DOC)]) == 3
    capsys.readouterr()


def test_main_machine_output(tmp_path, capsys):
    good = write(tmp_path, SQUARE_DOC)
    assert main(["polytope", good, "--format", "machine"]) == 0
    out = capsys.readouterr().out
    data = json.loads(out)
    assert data["identity_holds"] is True


def test_main_degree_flag(tmp_path, capsys):
    good = write(tmp_path, EX1_DOC)
    assert main(["cohomology", good, "--degree", "0,-1"]) == 0
    out = capsys.readouterr().out
    assert "degree (0, -1): h0=0 h1=0 h2=1" in out


def test_main_bad_flags(tmp_path, capsys):
    good = write(tmp_path, EX1_DOC)
    assert main(["cohomology", good, "--degree", "a,b"]) == 2
    capsys.readouterr()
    assert main(["cohomology", good, "--box", "1:0,0:0"]) == 2
    capsys.readouterr()
    assert main(["cohomology", good, "--coefficients", "modp:1"]) == 2
    capsys.readouterr()


def test_main_negative_values_in_both_argv_forms(tmp_path, capsys):
    good = write(tmp_path, EX1_DOC)
    outputs = []
    for flag in (["--degree", "-1,1"], ["--degree=-1,1"],
                 ["--box", "-3:3,-3:3"], ["--box=-3:3,-3:3"]):
        assert main(["cohomology", good, *flag, "--format", "machine"]) == 0
        outputs.append(json.loads(capsys.readouterr().out))
    assert outputs[0] == outputs[1]
    assert outputs[0]["table"] == [
        {"degree": [-1, 1], "dims": [0, 1, 0], "torsion": [[], [], []], "chi": -1}]
    assert outputs[2] == outputs[3]
    assert outputs[2]["region"] == [[-3, 3], [-3, 3]]


# Runs each argv of the JSON list in sys.argv[1] through one interpreter's
# main and prints, per call, its exit code, stdout and stderr.
_CALLS = """\
import io, json, sys
from toricgf.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    sys.stdout, sys.stderr = io.TextIOWrapper(io.BytesIO()), io.StringIO()
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    sys.stdout.flush()
    results.append([code, sys.stdout.buffer.getvalue().decode(), sys.stderr.getvalue()])
sys.stdout = sys.__stdout__
print(json.dumps(results))
"""


def run_in_one_process(*argvs):
    done = subprocess.run([sys.executable, "-c", _CALLS, json.dumps(argvs)],
                          capture_output=True, text=True, env=child_env(),
                          timeout=120, check=True)
    # A text report ends with its wall time, the one byte range that may differ.
    return [(code, re.sub(r"timing_ms: [0-9.]+", "timing_ms: -", out), err)
            for code, out, err in json.loads(done.stdout)]


def test_a_shared_parser_leaks_nothing_between_calls(tmp_path):
    # Flags and defaults of one call must not reach the next: each call of a
    # sequence reads as the same call made alone in a fresh interpreter,
    # whose main builds its parser anew.
    good = write(tmp_path, EX1_DOC)
    argvs = (["cohomology", good, "--box", "-1:1,-1:2", "--oracle", "--format", "machine"],
             ["cohomology", good],
             ["frobnicate", good],
             ["cohomology", good, "--degree=-1,0"])
    together = run_in_one_process(*argvs)
    assert together == [run_in_one_process(argv)[0] for argv in argvs]
    assert [code for code, _, _ in together] == [0, 0, 2, 0]
    assert json.loads(together[0][1])["oracle"]["series_match"] is True
    assert together[1][1].startswith("command: cohomology\n")
    assert "degree_box: " in together[1][1] and "oracle" not in together[1][1]
    assert together[2][1] == ""
    assert together[2][2].startswith("usage: toricgf [-h]")
    assert "invalid choice: 'frobnicate'" in together[2][2]
    assert "table_entries: 1\n  degree (-1, 0): " in together[3][1]


def test_main_builds_one_parser_per_process(tmp_path, capsys, monkeypatch):
    import argparse

    import toricgf.cli as cli

    built = []
    real_init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    good = write(tmp_path, EX1_DOC)
    cli._parser.cache_clear()
    try:
        assert main(["validate", good]) == 0
        assert main(["cohomology", good, "--degree", "-1,0", "--format", "machine"]) == 0
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate", good])
        assert exc.value.code == 2
        assert main(["brion", good]) == 0
    finally:
        cli._parser.cache_clear()
    capsys.readouterr()
    assert built == ["toricgf"]


def test_importing_the_cli_builds_no_parser():
    # The benchmark's setup_s times a fresh import of toricgf.cli; the
    # parser is built by the first main call, not by the import.
    code = "import toricgf.cli as cli; print(cli._parser.cache_info().currsize)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=child_env(), timeout=120, check=True)
    assert done.stdout.split() == ["0"]


@pytest.mark.parametrize("box", ["3:1,0:0", "0:0,1:-1"])
def test_main_rejects_an_empty_box_axis(box, tmp_path, capsys):
    # A SchemaError from the box parser, before any DegreeRegion is built.
    assert main(["cohomology", write(tmp_path, EX1_DOC), f"--box={box}"]) == 2
    assert capsys.readouterr().err.startswith("parse error: empty box interval")


@pytest.mark.parametrize("flag,message", [("--degree=", "bad degree"), ("--box=", "bad box")])
def test_main_rejects_an_empty_flag_value(flag, message, tmp_path, capsys):
    # An empty value is not an absent flag: it must not fall back to the
    # whole table.
    assert main(["cohomology", write(tmp_path, EX1_DOC), flag]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"parse error: {message}")


def _fan_doc(fan, h):
    """The spec document of a fan and its support function."""
    index = {r: k for k, r in enumerate(fan.input_rays)}
    return emit_spec(FanSpec(
        dim=fan.ambient_dim, rays=fan.input_rays,
        maximal_cones=tuple(tuple(index[r] for r in fan.cones[i].rays) for i in fan.maximal_ids),
        support=tuple(h.value(r) for r in fan.input_rays)))


@pytest.mark.parametrize("case", [None, 1, 2, 171, 200, 203],
                         ids=["readme", "acceptance-1", "acceptance-2", "acceptance-171",
                              "acceptance-200", "acceptance-203"])
def test_main_reports_a_too_small_box(case, tmp_path, capsys):
    # The README fan on one point, or an acceptance fan with its derived box
    # shrunk by one on each side: the table's own shell check fails at the
    # first degree in box order that the per-point scan finds.
    from toricgf.cohomology import degree_region, sweep_index

    if case is None:
        spec = parse_spec(EX1_DOC)
        fan = build_fan(spec.dim, spec.rays, spec.maximal_cones)
        h = support_from_ray_values(fan, spec.support)
        box = [(0, 0), (0, 0)]
    else:
        fan, h = fan_battery("acceptance", None)[case]
        box = [(lo + 1, max(lo + 1, hi - 1)) for lo, hi in degree_region(h).box]
    pt, count = first_shell_failure(sweep_index(h), box)
    flag = "--box=" + ",".join(f"{lo}:{hi}" for lo, hi in box)
    assert main(["cohomology", write(tmp_path, _fan_doc(fan, h)), flag]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: ShellCheckFailed: nonzero signed count {count} " \
                           f"at shell degree {pt}\n"


def test_main_reports_a_spec_that_is_not_utf8_as_a_parse_error(tmp_path, capsys):
    path = tmp_path / "spec.fan"
    path.write_bytes(b"\xff\xfe" + EX1_DOC.encode("utf-16-le"))
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().err.startswith("parse error: 'utf-8' codec can't decode")


@pytest.mark.parametrize("depth", [30_000, 10_000], ids=["30000", "10000"])
@pytest.mark.parametrize("kind", ["flow-sequence", "flow-mapping", "block-sequence"])
def test_main_rejects_a_deeply_nested_spec(kind, depth, tmp_path):
    # libyaml's loader recurses once per level; tens of thousands of levels
    # used to kill the process with SIGSEGV, so the CLI runs in a child.
    doc = {"flow-sequence": "dim: " + "[" * depth + "]" * depth + "\n",
           "flow-mapping": "dim: " + "{a: " * depth + "1" + "}" * depth + "\n",
           "block-sequence": "dim:\n" + "- " * depth + "1\n"}[kind]
    done = subprocess.run([sys.executable, "-m", "toricgf.cli", "validate", write(tmp_path, doc)],
                          capture_output=True, text=True, env=child_env(), timeout=120)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == "parse error: document nests deeper than 64 levels\n"


def test_parse_spec_bounds_nesting_without_libyaml(monkeypatch):
    # PyYAML's own composer raises RecursionError about a thousand levels
    # down; the bound is checked on the parser's events first.
    import yaml

    monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    with pytest.raises(SchemaError, match="nests deeper than 64 levels"):
        parse_spec("dim: " + "{a: " * 2000 + "1" + "}" * 2000 + "\n")
    # The mapping is the first level: 63 sequences inside it are read (and
    # then refused by the schema), 64 are not.
    with pytest.raises(SchemaError, match="nests deeper than 64 levels"):
        parse_spec("dim:\n" + "- " * 64 + "1\n")
    with pytest.raises(SchemaError, match="field 'dim' must be a positive integer"):
        parse_spec("dim:\n" + "- " * 63 + "1\n")


@pytest.mark.parametrize("argv,doc,calls", [
    (("validate",), EX1_DOC, {}),
    (("cohomology", "--degree=-1,0"), EX1_DOC, {"component_homology": 1}),
    (("cohomology", "--degree", "0,0", "--coefficients", "modp:3"), EX1_DOC,
     {"component_homology": 1}),
    (("cohomology", "--degree=0,-1"), EX1_DOC, {"component_homology": 1}),
    (("cohomology", "--degree=-1,0,0,0"), CROSS4_DOC, {"subcomplex_homology": 1}),
    (("cohomology", "--degree=0,0,0,0"), CROSS4_DOC,
     {"subcomplex_homology": 1, "reduced_homology": 1}),
], ids=["validate", "degree", "degree-modp3", "degree-nonzero", "4d-degree", "4d-degree-nonzero"])
def test_chain_complexes_per_run(argv, doc, calls, tmp_path, capsys, monkeypatch):
    # Completeness needs no homology, and a one-degree query takes one.  In
    # R^2 it comes from component counts and builds no chain complex: -1,0
    # has zero cohomology, 0,0 an H^1 and 0,-1 an H^2.  In R^4 it is the
    # homology of the free-pair remainder of that degree's subcomplex, and
    # none when nothing is left: -1,0,0,0 has zero cohomology and collapses,
    # while 0,0,0,0 keeps an H^3.
    import toricgf.cellular as cellular
    import toricgf.cohomology as cohomology

    counted = {}
    _count_calls(monkeypatch, counted, "reduced_homology", cellular)
    _count_calls(monkeypatch, counted, "component_homology", cohomology)
    _count_calls(monkeypatch, counted, "subcomplex_homology", cohomology)
    assert main([argv[0], write(tmp_path, doc), *argv[1:]]) == 0
    assert counted == calls


@pytest.mark.parametrize("p,code", [(4, 2), (9, 2), (1, 2), (2, 0), (3, 0), (5, 0), (7, 0)])
def test_main_accepts_only_a_prime_characteristic(p, code, tmp_path, capsys):
    # Z/4 and Z/9 are not fields: universal coefficients would mislabel them.
    assert main(["cohomology", write(tmp_path, EX1_DOC), "--coefficients", f"modp:{p}"]) == code
    assert ("p must be a prime" in capsys.readouterr().err) == (code == 2)


def test_main_non_integral_face_of_a_non_simplicial_cone_exits_1(tmp_path, capsys):
    # The face cone((1,1,1), (-1,1,1)) of the cone over the square needs x = 1/2.
    doc = ("dim: 3\nrays: [[1,1,1],[-1,1,1],[-1,-1,1],[1,-1,1],[0,0,-1]]\n"
           "maximal_cones: [[0,1,2,3],[0,1,4],[1,2,4],[2,3,4],[3,0,4]]\n"
           "support: [1,0,0,1,0]\n")
    assert main(["cohomology", write(tmp_path, doc)]) == 1
    assert capsys.readouterr().err.startswith("error: NotIntegral")


def _count_calls(monkeypatch, calls, fn_name, *modules):
    real = getattr(modules[0], fn_name)

    def counted(*args, **kwargs):
        calls[fn_name] = calls.get(fn_name, 0) + 1
        return real(*args, **kwargs)

    for mod in modules:
        monkeypatch.setattr(mod, fn_name, counted)


@pytest.mark.parametrize("argv", [
    ("brion", "--oracle"),
    ("brion", "--oracle", "--box=-1:1,-1:2"),
    ("brion", "--oracle", "--coefficients", "modp:3"),
    ("cohomology", "--oracle", "--coefficients", "modp:3"),
], ids=["brion", "brion-box", "brion-modp3", "cohomology-modp3"])
def test_brion_builds_each_stage_once(argv, tmp_path, capsys, monkeypatch):
    import toricgf.cellular as cellular
    import toricgf.cli as cli
    import toricgf.cohomology as cohomology
    import toricgf.genfun as genfun

    calls = {}
    _count_calls(monkeypatch, calls, "cell_complex", cellular)
    _count_calls(monkeypatch, calls, "cohomology_table", cohomology, cli)
    _count_calls(monkeypatch, calls, "brion_terms", cohomology, cli)
    _count_calls(monkeypatch, calls, "cone_genfun", genfun, cohomology)
    _count_calls(monkeypatch, calls, "mask", cohomology.SweepIndex)
    real_runs = cohomology.SweepIndex.line_runs

    def counted_runs(self, box):
        for line in real_runs(self, box):
            calls["line_runs lines"] = calls.get("line_runs lines", 0) + 1
            yield line

    monkeypatch.setattr(cohomology.SweepIndex, "line_runs", counted_runs)
    assert main([argv[0], write(tmp_path, EX1_DOC), *argv[1:], "--format", "machine"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["oracle"]["signed_counts_match"]
    # The report's box is the box the table, the identity and the oracle read:
    # one sweep, one line per prefix of the box widened by one for the shell
    # and the table together, and no per-point mask.
    wide_lines = 1
    for lo, hi in report["region"][:-1]:
        wide_lines *= hi - lo + 3
    assert calls == {"cell_complex": 1, "cohomology_table": 1, "brion_terms": 1,
                     "cone_genfun": report["fan"]["num_maximal"],
                     "line_runs lines": wide_lines}
    if "--box=-1:1,-1:2" in argv:
        assert report["region"] == [[-1, 1], [-1, 2]]


def test_each_distinct_subcomplex_reaches_homology_once(tmp_path, capsys, monkeypatch):
    # The table and the rational corollaries read one homology per distinct
    # subcomplex of the region, kept on the subcomplex, and derive its
    # (dims, torsion, chi) once per field, though each reads it: a rational
    # run reads every subcomplex twice and derives it once.  In R^2 the
    # homology is component_homology of the subcomplex's ray mask; in R^4 it
    # is subcomplex_homology, whose free-pair remainder reaches the Smith
    # form once for each subcomplex with nonzero homology.
    from collections import Counter

    import toricgf.cellular as cellular
    import toricgf.cohomology as cohomology
    from toricgf.genfun import box_points

    keeps, reads, derived, smith = [], [], [], []

    def kept(fan, m):
        return frozenset(i for i, cm in enumerate(fan.masks) if cm and cm & m == cm)

    def counted_component(cc, m):
        keeps.append(kept(cc.fan, m))
        return real_component(cc, m)

    def counted_subcomplex(cc, keep):
        keeps.append(frozenset(keep))
        return real_subcomplex(cc, keep)

    def counted_read(self, sub, p=None):
        reads.append(p)
        return real_read(self, sub, p)

    def counted_derive(self, sub, p):
        derived.append((sub.keep, p))
        return real_derive(self, sub, p)

    real_component, real_subcomplex = cohomology.component_homology, cohomology.subcomplex_homology
    real_read, real_derive = cohomology.SweepIndex.cohomology, cohomology.SweepIndex._derive
    real_reduced = cellular.reduced_homology
    monkeypatch.setattr(cohomology, "component_homology", counted_component)
    monkeypatch.setattr(cohomology, "subcomplex_homology", counted_subcomplex)
    monkeypatch.setattr(cohomology.SweepIndex, "cohomology", counted_read)
    monkeypatch.setattr(cohomology.SweepIndex, "_derive", counted_derive)
    monkeypatch.setattr(cellular, "reduced_homology", lambda c: smith.append(c) or real_reduced(c))
    for doc, path in ((EX1_DOC, "component_homology"), (CROSS4_DOC, "subcomplex_homology")):
        spec = parse_spec(doc)
        fan = build_fan(spec.dim, spec.rays, spec.maximal_cones)
        h = support_from_ray_values(fan, spec.support)
        distinct = {cohomology.reference_subcomplex(h, b).keep
                    for b in box_points(cohomology.degree_region(h).box)}
        cc = cellular.cell_complex(fan)
        nonzero = sum(any(real_reduced(cellular.chain_complex(cc, keep)).betti.values())
                      for keep in distinct)
        assert len(distinct) == (8 if path == "component_homology" else 27)
        assert nonzero == (2 if path == "component_homology" else 1)
        for coefficients, fields in (("modp:3", (3, None)), ("rational", (None,))):
            for calls in (keeps, reads, derived, smith):
                calls.clear()
            assert main(["brion", write(tmp_path, doc), "--coefficients", coefficients,
                         "--format", "machine"]) == 0
            assert json.loads(capsys.readouterr().out)["identity_holds"] is True
            assert sorted(keeps, key=sorted) == sorted(distinct, key=sorted)
            assert Counter(derived) == Counter((keep, p) for keep in distinct for p in fields)
            assert len(reads) == 2 * len(distinct)
            assert len(smith) == (0 if path == "component_homology" else nonzero)


@pytest.mark.parametrize("command, doc", [("brion", EX1_DOC), ("polytope", SQUARE_DOC)])
def test_brion_builds_no_common_denominator_sum(command, doc, tmp_path, capsys, monkeypatch):
    # The identity is one polynomial_sum; brion_sum and rational_equal are
    # the reference and are not called.
    import toricgf
    import toricgf.cohomology as cohomology
    import toricgf.genfun as genfun

    calls = {}
    _count_calls(monkeypatch, calls, "brion_sum", cohomology, toricgf)
    _count_calls(monkeypatch, calls, "rational_equal", genfun, toricgf)
    _count_calls(monkeypatch, calls, "polynomial_sum", genfun, cohomology, toricgf)
    assert main([command, write(tmp_path, doc), "--format", "machine"]) == 0
    assert json.loads(capsys.readouterr().out)["identity_holds"] is True
    assert calls == {"polynomial_sum": 1}


@pytest.mark.parametrize("argv", [
    ("brion", "--degree=0,0"),
    ("polytope", "--degree=0,0"),
    ("polytope", "--degree=0,0,0"),
    ("cohomology", "--degree=0,0", "--box=-1:1,-1:1"),
    ("cohomology", "--degree=0,0", "--oracle"),
    ("validate", "--degree=0,0"),
    ("validate", "--box=0:1,0:1"),
    ("validate", "--oracle"),
    ("validate", "--degree=0", "--box=0:1", "--oracle"),
])
def test_main_rejects_flags_the_command_ignores(argv, tmp_path, capsys):
    doc = SQUARE_DOC if argv[0] == "polytope" else EX1_DOC
    assert main([argv[0], write(tmp_path, doc), *argv[1:]]) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error") and "ignores" in err


def test_internal_check_failure_exits_4(tmp_path, capsys, monkeypatch):
    import toricgf.cellular as cellular

    # One spurious F_3 dimension contradicts the signed cone count.
    monkeypatch.setattr(cellular.HomologyResult, "betti_mod_p",
                        lambda self, p: {d: b + (d == 0) for d, b in self.betti.items()})
    assert main(["brion", write(tmp_path, EX1_DOC), "--coefficients", "modp:3"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: InternalCheckFailed: Euler characteristic")


@pytest.mark.parametrize("case", ["flipped-incidence-brion", "flipped-incidence-degree",
                                  "component-count", "arc-mismatch"])
def test_component_path_keeps_its_checks(case, tmp_path, capsys, monkeypatch):
    # In R^2 and R^3 the homology is read off component counts, and each run
    # still checks d∘d on the whole face relation at its first homology, the
    # Euler characteristic against the signed count, and in R^2 that both
    # counts agree.
    import toricgf.cellular as cellular

    if case.startswith("flipped-incidence"):
        # A face relation with the first facet of the first maximal cone
        # dropped, which no sign of the rest can close up.
        real = cellular.cell_complex

        def flipped(fan):
            facets = list(fan._facets_of)
            facets[fan.maximal_ids[0]] = facets[fan.maximal_ids[0]][1:]
            fan._facets_of = tuple(facets)
            return real(fan)

        monkeypatch.setattr(cellular, "cell_complex", flipped)
        argv = (["brion"] if case.endswith("brion") else ["cohomology", "--degree=5,5,5"])
        doc, message = OCTAHEDRON_DOC, "boundary of boundary is nonzero"
    else:
        # One of the two counts off by one: the first (c_K) in 3-D, the
        # second (c_C) in 2-D, where degree 0,0 of EX1 keeps two points.
        real, calls = cellular._components, []

        def off_by_one(nodes, adjacency):
            calls.append(nodes)
            return real(nodes, adjacency) + (len(calls) % 2 == (case == "component-count"))

        monkeypatch.setattr(cellular, "_components", off_by_one)
        if case == "component-count":
            argv, doc, message = ["brion"], OCTAHEDRON_DOC, "Euler characteristic mismatch"
        else:
            argv, doc, message = ["cohomology", "--degree=0,0"], EX1_DOC, "2 components inside"
    assert main([argv[0], write(tmp_path, doc), *argv[1:]]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: InternalCheckFailed: {message}")


def test_support_check_failure_exits_4(tmp_path, capsys, monkeypatch):
    import toricgf.polyhedral as polyhedral

    # A wrong functional on every simplicial maximal cone misses its ray values.
    real = polyhedral.cramer
    monkeypatch.setattr(polyhedral, "cramer", lambda crosses, det, b: (
        lambda h: h and (h[0] + 1, *h[1:]))(real(crosses, det, b)))
    assert main(["cohomology", write(tmp_path, EX1_DOC), "--degree=0,0"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: InternalCheckFailed: linear part")


def _flip_in_line_runs(real, ray, degree):
    """A ``SweepIndex.line_runs`` that flips the mask bit of ``ray`` at
    ``degree`` alone, by splitting the run that holds it, in every box the
    sweep reads."""

    def flipped(self, box):
        bit = 1 << self.fan.input_rays.index(ray)
        lo = box[-1][0]
        for prefix, runs in real(self, box):
            if tuple(prefix) == degree[:-1]:
                i = degree[-1] - lo
                runs = [part for first, end, m in runs
                        for part in ([(first, i, m), (i, i + 1, m ^ bit), (i + 1, end, m)]
                                     if first <= i < end else [(first, end, m)])
                        if part[0] < part[1]]
            yield prefix, runs

    return flipped


def test_oracle_signed_counts_bypass_the_sweep(tmp_path, capsys, monkeypatch):
    import toricgf.cohomology as cohomology

    # One ray's bit flipped at one degree: the table, its chi and the Euler
    # cross-check all read the same wrong subcomplex, so only the per-cone
    # membership count can see it.
    monkeypatch.setattr(cohomology.SweepIndex, "line_runs",
                        _flip_in_line_runs(cohomology.SweepIndex.line_runs, (-1, 1), (-2, 0)))
    code = main(["cohomology", write(tmp_path, EX1_DOC), "--oracle", "--format", "machine"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["oracle"]["series_match"]
    assert report["oracle"]["signed_counts_match"] is False


# The ids number the rays in the fan's id order: ray 0 is (-1, 1), ray 2 is (0, 1).
@pytest.mark.parametrize("ray, degree, failing", [
    ((-1, 1), (-2, 0), {"reduced_euler", "top_cohomology"}),
    ((0, 1), (0, -1), {"reduced_euler"}),
], ids=["ray0-at-(-2,0)", "ray2-at-(0,-1)"])
def test_corollaries_check_the_sweep_against_membership(ray, degree, failing,
                                                        tmp_path, capsys, monkeypatch):
    import toricgf.cohomology as cohomology

    # One ray's bit flipped at the first degree of a subcomplex: the table and
    # its chi read the wrong subcomplex, the per-cone reference does not.
    monkeypatch.setattr(cohomology.SweepIndex, "line_runs",
                        _flip_in_line_runs(cohomology.SweepIndex.line_runs, ray, degree))
    code = main(["brion", write(tmp_path, EX1_DOC), "--format", "machine"])
    report = json.loads(capsys.readouterr().out)
    assert code == 3
    assert all(not report["corollaries"][name]["holds"] for name in failing)
    assert all(str(degree) in report["corollaries"][name]["witness"] for name in failing)


def test_corollaries_make_one_reference_per_distinct_subcomplex(tmp_path, capsys, monkeypatch):
    import toricgf.cohomology as cohomology
    from toricgf.genfun import box_points

    spec = parse_spec(EX1_DOC)
    fan = build_fan(spec.dim, spec.rays, spec.maximal_cones)
    h = support_from_ray_values(fan, spec.support)
    region = cohomology.degree_region(h).box

    def members(b):
        return frozenset(i for i in range(len(fan.cones)) if cohomology.membership(h, i, b))

    distinct = {members(b) for b in box_points(region)}
    real = cohomology.reference_subcomplex
    degrees = []

    def counted(h, b):
        degrees.append(b)
        return real(h, b)

    monkeypatch.setattr(cohomology, "reference_subcomplex", counted)
    assert main(["brion", write(tmp_path, EX1_DOC), "--format", "machine"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["region"] == [list(r) for r in region]
    # One reference per distinct subcomplex: no two at the same subcomplex.
    assert len(degrees) == len(distinct)
    assert {members(b) for b in degrees} == distinct
