"""End-to-end command line coverage, run in process via cli.main."""
import io
import json
import os
import subprocess
import sys
import types

import pytest

from gradelab import autgrp, cli, contractions, liealg, normalizers, selfcheck
from gradelab.autgrp import NAMED_AUTOMORPHISMS, named_automorphism
from gradelab.cyclo import CycloNumber, zeta
from gradelab.gradings import CATALOG_NAMES, catalog


def run(capsys, *argv):
    rc = cli.main(list(argv))
    return rc, capsys.readouterr().out


def run_json(capsys, *argv):
    rc, out = run(capsys, *argv, "--format", "json")
    return rc, json.loads(out)


def feed_stdin(monkeypatch, text: str):
    fake = types.SimpleNamespace(
        read=lambda: text, buffer=io.BytesIO(text.encode("utf-8")))
    monkeypatch.setattr(cli.sys, "stdin", fake)


def test_show_then_verify_round_trip(capsys, monkeypatch):
    for name in CATALOG_NAMES:
        rc, out = run(capsys, "grading", "show", "--catalog", name,
                      "--format", "json")
        assert rc == 0
        feed_stdin(monkeypatch, out)
        rc, report = run_json(capsys, "grading", "verify", "--input", "-")
        assert rc == 0, name
        assert report["is_grading"] is True
        assert report["labels_additive"] is True
        assert report["dims"] == list(catalog(name).grading.part_dims)
        assert "input_sha256" in report


def test_show_human_output(capsys):
    rc, out = run(capsys, "grading", "show", "--catalog", "g2")
    assert rc == 0
    assert "7 parts" in out
    assert "labels in Z2 x Z2 x Z2" in out
    assert "E12+E21" in out.replace(" ", "")


def test_verify_accepts_named_basis_rows(capsys, tmp_path):
    doc = {"n": 3, "parts": [
        {"basis": ["H1", "H2"]},
        {"basis": ["E12"]}, {"basis": ["E23"]}, {"basis": ["E13"]},
        {"basis": ["E31"]}, {"basis": ["E32"]}, {"basis": ["E21"]},
    ]}
    path = tmp_path / "cartan.json"
    path.write_text(json.dumps(doc))
    rc, report = run_json(capsys, "grading", "verify", "--input", str(path))
    assert rc == 0
    assert report["is_grading"] is True
    assert report["labels_additive"] is None


def test_verify_flags_a_broken_decomposition(capsys, tmp_path):
    doc = {"n": 3, "parts": [
        {"basis": ["H1", "H2"]},
        {"basis": ["E12"]}, {"basis": ["E23"]}, {"basis": ["E13 + H1"]},
        {"basis": ["E31"]}, {"basis": ["E32"]}, {"basis": ["E21"]},
    ]}
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    rc, report = run_json(capsys, "grading", "verify", "--input", str(path))
    assert rc == 1
    assert report["is_grading"] is False
    assert report["violation"] is not None
    rc, out = run(capsys, "grading", "verify", "--input", str(path))
    assert rc == 1
    assert "\ngrading axiom: FAILS\n  violating part pair: (0, 3)\n" in out


def test_label_search_exit_codes(capsys):
    rc, report = run_json(capsys, "grading", "label", "--catalog", "g1",
                          "--group", "7")
    assert rc == 0 and report["found"] is True
    assert sorted(map(tuple, report["labels"])) == [(k,) for k in range(7)]
    rc, report = run_json(capsys, "grading", "label", "--catalog", "g4",
                          "--group", "8")
    assert rc == 1 and report["found"] is False


def test_coarsen_keeps_or_breaks_the_axiom(capsys):
    rc, report = run_json(capsys, "grading", "coarsen", "--catalog", "g1",
                          "--merge", "1,6")
    assert rc == 0
    assert report["is_grading"] is True
    assert sorted(report["dims"], reverse=True) == [2, 2, 1, 1, 1, 1]
    rc, out = run(capsys, "grading", "coarsen", "--catalog", "g1", "--merge", "1,6")
    assert out.endswith("\ngrading axiom: holds\n")
    broken = ("--merge", "0,1", "--merge", "2,3", "--merge", "4,7", "--merge", "5,6")
    rc, report = run_json(capsys, "grading", "coarsen", "--catalog", "g4", *broken)
    assert rc == 1
    assert report["is_grading"] is False
    rc, out = run(capsys, "grading", "coarsen", "--catalog", "g4", *broken)
    assert out.endswith("\ngrading axiom: FAILS\n  violating part pair: (0, 1)\n")


def test_normalizer_check_verdicts(capsys):
    rc, report = run_json(capsys, "normalizer", "check", "--catalog", "g1",
                          "--auto", "AdB1")
    assert rc == 0
    assert report["normalizes"] is True
    assert report["cycles"] == "(1 2 4)(3 6 5)"
    rc, report = run_json(capsys, "normalizer", "check", "--catalog", "g4",
                          "--auto", "AdH")
    assert rc == 1
    assert report["normalizes"] is False
    # `normalizes` conjugates only the separating generators of a finite MAD
    # group: both verdicts hold on g2 and g4, as exit codes with an empty stderr
    for name, auto, code in (("g2", "AdQ", 0), ("g4", "AdS", 0),
                             ("g2", "AdS", 1), ("g4", "AdH", 1)):
        assert cli.main(["normalizer", "check", "--catalog", name, "--auto", auto]) == code
        assert capsys.readouterr().err == "", (name, auto)


def test_quotient_human_summary(capsys):
    rc, out = run(capsys, "normalizer", "quotient", "--catalog", "g3")
    assert rc == 0
    assert "order 4, exponent 2" in out


def test_quotient_json_report(capsys):
    rc, report = run_json(capsys, "normalizer", "quotient", "--catalog", "g2")
    assert rc == 0
    assert report["order"] == 24
    assert report["exponent"] == 12
    assert report["element_order_profile"] == {"1": 1, "2": 9, "3": 8, "4": 6}
    assert len(report["elements"]) == 24
    rc, report = run_json(capsys, "normalizer", "inner", "--catalog", "g1")
    assert rc == 0
    assert report["order"] == 6


def test_linearize_golden_and_refusal(capsys):
    rc, report = run_json(capsys, "normalizer", "linearize", "--catalog", "g4",
                          "--auto", "AdS")
    assert rc == 0
    assert report["matrix"] == [[0, 1], [2, 0]]
    assert report["det_mod_3"] == 1
    rc, report = run_json(capsys, "normalizer", "linearize", "--catalog", "g4",
                          "--auto", "AdH")
    assert rc == 1
    assert report["normalizes"] is False


def test_contract_equations_json(capsys):
    rc, report = run_json(capsys, "contract", "equations", "--catalog", "g4")
    assert rc == 0
    assert len(report["variables"]) == 36
    assert len(report["equations"]) == 48
    assert len(report["free_variables"]) == 12
    for eq in report["equations"]:
        assert eq["rhs_zero"] is False
        assert len(eq["monomials"]) >= 2


def test_contract_solve_with_orbits(capsys):
    rc, report = run_json(capsys, "contract", "solve", "--catalog", "g2",
                          "--orbits")
    assert rc == 0
    assert report["constrained_solution_count"] == 779
    assert report["total_solutions"] == 99712
    assert report["solutions_shown"] == 20  # default --limit
    orbits = report["orbits"]
    assert orbits["invariant"] is True
    assert orbits["quotient_order"] == 24
    assert orbits["count"] == 75
    assert len(orbits["orbits"]) == 75
    assert sum(orbits["size_histogram"].values()) == 75


def test_contract_solve_lists_the_patterns_it_shows(capsys):
    # the human output once announced the first patterns and printed none;
    # each pattern and orbit representative line names exactly the pairs
    # whose bit is set, which the golden digests (JSON only) do not pin
    for name, argv, count in (("g2", ("--limit", "3"), 3),
                              ("g1", ("--limit", "0", "--orbits"), 255)):
        rc, out = run(capsys, "contract", "solve", "--catalog", name, *argv)
        assert rc == 0
        system = contractions.generate_equations(catalog(name).grading)
        solved = contractions.solve_binary(system)

        def named(mask):
            on = [contractions.format_pair(pair)
                  for pair, bit in system.mask_to_assignment(int(mask)).items() if bit]
            return "{" + ", ".join(on) + "}"

        lines = out.splitlines()
        patterns = [line for line in lines if line.startswith("  pattern {")]
        assert patterns == [f"  pattern {named(m)}" for m in solved.active_masks[:count]]
        reps = [line.split("  rep ", 1)[1] for line in lines if line.startswith("  size ")]
        if "--orbits" in argv:
            entry = catalog(name)
            q = normalizers.quotient_group(
                entry.spec, entry.grading, normalizers.catalog_normalizer_generators(name))
            orbits = contractions.symmetry_orbits(solved, q, include_free=False)
            assert reps == [named(o.representative) for o in orbits]
        else:
            assert reps == []


def test_json_output_is_byte_deterministic(capsys):
    _, first = run(capsys, "normalizer", "quotient", "--catalog", "g2",
                   "--format", "json")
    _, second = run(capsys, "normalizer", "quotient", "--catalog", "g2",
                    "--format", "json")
    assert first == second


def test_selfcheck_single_checks(capsys):
    rc, report = run_json(capsys, "selfcheck", "--only", "3")
    assert rc == 0
    assert report["failed"] == 0
    assert report["results"][0]["passed"] is True
    # the published g2 order 18 is a certified erratum (computed 24); the
    # check passes and still names the published value
    rc, report = run_json(capsys, "selfcheck", "--only", "4")
    assert rc == 0
    assert report["failed"] == 0
    assert "published 18" in report["results"][0]["detail"]


def test_selfcheck_failure_exits_nonzero(capsys, monkeypatch):
    def always_fails(bench):
        return selfcheck.CheckResult(1, "always fails", False, "forced", 0.0)

    monkeypatch.setattr(selfcheck, "CHECKS", {1: always_fails})
    rc, report = run_json(capsys, "selfcheck")
    assert rc == 1
    assert report["failed"] == 1
    assert report["results"][0]["detail"] == "forced"
    rc, out = run(capsys, "selfcheck")
    assert rc == 1
    assert "0 of 1 checks passed" in out


def assert_one_line_usage_error(capsys, argv):
    rc = cli.main(argv)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
    return captured.err


def test_bad_group_spec_is_a_usage_error(capsys):
    for argv in (["grading", "label", "--catalog", "g1", "--group", "bogus"],
                 ["grading", "coarsen", "--catalog", "g1", "--merge", "1,x"],
                 ["grading", "coarsen", "--catalog", "g1", "--merge", "1,99"],
                 ["grading", "coarsen", "--catalog", "g1",
                  "--merge", "1,2", "--merge", "2,3"],
                 ["grading", "verify"],
                 ["grading", "verify", "--catalog", "g1", "--input", "missing.json"],
                 ["grading", "label", "--catalog", "g1", "--group", "100000000"]):
        err = assert_one_line_usage_error(capsys, argv)
        if "label" in argv:
            assert repr(argv[-1]) in err


# scalars out of range, refused by CycloNumber.from_json before any arithmetic:
# order 30030 once ran past 10 s, exponent 5 of order 3 ended in an IndexError
# traceback and exponent -1 was read as z^(phi-1)
SCALAR_REFUSALS = {
    "scalar-order": ({"order": 30030, "terms": [[1, 1, 1]]},
                     "scalar order 30030 is outside 1..256"),
    "scalar-exponent": ({"order": 3, "terms": [[1, 1, 5]]},
                        "exponent 5 of a scalar of order 3 is outside 0..1"),
    "scalar-negative-exponent": ({"order": 3, "terms": [[1, 1, -1]]},
                                 "exponent -1 of a scalar of order 3 is outside"),
    "scalar-automorphism": ({"order": 3, "terms": [[1, 1, 2]]},
                            "exponent 2 of a scalar of order 3 is outside 0..1"),
}
# numbers that should be integers, which int() once truncated or converted,
# each at a (key path, value) in g4's grading or, under "rep", AdS's
# automorphism document: every one of these verified, or gave a verdict, with exit 0
NON_INTEGERS = {
    "non-integer-n": (("n",), 3.7, "n: 3.7 is not an integer"),
    "non-integer-ambient-dim": (("parts", 0, "ambient_dim"), 8.5,
                                "ambient_dim: 8.5 is not an integer"),
    "non-integer-group": (("group",), [3.9, 3], "group: 3.9 is not an integer"),
    "non-integer-labels": (("labels", 1), [2.0, 0.0], "labels: 2.0 is not an integer"),
    "non-integer-rows": (("rep", "rows"), 3.5, "rows: 3.5 is not an integer"),
    "non-integer-cols": (("rep", "cols"), 3.2, "cols: 3.2 is not an integer"),
    "non-integer-order": (("rep", "entries", 0, "order"), "3",
                          "order: '3' is not an integer"),
    "non-integer-terms": (("rep", "entries", 0, "terms"), [[1, True, 0]],
                          "terms: True is not an integer"),
}
# orders 255 and 256 each pass, but their arithmetic embeds both at order
# 65280: a file holding the two ran past an 8 s timeout before the common-order bound
MIXED_ORDERS = "scalar order 256 raises the common order of the document's scalars to 65280"
# nesting past the recursion limit once ended in a RecursionError traceback
# with exit code 1, the code of a negative verdict: 200,000 brackets read as
# a grading or an automorphism, and a grading whose parts nest 5,000 deep
DEEP_ARRAY = "[" * 200_000 + "]" * 200_000
DEEP = {"deep-grading": (DEEP_ARRAY, "RecursionError: "),
        "deep-automorphism": (DEEP_ARRAY, "RecursionError: "),
        "deep-parts": ('{"n": 3, "parts": ' + "[" * 5000 + "]" * 5000 + "}", "")}


@pytest.mark.parametrize("case", ["unknown-automorphism", "missing-file",
                                  "no-parts", "labels-without-group",
                                  "zero-denominator", "bad-json",
                                  "bad-json-automorphism", "not-utf8",
                                  *SCALAR_REFUSALS, "mixed-orders",
                                  "mixed-orders-automorphism", "utf16-automorphism",
                                  *NON_INTEGERS, *DEEP])
def test_malformed_input_is_a_one_line_usage_error(capsys, tmp_path, case):
    scalar, refusal = SCALAR_REFUSALS.get(case, (None, MIXED_ORDERS if "mixed" in case else ""))
    if case == "labels-without-group":
        refusal = "group and labels must be supplied together"
    one, zero = {"order": 1, "terms": [[1, 1, 0]]}, {"order": 1, "terms": []}
    z255, z256 = ({"order": k, "terms": [[1, 1, 1]]} for k in (255, 256))
    mixed = tmp_path / "mixed.json"
    mixed.write_text(json.dumps({"n": 3, "parts": [{"basis": [[z255, z256] + [zero] * 6]}]}))
    mixed_rep = tmp_path / "mixed_rep.json"
    mixed_rep.write_text(json.dumps({"kind": "inner", "rep": {"rows": 3, "cols": 3, "entries": [
        z255, zero, zero, zero, z256, zero, zero, zero, one]}}))
    bad_scalar = tmp_path / "bad_scalar.json"
    bad_scalar.write_text(json.dumps(
        {"n": 3, "parts": [{"basis": [[scalar] + [zero] * 7]}]}))
    entries = [scalar if i == j == 1 else one if i == j else zero
               for i in range(3) for j in range(3)]
    bad_scalar_rep = tmp_path / "bad_scalar_rep.json"
    bad_scalar_rep.write_text(json.dumps(
        {"kind": "inner", "rep": {"rows": 3, "cols": 3, "entries": entries}}))
    no_parts = tmp_path / "no_parts.json"
    no_parts.write_text(json.dumps({"n": 3}))
    # g4's labels with its group left out, one of them out of any range:
    # once read as an unlabeled grading that passed verification
    ungrouped = catalog("g4").grading.to_json()
    del ungrouped["group"]
    ungrouped["labels"][0] = [9, 9]
    no_group = tmp_path / "no_group.json"
    no_group.write_text(json.dumps(ungrouped))
    zero_den = tmp_path / "zero_den.json"
    zero_den.write_text(json.dumps({"n": 3, "parts": [{"basis": ["1/0 E12"]}]}))
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("not json")
    not_utf8 = tmp_path / "not_utf8.json"
    not_utf8.write_bytes(b"\xff\xfe")
    # a UTF-16 automorphism file was once read, while a UTF-16 grading was refused
    utf16 = tmp_path / "utf16.json"
    utf16.write_bytes(json.dumps(named_automorphism("AdS").to_json()).encode("utf-16"))
    deep = tmp_path / "deep.json"
    if case in DEEP:
        text, refusal = DEEP[case]
        deep.write_text(text)
    non_integer = tmp_path / "non_integer.json"
    if case in NON_INTEGERS:
        path, value, refusal = NON_INTEGERS[case]
        doc = (named_automorphism("AdS") if path[0] == "rep" else catalog("g4").grading).to_json()
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        non_integer.write_text(json.dumps(doc))
    argv = {
        "unknown-automorphism": ["normalizer", "check", "--catalog", "g4",
                                 "--auto", "Foo"],
        "missing-file": ["grading", "verify",
                         "--input", str(tmp_path / "missing.json")],
        "no-parts": ["grading", "verify", "--input", str(no_parts)],
        "labels-without-group": ["grading", "verify", "--input", str(no_group)],
        "zero-denominator": ["grading", "verify", "--input", str(zero_den)],
        "bad-json": ["grading", "verify", "--input", str(bad_json)],
        "bad-json-automorphism": ["normalizer", "check", "--catalog", "g4",
                                  "--auto", str(bad_json)],
        "not-utf8": ["grading", "verify", "--input", str(not_utf8)],
        "scalar-order": ["grading", "verify", "--input", str(bad_scalar)],
        "scalar-exponent": ["grading", "verify", "--input", str(bad_scalar)],
        "scalar-negative-exponent": ["grading", "verify",
                                     "--input", str(bad_scalar)],
        "scalar-automorphism": ["normalizer", "check", "--catalog", "g4",
                                "--auto", str(bad_scalar_rep)],
        "mixed-orders": ["grading", "verify", "--input", str(mixed)],
        "mixed-orders-automorphism": ["normalizer", "check", "--catalog", "g4",
                                      "--auto", str(mixed_rep)],
        "utf16-automorphism": ["normalizer", "check", "--catalog", "g4",
                               "--auto", str(utf16)],
        "deep-grading": ["grading", "verify", "--input", str(deep)],
        "deep-automorphism": ["normalizer", "check", "--catalog", "g4", "--auto", str(deep)],
        "deep-parts": ["grading", "verify", "--input", str(deep)],
        **{name: ["normalizer", "check", "--catalog", "g4", "--auto", str(non_integer)]
           if path[0] == "rep" else ["grading", "verify", "--input", str(non_integer)]
           for name, (path, _, _) in NON_INTEGERS.items()},
    }[case]
    err = assert_one_line_usage_error(capsys, argv)
    assert repr(argv[-1]) in err and refusal in err
    if case == "unknown-automorphism":
        assert all(name in err for name in NAMED_AUTOMORPHISMS)


def test_singular_or_wrongly_sized_automorphism_is_malformed_input(capsys, tmp_path):
    one, zero = {"order": 1, "terms": [[1, 1, 0]]}, {"order": 1, "terms": []}
    cases = {"singular.json": (3, [zero] * 9, "ValueError: matrix is singular"),
             "sl2.json": (2, [one, zero, zero, one],
                          "ValueError: an automorphism of sl(2), not of sl(3)")}
    for name, (n, entries, reason) in cases.items():
        path = tmp_path / name
        path.write_text(json.dumps(
            {"kind": "inner", "rep": {"rows": n, "cols": n, "entries": entries}}))
        for sub in ("check", "linearize"):
            err = assert_one_line_usage_error(
                capsys, ["normalizer", sub, "--catalog", "g4", "--auto", str(path)])
            assert err == f"error: malformed automorphism in {str(path)!r}: {reason}\n"


def test_scaled_g4_at_and_past_the_order_bound(capsys, tmp_path):
    # README's bound example: g4 with part 0 scaled by a primitive 255th root
    # of unity (its scalars meet at order 255) verifies; scaled by a primitive
    # 251st root, g4's Q(zeta_3) entries meet it at order 753, above the bound
    for k in (255, 251):
        doc = catalog("g4").grading.to_json()
        part = doc["parts"][0]
        part["basis"] = [[(CycloNumber.from_json(x) * zeta(k)).to_json() for x in row]
                         for row in part["basis"]]
        (tmp_path / f"g4_z{k}.json").write_text(json.dumps(doc))
    rc, report = run_json(capsys, "grading", "verify", "--input", str(tmp_path / "g4_z255.json"))
    assert rc == 0 and report["is_grading"] is True
    err = assert_one_line_usage_error(
        capsys, ["grading", "verify", "--input", str(tmp_path / "g4_z251.json")])
    assert "order 753" in err


def test_unknown_catalog_is_rejected(capsys):
    with pytest.raises(SystemExit):
        cli.main(["grading", "show", "--catalog", "g9"])


@pytest.mark.parametrize("argv, err", [
    (["contract", "solve", "--catalog", "g1", "--limit", "abc"],
     "error: argument --limit: invalid int value: 'abc'\n"),
    (["grading", "label", "--catalog", "g1"],
     "error: the following arguments are required: --group\n"),
    # newer Pythons quote the choices differently, so only the start is pinned
    (["grading", "show", "--catalog", "g9"], "error: argument --catalog: invalid choice: "),
    (["grading", "show", "--catalog", "g1", "--bogus"],
     "error: unrecognized arguments: --bogus\n"),
    (["normalizer"], "error: the following arguments are required: subcommand\n"),
])
def test_argparse_usage_errors_are_one_line(capsys, argv, err):
    # argparse's own refusals once printed a usage block before the error
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
    assert captured.err.startswith(err)


# the root and all 11 subcommands
@pytest.mark.parametrize("argv", [[*command.split(), "--help"] for command in (
    "", "contract solve", "contract equations", "grading show", "grading verify",
    "grading label", "grading coarsen", "normalizer check", "normalizer quotient",
    "normalizer inner", "normalizer linearize", "selfcheck")])
def test_help_is_still_a_usage_block_on_stdout(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 0
    assert captured.err == ""
    assert captured.out.startswith("usage: gradelab")
    assert captured.out.count("\n") > 3


@pytest.mark.parametrize("value", ["abc", "0"])
def test_bad_node_cap_is_a_one_line_usage_error(capsys, monkeypatch, value):
    monkeypatch.setenv("GRADELAB_NODE_CAP", value)
    rc = cli.main(["contract", "solve", "--catalog", "g1"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == \
        f"error: GRADELAB_NODE_CAP must be a positive integer, not {value!r}\n"


def test_solve_past_the_node_cap_is_a_one_line_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("GRADELAB_NODE_CAP", "5")
    for argv in (["contract", "solve", "--catalog", "g1"],
                 ["selfcheck", "--only", "7", "--format", "json"]):
        err = assert_one_line_usage_error(capsys, argv)
        assert err.startswith("error: solver exceeded the node cap of 5 (GRADELAB_NODE_CAP)")
    # g4's search tree has 32729 nodes: one less stops it
    monkeypatch.setenv("GRADELAB_NODE_CAP", "32728")
    err = assert_one_line_usage_error(capsys, ["contract", "solve", "--catalog", "g4"])
    assert err.startswith("error: solver exceeded the node cap of 32728 (GRADELAB_NODE_CAP)")


def test_closure_past_the_closure_cap_is_a_one_line_usage_error(capsys, monkeypatch):
    # a g2 quotient memoized by an earlier test would never reach the cap
    normalizers._quotient_and_inner.cache_clear()
    monkeypatch.setattr(autgrp, "CLOSURE_CAP", 3)
    err = assert_one_line_usage_error(capsys, ["normalizer", "quotient", "--catalog", "g2"])
    assert err == "error: group closure exceeded cap of 3 elements\n"


def test_bad_only_value_is_a_one_line_usage_error(capsys):
    # an empty value once ran all nine checks
    for value in ("1,x", ""):
        err = assert_one_line_usage_error(capsys, ["selfcheck", "--only", value])
        assert err == f"error: bad --only value {value!r}; the checks are numbered 1 to 9\n"


def test_negative_limit_is_a_one_line_usage_error(capsys):
    err = assert_one_line_usage_error(
        capsys, ["contract", "solve", "--catalog", "g1", "--limit", "-3"])
    assert err == "error: --limit must be 0 (all) or a positive count, not -3\n"


def test_algebra_above_the_size_cap_is_a_one_line_usage_error(capsys, tmp_path):
    n = 40
    assert n > liealg.MAX_ALGEBRA_N
    grading = tmp_path / "sl40.json"
    grading.write_text(json.dumps({"n": n, "parts": [{"basis": ["E12"]}]}))
    one, zero = {"order": 1, "terms": [[1, 1, 0]]}, {"order": 1, "terms": []}
    rep = {"rows": n, "cols": n,
           "entries": [one if i == j else zero for i in range(n) for j in range(n)]}
    automorphism = tmp_path / "rep40.json"
    automorphism.write_text(json.dumps({"kind": "inner", "rep": rep}))
    for argv in (["grading", "verify", "--input", str(grading)],
                 ["normalizer", "check", "--catalog", "g4", "--auto", str(automorphism)]):
        err = assert_one_line_usage_error(capsys, argv)
        assert repr(argv[-1]) in err and "sl(40)" in err


def test_importing_the_cli_leaves_numpy_out():
    # only `contract` and `selfcheck` import numpy, inside their commands;
    # a fresh process, since this one has imported it already
    src = os.path.dirname(os.path.dirname(cli.__file__))
    out = subprocess.run([sys.executable, "-c",
                          "import sys, gradelab.cli; print('numpy' in sys.modules)"],
                         env={**os.environ, "PYTHONPATH": src}, capture_output=True,
                         text=True, check=True).stdout
    assert out == "False\n"
