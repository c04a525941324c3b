"""Property tests of the input readers: mutated grading and automorphism
documents fed through `cli.main` on stdin give a verdict (exit 0 or 1) or a
one-line error (exit 2), never a traceback.  Seeded and bounded: hypothesis
derandomizes the examples and keeps no example database."""
import contextlib
import copy
import io
import json
import math
import types
from unittest import mock

from hypothesis import HealthCheck, given, settings, strategies as st

from gradelab import cli
from gradelab.autgrp import named_automorphism
from gradelab.gradings import catalog

GRADINGS = [catalog(name).grading.to_json() for name in ("g1", "g2", "g4")] + [
    {"n": 3, "parts": [{"basis": ["H1", "H2"]}, {"basis": ["E12"]}, {"basis": ["E23"]},
                       {"basis": ["E13"]}, {"basis": ["E31"]}, {"basis": ["E32"]},
                       {"basis": ["E21"]}]}]
AUTOMORPHISMS = [named_automorphism(name).to_json() for name in ("AdS", "AdH", "OutI")]

GRADING_COMMANDS = (("grading", "verify", "--input", "-", "--format", "json"),
                    ("grading", "verify", "--input", "-"))
AUTOMORPHISM_COMMANDS = (("normalizer", "check", "--catalog", "g4", "--auto", "-"),
                         ("normalizer", "linearize", "--catalog", "g4", "--auto", "-"),
                         ("normalizer", "check", "--catalog", "g2", "--auto", "-",
                          "--format", "json"))

# Scalars as they come from JSON, the non-finite floats Python's reader
# accepts included, and the containers around them.  The integers stay
# small or far out of range, so no mutation asks for sl(5) and beyond.
JSON_SCALARS = (st.sampled_from([math.inf, -math.inf, math.nan, 0.5, -1, 0, 2, 10 ** 30,
                                 -2 ** 64, 257, 65280, "", "x", "1/0", "1/2", "E12",
                                 "H1 + E21", None, True])
                | st.integers(-3, 4) | st.floats() | st.text(max_size=6))
JSON_VALUES = JSON_SCALARS | st.recursive(
    JSON_SCALARS,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.sampled_from(["n", "parts", "basis", "order", "terms",
                                       "kind", "rep", "rows", "cols", "entries",
                                       "group", "labels", "ambient_dim", "grading"]),
                      children, max_size=3),
    max_leaves=6)


def _mutate(draw, node):
    """node with one change somewhere inside it: most draws walk one level
    down into a child, the rest replace, delete, add or duplicate here."""
    children = sorted(node) if isinstance(node, dict) else \
        range(len(node)) if isinstance(node, list) else ()
    if children and draw(st.integers(0, 5)):
        key = draw(st.sampled_from(list(children)))
        node[key] = _mutate(draw, node[key])
        return node
    action = draw(st.sampled_from(("replace", "delete", "add", "duplicate")))
    if action == "replace" or not children:
        return draw(JSON_VALUES)
    key = draw(st.sampled_from(list(children)))
    if action == "delete":
        del node[key]
    elif isinstance(node, dict):
        node[draw(st.text(max_size=4))] = draw(JSON_VALUES)
    else:
        node.insert(key, copy.deepcopy(node[key]))
    return node


@st.composite
def mutated_documents(draw, documents):
    doc = copy.deepcopy(draw(st.sampled_from(documents)))
    for _ in range(draw(st.integers(1, 3))):
        doc = _mutate(draw, doc)
    raw = json.dumps(doc).encode("utf-8")
    if draw(st.integers(0, 9)) == 0:  # a document cut short
        raw = raw[:draw(st.integers(0, len(raw)))]
    return raw


def _run(argv, raw: bytes):
    out, err = io.StringIO(), io.StringIO()
    stdin = types.SimpleNamespace(buffer=io.BytesIO(raw))
    with mock.patch.object(cli.sys, "stdin", stdin), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(list(argv))
    return rc, err.getvalue()


def _assert_verdict_or_one_line_error(argv, raw: bytes):
    rc, err = _run(argv, raw)
    assert rc in (0, 1, 2), (argv, raw, rc)
    assert len(err.splitlines()) <= 1, (argv, raw, err)
    assert "Traceback" not in err
    if rc == 2:
        assert err.startswith("error: "), (argv, raw, err)


READER_SETTINGS = settings(max_examples=150, derandomize=True, database=None,
                           deadline=None, suppress_health_check=[HealthCheck.too_slow])


@READER_SETTINGS
@given(raw=mutated_documents(GRADINGS), argv=st.sampled_from(GRADING_COMMANDS))
def test_mutated_gradings_give_a_verdict_or_one_error_line(raw, argv):
    _assert_verdict_or_one_line_error(argv, raw)


@READER_SETTINGS
@given(raw=mutated_documents(AUTOMORPHISMS), argv=st.sampled_from(AUTOMORPHISM_COMMANDS))
def test_mutated_automorphisms_give_a_verdict_or_one_error_line(raw, argv):
    _assert_verdict_or_one_line_error(argv, raw)


def test_non_finite_numbers_are_malformed_input():
    # JSON readers accept Infinity; int() of it raises OverflowError, which
    # must reach the user as a malformed-input line like any bad value
    cases = [(GRADING_COMMANDS[0], b'{"n": Infinity, "parts": []}'),
             (GRADING_COMMANDS[0], b'{"n": 3, "parts": [{"ambient_dim": 1e400, '
                                   b'"basis": ["H1"]}]}'),
             (AUTOMORPHISM_COMMANDS[0], b'{"kind": "inner", "rep": {"rows": -Infinity, '
                                        b'"cols": 3, "entries": []}}')]
    for argv, raw in cases:
        rc, err = _run(argv, raw)
        assert rc == 2 and len(err.splitlines()) == 1, (raw, err)
        assert "OverflowError" in err, err


def test_boolean_coordinates_are_malformed_input():
    # a scalar reads true as 1, so g1 with its E12 line spelled
    # [true, 0, ...] once verified as g1 itself
    document = copy.deepcopy(GRADINGS[0])
    document["parts"][1]["basis"][0] = [True] + [0] * 7
    for argv in GRADING_COMMANDS:
        rc, err = _run(argv, json.dumps(document).encode())
        assert rc == 2 and len(err.splitlines()) == 1, err
        assert err.startswith("error: malformed grading in '-': "), err
