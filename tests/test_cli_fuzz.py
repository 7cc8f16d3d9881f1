"""Fuzz of the CLI boundary: mutated arguments and @pair.json files.

Whatever the input, main() returns 0, 1, 2 or 3 (or argparse exits 2) and
no other exception escapes.  Exit 1 is a computed refusal, violation or
baseline mismatch, so it always comes with a payload on stdout.
"""
import contextlib
import copy
import io
import json
import os
import tempfile

import jsonschema
from hypothesis import given, settings
from hypothesis import strategies as st

from belle_paire.cli import main
from belle_paire.measure import StepMap
from belle_paire.random_endo import PairModel, constant_endo
from belle_paire.serialize import load_schema, pair_model_to_json
from belle_paire.structures import (
    FqVectors,
    NaturalNumbers,
    TableInjection,
    basis_shift_endo,
    identity_endo,
    successor_endo,
)

WINDOW = 8
PAIR_FILE = "@PAIR"  # stands for the mutated pair model's path

# values every slot may take instead of its own: zero, negative, a zero
# denominator, a float, a word and an empty string
MUTATIONS = ["0", "-1", "1/0", "1.5", "x", ""]

# each command as (flag, own values) slots; the first value is the valid one
GLOBAL = [("--window", [str(WINDOW)]), ("--grid", ["2", "1"]),
          ("--eps", ["1/4", "1/2", "-1/4"])]
ENDOS = ["x+2", "successor", "table:[[0,1],[1,0]]", "table:[[0,0],[1,0]]",
         "table:[[-1,2]]", "table:[[1.5,2]]", "table:[[0]]", "table:[",
         "fq-shift:2", "fq-shift:4", "shift:0", "nope"]
EXPRS = ["product(pure,pure)", "wreath(pure,pure,m=2)", "wreath(pure,pure,m=0)",
         "wreath(pure,pure,m=-1)", "findex(parity,reps=shift2)",
         "findex(parity)", "product(pure", "product(pure,pure))",
         "product(" * 1200 + "pure" + ",pure)" * 1200, "nope(pure)"]
PAIRS = [PAIR_FILE, "pure:successor", "pure:identity", "fq2:shift", "pure:",
         "nope:identity", "@"]
COMMANDS = [
    ("approx-endo", [("--endo", ENDOS), ("--n", ["2", "1"])]),
    ("lift", [("--endo", ENDOS), ("--n", ["2"]), ("--alphabet", ["3"])]),
    ("pair-certify", [("--pair1", PAIRS), ("--pair2", PAIRS[1:] + [PAIR_FILE]),
                      ("--obstruction", ['{"q": 2, "dim": 2, "grid": 2, '
                                         '"subspace": [[1, 0]]}',
                                         '{"q": 2}', '{"q": 4, "dim": 2, '
                                         '"grid": 2, "subspace": [[1, 0]]}'])]),
    ("pair-distance", [("--pair1", PAIRS), ("--pair2", PAIRS[1:]),
                       ("--alphabet", ["3"])]),
    ("compose", [("--expr", EXPRS), ("--element", ["L.successor", "nope"]),
                 ("--alphabet", ["3"])]),
    ("bound", [("--geometry", ["affine:2", "projective:3", "disintegrated",
                               "affine:4", "affine", "affine:6"]),
               ("--delta", ["1/4", "2"]), ("--n-max", ["2"])]),
    ("search", [("--q", ["2", "3", "4"]), ("--dim", ["2", "1"]),
                ("--subspace", ["e0", "full", "e1", "e5", "1 1", "1"])]),
    ("search", [("--pure", ["3,1", "3,3", "3,4", "0,0", "-1,1", "3"])]),
    ("realize", [("--seed", ["1"]), ("--spec", ["/nonexistent/spec.json"])]),
    ("verify", []),
]


def _pair_blobs():
    nat, fq2 = NaturalNumbers(), FqVectors(2)
    images = [
        ("nat", StepMap.uniform_strips([identity_endo(nat), successor_endo()])),
        ("nat", constant_endo(TableInjection(nat, {0: 1, 1: 0}))),
        ("fqvec(2)", constant_endo(basis_shift_endo(2))),
        ("fqvec(2)", constant_endo(identity_endo(fq2))),
    ]
    return [json.loads(json.dumps(pair_model_to_json(PairModel(s, WINDOW, h))))
            for s, h in images]


PAIR_BLOBS = _pair_blobs()
# a wrong type for every JSON field, and the mutations read as JSON values
JSON_VALUES = [0, -1, "1/0", 1.5, "x", None, True, [], {}, [[0, 1]]]
CERTIFICATE_SCHEMA = load_schema("certificate")


def _paths(blob, prefix=()):
    yield prefix
    items = (blob.items() if isinstance(blob, dict)
             else enumerate(blob) if isinstance(blob, list) else ())
    for k, v in items:
        yield from _paths(v, prefix + (k,))


@st.composite
def pair_models(draw):
    """A valid pair model with at most two mutations: a field replaced by
    another value or removed."""
    blob = copy.deepcopy(draw(st.sampled_from(PAIR_BLOBS)))
    for _ in range(draw(st.integers(0, 2))):
        paths = [p for p in _paths(blob) if p]
        if not paths:
            break
        *head, last = draw(st.sampled_from(paths))
        parent = blob
        for k in head:
            parent = parent[k]
        if draw(st.booleans()):
            parent[last] = copy.deepcopy(draw(st.sampled_from(JSON_VALUES)))
        else:
            del parent[last]
    return blob


@st.composite
def argvs(draw):
    """A command line whose slots take their first or another own value,
    with at most two slots mutated or left out."""
    cmd, slots = draw(st.sampled_from(COMMANDS))
    slots = GLOBAL + slots
    changed = draw(st.sets(st.integers(0, len(slots) - 1), max_size=2))
    argv = []
    for i, (flag, own) in enumerate(slots):
        if i == len(GLOBAL):
            argv.append(cmd)
        if i not in changed:
            argv += [flag, draw(st.sampled_from(own)) if draw(st.booleans())
                     else own[0]]
        elif draw(st.booleans()):
            argv += [flag, draw(st.sampled_from(MUTATIONS))]
    if len(slots) == len(GLOBAL):
        argv.append(cmd)
    return argv


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:  # argparse refuses the command line itself
            assert e.code == 2, (argv, err.getvalue())
            code = None
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=500, deadline=None, derandomize=True)
@given(argv=argvs(), blob=pair_models())
def test_main_exits_with_a_documented_code(argv, blob):
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "pair.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(blob, fh)
        argv = [f"@{path}" if a == PAIR_FILE else a for a in argv]
        code, out, err = run_main(argv)
    if code is None:
        return
    assert code in (0, 1, 2, 3), (argv, code, err)
    if code in (2, 3):
        assert err.startswith(("error: ", "precondition failed: ")), (argv, err)
    if code == 1:
        assert out, (argv, err)
    if "pair-certify" in argv and out:
        jsonschema.validate(json.loads(out), CERTIFICATE_SCHEMA)
