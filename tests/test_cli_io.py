"""The CLI's two per-process shortcuts against the plain forms they replace:
``_indented`` against ``json.dumps(x, sort_keys=True, indent=2)``, and the
parser ``main`` builds for one group against the whole tree."""

import argparse
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locdim.cli import _indented, build_parser, main

GOLDEN = Path(__file__).parent / "golden"

pair = st.lists(st.integers(), min_size=2, max_size=2)
leaves = st.one_of(
    st.text(st.characters() | st.sampled_from('"\\/\n\t\x00é€😀')),
    st.integers(), st.floats(), st.booleans(), st.none(),
    st.just({}), st.just([]), st.just(()),
    st.lists(pair),  # int pairs: the one-format path
    st.lists(pair.map(tuple)),
    st.lists(st.lists(st.booleans(), min_size=2, max_size=2)),  # bool pairs
    st.lists(st.lists(st.integers() | st.booleans(), min_size=2, max_size=2)),
    st.lists(st.lists(st.integers(), min_size=1, max_size=3)),
)
values = st.recursive(
    leaves,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=4)
                   | st.dictionaries(st.integers(), inner, max_size=4)),
    max_leaves=20)


@settings(max_examples=300, deadline=None)
@given(values)
def test_indented_matches_json_dumps(x):
    assert _indented(x) == json.dumps(x, sort_keys=True, indent=2)


def test_indented_bool_pairs_stay_booleans():
    x = {"pairs": [[True, False]], "mixed": [[1, True]], "ints": [[1, 2]]}
    assert _indented(x) == json.dumps(x, sort_keys=True, indent=2)
    assert "true" in _indented([[True, 0]])


@pytest.mark.parametrize("path", sorted(GOLDEN.glob("*.json")),
                         ids=lambda p: p.name)
def test_goldens_rerender_byte_identically(path):
    text = path.read_text()
    assert _indented(json.loads(text)) + "\n" == text


def _verb_paths(parser, path=()):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                yield path + (name,)
                yield from _verb_paths(child, path + (name,))


PATHS = list(_verb_paths(build_parser()))
BAD = [["bogus"], ["md"], ["--out", "x", "md", "exact"], [],
       ["md", "exact", "--graph", "c5", "--frobnicate"],
       ["loc", "decide", "--graph", "c5"], ["graph", "export", "--graph", "c5",
                                            "--format", "png"]]


def test_the_tree_has_5_groups_and_16_verbs():
    assert sum(len(p) == 1 for p in PATHS) == 5
    assert sum(len(p) == 2 for p in PATHS) == 16


@pytest.mark.parametrize("argv", [["--help"]]
                         + [list(p) + ["--help"] for p in PATHS] + BAD,
                         ids=lambda a: " ".join(a) or "(none)")
def test_main_parses_like_the_full_tree(capsys, argv):
    try:
        build_parser().parse_args(argv)
    except SystemExit as exc:
        expected = (0 if exc.code == 0 else 3,) + tuple(capsys.readouterr())
    else:
        pytest.fail("every case here stops in the parser")
    code = main(argv)
    assert (code,) + tuple(capsys.readouterr()) == expected
    assert expected[0] == (0 if "--help" in argv else 3)
