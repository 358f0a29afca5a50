"""Fuzzing of the input readers: text and proof JSON either parse or raise ParseError."""

from hypothesis import given, settings, strategies as st

from supercut.proofs import Proof, proof_from_dict
from supercut.syntax import Formula, ParseError, Sequent, parse_formula, parse_sequent

# the characters of the formula and sequent syntax, plus a few that belong to none of it
ALPHABET = "pqrs_09AZTF~&|()-, \t" + "!x."
texts = st.text(alphabet=ALPHABET, max_size=40)
fuzz = settings(max_examples=300, deadline=None, derandomize=True)


@fuzz
@given(texts)
def test_parse_formula_returns_or_raises_parse_error(text):
    try:
        assert isinstance(parse_formula(text), Formula)
    except ParseError:
        pass


@fuzz
@given(st.builds(lambda a, b: f"{a}|-{b}", texts, texts) | texts)
def test_parse_sequent_returns_or_raises_parse_error(text):
    try:
        assert isinstance(parse_sequent(text), Sequent)
    except ParseError:
        pass


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | texts,
    lambda sub: st.lists(sub, max_size=3) | st.dictionaries(st.text(max_size=3), sub, max_size=3),
    max_leaves=12,
)

# near-miss proof nodes: the right keys with values of any JSON type
proof_nodes = st.recursive(
    st.fixed_dictionaries(
        {"sequent": st.sampled_from(["|- p", "p |- q", "p |-", "|- (", "p, |- q"]) | json_values,
         "rule": st.sampled_from(["premise", "weakening-left"]) | json_values},
        optional={"premise_index": st.integers(-1, 2) | json_values},
    ),
    lambda sub: st.fixed_dictionaries(
        {"sequent": st.sampled_from(["q |- p", "|- p"]), "rule": st.just("weakening-left"),
         "children": st.lists(sub, max_size=2) | json_values},
    ),
    max_leaves=6,
)


@fuzz
@given(json_values | proof_nodes)
def test_proof_from_dict_returns_or_raises_parse_error(value):
    try:
        assert isinstance(proof_from_dict(value), Proof)
    except ParseError:
        pass
