"""Property tests over the flat `ProtocolConfig`, and fuzz of every input
boundary: the command line and both `from_dict` parsers.

Every test runs with `derandomize=True`, so Hypothesis draws the same
examples on every run and the suite stays deterministic.
"""
import contextlib
import copy
import io
import json
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from sqpclab.adversary import ATTACKS
from sqpclab.batch import run_chunk
from sqpclab.cli import main
from sqpclab.harness import AggregateReport, ExperimentSpec, run_experiment, run_trial
from sqpclab.protocol import (
    AbortReason,
    ProtocolConfig,
    ValidationError,
    Variant,
    run_protocol,
)

from scalar_fold import lanes_of

deterministic = settings(derandomize=True, database=None, deadline=None)


def _words(length: int):
    return st.lists(st.integers(0, 1), min_size=length, max_size=length).map(tuple)


@st.composite
def honest_runs(draw):
    """(variant, config, seed): random bits at L <= 6, x == y about half the time."""
    L = draw(st.integers(1, 6))
    x, k, ra, rb = (draw(_words(L)) for _ in range(4))
    y = draw(st.one_of(st.just(x), _words(L)))
    cfg = ProtocolConfig(
        x,
        y,
        k,
        ra,
        rb,
        num_rounds=11 * L,
        p_ctrl=draw(st.floats(0.0, 1.0)),
        p_detect=draw(st.floats(0.0, 1.0)),
    )
    return draw(st.sampled_from(Variant)), cfg, draw(st.integers(0, 2**32 - 1))


@deterministic
@given(honest_runs())
def test_honest_runs_never_fail_a_check(run):
    variant, cfg, seed = run
    outcome, _, report = run_protocol(variant, cfg, seed=seed)
    assert outcome.abort_reason in (None, AbortReason.INSUFFICIENT_ROUNDS)
    assert not report.detected
    assert report.case1_errors == report.trap_mismatches == 0


@deterministic
@given(honest_runs())
def test_completed_honest_verdict_is_secret_equality(run):
    variant, cfg, seed = run
    outcome, _, report = run_protocol(variant, cfg, seed=seed)
    if not outcome.aborted:
        assert outcome.equal == (cfg.x == cfg.y)
        assert report.verdict_correct is True


@st.composite
def five_tuples(draw):
    """Five tuples of length L or any length up to 3, of bits or of integers
    in [-1, 2], so every way to be rejected is drawn often."""
    L = draw(st.integers(0, 3))
    same_length = st.lists(st.integers(-1, 2), min_size=L, max_size=L).map(tuple)
    any_length = st.lists(st.integers(0, 1), max_size=3).map(tuple)
    word = st.one_of(_words(L), _words(L), same_length, any_length)
    return tuple(draw(word) for _ in range(5))


@deterministic
@given(five_tuples())
def test_config_accepts_exactly_equal_length_bit_tuples(words):
    valid = all(set(w) <= {0, 1} for w in words) and len({len(w) for w in words}) == 1
    valid = valid and len(words[0]) > 0
    try:
        ProtocolConfig(*words, num_rounds=4)
        accepted = True
    except ValidationError:
        accepted = False
    assert accepted == valid


@st.composite
def raw_key_swaps(draw):
    """(config, config with other raw keys, seed) at L <= 6, default settings."""
    L = draw(st.integers(1, 6))
    x, y, k, ra, rb, ra2, rb2 = (draw(_words(L)) for _ in range(7))
    cfg = ProtocolConfig(x, y, k, ra, rb, num_rounds=11 * L)
    return cfg, replace(cfg, ra=ra2, rb=rb2), draw(st.integers(0, 2**32 - 1))


@deterministic
@given(raw_key_swaps())
def test_improved_publication_carries_nothing_of_the_raw_keys(swap):
    """At one seed, other raw keys leave the improved run unchanged: the
    outcome, every round record, the masks and the r values. Each published
    mask RA ^ RA' is K ^ x ^ ma. (Jiang publishes RA by design.)"""
    cfg, other, seed = swap
    outcome, transcript, _ = run_protocol(Variant.IMPROVED, cfg, seed=seed)
    assert run_protocol(Variant.IMPROVED, other, seed=seed)[:2] == (outcome, transcript)
    if transcript.masks is None:
        return
    ma = {r.alice_ordinal: r.ma for r in transcript.rounds if r.ma is not None}
    mb = {r.bob_ordinal: r.mb for r in transcript.rounds if r.mb is not None}
    L = len(cfg.x)
    assert transcript.masks.alice_masks == tuple(
        cfg.k[j] ^ cfg.x[j] ^ ma[j + 1] for j in range(L)
    )
    assert transcript.masks.bob_masks == tuple(
        cfg.k[j] ^ cfg.y[j] ^ mb[j + 1] for j in range(L)
    )


# -- the batched engine against the scalar one ------------------------------------

_PROBABILITY = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@st.composite
def chunks(draw):
    """(spec, first, count): any pair and secrets mode, p_ctrl and p_detect
    at 0 and 1 among others, rounds factors from 1, L up to 16, seeds and
    trial indices on both sides of 2**32, and up to 40 lanes."""
    protocol = draw(st.sampled_from(["jiang", "improved"]))
    L = draw(st.integers(1, 16))
    secrets = draw(st.sampled_from(["random", "equal", "unequal", "explicit"]))
    if secrets == "explicit":
        x, y = (draw(st.integers(0, 2**L - 1)) for _ in range(2))
        secrets = f"explicit:{x:X},{y:X}"
    spec = ExperimentSpec(
        protocol=protocol,
        attack=draw(st.sampled_from(list(ATTACKS))),
        secret_bits=L,
        rounds_factor=draw(st.integers(1, 3)),
        p_ctrl=draw(_PROBABILITY),
        p_detect=draw(_PROBABILITY) if protocol == "improved" else 0.5,
        seed=draw(st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**70))),
        threshold=draw(st.sampled_from([0.0, 0.25])),
        secrets=secrets,
    )
    first = draw(st.one_of(st.integers(1, 5000), st.integers(2**32, 2**32 + 5000)))
    return spec, first, draw(st.integers(1, 40))


@deterministic
@given(chunks())
def test_chunk_lanes_equal_scalar_reports(chunk):
    """`run_chunk` gives every lane the report fields `run_trial` gives its
    trial."""
    spec, first, count = chunk
    lanes = run_chunk(spec, first, count)
    expected = lanes_of(run_trial(spec, t) for t in range(first, first + count))
    assert [field.tolist() for field in lanes] == [field.tolist() for field in expected]


# -- fuzz of the input boundaries ----------------------------------------------

# Each real flag with values it accepts. Trials and secret lengths stay tiny,
# so an accepted argv runs in milliseconds.
_FLAG_VALUES = {
    "--protocol": st.sampled_from(["jiang", "improved"]),
    "--attack": st.sampled_from(list(ATTACKS)),
    "--secret-bits": st.integers(1, 4).map(str),
    "--rounds-factor": st.integers(1, 12).map(str),
    "--trials": st.integers(1, 3).map(str),
    "--seed": st.integers(0, 2**70).map(str),
    "--p-ctrl": st.floats(0.0, 1.0).map(str),
    "--p-detect": st.floats(0.0, 1.0).map(str),
    "--secrets": st.sampled_from(
        ["random", "equal", "unequal", "explicit:F,0", "explicit:1,1", "explicit:A,"]
    ),
    "--threshold": st.floats(0.0, 1.0).map(str),
    "--output": st.sampled_from(["table", "json", "csv"]),
}

# Tokens out of place: bare flags, stray or malformed values and any text.
# None is a number above 3, so a junk token read as `--trials` or
# `--secret-bits` never asks for a long run, and none calls for `--help` or
# `-h` (the drawn text has no "h"), which exit through argparse by design.
_JUNK = st.one_of(
    st.sampled_from(
        ["", "-", "--", "-x", "--p", "--pro", "-1", "0", "3", "1.5", "nan", "-inf",
         "0x1", "explicit:", "explicit:zz,1", "a\nb", "--seed=", "--trials=0", *_FLAG_VALUES]
    ),
    st.text(st.characters(blacklist_categories=("Nd",), blacklist_characters="h"), max_size=6),
)


@st.composite
def argvs(draw):
    """Flag-value pairs of the real flags, in any order and number, with
    junk tokens mixed in; half start with a valid `--protocol`, so parsing
    often gets past the check for it."""
    items = [["--protocol", draw(_FLAG_VALUES["--protocol"])]] * draw(st.booleans())
    items += draw(st.lists(
        st.one_of(
            st.sampled_from(list(_FLAG_VALUES)).flatmap(
                lambda flag: _FLAG_VALUES[flag].map(lambda value: [flag, value])
            ),
            _JUNK.map(lambda token: [token]),
        ),
        max_size=8,
    ))
    return [token for item in items for token in item]


@settings(deterministic, max_examples=300)
@given(argvs())
def test_cli_accepts_or_rejects_any_argv_in_one_line(argv):
    """`main` returns 0, or 2 with exactly one line on stderr; it never
    raises."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2)
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ")
        assert len(err.getvalue().splitlines()) == 1 and err.getvalue().endswith("\n")
    else:
        assert err.getvalue() == ""


# JSON-like values: what `json.loads` can give, NaN and infinities included.
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: (
        st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner, max_size=3)
    ),
    max_leaves=8,
)

# A real report with a trap-count table and a completed trial, as JSON
# gives it back.
_REPORT = json.loads(json.dumps(run_experiment(
    ExperimentSpec(protocol="improved", attack="measure-resend", secret_bits=2, trials=8, seed=0)
).to_dict()))


def _paths(value, path=()):
    """The path of every node of a JSON-like value: keys and list indices."""
    yield path
    if isinstance(value, dict):
        items = value.items()
    else:
        items = enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        yield from _paths(item, (*path, key))


@st.composite
def edits_of(draw, base):
    """`base` after up to four edits, each at a node drawn from its paths:
    replace the node with a JSON-like value, delete it, or add a key next
    to it. No edit gives `base` itself."""
    value = copy.deepcopy(base)
    for _ in range(draw(st.integers(0, 4))):
        path = draw(st.sampled_from(list(_paths(value))))
        new = draw(_JSON)
        if not path:
            value = new
            continue
        parent = value
        for key in path[:-1]:
            parent = parent[key]
        action = draw(st.sampled_from(["replace", "delete", "add"]))
        if action == "delete":
            del parent[path[-1]]
        elif action == "add" and isinstance(parent, dict):
            parent[draw(st.text(max_size=8))] = new
        else:
            parent[path[-1]] = new
    return value


def _parses_or_rejects(cls, data):
    try:
        result = cls.from_dict(data)
    except ValidationError:
        return
    assert type(result) is cls


@settings(deterministic, max_examples=300)
@given(edits_of(_REPORT["spec"]))
def test_spec_from_dict_gives_a_spec_or_a_validation_error(data):
    _parses_or_rejects(ExperimentSpec, data)


@settings(deterministic, max_examples=300)
@given(edits_of(_REPORT))
def test_report_from_dict_gives_a_report_or_a_validation_error(data):
    _parses_or_rejects(AggregateReport, data)
