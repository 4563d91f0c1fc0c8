"""Property tests over the flat `ProtocolConfig`.

Every test runs with `derandomize=True`, so Hypothesis draws the same
examples on every run and the suite stays deterministic.
"""
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from sqpclab.protocol import (
    AbortReason,
    ProtocolConfig,
    ValidationError,
    Variant,
    run_protocol,
)

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
