"""Tests for the protocol state machines and the classical XOR layer."""
import itertools
from dataclasses import replace
from enum import Enum

import numpy as np
import pytest

from sqpclab.adversary import ATTACKS, ChannelStrategy, make_strategy
from sqpclab.qsim import BellKind
from sqpclab.protocol import (
    AbortReason,
    Choice,
    ComparisonOutcome,
    Leg,
    ProtocolConfig,
    RoundRecord,
    TrialReport,
    ValidationError,
    Variant,
    compute_ma_jiang,
    compute_mask_improved,
    compute_r,
    run_protocol,
)

import oracles


def make_config(x, y, seed=0, rounds=None, **kwargs):
    rng = np.random.default_rng(seed)
    L = len(x)
    bits = lambda: tuple(int(v) for v in rng.integers(0, 2, size=L))
    return ProtocolConfig(
        x=tuple(x),
        y=tuple(y),
        k=bits(),
        ra=bits(),
        rb=bits(),
        num_rounds=rounds if rounds is not None else 8 * L,
        **kwargs,
    )


# -- XOR layer: exhaustive oracles ---------------------------------------------


def test_compute_ma_jiang_examples_and_exhaustive():
    assert compute_ma_jiang(0, 0, 0) == 0
    assert compute_ma_jiang(1, 0, 1) == 0
    for k, ra, x in itertools.product((0, 1), repeat=3):
        assert compute_ma_jiang(k, ra, x) == k ^ ra ^ x


def test_jiang_chain_recovers_xor_over_all_32_inputs():
    """End-to-end comparison value equals x XOR y for every input combination."""
    assert compute_r(0, 0, 0, 0) == 0
    for x, y, k, ra, rb in itertools.product((0, 1), repeat=5):
        ma = compute_ma_jiang(k, ra, x)
        mb = compute_ma_jiang(k, rb, y)
        assert compute_r(ma, mb, ra, rb) == x ^ y


def test_jiang_chain_worked_example():
    ma = compute_ma_jiang(1, 0, 1)
    mb = compute_ma_jiang(1, 1, 0)
    assert (ma, mb) == (0, 0)
    assert compute_r(ma, mb, 0, 1) == 1  # x=1, y=0


def test_mask_is_independent_of_raw_key_over_all_16_inputs():
    assert compute_mask_improved(0, 0, 0, 0) == 0
    assert compute_mask_improved(1, 1, 0, 1) == 0
    for k, x, ma in itertools.product((0, 1), repeat=3):
        published = {compute_mask_improved(k, ra, x, ma) for ra in (0, 1)}
        assert published == {k ^ x ^ ma}


def test_improved_chain_recovers_xor_over_all_128_inputs():
    assert compute_r(0, 0, 0, 0) == 0
    for x, y, k, ra, rb, ma, mb in itertools.product((0, 1), repeat=7):
        mask_a = compute_mask_improved(k, ra, x, ma)
        mask_b = compute_mask_improved(k, rb, y, mb)
        assert compute_r(ma, mb, mask_a, mask_b) == x ^ y


def test_improved_chain_worked_example():
    mask_a = compute_mask_improved(1, 0, 1, 1)
    mask_b = compute_mask_improved(1, 1, 0, 0)
    assert (mask_a, mask_b) == (1, 1)
    assert compute_r(1, 0, mask_a, mask_b) == 1  # x=1, y=0


def test_key_cancellation_exhaustive():
    """Flipping any shared-key bit never changes the comparison value."""
    for x, y, ra, rb in itertools.product((0, 1), repeat=4):
        values = set()
        for k in (0, 1):
            ma = compute_ma_jiang(k, ra, x)
            mb = compute_ma_jiang(k, rb, y)
            values.add(compute_r(ma, mb, ra, rb))
        assert values == {x ^ y}


# -- honest execution ----------------------------------------------------------


@pytest.mark.parametrize("variant", list(Variant))
def test_honest_verdict_exhaustive_small(variant):
    """Equal iff X == Y over all secrets at L <= 2, honest channel."""
    for L in (1, 2):
        for xv in range(2**L):
            for yv in range(2**L):
                x = tuple((xv >> (L - 1 - i)) & 1 for i in range(L))
                y = tuple((yv >> (L - 1 - i)) & 1 for i in range(L))
                cfg = make_config(x, y, seed=xv * 7 + yv, rounds=24 * L)
                outcome, _, report = run_protocol(variant, cfg, seed=xv * 31 + yv)
                assert not outcome.aborted
                assert outcome.equal == (x == y)
                assert report.verdict_correct is True


def test_honest_not_equal_reports_first_difference():
    x = (0, 1, 1, 0)
    y = (0, 1, 0, 1)  # first difference at ordinal 3
    cfg = make_config(x, y, seed=4)
    outcome, transcript, _ = run_protocol(Variant.IMPROVED, cfg, seed=10)
    assert outcome.equal is False
    assert outcome.first_differing_ordinal == 3
    # verdict short-circuit: everything before the hit is zero
    assert all(r == 0 for r in transcript.r_values[:2])
    assert transcript.r_values == (0, 0, 1, 1)


def test_honest_r_values_equal_bitwise_xor():
    x, y = (1, 0, 1, 1, 0), (0, 0, 1, 0, 1)
    for variant in Variant:
        cfg = make_config(x, y, seed=8)
        outcome, transcript, _ = run_protocol(variant, cfg, seed=21)
        assert transcript.r_values == tuple(a ^ b for a, b in zip(x, y))
        assert outcome.first_differing_ordinal == 1
        # published material covers exactly the comparison length
        assert len(transcript.masks.alice_masks) == len(x)
        assert len(transcript.masks.bob_masks) == len(x)


def test_insufficient_rounds_abort():
    """A round budget below L cannot yield L calculate ordinals."""
    cfg = make_config((1, 0, 1, 1), (1, 0, 1, 1), rounds=2)
    outcome, transcript, report = run_protocol(Variant.JIANG, cfg, seed=0)
    assert outcome.aborted
    assert outcome.abort_reason is AbortReason.INSUFFICIENT_ROUNDS
    assert report.verdict_correct is None
    assert not report.detected  # operational abort, not a detection
    assert transcript.masks is None


def test_key_flip_leaves_protocol_verdict_unchanged():
    """Same seed, complementary shared key: every comparison value matches."""
    x, y = (1, 1, 0), (1, 0, 0)
    for variant in Variant:
        for seed in range(5):
            cfg = make_config(x, y, seed=3)
            flipped = replace(cfg, k=tuple(1 - b for b in cfg.k))
            _, t1, _ = run_protocol(variant, cfg, seed=seed)
            _, t2, _ = run_protocol(variant, flipped, seed=seed)
            assert t1.r_values == t2.r_values == (0, 1, 0)


# -- transcript structure -------------------------------------------------------


def test_case_dispatch_completeness():
    """Every round lands in exactly one table case, keyed by its choice pair,
    and TP's recorded action matches that case's prescription."""
    for variant, num_cases in ((Variant.JIANG, 4), (Variant.IMPROVED, 9)):
        seen = set()
        for seed in range(30):
            cfg = make_config((1, 0), (0, 0), seed=seed, rounds=40)
            _, transcript, _ = run_protocol(variant, cfg, seed=seed)
            for rec in transcript.rounds:
                case = (rec.alice_choice, rec.bob_choice)
                seen.add(case)
                is_case1 = case == (Choice.CTRL, Choice.CTRL)
                assert (rec.tp_bell_outcome is not None) == is_case1
                assert (rec.ma is not None) == (
                    rec.alice_choice is Choice.SIFT_CALCULATE
                )
                assert (rec.mb is not None) == (
                    rec.bob_choice is Choice.SIFT_CALCULATE
                )
                assert (rec.tp_trap_a is not None) == (
                    rec.alice_choice is Choice.SIFT_DETECT
                )
                assert (rec.trap_sent_a is not None) == (
                    rec.alice_choice is Choice.SIFT_DETECT
                )
                assert (rec.alice_ordinal is not None) == (
                    rec.alice_choice is Choice.SIFT_CALCULATE
                )
        assert len(seen) == num_cases
        choices = (Choice.CTRL, Choice.SIFT_CALCULATE) + (
            (Choice.SIFT_DETECT,) if variant is Variant.IMPROVED else ()
        )
        assert seen == set(itertools.product(choices, repeat=2))


def test_jiang_transcripts_never_contain_detect():
    for seed in range(20):
        cfg = make_config((1, 1, 0), (1, 1, 0), seed=seed)
        _, transcript, report = run_protocol(Variant.JIANG, cfg, seed=seed)
        for rec in transcript.rounds:
            assert rec.alice_choice is not Choice.SIFT_DETECT
            assert rec.bob_choice is not Choice.SIFT_DETECT
        assert report.n == report.m == 0


def test_honest_case1_fidelity():
    """With an untouched channel every case-1 Bell outcome is the original."""
    for variant in Variant:
        for seed in range(20):
            cfg = make_config((0, 1), (0, 1), seed=seed, rounds=30)
            _, transcript, report = run_protocol(variant, cfg, seed=seed)
            for rec in transcript.rounds:
                if rec.tp_bell_outcome is not None:
                    assert rec.tp_bell_outcome == rec.original_kind
            assert report.case1_errors == 0


def test_honest_trap_check_clean():
    """TP's tallies in the report equal a recount from the round records for
    every (protocol, attack) pair; an honest run has no trap mismatches."""
    cfg = make_config((1, 0, 1), (1, 0, 1), seed=2)
    _, transcript, report = run_protocol(Variant.IMPROVED, cfg, seed=5)
    check = oracles.recount_checks(transcript.rounds)
    assert check.mismatches == 0
    assert (check.n, check.m) == (report.n, report.m)
    mismatches = case1_errors = 0
    for variant, attack in itertools.product(Variant, ATTACKS):
        for seed in range(4):
            strategy = make_strategy(attack)
            _, transcript, report = run_protocol(variant, cfg, strategy, seed=seed)
            check = oracles.recount_checks(transcript.rounds)
            counted = (
                report.n,
                report.m,
                report.trap_mismatches,
                report.case1_rounds,
                report.case1_errors,
            )
            assert counted == (
                check.n,
                check.m,
                check.mismatches,
                check.case1_rounds,
                check.case1_errors,
            ), (variant, attack, seed)
            mismatches += check.mismatches
            case1_errors += check.case1_errors
    assert mismatches and case1_errors  # the attacks exercise both counts


def test_trap_check_vacuous_without_detect_rounds():
    """p_detect = 0 means no traps and nothing to flag."""
    cfg = make_config((1, 0), (1, 0), seed=2, p_detect=0.0)
    outcome, transcript, report = run_protocol(Variant.IMPROVED, cfg, seed=5)
    check = oracles.recount_checks(transcript.rounds)
    assert (check.n, check.m, check.mismatches) == (0, 0, 0)
    assert not outcome.aborted


class _ReplaceReturnsWithBellHalves:
    """Test channel: every returned qubit is swapped for half of a fresh pair."""

    recovered_secret = None

    def bind(self, sim, rng, variant, shared_key):
        self.sim = sim

    def transmit(self, leg, round_index, qubit):
        if leg in (Leg.RETURN_ALICE_TO_TP, Leg.RETURN_BOB_TO_TP):
            half, _ = self.sim.prepare_bell(BellKind.PHI_PLUS)
            return half
        return qubit

    def observe_choices(self, alice_choices):
        pass

    def observe_publication(self, pub):
        pass


def test_trap_mismatch_rate_against_maximally_mixed_half():
    """Replacing every return with a Bell half flips each trap with
    probability 1/2 (Born rule on a maximally mixed subsystem)."""
    traps = mismatches = 0
    for seed in range(150):
        cfg = make_config((1, 0), (1, 0), seed=seed, rounds=24)
        _, transcript, _ = run_protocol(
            Variant.IMPROVED, cfg, _ReplaceReturnsWithBellHalves(), seed=seed
        )
        check = oracles.recount_checks(transcript.rounds)
        traps += check.n + check.m
        mismatches += check.mismatches
    assert traps > 300
    assert abs(mismatches / traps - 0.5) < oracles.four_sigma(0.5, traps)


def test_round_records_are_written_once():
    """A run's rounds are a tuple of records, and no field of a record can be
    assigned after the run built it."""
    cfg = make_config((1, 0), (1, 1), seed=4)
    for variant in Variant:
        _, transcript, _ = run_protocol(variant, cfg, seed=8)
        assert type(transcript.rounds) is tuple
        for rec in transcript.rounds:
            for name in RoundRecord._fields:
                with pytest.raises(AttributeError):
                    setattr(rec, name, getattr(rec, name))


def test_trial_report_is_written_once():
    """A run's `TrialReport` is a named tuple: no field can be assigned, and
    `detected` still reads the abort reason."""
    cfg = make_config((1, 0), (1, 1), seed=4)
    for variant in Variant:
        outcome, _, report = run_protocol(variant, cfg, seed=8)
        assert report.outcome is outcome
        for name in TrialReport._fields:
            with pytest.raises(AttributeError):
                setattr(report, name, getattr(report, name))
        with pytest.raises(AttributeError):
            report.n = -1
        assert report.detected is False
    bell_abort = ComparisonOutcome(None, abort_reason=AbortReason.BELL_CHECK_FAILED)
    assert report._replace(outcome=bell_abort).detected is True


def test_records_and_reports_hold_python_values():
    """Every field of a run's `RoundRecord`s, `TrialReport` and its outcome,
    and every bit a channel forged or learned, on all 12 pairs, is an int, a
    bool, None or an enum member: no numpy scalar from a generator's draws
    leaks into a transcript."""
    plain = (int, bool, type(None))
    for variant, attack in itertools.product(Variant, ATTACKS):
        for seed in range(4):
            cfg = make_config((1, 0), (1, seed % 2), seed=seed, rounds=40)
            channel = make_strategy(attack)
            outcome, transcript, report = run_protocol(
                variant, cfg, channel, np.random.default_rng(seed)
            )
            values = [
                *itertools.chain.from_iterable(transcript.rounds),
                *report[1:],
                *vars(outcome).values(),
            ]
            if channel is not None:
                values += [*channel.fake_bits.values(), *channel.learned_bits.values()]
            assert report.outcome is outcome
            for value in values:
                assert type(value) in plain or isinstance(value, Enum), (variant, attack, value)


# -- determinism ----------------------------------------------------------------


def test_same_seed_identical_transcript():
    cfg = make_config((1, 0, 1), (1, 1, 1), seed=6)
    for variant in Variant:
        out1, t1, _ = run_protocol(variant, cfg, seed=99)
        out2, t2, _ = run_protocol(variant, cfg, seed=99)
        assert out1 == out2
        assert t1 == t2


class _MinimalPassThrough:
    """The whole channel interface and nothing else: four methods and the
    `recovered_secret` attribute."""

    __slots__ = ("recovered_secret", "calls")

    def __init__(self):
        self.recovered_secret = None
        self.calls = []

    def bind(self, sim, rng, variant, shared_key):
        self.calls.append("bind")

    def transmit(self, leg, round_index, qubit):
        self.calls.append((leg, round_index))
        return qubit

    def observe_choices(self, alice_choices):
        self.calls.append("choices")

    def observe_publication(self, masks):
        self.calls.append("publication")


def test_minimal_channel_interface_matches_channel_free_run():
    """A channel with only the documented interface drives both variants and,
    passing every qubit through, leaves the transcript unchanged."""
    cfg = make_config((1, 0, 1), (1, 0, 1), seed=3)
    for variant in Variant:
        _, bare, _ = run_protocol(variant, cfg, channel=None, seed=21)
        channel = _MinimalPassThrough()
        outcome, wrapped, report = run_protocol(variant, cfg, channel=channel, seed=21)
        assert wrapped == bare
        assert not outcome.aborted
        assert report.adversary_recovered_secret_correct is None
        legs = [(leg, i) for i in range(cfg.num_rounds) for leg in Leg]
        assert channel.calls == ["bind", *legs, "choices", "publication"]


def test_honest_strategy_matches_channel_free_run():
    """The identity strategy leaves the transcript bit-identical."""
    cfg = make_config((0, 1, 0), (0, 1, 0), seed=7)
    for variant in Variant:
        _, bare, _ = run_protocol(variant, cfg, channel=None, seed=17)
        honest = ChannelStrategy(ATTACKS["none"])
        _, wrapped, _ = run_protocol(variant, cfg, channel=honest, seed=17)
        assert bare == wrapped


def test_config_validation():
    with pytest.raises(ValidationError, match="equal nonzero length"):
        make_config((0, 1), (0,))
    with pytest.raises(ValidationError, match="equal nonzero length"):
        make_config((), (), rounds=4)
    with pytest.raises(ValidationError, match="equal nonzero length"):
        ProtocolConfig((1,), (1,), (0, 1), (0,), (1,), num_rounds=4)
    with pytest.raises(ValueError):
        make_config((1,), (1,), rounds=0)
    with pytest.raises(ValueError):
        make_config((1,), (1,), p_ctrl=1.5)


@pytest.mark.parametrize(
    ("name", "value", "message"),
    [
        ("rounds", 0, "num_rounds must be at least 1"),
        ("rounds", 2.5, "num_rounds must be an integer, got 2.5"),
        ("rounds", True, "num_rounds must be an integer, got True"),
        ("p_ctrl", "x", "p_ctrl must lie in [0, 1], got 'x'"),
        ("threshold", None, "threshold must lie in [0, 1], got None"),
    ],
)
def test_config_rejects_malformed_fields(name, value, message):
    """Every ProtocolConfig field is checked against its declaration."""
    with pytest.raises(ValidationError) as err:
        make_config((1,), (1,), **{name: value})
    assert str(err.value) == message


@pytest.mark.parametrize(
    ("bad", "message"),
    [
        pytest.param(
            {"x": (2,), "y": (5,)},
            "x must be a tuple of 0/1 bits, got (2,)",
            id="secret-bit-2",
        ),
        pytest.param(
            {"x": [1], "y": [1]},
            "x must be a tuple of 0/1 bits, got [1]",
            id="secret-list",
        ),
        pytest.param(
            {"y": (1.0,)},
            "y must be a tuple of 0/1 bits, got (1.0,)",
            id="secret-float",
        ),
        pytest.param(
            {"y": None},
            "y must be a tuple of 0/1 bits, got None",
            id="secret-none",
        ),
        pytest.param(
            {"rb": (-1,)},
            "rb must be a tuple of 0/1 bits, got (-1,)",
            id="key-bit-negative",
        ),
        pytest.param(
            {"ra": ("1",)},
            "ra must be a tuple of 0/1 bits, got ('1',)",
            id="key-bit-string",
        ),
        pytest.param(
            {"x": None},
            "x must be a tuple of 0/1 bits, got None",
            id="config-secrets-none",
        ),
        pytest.param(
            {"k": ((0,), (1,), (1,))},
            "k must be a tuple of 0/1 bits, got ((0,), (1,), (1,))",
            id="config-keys-tuple",
        ),
    ],
)
def test_config_rejects_malformed_bits(bad, message):
    """Secret and key contents are checked where they are built, not deep in a run."""
    values = dict(x=(1,), y=(0,), k=(0,), ra=(1,), rb=(1,), num_rounds=4)
    with pytest.raises(ValidationError) as err:
        ProtocolConfig(**{**values, **bad})
    assert str(err.value) == message


def test_integer_bits_of_any_int_type_are_accepted():
    cfg = ProtocolConfig(
        x=(np.int64(1), True),
        y=(0, np.uint8(1)),
        k=(0, 1),
        ra=(1, 1),
        rb=(0, 0),
        num_rounds=16,
    )
    outcome, _, _ = run_protocol(Variant.JIANG, cfg, seed=2)
    assert outcome.aborted or outcome.equal is False


@pytest.mark.parametrize("variant", ["jiang", "improved", None, 3, "IMPROVED"])
def test_run_protocol_rejects_a_variant_that_is_not_a_variant(variant):
    """A variant name, None or a number would run neither protocol."""
    cfg = make_config((1, 0), (1, 0))
    with pytest.raises(ValidationError) as err:
        run_protocol(variant, cfg, seed=0)
    assert str(err.value) == f"variant must be a Variant, got {variant!r}"


@pytest.mark.parametrize("seed", [-1, "abc", 1.5])
def test_run_protocol_rejects_a_seed_numpy_rejects(seed):
    """A seed that `default_rng` refuses raises the lab's own one-line error."""
    cfg = make_config((1, 0), (1, 0))
    with pytest.raises(ValidationError) as err:
        run_protocol(Variant.JIANG, cfg, seed=seed)
    assert str(err.value) == (
        f"seed must be a nonnegative integer, None or a generator, got {seed!r}"
    )


@pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.MT19937])
def test_a_generator_passed_in_continues_its_stream(bit_generator):
    """A run draws from a caller's Generator as is, and leaves it where its
    draws end: with every choice CTRL and no channel, a round draws its
    Bell kind and both choices, and TP's pass one Bell measurement a round."""
    rounds = 30
    cfg = make_config((1, 0), (1, 0), rounds=rounds, p_ctrl=1.0)
    generator = np.random.Generator(bit_generator(12))
    twin = np.random.Generator(bit_generator(12))
    run_protocol(Variant.JIANG, cfg, seed=generator)
    for _ in range(rounds):
        twin.integers(4), twin.random(), twin.random()
    for _ in range(rounds):
        twin.random()
    assert generator.random() == twin.random()
