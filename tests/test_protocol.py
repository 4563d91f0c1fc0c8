"""Tests for the protocol state machines and the classical XOR layer."""
import itertools

import numpy as np
import pytest

from sqpclab.adversary import ATTACKS, AdversaryState, ChannelStrategy
from sqpclab.qsim import BellKind
from sqpclab.protocol import (
    AbortReason,
    ChannelEvent,
    Choice,
    KeyMaterial,
    Leg,
    ProtocolConfig,
    SecretInput,
    Variant,
    compute_ma_jiang,
    compute_mask_improved,
    compute_r_improved,
    compute_r_jiang,
    run_protocol,
    verify_traps,
)

import oracles


def make_config(x, y, seed=0, rounds=None, **kwargs):
    rng = np.random.default_rng(seed)
    L = len(x)
    bits = lambda: tuple(int(v) for v in rng.integers(0, 2, size=L))
    keys = KeyMaterial(k=bits(), ra=bits(), rb=bits())
    return ProtocolConfig(
        secrets=SecretInput(tuple(x), tuple(y)),
        keys=keys,
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
    assert compute_r_jiang(0, 0, 0, 0) == 0
    for x, y, k, ra, rb in itertools.product((0, 1), repeat=5):
        ma = compute_ma_jiang(k, ra, x)
        mb = compute_ma_jiang(k, rb, y)
        assert compute_r_jiang(ma, mb, ra, rb) == x ^ y


def test_jiang_chain_worked_example():
    ma = compute_ma_jiang(1, 0, 1)
    mb = compute_ma_jiang(1, 1, 0)
    assert (ma, mb) == (0, 0)
    assert compute_r_jiang(ma, mb, 0, 1) == 1  # x=1, y=0


def test_mask_is_independent_of_raw_key_over_all_16_inputs():
    assert compute_mask_improved(0, 0, 0, 0) == 0
    assert compute_mask_improved(1, 1, 0, 1) == 0
    for k, x, ma in itertools.product((0, 1), repeat=3):
        published = {compute_mask_improved(k, ra, x, ma) for ra in (0, 1)}
        assert published == {k ^ x ^ ma}


def test_improved_chain_recovers_xor_over_all_128_inputs():
    assert compute_r_improved(0, 0, 0, 0) == 0
    for x, y, k, ra, rb, ma, mb in itertools.product((0, 1), repeat=7):
        mask_a = compute_mask_improved(k, ra, x, ma)
        mask_b = compute_mask_improved(k, rb, y, mb)
        assert compute_r_improved(ma, mb, mask_a, mask_b) == x ^ y


def test_improved_chain_worked_example():
    mask_a = compute_mask_improved(1, 0, 1, 1)
    mask_b = compute_mask_improved(1, 1, 0, 0)
    assert (mask_a, mask_b) == (1, 1)
    assert compute_r_improved(1, 0, mask_a, mask_b) == 1  # x=1, y=0


def test_key_cancellation_exhaustive():
    """Flipping any shared-key bit never changes the comparison value."""
    for x, y, ra, rb in itertools.product((0, 1), repeat=4):
        values = set()
        for k in (0, 1):
            ma = compute_ma_jiang(k, ra, x)
            mb = compute_ma_jiang(k, rb, y)
            values.add(compute_r_jiang(ma, mb, ra, rb))
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
            flipped = ProtocolConfig(
                secrets=cfg.secrets,
                keys=KeyMaterial(
                    k=tuple(1 - b for b in cfg.keys.k),
                    ra=cfg.keys.ra,
                    rb=cfg.keys.rb,
                ),
                num_rounds=cfg.num_rounds,
            )
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
    cfg = make_config((1, 0, 1), (1, 0, 1), seed=2)
    _, transcript, report = run_protocol(Variant.IMPROVED, cfg, seed=5)
    check = verify_traps(transcript)
    assert check.mismatches == 0
    assert (check.traps_alice, check.traps_bob) == (report.n, report.m)


def test_trap_check_vacuous_without_detect_rounds():
    """p_detect = 0 means no traps and nothing to flag."""
    cfg = make_config((1, 0), (1, 0), seed=2, p_detect=0.0)
    outcome, transcript, report = run_protocol(Variant.IMPROVED, cfg, seed=5)
    check = verify_traps(transcript)
    assert (check.traps_alice, check.traps_bob, check.mismatches) == (0, 0, 0)
    assert not outcome.aborted


class _ReplaceReturnsWithBellHalves:
    """Test channel: every returned qubit is swapped for half of a fresh pair."""

    def bind(self, ctx):
        self.ctx = ctx

    def transmit(self, event):
        if event.leg in (Leg.RETURN_ALICE_TO_TP, Leg.RETURN_BOB_TO_TP):
            half, _ = self.ctx.sim.prepare_bell(BellKind.PHI_PLUS)
            return half
        return event.qubit

    def observe_choices(self, a, b):
        pass

    def observe_publication(self, pub):
        pass

    def state(self):
        return AdversaryState()


def test_trap_mismatch_rate_against_maximally_mixed_half():
    """Replacing every return with a Bell half flips each trap with
    probability 1/2 (Born rule on a maximally mixed subsystem)."""
    traps = mismatches = 0
    for seed in range(150):
        cfg = make_config((1, 0), (1, 0), seed=seed, rounds=24)
        _, transcript, _ = run_protocol(
            Variant.IMPROVED, cfg, _ReplaceReturnsWithBellHalves(), seed=seed
        )
        check = verify_traps(transcript)
        traps += check.traps_alice + check.traps_bob
        mismatches += check.mismatches
    assert traps > 300
    assert abs(mismatches / traps - 0.5) < oracles.four_sigma(0.5, traps)


# -- determinism ----------------------------------------------------------------


def test_same_seed_identical_transcript():
    cfg = make_config((1, 0, 1), (1, 1, 1), seed=6)
    for variant in Variant:
        out1, t1, _ = run_protocol(variant, cfg, seed=99)
        out2, t2, _ = run_protocol(variant, cfg, seed=99)
        assert out1 == out2
        assert t1 == t2


def test_honest_strategy_matches_channel_free_run():
    """The identity strategy leaves the transcript bit-identical."""
    cfg = make_config((0, 1, 0), (0, 1, 0), seed=7)
    for variant in Variant:
        _, bare, _ = run_protocol(variant, cfg, channel=None, seed=17)
        honest = ChannelStrategy(ATTACKS["none"])
        _, wrapped, _ = run_protocol(variant, cfg, channel=honest, seed=17)
        assert bare == wrapped


def test_config_validation():
    with pytest.raises(ValueError):
        SecretInput((0, 1), (0,))
    with pytest.raises(ValueError):
        SecretInput((), ())
    with pytest.raises(ValueError):
        ProtocolConfig(
            secrets=SecretInput((1,), (1,)),
            keys=KeyMaterial((0, 1), (0,), (1,)),
            num_rounds=4,
        )
    with pytest.raises(ValueError):
        make_config((1,), (1,), rounds=0)
    with pytest.raises(ValueError):
        make_config((1,), (1,), p_ctrl=1.5)


def test_channel_event_is_frozen():
    from sqpclab.qsim import QubitHandle

    event = ChannelEvent(Leg.FORWARD_TP_TO_BOB, 3, QubitHandle(0, 0))
    with pytest.raises(AttributeError):
        event.round_index = 4
