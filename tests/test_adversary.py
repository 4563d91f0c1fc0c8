"""Tests for the channel attack strategies."""
from types import SimpleNamespace

import numpy as np
import pytest

from sqpclab.adversary import (
    ATTACKS,
    AdversaryState,
    make_strategy,
)
from sqpclab.harness import detection_model
from sqpclab.protocol import (
    Choice,
    KeyMaterial,
    Leg,
    MaskRecord,
    ProtocolConfig,
    RunContext,
    SecretInput,
    Variant,
    run_protocol,
)
from sqpclab.qsim import BellKind, Simulator

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


def run_attacked(variant, cfg, attack, seed):
    strategy = make_strategy(attack, shared_key=cfg.keys.k)
    outcome, transcript, report = run_protocol(variant, cfg, strategy, seed=seed)
    return outcome, transcript, report, strategy


# -- outside attack --------------------------------------------------------------


def test_outside_attack_passes_bell_check_always():
    """Swapped-back genuine halves reproduce the original kind exactly."""
    for seed in range(40):
        cfg = make_config((1, 0), (1, 0), seed=seed, rounds=24)
        _, transcript, report, _ = run_attacked(Variant.JIANG, cfg, "outside", seed)
        assert report.case1_errors == 0
        assert not report.detected
        for rec in transcript.rounds:
            if rec.tp_bell_outcome is not None:
                assert rec.tp_bell_outcome == rec.original_kind


def test_outside_attack_case4_outcomes_follow_pair_parity():
    """In double-SIFT rounds TP measures the two genuine halves, so the
    measured XOR equals the pair parity and is decoupled from the encodings."""
    checked = 0
    for seed in range(60):
        cfg = make_config((1, 1, 0), (0, 1, 0), seed=seed)
        _, transcript, _, _ = run_attacked(Variant.JIANG, cfg, "outside", seed)
        for rec in transcript.rounds:
            if rec.ma is not None and rec.mb is not None:
                assert rec.ma ^ rec.mb == rec.original_kind.parity
                checked += 1
    assert checked > 200


def test_outside_attack_trap_mismatch_rate_is_half():
    """Each trap round of the improved variant flips with probability 1/2."""
    traps = mismatches = 0
    for seed in range(250):
        cfg = make_config((1, 0), (1, 0), seed=seed, rounds=22)
        _, _, report, _ = run_attacked(Variant.IMPROVED, cfg, "outside", seed)
        traps += report.n + report.m
        mismatches += report.trap_mismatches
    assert traps > 1500
    assert abs(mismatches / traps - 0.5) < oracles.four_sigma(0.5, traps)


def test_outside_attack_custody():
    """Forward deliveries are forgeries; each return delivers that round's
    stored original exactly once."""

    class Recorder:
        def __init__(self, inner):
            self.inner = inner
            self.forward_in = {}
            self.delivered = {}

        def bind(self, ctx):
            self.inner.bind(ctx)

        def transmit(self, event):
            out = self.inner.transmit(event)
            key = (event.leg, event.round_index)
            assert key not in self.delivered  # one delivery per leg and round
            self.delivered[key] = out
            if event.leg in (Leg.FORWARD_TP_TO_ALICE, Leg.FORWARD_TP_TO_BOB):
                self.forward_in[key] = event.qubit
            return out

        def observe_choices(self, a, b):
            self.inner.observe_choices(a, b)

        def observe_publication(self, pub):
            self.inner.observe_publication(pub)

        def state(self):
            return self.inner.state()

    recorder = Recorder(make_strategy("outside"))
    cfg = make_config((1, 0, 1), (1, 0, 1), seed=5)
    run_protocol(Variant.JIANG, cfg, recorder, seed=5)

    return_of = {
        Leg.FORWARD_TP_TO_ALICE: Leg.RETURN_ALICE_TO_TP,
        Leg.FORWARD_TP_TO_BOB: Leg.RETURN_BOB_TO_TP,
    }
    for (leg, i), original in recorder.forward_in.items():
        assert recorder.delivered[(leg, i)] != original  # forgery went out
        assert recorder.delivered[(return_of[leg], i)] == original  # swap-back
    swapped_back = [
        recorder.delivered[k]
        for k in recorder.delivered
        if k[0] in (Leg.RETURN_ALICE_TO_TP, Leg.RETURN_BOB_TO_TP)
    ]
    assert len(set(swapped_back)) == len(swapped_back)  # nothing delivered twice


# -- participant attack ------------------------------------------------------------


def test_participant_recovery_algebra():
    """Decoding example: learned 0, published raw bit 0, key bit 1 gives 1."""
    strategy = make_strategy("participant", shared_key=(1,))
    rng = np.random.default_rng(0)
    strategy.bind(RunContext(Simulator(rng=rng), rng, Variant.JIANG, 1, 1))
    strategy.learned_bits = {1: 0}
    strategy.observe_publication(MaskRecord((0,), (0,)))
    assert strategy.recovered_secret == (1,)


def test_participant_attack_recovers_secret_every_trial():
    for seed in range(50):
        cfg = make_config((1, 0, 1, 1), (0, 1, 0, 0), seed=seed)
        outcome, _, report, strategy = run_attacked(
            Variant.JIANG, cfg, "participant", seed
        )
        assert not report.detected
        assert strategy.state().recovered_secret == cfg.secrets.x
        assert report.adversary_recovered_secret_correct is True


def test_participant_learned_bits_match_alice_encodings():
    """Bob's measurements of the kept qubits read Alice's encoded bits."""
    cfg = make_config((1, 0, 1), (1, 1, 1), seed=9)
    _, transcript, _, strategy = run_attacked(Variant.JIANG, cfg, "participant", 9)
    learned = strategy.state().learned_bits
    for rec in transcript.rounds:
        if rec.alice_ordinal is not None:
            k, ra, x = cfg.keys.k, cfg.keys.ra, cfg.secrets.x
            j = rec.alice_ordinal
            if j <= len(x):
                assert learned[j] == k[j - 1] ^ ra[j - 1] ^ x[j - 1]


def test_participant_attack_vs_improved_trips_alice_traps_only():
    traps_a = bad_a = 0
    for seed in range(250):
        cfg = make_config((1, 0), (1, 0), seed=seed, rounds=22)
        _, transcript, report, strategy = run_attacked(
            Variant.IMPROVED, cfg, "participant", seed
        )
        from sqpclab.protocol import verify_traps

        check = verify_traps(transcript)
        assert check.mismatches_bob == 0  # Bob's own legs run clean
        traps_a += check.traps_alice
        bad_a += check.mismatches_alice
        assert strategy.state().recovered_secret is None  # no raw key published
    assert traps_a > 800
    assert abs(bad_a / traps_a - 0.5) < oracles.four_sigma(0.5, traps_a)


def test_participant_detection_rate_by_trap_count():
    """Detection conditioned on Alice's trap count tracks 1 - (1/2)^n."""
    cells = {}
    for seed in range(1500):
        cfg = make_config((1,), (1,), seed=seed, rounds=10)
        _, _, report, _ = run_attacked(Variant.IMPROVED, cfg, "participant", seed)
        cells.setdefault(report.n, []).append(report.detected)
    assert 0 in cells and 1 in cells and 2 in cells
    for n, hits in cells.items():
        if len(hits) < 80:
            continue
        predicted = 1.0 - 0.5**n
        rate = sum(hits) / len(hits)
        tol = oracles.four_sigma(predicted, len(hits)) if 0 < predicted < 1 else 0.0
        assert abs(rate - predicted) <= tol


# -- intercept-resend ---------------------------------------------------------------


def test_intercept_resend_case1_error_rate():
    """Bell outcomes on forged pairs miss the original kind 3/4 of the time."""
    assert oracles.intercept_resend_case1_error() == pytest.approx(0.75)
    rounds = errors = 0
    for seed in range(300):
        cfg = make_config((1, 0), (1, 0), seed=seed, rounds=16)
        _, _, report, _ = run_attacked(Variant.JIANG, cfg, "intercept-resend", seed)
        rounds += report.case1_rounds
        errors += report.case1_errors
    assert rounds > 800
    assert abs(errors / rounds - 0.75) < oracles.four_sigma(0.75, rounds)


def test_intercept_resend_without_case1_rounds_is_undetected():
    """No double-CTRL rounds means the Bell check is vacuous."""
    for seed in range(10):
        cfg = make_config((1, 0), (1, 0), seed=seed, rounds=16, p_ctrl=0.0)
        outcome, _, report, _ = run_attacked(
            Variant.JIANG, cfg, "intercept-resend", seed
        )
        assert report.case1_rounds == 0
        assert not report.detected


def test_intercept_resend_keeps_originals_unmeasured():
    cfg = make_config((1, 0), (1, 0), seed=3, rounds=12)
    _, _, _, strategy = run_attacked(Variant.JIANG, cfg, "intercept-resend", 3)
    assert len(strategy.state().stored_qubits) == 24  # both legs, every round


# -- measure-resend ------------------------------------------------------------------


def test_measure_resend_case1_error_rate():
    """Z-collapsed pairs still match the original kind half the time."""
    assert oracles.measure_resend_case1_error() == pytest.approx(0.5)
    rounds = errors = 0
    for seed in range(300):
        cfg = make_config((1, 0), (1, 0), seed=seed, rounds=16)
        _, _, report, _ = run_attacked(Variant.JIANG, cfg, "measure-resend", seed)
        rounds += report.case1_rounds
        errors += report.case1_errors
    assert rounds > 800
    assert abs(errors / rounds - 0.5) < oracles.four_sigma(0.5, rounds)


def test_measure_resend_preserves_parity():
    """Collapsing a pair in the Z basis never changes the halves' XOR."""
    from sqpclab.qsim import Simulator

    sim = Simulator(seed=8)
    for kind in BellKind:
        for _ in range(200):
            a, b = sim.prepare_bell(kind)
            sim.measure_z(a)  # eavesdropper collapse
            assert sim.measure_z(a) ^ sim.measure_z(b) == kind.parity


# -- forward-only participant ---------------------------------------------------------


def test_forward_only_learns_alice_calculate_bits_improved():
    """Alice measures Bob's Z-basis forgeries, so her results are Bob-known."""
    for seed in range(20):
        cfg = make_config((1, 0, 1), (1, 0, 1), seed=seed)
        _, transcript, _, strategy = run_attacked(
            Variant.IMPROVED, cfg, "participant-forward", seed
        )
        learned = strategy.state().learned_bits
        for rec in transcript.rounds:
            if rec.alice_ordinal is not None:
                assert learned[rec.alice_ordinal] == rec.ma


def test_forward_only_alice_traps_never_flag():
    """Traps ride the untouched return legs, so the trap check stays clean."""
    for seed in range(40):
        cfg = make_config((1, 0), (1, 0), seed=seed, rounds=22)
        _, _, report, _ = run_attacked(
            Variant.IMPROVED, cfg, "participant-forward", seed
        )
        assert report.trap_mismatches == 0
        if report.detected:
            assert report.case1_errors > 0  # only the Bell check can fire


def test_forward_only_case1_outcomes_uniform():
    """A forgery against a live half gives every Bell outcome 1/4."""
    counts = dict.fromkeys(BellKind, 0)
    total = 0
    for seed in range(400):
        cfg = make_config((1, 0), (1, 0), seed=seed, rounds=14)
        _, transcript, _, _ = run_attacked(
            Variant.IMPROVED, cfg, "participant-forward", seed
        )
        for rec in transcript.rounds:
            if rec.tp_bell_outcome is not None:
                counts[rec.tp_bell_outcome] += 1
                total += 1
    assert total > 1000
    for kind in BellKind:
        assert abs(counts[kind] / total - 0.25) < oracles.four_sigma(0.25, total)


def test_forward_only_learns_nothing_from_jiang():
    cfg = make_config((1, 0, 1), (1, 0, 1), seed=4)
    _, _, report, strategy = run_attacked(Variant.JIANG, cfg, "participant-forward", 4)
    state = strategy.state()
    assert state.learned_bits == {}
    assert state.recovered_secret is None
    assert report.adversary_recovered_secret_correct is None


# -- plumbing ---------------------------------------------------------------------


def test_make_strategy_names():
    assert make_strategy("none") is None
    for name in ("outside", "intercept-resend", "measure-resend"):
        assert make_strategy(name).name == name
    for name in ("participant", "participant-forward"):
        assert make_strategy(name, shared_key=(0, 1)).name == name
    with pytest.raises(ValueError):
        make_strategy("quantum-cat")


def test_adversary_state_defaults():
    state = AdversaryState()
    assert state.stored_qubits == {}
    assert state.learned_bits == {}
    assert state.recovered_secret is None


def test_forward_only_strategy_factory():
    strategy = make_strategy("participant-forward", shared_key=(1, 0))
    assert strategy.shared_key == (1, 0)


def test_attack_table_matches_oracles():
    """Every row's case-1 error rate and every (protocol, attack) detection
    model against values derived independently of the table."""
    case1_error = {
        "none": 0.0,
        "outside": 0.0,  # genuine halves swapped back: intact pairs
        "participant": 0.0,
        "participant-forward": oracles.forward_only_case1_error(),
        "intercept-resend": oracles.intercept_resend_case1_error(),
        "measure-resend": oracles.measure_resend_case1_error(),
    }
    assert set(ATTACKS) == set(case1_error)
    for name, attack in ATTACKS.items():
        assert attack.name == name
        assert attack.case1_error == pytest.approx(case1_error[name], abs=1e-12)

    statistic = {
        "case1": lambda r: r.case1_rounds,
        "n": lambda r: r.n,
        "n+m": lambda r: r.n + r.m,
    }
    expected = {
        ("jiang", "none"): None,
        ("jiang", "outside"): None,
        ("jiang", "participant"): None,
        ("jiang", "participant-forward"): ("case1", 0.75),
        ("jiang", "intercept-resend"): ("case1", 0.75),
        ("jiang", "measure-resend"): ("case1", 0.5),
        ("improved", "none"): None,
        ("improved", "outside"): ("n+m", 0.5),
        ("improved", "participant"): ("n", 0.5),
        ("improved", "participant-forward"): ("case1", 0.75),
        ("improved", "intercept-resend"): ("case1", 0.75),
        ("improved", "measure-resend"): ("case1", 0.5),
    }
    report = SimpleNamespace(n=3, m=5, case1_rounds=7)
    for (protocol, name), want in expected.items():
        model = detection_model(Variant(protocol), name)
        if want is None:
            assert model is None, (protocol, name)
            continue
        extract, predict = model
        stat, p = want
        assert extract(report) == statistic[stat](report), (protocol, name)
        for k in range(6):
            assert predict(k) == pytest.approx(1.0 - (1.0 - p) ** k, abs=1e-15)
