import numpy as np
import pytest

from acl_dqn.curriculum import (
    L_MAX,
    MASTERY_WINDOW,
    PHASE_ALL,
    CurriculumError,
    PhaseMachine,
    orp_penalty,
    schedule_b_budgets,
)
from acl_dqn.domain import TIERS


class ReferenceMasteryGate:
    """Direct transcription of the windowed mastery rule, kept separate from
    the phase machine's gate: cumulative in-phase success counters, a list of
    p_success snapshots trimmed to the last T, advance when all T are >= alpha.
    """

    def __init__(self, alpha=0.5, t=5):
        self.alpha = alpha
        self.t = t
        self.n_success = 0
        self.n_sampled = 0
        self.snapshots = []

    def observe(self, success):
        self.n_sampled += 1
        self.n_success += int(success)
        self.snapshots.append(self.n_success / self.n_sampled)
        if len(self.snapshots) > self.t:
            del self.snapshots[0]

    def mastered(self):
        if len(self.snapshots) < self.t:
            return False
        return all(p >= self.alpha for p in self.snapshots)


class TestOrpPenalty:
    def test_pinned_values(self):
        assert orp_penalty(0) == 0.0
        assert orp_penalty(10) == -20.0
        assert orp_penalty(1) == pytest.approx(-40.0 / 11.0)

    def test_asymptote_never_reached(self):
        assert -40.0 < orp_penalty(10**6) < -39.99

    def test_range_and_strict_monotonicity_exhaustive(self):
        """Every og in [0, 10^4]: value in (-40, 0], strictly decreasing."""
        values = [orp_penalty(og) for og in range(10_001)]
        assert values[0] == 0.0
        assert all(-L_MAX < v <= 0.0 for v in values)
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_negative_count_rejected(self):
        with pytest.raises(CurriculumError):
            orp_penalty(-1)


class TestGoalSampleCounts:
    """The per-phase sample counts og that PhaseMachine keeps for the ORP."""

    def test_first_sample_is_free_then_penalties_grow(self, corpus):
        machine = PhaseMachine("A", corpus, epoch_size=500)
        assert machine.on_goal_sampled(0) == 0.0
        assert machine.on_goal_sampled(0) == pytest.approx(-40.0 / 11.0)
        assert machine.on_goal_sampled(0) == pytest.approx(-40.0 * 2 / 12.0)

    def test_counters_are_independent_per_goal(self, corpus):
        machine = PhaseMachine("A", corpus, epoch_size=500)
        machine.on_goal_sampled(0)
        assert machine.on_goal_sampled(1) == 0.0
        assert machine.og[0] == 1 and machine.og[1] == 1

    def test_reset_zeroes_the_new_active_set(self, corpus):
        machine = PhaseMachine("B", corpus, epoch_size=500)
        for goal_id in corpus.simple:
            machine.on_goal_sampled(goal_id)
        while machine.on_episode(0, False) is None:
            pass
        assert machine.og == dict.fromkeys(corpus.medium, 0)
        assert machine.on_goal_sampled(corpus.medium[0]) == 0.0

    def test_old_tier_goal_refused_after_an_advance(self, corpus):
        machine = PhaseMachine("C", corpus, epoch_size=500)
        old = corpus.simple[0]
        machine.on_goal_sampled(old)
        while machine.on_episode(0, True) is None:
            pass
        with pytest.raises(CurriculumError, match=f"goal {old} outside active set"):
            machine.on_goal_sampled(old)
        new = corpus.medium[-1]
        assert machine.on_goal_sampled(new) == 0.0
        assert machine.og[new] == 1

    def test_schedule_a_counts_never_reset(self, corpus):
        machine = PhaseMachine("A", corpus, epoch_size=10)
        for epoch in range(100):
            machine.on_goal_sampled(7)
            machine.on_episode(epoch, True)
        assert machine.og[7] == 100
        assert machine.on_goal_sampled(7) == orp_penalty(100)

    def test_out_of_set_goal_rejected(self, corpus):
        machine = PhaseMachine("B", corpus, epoch_size=500)
        with pytest.raises(CurriculumError):
            machine.on_goal_sampled(corpus.medium[0])


class TestMasteryGate:
    """Schedule C's windowed gate, read on the phase machine.

    epoch_size 500 gives the simple phase a 117-episode budget, longer than
    any stream below, so only the gate can move the phase.
    """

    def test_full_window_above_alpha_advances(self, corpus):
        machine = PhaseMachine("C", corpus, epoch_size=500, alpha=0.5)
        machine.window.extend([0.6, 0.6, 0.6, 0.6, 0.6])
        assert machine.mastered()

    def test_one_dip_below_alpha_stays(self, corpus):
        machine = PhaseMachine("C", corpus, epoch_size=500, alpha=0.5)
        machine.window.extend([0.6, 0.6, 0.4, 0.6, 0.6])
        assert not machine.mastered()

    def test_short_window_stays_regardless_of_values(self, corpus):
        machine = PhaseMachine("C", corpus, epoch_size=500, alpha=0.5)
        for epoch in range(4):
            assert machine.on_episode(epoch, True) is None
        assert list(machine.window) == [1.0] * 4
        assert not machine.mastered()

    def test_snapshots_are_cumulative_in_phase_rates(self, corpus):
        machine = PhaseMachine("C", corpus, epoch_size=500, alpha=0.5)
        for epoch, outcome in enumerate((True, False, True)):
            machine.on_episode(epoch, outcome)
        assert list(machine.window) == pytest.approx([1.0, 0.5, 2.0 / 3.0])
        assert (machine.episodes_in_phase, machine.successes_in_phase) == (3, 2)

    def test_fuzz_against_reference_gate(self, corpus):
        """10^4 random outcome streams, step-by-step agreement."""
        rng = np.random.default_rng(17)
        for _ in range(10_000):
            alpha = float(rng.choice([0.3, 0.5, 0.8]))
            machine = PhaseMachine("C", corpus, epoch_size=500, alpha=alpha)
            reference = ReferenceMasteryGate(alpha=alpha, t=MASTERY_WINDOW)
            for epoch, outcome in enumerate(rng.random(int(rng.integers(1, 30))) < 0.55):
                moved = machine.on_episode(epoch, bool(outcome))
                reference.observe(bool(outcome))
                assert (moved is not None) == reference.mastered()
                if moved is not None:
                    assert moved.trigger == "mastery"
                    break


class TestScheduleBudgets:
    def test_default_budgets(self):
        assert schedule_b_budgets((30, 72, 26), 500) == (117, 281)

    def test_corpus_sized_epoch_gives_tier_sizes(self):
        assert schedule_b_budgets((30, 72, 26), 128) == (30, 72)


class TestPhaseMachine:
    def test_schedule_a_never_leaves_all(self, corpus):
        machine = PhaseMachine("A", corpus, epoch_size=500)
        assert machine.phase == PHASE_ALL
        assert len(machine.active_goal_ids()) == 128
        for epoch in range(600):
            assert machine.on_episode(epoch, True) is None
        assert machine.phase == PHASE_ALL

    def test_schedule_b_transitions_at_117_and_398(self, corpus):
        machine = PhaseMachine("B", corpus, epoch_size=500)
        transitions = []
        for epoch in range(500):
            t = machine.on_episode(epoch, False)
            if t is not None:
                transitions.append((epoch, t.old_phase, t.new_phase, t.trigger))
        assert transitions == [
            (116, "simple", "medium", "budget"),
            (397, "medium", "difficult", "budget"),
        ]
        episodes_before_transition = [e + 1 for e, *_ in transitions]
        assert episodes_before_transition == [117, 398]

    def test_active_sets_follow_the_partition(self, corpus):
        machine = PhaseMachine("B", corpus, epoch_size=500)
        assert machine.active_goal_ids() == corpus.simple
        for epoch in range(117):
            machine.on_episode(epoch, False)
        assert machine.active_goal_ids() == corpus.medium
        for epoch in range(117, 398):
            machine.on_episode(epoch, False)
        assert machine.active_goal_ids() == corpus.difficult

    def test_schedule_c_advances_early_on_mastery(self, corpus):
        machine = PhaseMachine("C", corpus, epoch_size=500)
        for epoch in range(5):
            t = machine.on_episode(epoch, True)
        assert t is not None and t.trigger == "mastery"
        assert machine.phase == "medium"
        assert len(machine.window) == 0
        assert (machine.episodes_in_phase, machine.successes_in_phase) == (0, 0)

    def test_schedule_c_falls_back_to_the_budget_ceiling(self, corpus):
        machine = PhaseMachine("C", corpus, epoch_size=500)
        transitions = []
        for epoch in range(500):
            t = machine.on_episode(epoch, False)
            if t is not None:
                transitions.append(t)
        assert [t.trigger for t in transitions] == ["budget", "budget"]
        assert [t.epoch for t in transitions] == [116, 397]

    def test_schedule_c_never_advances_on_a_dirty_window(self, corpus):
        """Fuzz: any mastery-triggered advance had all 5 snapshots >= alpha."""
        rng = np.random.default_rng(23)
        for _ in range(200):
            machine = PhaseMachine("C", corpus, epoch_size=500)
            shadow = ReferenceMasteryGate()
            for epoch in range(500):
                outcome = bool(rng.random() < 0.6)
                shadow_would_advance = (machine.phase != TIERS[-1]
                                        and not shadow.mastered())
                shadow.observe(outcome)
                t = machine.on_episode(epoch, outcome)
                if t is not None:
                    if t.trigger == "mastery":
                        assert shadow.mastered()
                    shadow = ReferenceMasteryGate()
                if machine.phase == TIERS[-1]:
                    break

    def test_phase_sequence_is_a_prefix_of_the_tier_order(self, corpus):
        rng = np.random.default_rng(29)
        for schedule in ("B", "C"):
            for _ in range(20):
                machine = PhaseMachine(schedule, corpus, epoch_size=200)
                seen = [machine.phase]
                for epoch in range(300):
                    if machine.on_episode(epoch, bool(rng.random() < 0.5)):
                        seen.append(machine.phase)
                assert seen == list(TIERS[:len(seen)])

    def test_difficult_phase_is_terminal(self, corpus):
        machine = PhaseMachine("C", corpus, epoch_size=10)
        moves = [machine.on_episode(epoch, True) for epoch in range(1000)]
        assert machine.phase == "difficult"
        assert sum(m is not None for m in moves) == 2

    def test_unknown_schedule_rejected(self, corpus):
        with pytest.raises(CurriculumError):
            PhaseMachine("D", corpus, epoch_size=500)
