import dataclasses
import json
import os

import numpy as np
import numpy.testing as npt
import pytest

from ffrnn.linalg import SeededRng
from ffrnn.task import (
    PROBE_HOLD_MIN,
    PROBE_STEPS,
    Dataset,
    TaskConfig,
    flipflop_oracle,
    generate_dataset,
    generate_probe,
    generate_trial,
    load_dataset,
    save_dataset,
    trial_rng,
)


from oracles import replay_oracle


class TestOracle:
    def test_no_events(self):
        out = flipflop_oracle([], 50, 20, 3, pulse_width=10)
        npt.assert_array_equal(out, np.zeros((50, 3)))

    def test_single_set_with_delay(self):
        out = flipflop_oracle([(10, 0, 1)], 80, 20, 3, pulse_width=10)
        npt.assert_array_equal(out[:40, 0], 0.0)
        npt.assert_array_equal(out[40:, 0], 1.0)
        npt.assert_array_equal(out[:, 1:], 0.0)

    def test_set_reset_set_matches_replay(self):
        events = [(5, 0, 1), (30, 0, -1), (55, 0, 1)]
        ours = flipflop_oracle(events, 100, 10, 1, pulse_width=5)
        ref = replay_oracle(events, 100, 10, 1, pulse_width=5)
        npt.assert_array_equal(ours, ref)

    def test_overlapping_pulses_rejected(self):
        with pytest.raises(ValueError, match="overlapping"):
            flipflop_oracle([(5, 0, 1), (8, 0, -1)], 100, 10, 1, pulse_width=5)

    def test_unsorted_events_rejected(self):
        with pytest.raises(ValueError, match="sorted"):
            flipflop_oracle([(30, 0, 1), (5, 1, 1)], 100, 10, 2, pulse_width=5)

    def test_pulse_must_fit(self):
        with pytest.raises(ValueError, match="fit"):
            flipflop_oracle([(98, 0, 1)], 100, 10, 1, pulse_width=5)

    def test_idempotent(self):
        events = [(5, 1, -1), (40, 0, 1)]
        a = flipflop_oracle(events, 90, 15, 2, pulse_width=8)
        b = flipflop_oracle(events, 90, 15, 2, pulse_width=8)
        npt.assert_array_equal(a, b)


class TestGenerateTrial:
    def test_noiseless_fixed_gaps_deterministic(self):
        cfg = TaskConfig(noise_std=0.0, min_gap=40, max_gap=40, seed=3)
        a = generate_trial(cfg, SeededRng(9))
        b = generate_trial(cfg, SeededRng(9))
        npt.assert_array_equal(a.inputs, b.inputs)
        assert set(np.unique(a.inputs)) <= {-cfg.pulse_amp, 0.0, cfg.pulse_amp}
        # fixed gap of 40 puts pulses on a strict grid
        onsets = [e[0] for e in a.events if e[1] == 0]
        assert onsets == [40 + i * 50 for i in range(len(onsets))]

    def test_targets_match_production_oracle(self):
        cfg = TaskConfig(seed=4)
        for i in range(20):
            trial = generate_trial(cfg, trial_rng(cfg, i))
            expected = flipflop_oracle(trial.events, cfg.t_steps,
                                       cfg.delay_steps, cfg.n_bits,
                                       cfg.pulse_width)
            npt.assert_array_equal(trial.targets, expected)

    def test_targets_match_independent_replay(self):
        cfg = TaskConfig(seed=5)
        for i in range(50):
            trial = generate_trial(cfg, trial_rng(cfg, i))
            ref = replay_oracle(trial.events, cfg.t_steps, cfg.delay_steps,
                                cfg.n_bits, cfg.pulse_width)
            npt.assert_array_equal(trial.targets, ref)

    def test_every_channel_gets_events(self):
        cfg = TaskConfig(seed=6)
        covered = 0
        for i in range(1000):
            trial = generate_trial(cfg, trial_rng(cfg, i))
            channels = {e[1] for e in trial.events}
            covered += channels == {0, 1, 2}
        assert covered >= 990

    def test_noise_is_everywhere(self):
        cfg = TaskConfig(seed=7)
        trial = generate_trial(cfg, SeededRng(1))
        quiet = np.abs(trial.inputs) > 0
        assert quiet.all()  # every entry perturbed at noise_std > 0

    def test_gap_and_lag_invariants(self):
        cfg = TaskConfig(seed=8)
        for i in range(50):
            trial = generate_trial(cfg, trial_rng(cfg, i))
            per_channel = {}
            before = {}
            for onset, channel, sign in trial.events:
                per_channel.setdefault(channel, []).append(onset)
                # target flips exactly delay_steps after the falling edge
                effect = onset + cfg.pulse_width + cfg.delay_steps
                if effect < cfg.t_steps:
                    assert trial.targets[effect, channel] == sign
                    if before.get(channel, 0) != sign:
                        assert trial.targets[effect - 1, channel] != sign
                before[channel] = sign
            for onsets in per_channel.values():
                gaps = np.diff(sorted(onsets)) - cfg.pulse_width
                assert np.all(gaps >= cfg.min_gap)


class TestGenerateDataset:
    def test_single_sample_matches_trial(self):
        cfg = TaskConfig(seed=10)
        ds = generate_dataset(cfg, 1)
        trial = generate_trial(cfg, trial_rng(cfg, 0))
        npt.assert_array_equal(ds.x[0], trial.inputs)
        npt.assert_array_equal(ds.y[0], trial.targets)

    def test_shapes(self):
        cfg = TaskConfig(t_steps=60, seed=11)
        ds = generate_dataset(cfg, 12)
        assert ds.x.shape == (12, 60, 3)
        assert ds.y.shape == (12, 60, 3)

    def test_sample_regeneration_is_exact(self):
        cfg = TaskConfig(t_steps=60, seed=12)
        ds = generate_dataset(cfg, 500)
        lone = generate_trial(cfg, trial_rng(cfg, 377))
        npt.assert_array_equal(ds.x[377], lone.inputs)
        npt.assert_array_equal(ds.y[377], lone.targets)
        assert ds.events[377] == lone.events

    def test_dataset_determinism(self):
        cfg = TaskConfig(t_steps=80, seed=13)
        a = generate_dataset(cfg, 25)
        b = generate_dataset(cfg, 25)
        npt.assert_array_equal(a.x, b.x)
        npt.assert_array_equal(a.y, b.y)

    def test_round_trip_files(self, tmp_path):
        cfg = TaskConfig(t_steps=60, seed=14)
        ds = generate_dataset(cfg, 4)
        save_dataset(ds, tmp_path)
        back = load_dataset(tmp_path)
        assert back.config == cfg
        npt.assert_array_equal(back.x, ds.x.astype(np.float32))
        npt.assert_array_equal(back.y, ds.y)  # targets are exact in f32
        assert back.events == ds.events  # regenerated, not stored
        assert sorted(os.listdir(tmp_path)) == ["config.json", "x.rnt", "y.rnt"]

    def test_config_shape_mismatch_rejected(self, tmp_path):
        cfg = TaskConfig(t_steps=60, seed=14)
        save_dataset(generate_dataset(cfg, 2), tmp_path)
        (tmp_path / "config.json").write_text(
            json.dumps(dataclasses.asdict(dataclasses.replace(cfg, t_steps=80))))
        with pytest.raises(ValueError, match="config.json"):
            load_dataset(tmp_path)


class TestProbe:
    def test_length_and_determinism(self):
        cfg = TaskConfig()
        p1, p2 = generate_probe(cfg), generate_probe(cfg)
        assert p1.inputs.shape == (PROBE_STEPS, 3)
        npt.assert_array_equal(p1.inputs, p2.inputs)
        assert p1.config.noise_std == 0.0

    def test_visits_all_eight_states(self):
        probe = generate_probe(TaskConfig())
        committed = probe.targets[np.all(np.abs(probe.targets) == 1, axis=1)]
        states = {tuple(map(int, row)) for row in committed}
        assert len(states) == 8

    def test_one_channel_flips_per_transition(self):
        probe = generate_probe(TaskConfig())
        t = probe.targets
        changes = np.nonzero(np.any(t[1:] != t[:-1], axis=1))[0] + 1
        settled = [c for c in changes
                   if np.all(np.abs(t[c]) == 1) and np.all(np.abs(t[c - 1]) == 1)]
        assert len(settled) == 7
        for c in settled:
            assert int(np.sum(t[c] != t[c - 1])) == 1

    def test_states_hold_long_enough(self):
        probe = generate_probe(TaskConfig())
        t = probe.targets
        changes = np.nonzero(np.any(t[1:] != t[:-1], axis=1))[0] + 1
        bounds = list(changes) + [PROBE_STEPS]
        spans = np.diff(bounds)
        # ignore the first three commit steps (initial state assembly)
        assert np.all(spans[-8:] >= PROBE_HOLD_MIN)

    def test_replay_self_consistency(self):
        probe = generate_probe(TaskConfig())
        ref = replay_oracle(probe.events, PROBE_STEPS, 20, 3, 10)
        npt.assert_array_equal(probe.targets, ref)

    def test_requires_three_bits(self):
        with pytest.raises(ValueError):
            generate_probe(dataclasses.replace(TaskConfig(), n_bits=2))


class TestConfigValidation:
    def test_bad_configs_rejected(self):
        with pytest.raises(ValueError):
            TaskConfig(pulse_width=0)
        with pytest.raises(ValueError):
            TaskConfig(min_gap=50, max_gap=10)
        with pytest.raises(ValueError):
            TaskConfig(t_steps=25)  # <= width + delay
        with pytest.raises(ValueError):
            TaskConfig(noise_std=-0.1)
        with pytest.raises(ValueError):
            TaskConfig(pulse_amp=0.0)
        for value in (np.nan, np.inf):
            with pytest.raises(ValueError, match="pulse_amp"):
                TaskConfig(pulse_amp=value)
            with pytest.raises(ValueError, match="noise_std"):
                TaskConfig(noise_std=value)
