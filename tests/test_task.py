import dataclasses
import hashlib
import json
import os
import tempfile
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ffrnn import task
from ffrnn.linalg import SeededRng
from ffrnn.task import (
    PROBE_HOLD_MIN,
    PROBE_STEPS,
    Dataset,
    TaskConfig,
    generate_dataset,
    generate_probe,
    generate_trial,
    load_dataset,
    save_dataset,
    trial_rng,
)

from oracles import build_dataset, build_trial, replay_oracle, split_events
from reference import clean_hold_mask


def write_targets(events, t_steps, delay_steps, n_bits, pulse_width):
    """The targets that ``task._write_targets`` writes for one trial's
    (onset, channel, sign) events."""
    onset, channel, sign = np.array(events, dtype=np.int64).reshape(-1, 3).T
    y = np.zeros((1, t_steps, n_bits))
    task._write_targets(y, np.zeros_like(onset), onset, channel, sign,
                        pulse_width, delay_steps)
    return y[0]


class TestOracle:
    """The flip-flop rule, as the one builder of every target writes it."""

    def test_no_events(self):
        out = write_targets([], 50, 20, 3, pulse_width=10)
        npt.assert_array_equal(out, np.zeros((50, 3)))

    def test_single_set_with_delay(self):
        out = write_targets([(10, 0, 1)], 80, 20, 3, pulse_width=10)
        npt.assert_array_equal(out[:40, 0], 0.0)
        npt.assert_array_equal(out[40:, 0], 1.0)
        npt.assert_array_equal(out[:, 1:], 0.0)

    def test_set_reset_set_matches_replay(self):
        events = [(5, 0, 1), (30, 0, -1), (55, 0, 1)]
        ours = write_targets(events, 100, 10, 1, pulse_width=5)
        ref = replay_oracle(events, 100, 10, 1, pulse_width=5)
        npt.assert_array_equal(ours, ref)

    def test_idempotent(self):
        events = [(5, 1, -1), (40, 0, 1)]
        a = write_targets(events, 90, 15, 2, pulse_width=8)
        b = write_targets(events, 90, 15, 2, pulse_width=8)
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
        assert split_events(ds.events, 500)[377] == lone.events

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
        assert back.events.dtype == ds.events.dtype == np.int64
        npt.assert_array_equal(back.events, ds.events)  # regenerated, not stored
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

    def test_visits_the_states_in_gray_order(self):
        codes = task.state_codes(generate_probe(TaskConfig()).targets)
        visited = codes[np.r_[True, codes[1:] != codes[:-1]]]
        assert visited.tolist() == [-1, *task.GRAY_ORDER]
        # each state's sign triple reads back as its code
        assert task.state_codes(task.STATE_SIGNS).tolist() == list(range(8))
        assert task.STATE_SIGNS[task.GRAY_ORDER[-1]].tolist() == [1, -1, -1]

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

    def test_probe_is_pinned(self):
        # recorded from the probe built with its own copy of the flip-flop
        # rule; the analysis of every trained network reads this trial
        probe = generate_probe(TaskConfig())
        digest = [hashlib.sha256(a.astype("<f8").tobytes()).hexdigest()
                  for a in (probe.inputs, probe.targets)]
        assert digest == [
            "4432386e416467c0d48c1785ece3fe17ba06e5e48bf9c9d5601da4fe33afca42",
            "050d358652134ff19a56ac4f55a23820b6d9030b9ee61d18c58a3989138a7b0f"]
        assert probe.events == (
            (0, 0, -1), (0, 1, -1), (0, 2, -1), (72, 2, 1), (144, 1, 1),
            (216, 2, -1), (288, 0, 1), (360, 2, 1), (432, 1, -1), (504, 2, -1))


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


@st.composite
def task_configs(draw):
    pulse_width = draw(st.integers(1, 12))
    delay_steps = draw(st.integers(0, 25))
    max_gap = draw(st.integers(0, 120))
    return TaskConfig(
        n_bits=draw(st.integers(1, 4)),
        t_steps=pulse_width + delay_steps + draw(st.integers(1, 100)),
        pulse_width=pulse_width,
        pulse_amp=draw(st.floats(1e-3, 10.0)),
        min_gap=draw(st.integers(0, max_gap)),
        max_gap=max_gap,
        noise_std=draw(st.one_of(st.just(0.0), st.floats(0.0, 2.0, exclude_min=True))),
        delay_steps=delay_steps,
        seed=draw(st.integers()),
    )


class TestStreamIdentity:
    """The block path against the one-trial-at-a-time reference of
    ``oracles``: scalar ``Generator.integers`` calls, per-event loops and
    ``Generator.normal`` noise."""

    @settings(max_examples=100, deadline=None)
    @given(cfg=task_configs(), samples=st.sampled_from([1, 63, 64, 65, 129]))
    # a gap span of 3 * 2**30 redraws about a quarter of the gaps
    @example(cfg=TaskConfig(min_gap=0, max_gap=(3 << 30) - 1, seed=5), samples=65)
    def test_dataset_and_loaded_events_match_reference(self, cfg, samples):
        x, y, events = build_dataset(cfg, samples)
        ds = generate_dataset(cfg, samples)
        assert ds.x.tobytes() == x.tobytes()
        assert ds.y.dtype == np.int8
        assert ds.y.astype("<f8").tobytes() == y.tobytes()
        assert split_events(ds.events, samples) == events
        with tempfile.TemporaryDirectory() as out:
            save_dataset(ds, out)
            loaded = load_dataset(out)
            assert split_events(loaded.events, samples) == events
            assert loaded.y.dtype == np.int8
            assert loaded.y.astype("<f8").tobytes() == y.tobytes()

    @pytest.mark.parametrize("span", [2, 71, 3 << 30])
    def test_lockstep_integers_match_generator(self, span):
        # 3 * 2**30 rejects about a quarter of its draws, so redraws run;
        # one raw output read at first makes the streams read more often
        seeds = range(7)
        halves = task._Halves([np.random.PCG64(s) for s in seeds], 1)
        gens = [np.random.Generator(np.random.PCG64(s)) for s in seeds]
        pick = np.random.default_rng(span)
        draws = 0
        for _ in range(300):
            rows = np.flatnonzero(pick.random(len(seeds)) < 0.7)
            if rows.size:
                got = halves.integers(rows, span)
                assert got.tolist() == [int(gens[r].integers(0, span)) for r in rows]
                draws += rows.size
        taken = int(np.sum(halves.pos))
        assert taken > draws if span == 3 << 30 else taken == draws
        for b, gen in enumerate(gens):
            bit_generator = np.random.PCG64()
            halves.seek(b, bit_generator)
            assert bit_generator.state["state"] == gen.bit_generator.state["state"]

    @pytest.mark.parametrize("noise_std", [0.0, 0.05])
    @pytest.mark.parametrize("buffered", [False, True])
    def test_generate_trial_continues_the_stream(self, noise_std, buffered):
        # the trial starts at the stream's next whole 64-bit output, so a
        # buffered 32-bit half on the way in is skipped
        cfg = TaskConfig(noise_std=noise_std, seed=21)
        for i in range(4):
            ours, ref = trial_rng(cfg, i), trial_rng(cfg, i)
            if buffered:
                ours.gen.integers(0, 2)   # reads one output, buffers a half
                ref.gen.bit_generator.advance(1)
            trial = generate_trial(cfg, ours)
            inputs, targets, events = build_trial(cfg, ref)
            assert trial.inputs.tobytes() == inputs.tobytes()
            assert trial.targets.tobytes() == targets.tobytes()
            assert trial.events == events

    def test_dataset_bytes_are_pinned(self):
        # recorded from the one-trial-at-a-time generator; run-to-run
        # reproducibility cannot see a change of the data itself, such as
        # one brought by a numpy upgrade
        ds = generate_dataset(TaskConfig(seed=2025), 64)
        digest = [hashlib.sha256(a.astype("<f8").tobytes()).hexdigest()
                  for a in (ds.x, ds.y)]
        assert digest == [
            "c0e090f2694f8646186ab9c7dae154062b29a240f83a6fb6e9e85f3682bbdd82",
            "852ea2107d60278e81dd54b12ca7c21937b8666381dfaa324161808e96aa96be"]

    def test_gap_range_bounded(self):
        with pytest.raises(ValueError, match="2\\*\\*32"):
            TaskConfig(min_gap=0, max_gap=1 << 32)
        TaskConfig(min_gap=1, max_gap=1 << 32)


@st.composite
def mask_cases(draw):
    """(events, y, config, pad) for ``task._clean_hold_mask``: a [4, E]
    event array of 1-8 trials in shuffled column order, where a trial may
    have no events and a step may hold pulses on two channels, targets in
    {-1, 0, +1} with a tenth uncommitted, and pads from 0 to past the last
    step, 2**70 among them."""
    trials, t_steps, n_bits = (draw(st.integers(1, 8)), draw(st.integers(1, 40)),
                               draw(st.integers(1, 3)))
    columns = []
    for trial in range(trials):
        for _ in range(draw(st.integers(0, 3))):
            onset = draw(st.integers(0, t_steps - 1))
            for channel in draw(st.lists(st.integers(0, n_bits - 1), min_size=1,
                                         max_size=2)):
                columns.append((trial, onset, channel, draw(st.sampled_from([-1, 1]))))
    order = draw(st.permutations(range(len(columns))))
    events = np.array([columns[k] for k in order], dtype=np.int64).reshape(-1, 4).T
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    y = rng.choice([-1.0, 0.0, 1.0], size=(trials, t_steps, n_bits), p=[0.45, 0.1, 0.45])
    config = TaskConfig(pulse_width=draw(st.integers(1, 6)),
                        delay_steps=draw(st.integers(0, 6)))
    pad = draw(st.one_of(st.just(0), st.integers(0, 10),
                         st.integers(t_steps + 1, t_steps + 20), st.just(2 ** 70)))
    return events, y, config, pad


# three trials of 12 steps, the middle one without events: two channels
# pulse at step 5 of trial 0, and trial 2's window runs past the last step
HAND_EVENTS = np.array([[2, 10, 1, 1], [0, 5, 2, -1], [0, 5, 0, 1]]).T


class TestCleanHoldMask:
    @settings(max_examples=200, deadline=None)
    @given(case=mask_cases())
    @example(case=(HAND_EVENTS, np.ones((3, 12, 3)), TaskConfig(pulse_width=2,
                                                                delay_steps=1), 0))
    @example(case=(HAND_EVENTS, np.ones((3, 12, 3)), TaskConfig(), 50))
    def test_matches_step_by_step_oracle(self, case):
        events, y, config, pad = case
        mask = task._clean_hold_mask(events, y, config, pad)
        expected = [clean_hold_mask(triples, y[i], config.pulse_width,
                                    config.delay_steps, pad)
                    for i, triples in enumerate(split_events(events, len(y)))]
        assert mask.dtype == bool
        npt.assert_array_equal(mask, np.stack(expected))

    def test_hand_case(self):
        # pulse width 2, delay 1, pad 0: a window covers onset .. onset + 3
        mask = task._clean_hold_mask(HAND_EVENTS, np.ones((3, 12, 3)),
                                     TaskConfig(pulse_width=2, delay_steps=1), 0)
        clear = np.ones((3, 12), dtype=bool)
        clear[0, 5:9] = False
        clear[2, 10:] = False
        npt.assert_array_equal(mask, clear)


class TestDatasetMemory:
    @staticmethod
    def traced(samples):
        """(dataset, retained, peak) traced bytes of one generate_dataset."""
        tracemalloc.start()
        try:
            ds = generate_dataset(TaskConfig(), samples)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return ds, retained, peak

    def test_tensors_are_not_on_the_heap(self):
        generate_dataset(TaskConfig(), 8)
        ds, retained, _ = self.traced(1200)
        assert retained < ds.x.nbytes, f"{retained} bytes retained"

    def test_no_dataset_sized_temporary(self):
        # the block path allocates per block of 64 trials, so what it frees
        # again does not grow with the dataset
        generate_dataset(TaskConfig(), 8)
        _, retained, peak = self.traced(600)
        _, retained_8x, peak_8x = self.traced(4800)
        assert peak_8x - retained_8x <= 1.5 * (peak - retained), (
            peak - retained, peak_8x - retained_8x)
