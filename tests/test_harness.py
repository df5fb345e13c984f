import dataclasses
import math
import random
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import relaymatch as rm
from relaymatch import harness
from relaymatch.config_io import apply_overrides, load_config
from relaymatch.errors import ConfigurationError
from relaymatch.harness import (
    CSV_HEADER,
    SimEnvironment,
    _fading_rng,
    _replication_rng,
    _topology_rng,
    fading_rows,
    run_replication,
)
from relaymatch.params import FADING_CHUNK_ELEMENTS, MAX_RUN_BYTES, STABILITY_CACHE_SIZE

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@pytest.fixture(scope="module")
def env22(sysp):
    topo = rm.generate_topology(rm.TopologyParams(), _topology_rng(1, None))
    return SimEnvironment(topo, sysp)


def small_config(**overrides):
    base = dict(
        topology=rm.TopologyParams(),
        learning=rm.LearningParams(horizon=60),
        policy="ebriq",
        num_replications=2,
        seed=11,
    )
    base.update(overrides)
    return rm.ExperimentConfig(**base)


class TestConfigValidation:
    def test_unknown_policy(self):
        with pytest.raises(ConfigurationError, match="policy"):
            small_config(policy="adaptive")

    def test_bad_replications(self):
        with pytest.raises(ConfigurationError, match="num_replications"):
            small_config(num_replications=0)

    def test_bad_throughput_mode(self):
        with pytest.raises(ConfigurationError, match="throughput_mode"):
            small_config(throughput_mode="both")

    def test_seed_must_fit_64_bits(self):
        with pytest.raises(ConfigurationError, match="seed"):
            small_config(seed=-1)
        with pytest.raises(ConfigurationError, match="seed"):
            small_config(seed=2**64)

    def test_run_size_is_checked_against_the_fixed_limit(self):
        config = small_config()
        cells = config.topology.num_cus * config.topology.num_d2d
        per_replication = 8 * cells + 16
        grown = dataclasses.replace(config, num_replications=config.num_replications + 1)
        assert grown.run_bytes() - config.run_bytes() == per_replication
        longer = apply_overrides(config, periods=config.learning.horizon + 1)
        assert longer.run_bytes() - config.run_bytes() == 105
        # The most replications that fit are accepted, one more is rejected.
        fixed = config.run_bytes() - config.num_replications * per_replication
        most = (MAX_RUN_BYTES - fixed) // per_replication
        assert small_config(num_replications=most).run_bytes() <= MAX_RUN_BYTES
        with pytest.raises(ConfigurationError, match=r"needs about 4 GiB .* limit of 4 GiB"):
            small_config(num_replications=most + 1)

    def test_instance_tables_fit_the_bytes_run_bytes_counts(self, sysp):
        topology = rm.generate_topology(rm.TopologyParams(num_cus=100, num_d2d=100),
                                        _topology_rng(3, None))
        tracemalloc.start()
        try:
            agents = rm.make_agents("ebriq", SimEnvironment(topology, sysp), rm.LearningParams())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(agents) == 100
        assert peak <= 100 * 100 * rm.params._BYTES_PER_CELL


def rows(env, seed, horizon=1):
    """The first ``horizon`` fading rows of ``env`` from a Generator seeded with ``seed``."""
    return fading_rows(env.snr_scales, horizon, np.random.default_rng(seed))


def first_row(env, seed):
    return next(rows(env, seed))


class ObservingAgent(rm.FixedProposalAgent):
    """A fixed proposal that keeps the last observation it was handed."""

    __slots__ = ("seen",)

    def update(self, obs, t):
        self.seen = obs


class TestRunPeriod:
    def test_noncoop_throughput_is_sum_of_direct_samples(self, env22):
        agents = rm.make_agents("noncoop", env22, rm.LearningParams())
        rng = random.Random(5)
        metrics = rm.run_period(env22, agents, 1, rng, first_row(env22, 5))
        eta = np.random.default_rng(5).standard_exponential(len(env22.snr_scales))
        expected = sum(
            math.log1p(env22.snr_scales[m] * eta[m]) for m in range(env22.num_cus)
        )
        assert metrics.cu_throughput == pytest.approx(expected)
        assert metrics.system_throughput == pytest.approx(expected)
        assert metrics.num_matched == 0
        assert math.isnan(metrics.mean_alpha_ratio)

    def test_gs_oracle_is_stable_every_period(self, env22):
        agents = rm.make_agents("gs_oracle", env22, rm.LearningParams())
        rng = random.Random(7)
        for t, fading in enumerate(rows(env22, 7, 200), start=1):
            assert rm.run_period(env22, agents, t, rng, fading).sm_indicator

    def test_gs_oracle_alpha_ratio_is_one(self, env22):
        agents = rm.make_agents("gs_oracle", env22, rm.LearningParams())
        metrics = rm.run_period(env22, agents, 1, random.Random(9), first_row(env22, 9))
        assert metrics.mean_alpha_ratio == pytest.approx(1.0)

    def test_fixed_seed_gives_identical_metric_stream(self, env22):
        streams = []
        for _ in range(2):
            agents = rm.make_agents("ebriq", env22, rm.LearningParams())
            rng = random.Random(13)
            streams.append([rm.run_period(env22, agents, t, rng, fading)
                            for t, fading in enumerate(rows(env22, 13, 100), start=1)])
        assert streams[0] == streams[1]

    def test_matched_cu_contribution_within_sample_bounds(self, env22, sysp):
        # replay the gs_oracle period and check (1-alpha)*r against the draws
        agents = rm.make_agents("gs_oracle", env22, rm.LearningParams())
        rng = random.Random(17)
        metrics = rm.run_period(env22, agents, 1, rng, first_row(env22, 17))
        c = env22.snr_scales
        eta = np.random.default_rng(17).standard_exponential(len(c))
        num_cus = env22.num_cus
        mu = rm.gale_shapley(env22.prefs)
        cu_total = 0.0
        for n, m in enumerate(mu.d2d_partner):
            if m is None:
                continue
            r = 0.5 * (
                math.log1p(c[m] * eta[m])
                + math.log1p(c[num_cus + n] * eta[num_cus + n])
            )
            alpha = env22.alpha_star[m][n]
            contribution = (1 - alpha) * r
            assert 0.0 <= contribution <= 2.0 * r
            cu_total += contribution
        for m in range(env22.num_cus):
            if mu.cu_partner[m] is None:
                cu_total += math.log1p(c[m] * eta[m])
        assert metrics.cu_throughput == pytest.approx(cu_total)

    def test_a_pair_takes_the_larger_offer_however_small_the_margin(self):
        config = load_config(CONFIGS / "small_network.ini")
        topology = rm.generate_topology(config.topology, _topology_rng(config.seed, None))
        env = SimEnvironment(topology, config.system)
        # Finer than any gap between the instance's own allocations.
        margin = np.diff(np.unique(env.prefs.d2d_scores)).min() / 8
        alpha = env.alpha_star[0][0]
        agents = [ObservingAgent(0, alpha), ObservingAgent(0, alpha + margin)]
        metrics = rm.run_period(env, agents, 1, random.Random(0), first_row(env, 0))
        assert agents[0].seen.d2d_choices == (1, None)
        assert metrics.num_matched == 1
        agents = [ObservingAgent(0, alpha), ObservingAgent(0, alpha)]
        rm.run_period(env, agents, 1, random.Random(0), first_row(env, 0))
        assert agents[0].seen.d2d_choices == (0, None)  # an exact tie: the lower index

    def test_expected_mode_noncoop_is_flat_and_exact(self, env22):
        agents = rm.make_agents("noncoop", env22, rm.LearningParams())
        rng = random.Random(19)
        values = {
            rm.run_period(env22, agents, t, rng, fading, sampled=False).system_throughput
            for t, fading in enumerate(rows(env22, 19, 19), start=1)
        }
        assert len(values) == 1
        assert values.pop() == pytest.approx(sum(env22.direct_rates))


class TestRunExperiment:
    def test_deterministic_run(self, tmp_path):
        config = small_config()
        a = rm.run_experiment(config)
        b = rm.run_experiment(config)
        assert np.array_equal(a.mean_throughput, b.mean_throughput)
        assert np.array_equal(a.sm_fraction, b.sm_fraction)
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        rm.emit_csv(a, pa)
        rm.emit_csv(b, pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_replication_order_independence(self):
        config = small_config(num_replications=3)
        results = rm.run_experiment(config)
        topo = rm.generate_topology(config.topology, _topology_rng(config.seed, None))
        env = SimEnvironment(topo, config.system)
        traces = {}
        for rep in reversed(range(3)):  # deliberately out of order
            traces[rep] = run_replication(
                env, config.policy, config.learning, _replication_rng(config.seed, rep),
                _fading_rng(config.seed, rep),
            )
        manual = np.mean([traces[rep].system_throughput for rep in range(3)], axis=0)
        assert np.allclose(results.mean_throughput, manual)

    def test_varying_topology_draws_fresh_instances(self):
        config = small_config(fixed_topology=False, num_replications=2)
        t0 = rm.generate_topology(config.topology, _topology_rng(config.seed, 0))
        t1 = rm.generate_topology(config.topology, _topology_rng(config.seed, 1))
        assert not np.array_equal(t0.cu_positions, t1.cu_positions)
        rm.run_experiment(config)  # smoke: runs end to end

    def test_sm_fraction_within_bounds_and_gs_identically_one(self):
        results = rm.run_experiment(small_config(policy="gs_oracle"))
        assert ((results.sm_fraction >= 0) & (results.sm_fraction <= 1)).all()
        assert (results.sm_fraction == 1.0).all()

    def test_final_alpha_ratio_shape_and_nan_for_non_learners(self):
        results = rm.run_experiment(small_config(policy="noncoop"))
        assert results.rep_final_alpha_ratio.shape == (2, 2, 2)
        assert np.isnan(results.rep_final_alpha_ratio).all()


def capture_traces(monkeypatch):
    """Record every ``ReplicationTrace`` that ``run_experiment`` computes."""
    traces = []

    def recording(*args, **kwargs):
        traces.append(run_replication(*args, **kwargs))
        return traces[-1]

    monkeypatch.setattr(harness, "run_replication", recording)
    return traces


def trace_bytes(trace):
    return b"".join(array.tobytes() for array in trace)


class TestFadingStream:
    def test_chunk_size_changes_no_byte(self, monkeypatch, tmp_path):
        config = small_config(topology=rm.TopologyParams(num_cus=3, num_d2d=2),
                              learning=rm.LearningParams(horizon=50), fixed_topology=False)
        outputs = []
        for chunk_rows in (None, 1, 3):
            if chunk_rows is not None:  # a few rows a chunk; 3 does not divide 50
                links = config.topology.num_cus + 2 * config.topology.num_d2d
                monkeypatch.setattr(harness, "FADING_CHUNK_ELEMENTS", chunk_rows * links)
            traces = capture_traces(monkeypatch)
            rm.emit_csv(rm.run_experiment(config), tmp_path / "out.csv")
            outputs.append(((tmp_path / "out.csv").read_bytes(),
                            [trace_bytes(trace) for trace in traces]))
        assert outputs[1] == outputs[0]
        assert outputs[2] == outputs[0]

    @pytest.mark.parametrize("fixed_topology", [True, False])
    def test_replication_trace_does_not_depend_on_replication_count(
            self, monkeypatch, fixed_topology):
        per_count = {}
        for reps in (1, 3):
            traces = capture_traces(monkeypatch)
            rm.run_experiment(small_config(policy="epsilon_greedy", num_replications=reps,
                                           fixed_topology=fixed_topology))
            per_count[reps] = [trace_bytes(trace) for trace in traces]
        assert per_count[1] == per_count[3][:1]
        assert len(set(per_count[3])) == 3

    def test_column_means_match_expected_log_rates(self, env22):
        periods = 20_000
        table = np.array(list(rows(env22, 23, periods)))
        assert table.shape == (periods, env22.num_cus + 2 * env22.num_d2d)
        expected = rm.expected_log_rate(env22.snr_scales)
        standard_error = table.std(axis=0, ddof=1) / math.sqrt(periods)
        assert (np.abs(table.mean(axis=0) - expected) < 4 * standard_error).all()
        # the columns are the CU->BS, DT->BS and DT->DR links, in that order
        num_cus, num_d2d = env22.num_cus, env22.num_d2d
        assert np.allclose(expected[:num_cus], env22.direct_rates, rtol=1e-12)
        assert np.allclose(expected[num_cus + num_d2d:], env22.d2d_rates, rtol=1e-12)
        relay = 0.5 * (expected[:num_cus, None] + expected[None, num_cus:num_cus + num_d2d])
        assert np.allclose(relay, env22.relay_rates, rtol=1e-12)

    @pytest.mark.parametrize("links", [3, 14, 3 * FADING_CHUNK_ELEMENTS // 2])
    def test_chunk_fits_the_bytes_run_bytes_counts(self, links):
        counted = max(FADING_CHUNK_ELEMENTS, links) * rm.params._BYTES_PER_FADING_SAMPLE
        snr = np.full(links, 10.0)
        tracemalloc.start()
        try:
            row = next(fading_rows(snr, 10**6, np.random.default_rng(0)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(row) == links
        assert peak <= counted


class TestStabilityCache:
    def test_capped_cache_stays_bounded_and_changes_no_indicator(self, monkeypatch, sysp):
        config = small_config(topology=rm.TopologyParams(num_cus=4, num_d2d=5),
                              policy="random", learning=rm.LearningParams(horizon=300))
        topology = rm.generate_topology(config.topology, _topology_rng(config.seed, None))
        series, cached = [], []
        for cap in (STABILITY_CACHE_SIZE, 3):
            monkeypatch.setattr(harness, "STABILITY_CACHE_SIZE", cap)
            env = SimEnvironment(topology, sysp)
            trace = run_replication(env, "random", config.learning,
                                    _replication_rng(config.seed, 0), _fading_rng(config.seed, 0))
            series.append(trace.sm_indicator)
            cached.append(len(env._stability_cache))
        assert cached[0] > 3  # the run saw more matchings than the small cap holds
        assert cached[1] == 3
        assert series[0].any() and not series[0].all()
        assert np.array_equal(series[0], series[1])

    def test_full_cache_fits_the_bytes_run_bytes_counts(self, sysp):
        num_cus = num_d2d = 20
        topology = rm.generate_topology(rm.TopologyParams(num_cus=num_cus, num_d2d=num_d2d),
                                        _topology_rng(3, None))
        env = SimEnvironment(topology, sysp)
        draw = random.Random(3)
        cus = list(range(num_cus))
        for _ in range(STABILITY_CACHE_SIZE + 100):
            draw.shuffle(cus)
            env.matching_is_stable([m if m < num_d2d - 2 else None for m in cus[:num_d2d]])
        cache = env._stability_cache
        assert len(cache) == STABILITY_CACHE_SIZE
        # the dict and its key tuples; the values and the keys' items are shared objects
        size = sys.getsizeof(cache) + sum(map(sys.getsizeof, cache))
        assert size <= STABILITY_CACHE_SIZE * (rm.params._BYTES_PER_CACHE_ENTRY
                                               + num_d2d * rm.params._BYTES_PER_CACHE_KEY_ITEM)


class TestCsvAndManifest:
    def test_header_and_shape(self, tmp_path):
        results = rm.run_experiment(small_config())
        path = tmp_path / "out.csv"
        rm.emit_csv(results, path)
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 60
        first = lines[1].split(",")
        assert first[0] == "1"
        assert first[4] == "ebriq"
        float(first[1]), float(first[2])  # parseable

    def test_nine_significant_digits(self, tmp_path):
        results = rm.run_experiment(small_config())
        path = tmp_path / "out.csv"
        rm.emit_csv(results, path)
        value = path.read_text().splitlines()[1].split(",")[1]
        assert len(value.replace(".", "").replace("-", "").lstrip("0")) <= 9

    def test_unwritable_path_raises_with_context(self, tmp_path):
        results = rm.run_experiment(small_config())
        blocker = tmp_path / "file"
        blocker.write_text("x")
        with pytest.raises(OSError, match="cannot write"):
            rm.emit_csv(results, blocker / "out.csv")

    def test_manifest_is_deterministic_and_resolved(self, tmp_path):
        config = small_config(seed=99)
        a, b = tmp_path / "m1.txt", tmp_path / "m2.txt"
        rm.write_manifest(config, a)
        rm.write_manifest(config, b)
        assert a.read_bytes() == b.read_bytes()
        assert load_config(a) == config

    @pytest.mark.parametrize("name", ["small_network.ini", "comparison.ini"])
    def test_manifest_of_a_shipped_config_loads_back(self, tmp_path, name):
        config = load_config(CONFIGS / name)
        rm.write_manifest(config, tmp_path / "manifest.txt")
        assert load_config(tmp_path / "manifest.txt") == config

    def test_manifest_loads_back_with_every_field_off_its_default(self, tmp_path):
        config = rm.ExperimentConfig(
            topology=rm.TopologyParams(num_cus=3, num_d2d=4, cell_radius=500.0,
                                       cu_min_bs_distance=250.5,
                                       dt_bs_distance_range=(120.25, 260.0),
                                       d2d_link_range=(5.0, 45.125), path_loss_exponent=3.7),
            system=rm.SystemParams(p_c=0.1, p_d=0.015, n_0=3.1622776601683794e-14,
                                   alpha_low=0.05, alpha_high=0.6, theta=2e-3,
                                   theta_prime=0.01),
            learning=rm.LearningParams(epsilon0=0.3, zeta=0.05, xi=0.7, memory_length=2,
                                       horizon=123),
            policy="gs_oracle", num_replications=7, seed=2**64 - 1, fixed_topology=False,
            throughput_mode="expected",
        )
        for field in dataclasses.fields(config):
            assert getattr(config, field.name) != field.default, field.name
        rm.write_manifest(config, tmp_path / "manifest.txt")
        assert load_config(tmp_path / "manifest.txt") == config


CONFIG_TEXT = """
[topology]
num_cus = 2
num_d2d = 3
[learning]
horizon = 40
[experiment]
policy = random
num_replications = 2
seed = 7
fixed_topology = true
"""


class TestConfigFile:
    def test_load_and_defaults(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text(CONFIG_TEXT)
        config = load_config(path)
        assert config.topology.num_d2d == 3
        assert config.learning.horizon == 40
        assert config.learning.memory_length == 4  # default
        assert config.system.alpha_low == 0.1  # default
        assert config.policy == "random"
        assert config.fixed_topology is True

    def test_unknown_key_is_an_error(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[topology]\nnum_cus = 2\nradius = 10\n")
        with pytest.raises(ConfigurationError, match="radius"):
            load_config(path)

    def test_unknown_section_is_an_error(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[radio]\npower = 1\n")
        with pytest.raises(ConfigurationError, match="radio"):
            load_config(path)

    def test_bad_value_reports_key(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[experiment]\nseed = notanumber\n")
        with pytest.raises(ConfigurationError, match="seed"):
            load_config(path)

    def test_missing_file_is_io_error(self, tmp_path):
        with pytest.raises(OSError, match="cannot read"):
            load_config(tmp_path / "absent.ini")

    def test_range_pair_keys(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[topology]\ndt_bs_distance_low = 100\ndt_bs_distance_high = 200\n")
        config = load_config(path)
        assert config.topology.dt_bs_distance_range == (100.0, 200.0)

    def test_overrides_beat_file_values(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text(CONFIG_TEXT)
        config = apply_overrides(
            load_config(path), policy="noncoop", seed=123, replications=5, periods=10
        )
        assert config.policy == "noncoop"
        assert config.seed == 123
        assert config.num_replications == 5
        assert config.learning.horizon == 10
        # untouched fields survive
        assert config.topology.num_d2d == 3
