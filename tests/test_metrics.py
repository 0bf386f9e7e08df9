import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halolab.errors import ConfigurationError
from halolab.metrics import (
    BenchRecord,
    comm_work_ratio,
    effective_bandwidth,
    efficiency,
    halo_sites,
    mean,
    speedup,
    stddev,
    total_cost,
    updates_per_core,
)
from halolab.transport import TransportModel


class TestMessageCost:
    def test_one_second_message(self):
        assert TransportModel(0.0, 1.0).delay(10**6) == 1.0

    def test_zero_size_is_pure_latency(self):
        assert TransportModel(2.5e-6, 350.0).delay(0) == 2.5e-6

    def test_saturated_plateau_value(self):
        # 0.5 MB at 350 MB/s plus 1 us of latency
        t = TransportModel(1e-6, 350.0).delay(500_000)
        assert t == pytest.approx(1.4296e-3, rel=1e-3)
        assert t == pytest.approx(1e-6 + 0.5 / 350.0, rel=1e-15)

    def test_rejects_negative_size(self):
        with pytest.raises(ValueError):
            TransportModel(0.0, 1.0).delay(-1)


class TestTotalCost:
    def test_empty_inventory(self):
        assert total_cost(TransportModel(1e-3, 10.0), []) == 0.0

    def test_single_message_equals_message_cost(self):
        p = TransportModel(2e-6, 350.0)
        assert total_cost(p, [12345]) == p.delay(12345)

    def test_latency_gap_26_vs_6(self):
        p = TransportModel(1e-4, 100.0)
        total = 6 * 19 * 8 * 16 * 16
        sizes_6 = [total // 6] * 6
        sizes_26 = [total // 26] * 25 + [total - 25 * (total // 26)]
        gap = total_cost(p, sizes_26) - total_cost(p, sizes_6)
        assert gap == pytest.approx(20 * p.latency_s, rel=1e-12)

    @given(st.integers(7, 40), st.integers(1, 2**20))
    @settings(max_examples=60)
    def test_difference_is_pure_latency_exact_structure(self, n, latency_ticks):
        # zero-byte inventories isolate the latency term; dyadic latency
        # keeps n*l exact, so the difference is bitwise (n-6)*l
        latency = latency_ticks * 2.0**-24
        p = TransportModel(latency, 350.0)
        diff = total_cost(p, [0] * n) - total_cost(p, [0] * 6)
        assert diff == (n - 6) * latency

    @given(
        st.integers(7, 40),
        st.floats(1e-7, 1e-2),
        st.integers(0, 2**20),
    )
    @settings(max_examples=60)
    def test_difference_is_pure_latency_with_payload(self, n, latency, total_kb):
        p = TransportModel(latency, 350.0)
        total = total_kb * 1024
        base = total // n
        sizes_n = [base] * (n - 1) + [total - base * (n - 1)]
        base6 = total // 6
        sizes_6 = [base6] * 5 + [total - base6 * 5]
        t_n = total_cost(p, sizes_n)
        t_6 = total_cost(p, sizes_6)
        # cancellation noise scales with the shared bandwidth term
        tolerance = 1e-13 * max(t_n, t_6, 1e-6)
        assert t_n - t_6 == pytest.approx((n - 6) * latency, rel=1e-9, abs=tolerance)

    def test_monotone_in_count_for_fixed_bytes(self):
        p = TransportModel(5e-5, 350.0)
        costs = [total_cost(p, [6000 // n] * n) for n in (1, 2, 3, 6)]
        assert costs == sorted(costs)


class TestRatios:
    def test_halo_sites_cubic(self):
        for L in range(1, 65):
            assert halo_sites((L, L, L)) == (L + 2) ** 3 - L**3

    def test_halo_sites_noncubic(self):
        assert halo_sites((2, 3, 4)) == 4 * 5 * 6 - 24  # 96

    def test_cubic_ratio_L2(self):
        assert comm_work_ratio((2, 2, 2)) == pytest.approx(7.0)

    def test_general_matches_cubic_on_cubes(self):
        for L in range(1, 65):
            assert comm_work_ratio((L, L, L)) == (6 * L * L + 12 * L + 8) / L**3

    def test_one_and_a_half_two_family(self):
        for x in range(2, 58, 2):
            got = comm_work_ratio((x, 3 * x // 2, 2 * x))
            expected = (14.5 * x * x + 18.0 * x + 8.0) / (3.0 * x**3)
            assert got == pytest.approx(expected, rel=1e-12)

    def test_strictly_decreasing_in_L(self):
        values = [comm_work_ratio((L, L, L)) for L in range(1, 129)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            comm_work_ratio((0, 1, 1))


class TestBandwidthAndUpdates:
    def test_L16_one_second(self):
        # 6*256 + 192 + 8 = 1736 halo sites, 152 bytes per site
        assert effective_bandwidth((16, 16, 16), 19, 1.0) == pytest.approx(0.263872)

    def test_halving_time_doubles_bandwidth(self):
        b1 = effective_bandwidth((8, 8, 8), 19, 2e-3)
        b2 = effective_bandwidth((8, 8, 8), 19, 1e-3)
        assert b2 == pytest.approx(2 * b1)

    @given(
        st.tuples(st.integers(1, 32), st.integers(1, 32), st.integers(1, 32)),
        st.integers(1, 27),
        st.floats(1e-6, 10.0),
    )
    @settings(max_examples=60)
    def test_algebraic_inverse(self, dims, m, t):
        b = effective_bandwidth(dims, m, t)
        assert b * 1e6 * t / (8 * m) == pytest.approx(halo_sites(dims), rel=1e-12)

    def test_updates_per_core_example(self):
        assert updates_per_core((16, 16, 16), 1e-3) == pytest.approx(4.096e6)

    def test_updates_scale_with_volume(self):
        assert updates_per_core((32, 32, 32), 1.0) == 8 * updates_per_core((16, 16, 16), 1.0)

    def test_rejects_nonpositive_time(self):
        with pytest.raises(ValueError):
            effective_bandwidth((4, 4, 4), 19, 0.0)
        with pytest.raises(ValueError):
            updates_per_core((4, 4, 4), -1.0)


class TestSpeedupEfficiency:
    def test_ideal_scaling(self):
        times = {1: 10.0, 2: 5.0, 4: 2.5}
        s = speedup(times, times[1])
        assert s == {1: 1.0, 2: 2.0, 4: 4.0}

    def test_constant_time_flat_speedup(self):
        s = speedup({2: 3.0, 4: 3.0, 8: 3.0}, 3.0)
        assert s == {2: 1.0, 4: 1.0, 8: 1.0}

    def test_common_baseline(self):
        # series B measured against series A's baseline
        s_b = speedup({1: 8.0, 2: 4.0}, t_base=10.0)
        assert s_b[1] == pytest.approx(1.25)

    def test_efficiency_from_speedup(self):
        s = {24: 1.0, 48: 1.8}
        e = efficiency(s, base_p=24)
        assert e[24] == pytest.approx(1.0)
        assert e[48] == pytest.approx(0.9)

    def test_flat_speedup_efficiency_decays(self):
        e = efficiency({24: 1.0, 48: 1.0, 96: 1.0}, base_p=24)
        assert e[48] == pytest.approx(24 / 48)
        assert e[96] == pytest.approx(24 / 96)

    def test_common_mode_preserves_runtime_ranking(self):
        # at any p, the faster version must show the larger common-T1 speedup
        t_block = {24: 10.0, 48: 6.0}
        t_nonblock = {24: 9.0, 48: 6.5}
        base = t_block[24]
        s_b = speedup(t_block, t_base=base)
        s_n = speedup(t_nonblock, t_base=base)
        for p in (24, 48):
            assert (s_n[p] > s_b[p]) == (t_nonblock[p] < t_block[p])
            assert s_n[p] / s_b[p] == pytest.approx(t_block[p] / t_nonblock[p])

    def test_missing_base_is_config_error(self):
        with pytest.raises(ConfigurationError):
            speedup({}, 1.0)
        with pytest.raises(ConfigurationError):
            efficiency({4: 1.0}, base_p=2)


class TestStddev:
    def test_constant_samples(self):
        assert stddev([3.0, 3.0, 3.0]) == 0.0

    def test_two_point(self):
        assert stddev([1.0, 3.0]) == 1.0

    def test_textbook_population_case(self):
        assert stddev([2, 4, 4, 4, 5, 5, 7, 9]) == 2.0

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=40))
    @settings(max_examples=80)
    def test_against_statistics_pstdev(self, xs):
        assert stddev(xs) == pytest.approx(statistics.pstdev(xs), abs=1e-9)

    def test_population_not_sample(self):
        xs = [1.0, 2.0, 3.0, 4.0]
        assert stddev(xs) < statistics.stdev(xs)

    def test_mean_and_errors(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0
        with pytest.raises(ValueError):
            stddev([])


class TestBenchRecord:
    def _record(self, **kw):
        base = dict(
            strategy="blocking",
            proc_dims=(1, 1, 1),
            local_dims=(4, 4, 4),
            m=19,
            iterations=10,
            halo_times_s=[0.1, 0.2],
            step_times_s=[0.15, 0.25],
            bytes_sent=[100, 100],
            messages_sent=[60, 60],
        )
        base.update(kw)
        return BenchRecord(**base)

    def test_basic_properties(self):
        r = self._record()
        assert r.repetitions == 2

    def test_rejects_empty_and_mismatched(self):
        with pytest.raises(ValueError):
            self._record(halo_times_s=[])
        with pytest.raises(ValueError):
            self._record(step_times_s=[0.1])

    def test_rejects_nonpositive_times(self):
        with pytest.raises(ValueError):
            self._record(halo_times_s=[0.1, 0.0])
