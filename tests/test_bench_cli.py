import json
import os
import platform
import time

import numpy as np
import pytest

from halolab import cli, runner
from halolab.cli import _CONFIG_FLAGS, _config_from_args, build_parser, main
from halolab.config import SETTINGS, RunConfig, build_config, load_config_file, parse_dims
from halolab.errors import ConfigurationError
from halolab.halo import STRATEGIES, HaloBuffers, exchange
from halolab.lattice import D3Q19, DistributionField, random_state
from halolab.metrics import halo_sites
from halolab.reporting import (
    RAW_COLUMNS,
    emit_summary,
    read_raw_csv,
    result_rows,
    summarize,
    verify_raw_csv,
    write_csv,
    write_meta,
)
from halolab.runner import (
    HaloMismatch,
    find_mismatches,
    halo_oracle,
    run_benchmark,
    run_physics,
    run_ranks,
    run_regression,
    run_test_halo,
)
from halolab.topology import CartesianTopology


def small_cfg(**kw):
    base = dict(
        proc_dims=(2, 1, 1),
        local_dims=(3, 3, 3),
        m=19,
        iterations=4,
        repetitions=2,
        warmup=1,
        watchdog_seconds=5.0,
    )
    base.update(kw)
    return RunConfig(**base)


# one value per config key, none of them the key's default
_SAMPLE_VALUES = {
    "proc_dims": "2,1,1", "local_dims": "3x3x3", "global_dims": "6,3,3", "m": "27",
    "strategy": "nonblocking", "iterations": "7", "repetitions": "3", "tau": "0.8",
    "seed": "99", "physics": "full", "warmup": "2", "periodic": "off",
    "overlap.enabled": "yes", "overlap.intensity": "4",
    "transport.watchdog_seconds": "7.5", "transport.model.latency_us": "50",
    "transport.model.bandwidth_MBps": "1000", "output": "out_dir",
}


class TestConfig:
    def test_parse_dims_forms(self):
        assert parse_dims("4,3,2") == (4, 3, 2)
        assert parse_dims("4x3x2") == (4, 3, 2)
        assert parse_dims((4, 3, 2)) == (4, 3, 2)
        with pytest.raises(ConfigurationError):
            parse_dims("4,3")
        with pytest.raises(ConfigurationError):
            parse_dims("a,b,c")

    def test_exactly_one_dims_source(self):
        with pytest.raises(ConfigurationError):
            RunConfig(proc_dims=(1, 1, 1)).validate()
        with pytest.raises(ConfigurationError):
            RunConfig(
                proc_dims=(1, 1, 1), local_dims=(2, 2, 2), global_dims=(4, 4, 4)
            ).validate()

    def test_global_dims_decomposition(self):
        cfg = RunConfig(proc_dims=(4, 3, 2), global_dims=(96, 96, 96))
        _, local, global_ = cfg.validate().resolve_dims()
        assert local == (24, 32, 48)
        assert global_ == (96, 96, 96)

    def test_non_divisible_rejected(self):
        cfg = RunConfig(proc_dims=(3, 1, 1), global_dims=(10, 3, 3))
        with pytest.raises(ConfigurationError):
            cfg.validate()

    def test_overlap_requires_nonblocking(self):
        cfg = small_cfg(overlap_enabled=True, strategy="blocking")
        with pytest.raises(ConfigurationError):
            cfg.validate()

    def test_model_needs_both_parameters(self):
        cfg = small_cfg(model_latency_us=10.0)
        with pytest.raises(ConfigurationError):
            cfg.validate()

    def test_nan_model_latency_rejected(self):
        cfg = small_cfg(model_latency_us=float("nan"), model_bandwidth_MBps=100.0)
        with pytest.raises(ConfigurationError, match="latency must be non-negative"):
            cfg.validate()

    def test_config_file_and_overrides(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# benchmark setup\n"
            "proc_dims = 2,1,1\n"
            "local_dims = 4x4x4\n"
            "strategy = nonblocking\n"
            "overlap.enabled = true\n"
            "overlap.intensity = 3\n"
            "transport.watchdog_seconds = 7.5\n"
        )
        cfg = build_config(path, {"seed": "99", "m": "27"})
        assert cfg.strategy == "nonblocking"
        assert cfg.overlap_enabled is True and cfg.overlap_intensity == 3
        assert cfg.watchdog_seconds == 7.5
        assert cfg.seed == 99 and cfg.m == 27
        cfg.validate()

    def test_config_file_with_byte_order_mark(self, tmp_path):
        path = tmp_path / "bom.cfg"
        path.write_bytes(b"\xef\xbb\xbfm = 19\n")
        assert load_config_file(path) == {"m": "19"}
        assert build_config(path).m == 19

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("strateggy = blocking\n")
        with pytest.raises(ConfigurationError):
            build_config(path)

    def test_bad_line_rejected(self, tmp_path):
        path = tmp_path / "bad2.cfg"
        path.write_text("just words\n")
        with pytest.raises(ConfigurationError):
            build_config(path)

    @pytest.mark.parametrize("key", list(SETTINGS))
    def test_flag_set_and_file_agree(self, key, tmp_path):
        value = _SAMPLE_VALUES[key]
        (flag,) = [f for f, k in _CONFIG_FLAGS if k == key]
        parser = build_parser()
        by_flag = _config_from_args(parser.parse_args(["bench", flag, value]))
        by_set = _config_from_args(parser.parse_args(["bench", "--set", f"{key}={value}"]))
        path = tmp_path / "one.cfg"
        path.write_text(f"{key} = {value}\n")
        assert by_flag == by_set == build_config(path) != RunConfig()

    def test_meta_without_model(self):
        assert small_cfg().meta() == {
            "proc_dims": [2, 1, 1], "local_dims": [3, 3, 3], "global_dims": [6, 3, 3],
            "m": 19, "strategy": "blocking", "iterations": 4, "repetitions": 2,
            "tau": 1.0, "seed": 12345, "physics": "none", "warmup": 1, "periodic": True,
            "overlap": {"enabled": False, "intensity": 0},
            "transport": {"watchdog_seconds": 5.0, "model": None},
        }

    def test_meta_with_model_and_overlap(self):
        cfg = small_cfg(local_dims=None, global_dims=(8, 6, 6), strategy="nonblocking",
                        overlap_enabled=True, overlap_intensity=3, model_latency_us=50.0,
                        model_bandwidth_MBps=1000.0, periodic=False, output="elsewhere")
        assert cfg.meta() == {
            "proc_dims": [2, 1, 1], "local_dims": [4, 6, 6], "global_dims": [8, 6, 6],
            "m": 19, "strategy": "nonblocking", "iterations": 4, "repetitions": 2,
            "tau": 1.0, "seed": 12345, "physics": "none", "warmup": 1, "periodic": False,
            "overlap": {"enabled": True, "intensity": 3},
            "transport": {"watchdog_seconds": 5.0,
                          "model": {"latency_us": 50.0, "bandwidth_MBps": 1000.0}},
        }


class TestRunBenchmark:
    def test_message_accounting(self):
        record, meta = run_benchmark(small_cfg(strategy="blocking"))
        nranks, iters = 2, 4
        assert record.messages_sent == [6 * nranks * iters] * 2
        record_nb, _ = run_benchmark(small_cfg(strategy="nonblocking"))
        assert record_nb.messages_sent == [26 * nranks * iters] * 2
        assert record_nb.bytes_sent == record.bytes_sent

    def test_bytes_match_halo_shell(self):
        cfg = small_cfg()
        record, _ = run_benchmark(cfg)
        expected = halo_sites((3, 3, 3)) * 19 * 8 * 2 * 4  # sites*bytes*ranks*iters
        assert record.bytes_sent == [expected, expected]

    def test_meta_records_tau_and_scope(self, tmp_path):
        record, meta = run_benchmark(small_cfg())
        assert meta["tau"] == 1.0
        assert meta["warmup"] == 1
        assert "oversubscribed" in meta
        emit_summary(result_rows(record), tmp_path, meta)
        written = json.loads((tmp_path / "meta.json").read_text())
        host = written["host"]
        assert host["python"] == platform.python_version()
        assert host["numpy"] == np.__version__
        assert host["nproc"] == len(os.sched_getaffinity(0))
        assert host["platform"] == platform.platform()

    def test_meta_records_the_kernel_threads(self, monkeypatch, tmp_path):
        monkeypatch.setattr(runner, "usable_cpus", lambda: 2)
        _, meta = run_benchmark(RunConfig(proc_dims=(1, 1, 1), local_dims=(32, 32, 32),
                                          physics="full", iterations=1, repetitions=1,
                                          warmup=0))
        written = json.loads(write_meta(meta, tmp_path / "meta.json").read_text())
        assert written["kernel_threads"] == 2
        # no physics, no kernels
        _, meta = run_benchmark(small_cfg(iterations=2, repetitions=1, warmup=0))
        assert meta["kernel_threads"] == 0

    def test_oversubscribed_counts_the_cpus_the_process_may_use(self, monkeypatch, tmp_path):
        # two ranks on a process bound to one CPU, as under taskset -c 0
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        _, meta = run_benchmark(small_cfg(iterations=2, repetitions=1, warmup=0))
        written = json.loads(write_meta(meta, tmp_path / "meta.json").read_text())
        assert (written["oversubscribed"], written["host"]["nproc"]) == (True, 1)

    def test_overlap_mode_switches_scope(self, monkeypatch):
        # t_halo sums the start-to-end windows: overlapped work falls inside
        # them, serial work outside, and the step time spans both
        work_s = 0.02
        monkeypatch.setattr(runner, "synthetic_workload", lambda field, n: time.sleep(work_s))
        for enabled in (True, False):
            cfg = small_cfg(strategy="nonblocking", overlap_enabled=enabled,
                            overlap_intensity=2, iterations=3, repetitions=1)
            record, _ = run_benchmark(cfg)
            (t_halo,), (t_step,) = record.halo_times_s, record.step_times_s
            if enabled:
                assert t_halo >= cfg.iterations * work_s
            else:
                assert t_halo < cfg.iterations * work_s <= t_step

    def test_work_runs_only_at_nonzero_intensity(self, monkeypatch):
        calls = []
        monkeypatch.setattr(runner, "synthetic_workload", lambda field, n: calls.append(n))
        for enabled in (True, False):
            run_benchmark(small_cfg(strategy="nonblocking", overlap_enabled=enabled))
        assert calls == []
        run_benchmark(small_cfg(strategy="nonblocking", overlap_intensity=3))
        assert calls == [3] * 2 * (1 + 4) * 2  # ranks, warm-up and timed steps, repetitions

    def test_full_physics_runs(self):
        cfg = small_cfg(physics="full", iterations=2, repetitions=1)
        record, _ = run_benchmark(cfg)
        assert record.repetitions == 1



def _seeded_interiors(cfg, nranks):
    """The interiors test-halo's fields are seeded with, regenerated."""
    shape = (*cfg.local_dims, cfg.m)
    return [np.random.default_rng([cfg.seed, rank]).uniform(0.5, 1.5, size=shape)
            for rank in range(nranks)]


def _exchanged(topo, seeded, strategy):
    """Every rank's data after one exchange of its seeded interior."""
    def body(ctx):
        field = DistributionField(seeded[ctx.rank].shape[:3], seeded[ctx.rank].shape[3])
        field.interior()[...] = seeded[ctx.rank]
        exchange(field, topo, HaloBuffers(topo, ctx.rank, field.local_dims, field.m,
                                          ctx.endpoint), strategy)
        return field.data.copy()

    return run_ranks(topo.nranks, body, watchdog_seconds=5.0)


def _loop_verify(data, seeded, topo, rank, strategy):
    """Site-by-site check of one rank's data against the seeded interiors,
    the reference for ``halo_oracle`` and ``find_mismatches``: (halo sites,
    mismatches)."""
    lx, ly, lz, m = seeded[rank].shape
    local_dims = (lx, ly, lz)
    coords = topo.cart_coords(rank)
    failures = []
    checked = 0
    for x in range(lx + 2):
        for y in range(ly + 2):
            for z in range(lz + 2):
                if not (1 <= x <= lx and 1 <= y <= ly and 1 <= z <= lz):
                    checked += 1
                owner_coords, local_site = [], []
                for c, h, n, L, per in zip(coords, (x, y, z), topo.dims, local_dims,
                                           topo.periodic):
                    g = c * L + (h - 1)
                    if per:
                        g %= n * L
                    elif not 0 <= g < n * L:
                        break
                    owner_coords.append(g // L)
                    local_site.append(g % L)
                if len(local_site) < 3:
                    expected = np.zeros(m)
                else:
                    sx, sy, sz = local_site
                    expected = seeded[topo.row_major_rank(*owner_coords)][sx, sy, sz]
                got = data[x, y, z, :]
                if not np.array_equal(got, expected):
                    bad = int(np.nonzero(got != expected)[0][0])
                    failures.append(HaloMismatch(strategy, rank, (x, y, z), bad,
                                                 float(expected[bad]), float(got[bad])))
    return checked, failures


class TestTestHalo:
    @pytest.mark.parametrize("proc", [(1, 1, 1), (2, 2, 1)])
    def test_passes_both_strategies(self, proc):
        cfg = small_cfg(proc_dims=proc, local_dims=(3, 2, 4), m=5)
        report = run_test_halo(cfg)
        assert report.passed
        nranks = proc[0] * proc[1] * proc[2]
        assert report.checked_sites == len(STRATEGIES) * nranks * halo_sites((3, 2, 4))

    def test_fault_injection_reports_site(self):
        # corrupt one halo value after a correct exchange; the verifier
        # must name exactly that site
        cfg = small_cfg(proc_dims=(1, 1, 1), local_dims=(3, 3, 3), m=4)
        topo = CartesianTopology((1, 1, 1))
        (data,) = _exchanged(topo, _seeded_interiors(cfg, 1), "blocking")
        (expected,) = halo_oracle(cfg)
        assert find_mismatches(data, expected, 0, "blocking") == []
        data[0, 2, 2, 1] += 5.0
        failures = find_mismatches(data, expected, 0, "blocking")
        assert len(failures) == 1
        f = failures[0]
        assert f.site == (0, 2, 2) and f.component == 1
        assert f.got == f.expected + 5.0

    def test_interior_write_fails(self, monkeypatch):
        # an exchange that writes into the interior breaks the seeded
        # values the oracle expects, though every halo value is right
        start, end = STRATEGIES["nonblocking"]

        def end_then_write(token, field, buffers):
            end(token, field, buffers)
            field.interior()[0, 1, 0, 2] += 1.0

        monkeypatch.setitem(STRATEGIES, "nonblocking", (start, end_then_write))
        report = run_test_halo(small_cfg(proc_dims=(2, 1, 1), local_dims=(3, 3, 3), m=4))
        assert not report.passed
        assert {(f.strategy, f.site, f.component) for f in report.failures} == {
            ("nonblocking", (1, 2, 1), 2)}

    @pytest.mark.parametrize("proc, periodic", [
        ((1, 1, 1), True), ((2, 2, 1), False), ((2, 1, 2), True),
    ])
    def test_matches_site_by_site_reference(self, proc, periodic):
        # the vectorised oracle and verifier report exactly what a loop over
        # the sites reports: sites in order, first wrong component, values
        cfg = small_cfg(proc_dims=proc, local_dims=(3, 2, 4), m=5, periodic=periodic)
        topo = CartesianTopology(proc, periodic=periodic)
        seeded = _seeded_interiors(cfg, topo.nranks)
        expected = halo_oracle(cfg)
        rng = np.random.default_rng(8)
        for rank, data in enumerate(_exchanged(topo, seeded, "nonblocking")):
            assert (halo_sites((3, 2, 4)), find_mismatches(
                data, expected[rank], rank, "nonblocking")) == (
                _loop_verify(data, seeded, topo, rank, "nonblocking"))
            for _ in range(6):
                x, y, z = (int(rng.integers(0, n + 2)) for n in (3, 2, 4))
                data[x, y, z, int(rng.integers(0, 5))] = rng.choice([np.nan, -1.0, 0.0])
            data[-1, 0, 0, 2:] += 1.0
            got = find_mismatches(data, expected[rank], rank, "nonblocking")
            assert repr(got) == repr(_loop_verify(data, seeded, topo, rank, "nonblocking")[1])
            assert got

    def test_report_describes_failure(self):
        from halolab.runner import HaloTestReport

        report = HaloTestReport(10, [HaloMismatch("blocking", 0, (0, 0, 0), 2, 1.0, 3.0)])
        assert not report.passed
        assert "rank=0" in report.describe()
        assert "component=2" in report.describe()


class TestRegression:
    def test_ten_steps_exact_agreement(self):
        cfg = small_cfg(proc_dims=(2, 2, 2), local_dims=(4, 4, 4), physics="full")
        report = run_regression(cfg, steps=10)
        assert report.passed
        assert report.max_delta == 0.0

    def test_zero_steps_trivially_equal(self):
        cfg = small_cfg(physics="full")
        report = run_regression(cfg, steps=0)
        assert report.passed and report.max_delta == 0.0

    def test_zero_steps_return_the_seeded_fields(self):
        cfg = small_cfg(physics="full")
        for rank, data in enumerate(run_physics(cfg, "nonblocking", steps=0)):
            rng = np.random.default_rng([cfg.seed, rank])
            assert np.array_equal(data, random_state((3, 3, 3), D3Q19, rng).data)

    def test_negative_steps_rejected(self):
        with pytest.raises(ConfigurationError, match="steps cannot be negative"):
            run_regression(small_cfg(physics="full"), steps=-3)

    def test_validates_the_full_physics_run(self):
        # physics=none validates with any m; the regression's own full run does not
        with pytest.raises(ConfigurationError, match="canonical velocity set"):
            run_regression(small_cfg(m=5), steps=1)

    def test_seeded_runs_are_deterministic(self):
        cfg = small_cfg(proc_dims=(2, 1, 1), local_dims=(4, 4, 4), physics="full")
        a = run_physics(cfg, "nonblocking", steps=5)
        b = run_physics(cfg, "nonblocking", steps=5)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)


class TestReporting:
    def _rows(self):
        record, _ = run_benchmark(small_cfg())
        return result_rows(record)

    def test_row_schema(self):
        rows = self._rows()
        for r in rows:
            assert list(r) == list(RAW_COLUMNS)
        assert rows[0]["rep"] == 0 and rows[1]["rep"] == 1

    def test_summary_sigma_of_equal_times_is_zero(self):
        rows = self._rows()
        for r in rows:
            r["t_halo_total_s"] = 0.5
            r["B_eff_MBps"] = 12.5
            r["updates_per_core"] = 1e6
            r["t_step_total_s"] = 0.6
        summary = summarize(rows)
        assert len(summary) == 1
        assert summary[0]["t_halo_sigma_s"] == 0.0
        assert summary[0]["B_eff_sigma_MBps"] == 0.0

    def test_summary_rows_follow_the_numbers_of_their_configurations(self):
        # as strings, "10" sorts before "4"
        rows = [dict(r, Lx=n, Ly=n, Lz=n) for n in (10, 4) for r in self._rows()]
        assert [s["Lx"] for s in summarize(rows)] == [4, 10]

    def test_derived_then_sigma_order(self):
        # asymmetric times distinguish sigma(derived) from derived(sigma)
        from halolab.metrics import effective_bandwidth, stddev

        rows = self._rows()[:1] * 3
        rows = [dict(r) for r in rows]
        times = [1.0, 2.0, 4.0]
        for r, t in zip(rows, times):
            r["t_halo_total_s"] = t
            r["B_eff_MBps"] = effective_bandwidth((3, 3, 3), 19, t / r["iterations"])
        summary = summarize(rows)[0]
        per_rep = [r["B_eff_MBps"] for r in rows]
        assert summary["B_eff_sigma_MBps"] == stddev(per_rep)
        wrong_order = effective_bandwidth((3, 3, 3), 19, stddev(times) / rows[0]["iterations"])
        assert summary["B_eff_sigma_MBps"] != wrong_order

    def test_csv_roundtrip_and_verify(self, tmp_path):
        rows = self._rows()
        path = write_csv(rows, tmp_path / "raw.csv", RAW_COLUMNS)
        back = read_raw_csv(path)
        assert back[0]["t_halo_total_s"] == rows[0]["t_halo_total_s"]
        assert verify_raw_csv(path) == []

    def test_verify_catches_tampering(self, tmp_path):
        rows = self._rows()
        rows[0]["B_eff_MBps"] *= 1.01
        path = write_csv(rows, tmp_path / "raw.csv", RAW_COLUMNS)
        problems = verify_raw_csv(path)
        assert problems and "B_eff_MBps" in problems[0]

    def test_csv_headers(self, tmp_path):
        emit_summary(self._rows(), tmp_path, {})
        assert (tmp_path / "raw.csv").read_text().splitlines()[0] == (
            "strategy,Px,Py,Pz,Lx,Ly,Lz,m,rep,iterations,t_halo_total_s,t_step_total_s,"
            "bytes_sent,messages_sent,B_eff_MBps,updates_per_core")
        assert (tmp_path / "summary.csv").read_text().splitlines()[0] == (
            "strategy,Px,Py,Pz,Lx,Ly,Lz,m,iterations,repetitions,t_halo_mean_s,"
            "t_halo_sigma_s,t_step_mean_s,t_step_sigma_s,B_eff_mean_MBps,B_eff_sigma_MBps,"
            "updates_mean,updates_sigma")

    def test_emit_summary_subdomain(self, tmp_path):
        rows = self._rows()
        paths = emit_summary(rows, tmp_path / "out", {"tau": 1.0}, mode="subdomain")
        assert (tmp_path / "out" / "raw.csv").exists()
        assert (tmp_path / "out" / "summary.csv").exists()
        assert (tmp_path / "out" / "beff_vs_msgMB_blocking.dat").exists()
        assert json.loads((tmp_path / "out" / "meta.json").read_text())["tau"] == 1.0

    def test_emit_summary_scaling(self, tmp_path):
        rows = []
        for strategy, times in (("blocking", (8.0, 4.4)), ("nonblocking", (7.6, 4.6))):
            for p, t in zip(((1, 1, 1), (2, 1, 1)), times):
                cfg_rowset = result_rows_from_fake(strategy, p, t)
                rows.extend(cfg_rowset)
        paths = emit_summary(rows, tmp_path / "scal", {}, mode="scaling")
        diff = (tmp_path / "scal" / "runtime_diff_vs_p.dat").read_text().splitlines()
        assert diff[0].startswith("#")
        p1, d1 = diff[1].split()
        assert int(p1) == 1 and float(d1) == pytest.approx(7.6 - 8.0)
        speedup_file = (tmp_path / "scal" / "speedup_vs_p_nonblocking.dat").read_text()
        p, s = speedup_file.splitlines()[1].split()
        assert float(s) == pytest.approx(8.0 / 7.6)  # common baseline is blocking T1


def result_rows_from_fake(strategy, proc, t_halo):
    from halolab.metrics import BenchRecord

    record = BenchRecord(
        strategy=strategy,
        proc_dims=proc,
        local_dims=(4, 4, 4),
        m=19,
        iterations=10,
        halo_times_s=[t_halo],
        step_times_s=[t_halo * 1.1],
        bytes_sent=[1000],
        messages_sent=[60],
    )
    return result_rows(record)


class TestCli:
    def test_bench_and_verify_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "bench"
        code = main([
            "bench", "--proc-dims", "1,1,1", "--local-dims", "3,3,3",
            "--iterations", "3", "--repetitions", "2", "--warmup", "1",
            "--output", str(out),
        ])
        assert code == 0
        assert (out / "raw.csv").exists()
        assert main(["verify", "--input", str(out / "raw.csv")]) == 0
        assert "verify passed" in capsys.readouterr().out

    def test_test_halo_subcommand(self, capsys):
        code = main([
            "test-halo", "--proc-dims", "2,1,1", "--local-dims", "2,3,2",
            "--m", "4",
        ])
        assert code == 0
        assert "passed" in capsys.readouterr().out

    def test_regression_subcommand(self):
        code = main([
            "regression", "--proc-dims", "2,1,1", "--local-dims", "4,4,4",
            "--steps", "3",
        ])
        assert code == 0

    def test_pingpong_subcommand(self, tmp_path, capsys):
        out = tmp_path / "pp.csv"
        code = main(["pingpong", "--sizes", "1024,4096,16384", "--output", str(out)])
        assert code == 0
        assert out.exists()
        assert "plateau" in capsys.readouterr().out

    def test_model_subcommand(self, tmp_path):
        code = main([
            "model", "--latency-us", "2", "--bandwidth-mbps", "350",
            "--L", "8", "16", "--output", str(tmp_path / "model"),
        ])
        assert code == 0
        cost = (tmp_path / "model" / "cost_vs_L.csv").read_text().splitlines()
        assert cost[0].startswith("L,")
        assert (tmp_path / "model" / "ratio_noncubic.dat").exists()

    def test_config_error_exit_code(self, capsys):
        code = main(["bench", "--proc-dims", "3,1,1", "--global-dims", "10,3,3"])
        assert code == 2
        assert "configuration error" in capsys.readouterr().err

    def test_physics_failure_is_named_with_exit_code_1(self, capsys):
        # an isolated open rank exchanges nothing, so its empty halo drives
        # the boundary density to zero within a few steps
        code = main(["regression", "--proc-dims", "1,1,1", "--local-dims", "4,4,4",
                     "--periodic", "false", "--steps", "12"])
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["ZeroDensityError: collide needs strictly positive density"]

    def test_verify_failure_exit_code(self, tmp_path):
        record, _ = run_benchmark(small_cfg(repetitions=1))
        rows = result_rows(record)
        rows[0]["updates_per_core"] += 1.0
        path = write_csv(rows, tmp_path / "raw.csv", RAW_COLUMNS)
        assert main(["verify", "--input", str(path)]) == 1

    @pytest.mark.parametrize("edit, problem", [
        (lambda text: "a,b\n", "header is not raw.csv's"),
        (lambda text: "a,b\n1,2\n", "header is not raw.csv's"),
        (lambda text: text.splitlines(keepends=True)[0], "no rows"),
        (lambda text: text.replace(",19,", ",x,", 1), "line 2: m 'x' is not int"),
        (lambda text: text.rstrip("\n") + ",7\n", "line 2 has 17 cells, not 16"),
        (lambda text: _set_cell(text, "iterations", "0"),
         "strategy=blocking L=(3, 3, 3) rep=0: derived columns cannot be recomputed"),
        (lambda text: _set_cell(text, "t_halo_total_s", "0.0"),
         "strategy=blocking L=(3, 3, 3) rep=0: derived columns cannot be recomputed"),
    ], ids=["other-header-only", "other-columns", "no-rows", "bad-cell", "extra-cell",
            "zero-iterations", "zero-halo-time"])
    def test_verify_rejects_files_that_are_not_raw_csv(self, edit, problem, tmp_path, capsys):
        record, _ = run_benchmark(small_cfg(repetitions=1))
        path = write_csv(result_rows(record), tmp_path / "raw.csv", RAW_COLUMNS)
        path.write_text(edit(path.read_text()))
        assert main(["verify", "--input", str(path)]) == 1
        out = capsys.readouterr().out
        assert problem in out and "verify FAILED" in out
        assert "verify FAILED: 1 problem(s)" in out

    def test_verify_missing_input_is_config_error(self, tmp_path, capsys):
        assert main(["verify", "--input", str(tmp_path / "missing.csv")]) == 2
        assert "configuration error: cannot read" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["pingpong", "--sizes", "4"],
        ["pingpong", "--sizes", "1k"],
        ["model", "--bandwidth-mbps", "0"],
        ["model", "--latency-us", "-1"],
        ["model", "--latency-us", "nan"],
        ["model", "--L", "0"],
        ["model", "--m", "0"],
        ["model", "--m", "28"],
        ["regression", "--proc-dims", "1,1,1", "--local-dims", "4,4,4", "--steps", "-3"],
        # a run waits up to twice the watchdog, and threading caps one wait
        *(["test-halo", "--proc-dims", "2,1,1", "--local-dims", "4,4,4",
           "--set", f"transport.watchdog_seconds={v}"] for v in ("inf", "1e300", "4.7e9")),
        ["test-halo", "--proc-dims", "1,1,1", "--local-dims", "4,4,4", "--seed", "-5"],
    ], ids=["size-4", "size-1k", "bandwidth-0", "latency-neg", "latency-nan", "L-0", "m-0",
            "m-28", "steps-neg", "watchdog-inf", "watchdog-1e300", "watchdog-4.7e9",
            "seed-neg"])
    def test_bad_input_is_config_error(self, argv, tmp_path, capsys):
        out = tmp_path / "out"
        assert main([*argv, "--output", str(out)]) == 2
        assert capsys.readouterr().err.startswith("configuration error: ")
        assert not out.exists()

    TINY_BENCH = ["bench", "--proc-dims", "1,1,1", "--local-dims", "2,2,2"]

    def test_missing_config_file_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "missing.cfg"
        assert main([*self.TINY_BENCH, "--config", str(path)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"configuration error: cannot read config file {path}: No such file or directory"]

    def test_config_file_not_utf8_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_bytes(b"m = 19\nseed = \xff\n")
        assert main([*self.TINY_BENCH, "--config", str(path)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"configuration error: cannot read config file {path}: not UTF-8 text "
            "(invalid start byte)"]

    @pytest.mark.parametrize("argv, taken, output, problem", [
        (TINY_BENCH, "file", "taken", "is not a directory"),
        (["sweep", "local_dims", "2,2,2", "--proc-dims", "1,1,1"], "file", "taken",
         "is not a directory"),
        (["model", "--L", "4"], "file", "taken", "is not a directory"),
        (["pingpong", "--sizes", "1024"], "dir", "taken", "is a directory"),
        (["pingpong", "--sizes", "1024"], "file", "taken/pp.csv", "is not a directory"),
    ], ids=["bench", "sweep", "model", "pingpong-dir", "pingpong-under-file"])
    def test_unwritable_output_is_config_error_before_any_run(
            self, argv, taken, output, problem, tmp_path, monkeypatch, capsys):
        def no_run(*args, **kwargs):
            raise AssertionError("a run started before the output was checked")

        monkeypatch.setattr(cli, "run_benchmark", no_run)
        monkeypatch.setattr(cli, "bandwidth_sweep", no_run)
        if taken == "dir":
            (tmp_path / "taken").mkdir()
        else:
            (tmp_path / "taken").write_text("kept\n")
        out = tmp_path / output
        assert main([*argv, "--output", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"configuration error: cannot write output to {out}: {tmp_path / 'taken'} {problem}"]
        assert taken == "dir" or (tmp_path / "taken").read_text() == "kept\n"

    def test_set_overrides(self, tmp_path):
        out = tmp_path / "b2"
        code = main([
            "bench", "--set", "proc_dims=1,1,1", "--set", "local_dims=2,2,2",
            "--set", "iterations=2", "--set", "repetitions=1",
            "--set", "warmup=0", "--output", str(out),
        ])
        assert code == 0
        rows = read_raw_csv(out / "raw.csv")
        assert rows[0]["iterations"] == 2

    SWEEP_RUN = ["--iterations", "2", "--repetitions", "1", "--warmup", "0"]

    def test_sweep_local_dims(self, tmp_path):
        out = tmp_path / "sub"
        code = main(["sweep", "local_dims", "2,2,2", "2,3,4", "--proc-dims", "2,1,1",
                     *self.SWEEP_RUN, "--output", str(out)])
        assert code == 0
        for name in ("raw.csv", "summary.csv", "beff_vs_msgMB_blocking.dat",
                     "beff_vs_msgMB_nonblocking.dat", "updates_vs_sites_blocking.dat",
                     "updates_vs_sites_nonblocking.dat"):
            assert (out / name).exists(), name
        assert main(["verify", "--input", str(out / "raw.csv")]) == 0
        meta = json.loads((out / "meta.json").read_text())
        assert meta["sweep"] == {"key": "local_dims", "values": [[2, 2, 2], [2, 3, 4]]}
        assert "strategy" not in meta
        rows = read_raw_csv(out / "raw.csv")
        assert {(r["strategy"], r["Lz"]) for r in rows} == {
            (s, lz) for s in ("blocking", "nonblocking") for lz in (2, 4)}

    def test_sweep_records_the_kernel_threads_of_each_point(self, tmp_path, monkeypatch):
        monkeypatch.setattr(runner, "usable_cpus", lambda: 2)
        out = tmp_path / "sub"
        assert main(["sweep", "local_dims", "4,4,4", "32,32,32", "--proc-dims", "1,1,1",
                     "--physics", "full", *self.SWEEP_RUN, "--output", str(out)]) == 0
        assert json.loads((out / "meta.json").read_text())["kernel_threads"] == [1, 2]

    def test_sweep_proc_dims(self, tmp_path):
        out = tmp_path / "scal"
        code = main(["sweep", "proc_dims", "1,1,1", "2,1,1", "--global-dims", "4,4,4",
                     *self.SWEEP_RUN, "--output", str(out)])
        assert code == 0
        diff = (out / "runtime_diff_vs_p.dat").read_text().splitlines()
        assert [int(line.split()[0]) for line in diff[1:]] == [1, 2]

    def test_sweep_overlap_intensity(self, tmp_path):
        out = tmp_path / "ovl"
        code = main(["sweep", "overlap.intensity", "0", "2", "--proc-dims", "1,1,1",
                     "--local-dims", "4,4,4", "--model-latency-us", "50",
                     "--model-bandwidth-mbps", "1e6", *self.SWEEP_RUN, "--output", str(out)])
        assert code == 0
        lines = (out / "overlap.csv").read_text().splitlines()
        assert lines[0] == "intensity,t_blocking_s,t_nonblocking_s,t_overlapped_s"
        assert [line.split(",")[0] for line in lines[1:]] == ["0", "2"]
        meta = json.loads((out / "meta.json").read_text())
        assert meta["sweep"] == {"key": "overlap.intensity", "values": [0, 2]}
        assert meta["oversubscribed"] is False
        assert meta["transport"]["model"] == {"latency_us": 50.0, "bandwidth_MBps": 1e6}
        assert "strategy" not in meta and "enabled" not in meta["overlap"]

    def test_sweep_bad_grid_is_config_error(self, tmp_path, capsys):
        code = main(["sweep", "proc_dims", "1,1,1", "3,1,1", "--global-dims", "4,4,4",
                     *self.SWEEP_RUN, "--output", str(tmp_path / "bad")])
        assert code == 2
        assert "configuration error" in capsys.readouterr().err
        assert not (tmp_path / "bad").exists()  # no point ran
        with pytest.raises(SystemExit):
            main(["sweep", "m", "19", "27"])


def _set_cell(text, column, value):
    """raw.csv text with ``column`` of its first row set to ``value``."""
    header, row, *rest = text.splitlines(keepends=True)
    cells = row.rstrip("\n").split(",")
    cells[list(RAW_COLUMNS).index(column)] = value
    return "".join([header, ",".join(cells) + "\n", *rest])
