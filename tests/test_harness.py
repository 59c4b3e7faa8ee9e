import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from splitfov.client import ClientFrameRecord, run_client
from splitfov.codec import CodecId
from splitfov.harness import (
    RunConfig,
    run,
    run_compare,
    run_report,
    run_sim,
)
from splitfov.metrics import read_csv
from splitfov.server import ServerFrameTiming
from splitfov.sim import CostModel, ZERO_NET


def sim_config(spec, frames=4, **kw):
    defaults = dict(mode="sim", spec=spec, frame_count=frames, net=ZERO_NET,
                    cost=CostModel())
    defaults.update(kw)
    return RunConfig(**defaults)


class TestValidate:
    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            RunConfig(mode="banana").validate()

    def test_report_needs_inputs(self):
        with pytest.raises(ValueError):
            RunConfig(mode="report").validate()

    def test_frames_positive(self, tiny_spec):
        with pytest.raises(ValueError):
            RunConfig(mode="sim", spec=tiny_spec, frame_count=0).validate()

    def test_frames_fit_the_hello(self, tiny_spec):
        RunConfig(mode="sim", spec=tiny_spec, frame_count=2**32 - 1).validate()
        with pytest.raises(ValueError):
            RunConfig(mode="sim", spec=tiny_spec, frame_count=2**32).validate()

    def test_bad_clock(self, tiny_spec):
        with pytest.raises(ValueError):
            RunConfig(mode="sim", spec=tiny_spec, clock="sundial").validate()


class TestRunSim:
    def test_virtual_dispatch(self, tiny_spec):
        res = run_sim(sim_config(tiny_spec, frames=3, clock="virtual"))
        assert len(res.client_records) == 3

    def test_wall_dispatch(self, tiny_spec):
        res = run_sim(sim_config(tiny_spec, frames=2, clock="wall"))
        assert len(res.client_records) == 2
        assert res.client_records[0].total_ms > 0


class TestCompare:
    def test_draw_bound_improvement_matches_ray_ratio(self, desk_spec):
        # per-ray costs, free network: the split arm is bound by the
        # peripheral draw; improvement = foveal rays / peripheral rays
        config = RunConfig(mode="compare", spec=desk_spec, frame_count=3,
                           net=ZERO_NET,
                           cost=CostModel(server_draw=0, encode=0, client_draw=0, decode=0,
                                          merge=0, us_per_ray=1.0),
                           codec=CodecId.RAW)
        report = run_compare(config)
        fovea_rays = 2 * desk_spec.fov_w * desk_spec.fov_h   # 23040
        periph_rays = 360 * 162                              # reduced buffer
        want = 100.0 * fovea_rays / periph_rays
        assert report.improvement_pct == pytest.approx(want, abs=1e-6)
        assert report.improvement_pct == pytest.approx(39.506, abs=1e-3)

    def test_report_shape(self, tiny_spec):
        report = run_compare(RunConfig(mode="compare", spec=tiny_spec,
                                       frame_count=3, net=ZERO_NET,
                                       cost=CostModel()))
        assert report.native_summary.frame_count == 3
        assert report.split_summary.frame_count == 3
        assert report.split_summary.server_stage_median_ms is not None
        assert "improvement" in report.text
        assert "Native baseline" in report.text and "Split client" in report.text

    def test_fixture_medians_render_to_two_decimals(self):
        # the improvement line prints a two-decimal percentage
        from splitfov.metrics import improvement_pct
        line = f"{improvement_pct(32.2, 26.17):.2f}%"
        assert line == "23.04%"


class TestRunAndOutputs:
    def test_sim_writes_csvs(self, tiny_spec, tmp_path):
        config = sim_config(
            tiny_spec, frames=3,
            client_csv=str(tmp_path / "c.csv"),
            server_csv=str(tmp_path / "s.csv"),
            summary_path=str(tmp_path / "sum.txt"),
        )
        text = run(config)
        assert "end-to-end" in text
        assert len(read_csv(str(tmp_path / "c.csv"), ClientFrameRecord)) == 3
        assert len(read_csv(str(tmp_path / "s.csv"), ServerFrameTiming)) == 3
        assert "frame_count=3" in (tmp_path / "sum.txt").read_text()

    def test_native_mode(self, tiny_spec, tmp_path):
        config = RunConfig(mode="native", spec=tiny_spec, frame_count=2,
                           clock="wall", client_csv=str(tmp_path / "n.csv"))
        text = run(config)
        assert "Native baseline" in text
        assert len(read_csv(str(tmp_path / "n.csv"), ClientFrameRecord)) == 2

    def test_compare_mode_writes_all_three(self, tiny_spec, tmp_path):
        config = RunConfig(mode="compare", spec=tiny_spec, frame_count=2,
                           net=ZERO_NET, cost=CostModel(),
                           client_csv=str(tmp_path / "c.csv"),
                           server_csv=str(tmp_path / "s.csv"),
                           native_csv=str(tmp_path / "n.csv"))
        run(config)
        for name in ("c.csv", "s.csv", "n.csv"):
            assert (tmp_path / name).exists()

    def test_ppm_frames_written(self, tiny_spec, tmp_path):
        config = sim_config(tiny_spec, frames=2, ppm_dir=str(tmp_path / "f"))
        run(config)
        assert sorted(p.name for p in (tmp_path / "f").iterdir()) == [
            "frame_000000.ppm", "frame_000001.ppm",
        ]


class TestReport:
    def write_run(self, tiny_spec, tmp_path):
        config = sim_config(tiny_spec, frames=4,
                            client_csv=str(tmp_path / "c.csv"),
                            server_csv=str(tmp_path / "s.csv"))
        run(config)
        return str(tmp_path / "c.csv"), str(tmp_path / "s.csv")

    def test_round_trips_through_csv(self, tiny_spec, tmp_path):
        c, s = self.write_run(tiny_spec, tmp_path)
        text = run_report(RunConfig(mode="report", inputs=(c, s)))
        assert "4 frames" in text
        assert "Draw Time" in text  # server half present

    def test_input_order_does_not_matter(self, tiny_spec, tmp_path):
        c, s = self.write_run(tiny_spec, tmp_path)
        a = run_report(RunConfig(mode="report", inputs=(c, s)))
        b = run_report(RunConfig(mode="report", inputs=(s, c)))
        assert a == b

    def test_client_only(self, tiny_spec, tmp_path):
        c, _ = self.write_run(tiny_spec, tmp_path)
        text = run_report(RunConfig(mode="report", inputs=(c,)))
        assert "Server profile" not in text

    def test_server_only(self, tiny_spec, tmp_path):
        _, s = self.write_run(tiny_spec, tmp_path)
        text = run_report(RunConfig(mode="report", inputs=(s,)))
        assert "Server profile" in text


class TestServerClientModes:
    def test_networked_modes_meet_over_loopback(self, tiny_spec, tmp_path):
        from splitfov.harness import run_server_mode

        port_ready = threading.Event()
        bound = {}

        def ready(port):
            bound["port"] = port
            port_ready.set()

        server_config = RunConfig(mode="server", port=0,
                                  server_csv=str(tmp_path / "s.csv"))
        pool = ThreadPoolExecutor(max_workers=1)
        future = pool.submit(run_server_mode, server_config, ready)
        assert port_ready.wait(timeout=10.0)

        client_config = RunConfig(mode="client", spec=tiny_spec, frame_count=2,
                                  port=bound["port"],
                                  client_csv=str(tmp_path / "c.csv"))
        text = run(client_config)
        assert "Split client" in text
        records = future.result(timeout=30.0)
        pool.shutdown()
        assert len(records) == 2
        assert len(read_csv(str(tmp_path / "c.csv"), ClientFrameRecord)) == 2
