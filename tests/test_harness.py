"""The run modes end to end: each subcommand through `main`, the CLI as a
subprocess, and the library entry points `run_compare` and `run_report`."""

import csv
import os
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from splitfov.camera import CameraPath, CameraRig, pose_at
from splitfov.cli import main
from splitfov.client import ClientFrameRecord, CollectSink, ffr_frame
from splitfov.codec import CodecId
from splitfov.metrics import read_csv, run_report
from splitfov.render import SceneConfig
from splitfov.server import ServerFrameTiming
from splitfov.sim import CostModel, ZERO_NET, run_compare

TINY = ["--size", "160x80", "--fovea", "32x24", "--scale", "0.5"]
FREE_LINK = ["--latency", "0", "--bandwidth", "inf"]
ROOT = Path(__file__).resolve().parent.parent


def compare(spec, frames, codec=CodecId.PRED_DEFLATE, cost=CostModel(), **kw):
    return run_compare(spec, codec, SceneConfig(), CameraPath(frame_count=frames),
                       ZERO_NET, cost, **kw)


class TestValidate:
    """Library entry points reject what the CLI's usage errors also catch."""

    def test_report_needs_inputs(self):
        with pytest.raises(ValueError, match="no records"):
            run_report([])


class TestRunSim:
    def test_virtual_dispatch(self, tmp_path):
        c = str(tmp_path / "c.csv")
        assert main(["compare", *TINY, "--frames", "3", "--client-csv", c]) == 0
        assert len(read_csv(c, ClientFrameRecord)) == 3


class TestCompare:
    def test_draw_bound_improvement_matches_ray_ratio(self, desk_spec):
        # per-ray costs, free network: the split arm is bound by the
        # peripheral draw; improvement = foveal rays / peripheral rays
        report = compare(desk_spec, 3, codec=CodecId.RAW,
                         cost=CostModel(server_draw=0, encode=0, client_draw=0, decode=0,
                                        merge=0, us_per_ray=1.0))
        fovea_rays = 2 * desk_spec.fov_w * desk_spec.fov_h   # 23040
        periph_rays = 360 * 162 - 54 * 2 * 76                # reduced buffer less its holes
        want = 100.0 * fovea_rays / periph_rays
        assert report.improvement_pct == pytest.approx(want, abs=1e-6)
        assert report.improvement_pct == pytest.approx(45.977, abs=1e-3)

    def test_report_shape(self, tiny_spec):
        report = compare(tiny_spec, 3)
        for title in ("Native baseline", "Split client", "Server profile"):
            assert f"{title} (3 frames, all times median ms)" in report.text
        assert report.text.count("Server profile") == 1  # the native arm has no server
        assert "improvement" in report.text

    def test_fixture_medians_render_to_two_decimals(self):
        # the improvement line prints a two-decimal percentage
        from splitfov.metrics import improvement_pct
        line = f"{improvement_pct(32.2, 26.17):.2f}%"
        assert line == "23.04%"

    def test_display_gets_each_frame_once(self, tiny_spec):
        # only the split arm displays; the native arm's frames are the same bytes
        sink = CollectSink()
        compare(tiny_spec, 2, display=sink)
        path = CameraPath(frame_count=2)
        assert len(sink.frames) == 2
        for k, frame in enumerate(sink.frames):
            assert np.array_equal(
                frame, ffr_frame(SceneConfig(), CameraRig(), pose_at(path, k), tiny_spec))


class TestRunAndOutputs:
    def test_sim_writes_csvs(self, tmp_path, capsys):
        c, s = str(tmp_path / "c.csv"), str(tmp_path / "s.csv")
        assert main(["compare", *TINY, "--frames", "3", *FREE_LINK, "--client-csv", c,
                     "--server-csv", s]) == 0
        assert "end-to-end" in capsys.readouterr().out
        assert len(read_csv(c, ClientFrameRecord)) == 3
        assert len(read_csv(s, ServerFrameTiming)) == 3

    def test_native_mode(self, tmp_path, capsys):
        n = str(tmp_path / "n.csv")
        assert main(["native", *TINY, "--frames", "2", "--client-csv", n]) == 0
        assert "Native baseline" in capsys.readouterr().out
        assert len(read_csv(n, ClientFrameRecord)) == 2

    def test_compare_mode_writes_all_three(self, tmp_path):
        names = ("c.csv", "s.csv", "n.csv")
        c, s, n = (str(tmp_path / name) for name in names)
        assert main(["compare", *TINY, "--frames", "2", *FREE_LINK,
                     "--client-csv", c, "--server-csv", s, "--native-csv", n]) == 0
        for name in names:
            assert (tmp_path / name).exists()

    def test_ppm_frames_written(self, tmp_path):
        assert main(["compare", *TINY, "--frames", "2", "--ppm-dir", str(tmp_path / "f")]) == 0
        assert sorted(p.name for p in (tmp_path / "f").iterdir()) == [
            "frame_000000.ppm", "frame_000001.ppm",
        ]

    def test_compare_ppm_every_k(self, tmp_path):
        assert main(["compare", *TINY, "--frames", "3", "--ppm-dir", str(tmp_path / "f"),
                     "--ppm-every", "2"]) == 0
        assert sorted(p.name for p in (tmp_path / "f").iterdir()) == [
            "frame_000000.ppm", "frame_000002.ppm",
        ]


class TestReport:
    def write_run(self, tmp_path):
        c, s = str(tmp_path / "c.csv"), str(tmp_path / "s.csv")
        assert main(["compare", *TINY, "--frames", "4", *FREE_LINK,
                     "--client-csv", c, "--server-csv", s]) == 0
        return c, s

    def test_round_trips_through_csv(self, tmp_path):
        c, s = self.write_run(tmp_path)
        text = run_report([c, s])
        assert "4 frames" in text
        assert "Draw Time" in text  # server half present

    def test_input_order_does_not_matter(self, tmp_path):
        c, s = self.write_run(tmp_path)
        assert run_report([c, s]) == run_report([s, c])

    def test_client_only(self, tmp_path):
        c, _ = self.write_run(tmp_path)
        assert "Server profile" not in run_report([c])

    def test_server_only(self, tmp_path):
        _, s = self.write_run(tmp_path)
        assert "Server profile" in run_report([s])

    def test_each_file_counts_its_own_frames(self, tmp_path):
        c, s = self.write_run(tmp_path)
        short = str(tmp_path / "short.csv")
        with open(c, encoding="ascii") as f:
            lines = f.readlines()
        with open(short, "w", encoding="ascii") as f:
            f.writelines(lines[:3])  # the header and 2 of the 4 frames
        text = run_report([short, s])
        assert "Client profile (2 frames, all times median ms)" in text
        assert "Server profile (4 frames, all times median ms)" in text

    @pytest.mark.parametrize("kind", ["client", "server"])
    def test_a_second_file_of_one_kind_is_refused(self, tmp_path, kind):
        c, s = self.write_run(tmp_path)
        again, record = {"client": (c, "ClientFrameRecord"),
                         "server": (s, "ServerFrameTiming")}[kind]
        with pytest.raises(ValueError, match=f"is a second {record} CSV"):
            run_report([c, s, again])

    @pytest.mark.parametrize("row, fields", [("2,6.0,0.1", 3), ("2,6.0,0.1,4.0,1.0,9.0,5,7,8", 9)],
                             ids=["short", "long"])
    def test_row_of_the_wrong_width_is_an_error(self, tmp_path, capsys, row, fields):
        c, _ = self.write_run(tmp_path)
        with open(c, "a", encoding="ascii") as f:
            f.write(row + "\n")
        capsys.readouterr()
        assert main(["report", c]) == 1
        assert capsys.readouterr().err == f"error: {c}, line 6: {fields} fields, expected 7\n"

    @pytest.mark.parametrize("kind, field, value, want", [
        ("client", "total_ms", "abc", "float"),
        ("server", "bytes_sent", "12.5", "int"),
    ])
    def test_a_cell_that_does_not_parse_names_file_line_and_field(
        self, tmp_path, capsys, kind, field, value, want
    ):
        c, s = self.write_run(tmp_path)
        path = {"client": c, "server": s}[kind]
        with open(path, newline="", encoding="ascii") as f:
            rows = list(csv.reader(f))
        rows[2][rows[0].index(field)] = value
        with open(path, "w", newline="", encoding="ascii") as f:
            csv.writer(f).writerows(rows)
        capsys.readouterr()
        assert main(["report", path]) == 1
        assert capsys.readouterr().err == (
            f"error: {path}, line 3: {field} is {value!r}, expected {want}\n"
        )

    @pytest.mark.parametrize("header", ["frame_id,draw_ms,network_ms,decode_ms,merge_ms,pose_ms,"
                                        "total_ms,bytes_received", "a,b"], ids=["pose_ms", "other"])
    def test_a_header_of_neither_kind_names_both(self, tmp_path, capsys, header):
        p = str(tmp_path / "x.csv")
        with open(p, "w", encoding="ascii") as f:
            f.write(header + "\n")
        assert main(["report", p]) == 1
        assert capsys.readouterr().err == (f"error: {p}: CSV header {header.split(',')} does not"
                                           " match ClientFrameRecord or ServerFrameTiming\n")


class TestServerClientModes:
    def test_networked_modes_meet_over_loopback(self, tmp_path):
        # The installed entry point, run as `python -m splitfov.cli`: each run
        # exits 0 and writes nothing to stderr (no runpy warning, no log noise).
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), SPLITFOV_HOST="127.0.0.1")

        def cli(*args):
            return [sys.executable, "-m", "splitfov.cli", *args]

        def run(*args):
            proc = subprocess.run(cli(*args), cwd=tmp_path, env=env,
                                  capture_output=True, text=True, timeout=60)
            assert (proc.returncode, proc.stderr) == (0, "")
            return proc.stdout

        server = subprocess.Popen(cli("server", "--port", "0", "--server-csv", "s.csv"),
                                  cwd=tmp_path, env=env, text=True,
                                  stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        pool = ThreadPoolExecutor(max_workers=1)
        try:
            first = pool.submit(server.stdout.readline).result(timeout=30)
            port = re.fullmatch(r"listening on 127\.0\.0\.1:(\d+)\n", first).group(1)
            out = run("client", "--port", port, *TINY, "--frames", "2", "--client-csv", "c.csv")
            assert "Split client (2 frames" in out
            server_out, server_err = server.communicate(timeout=30)
        finally:
            if server.poll() is None:
                server.kill()  # also ends a readline still waiting on its stdout
                server.wait()
            pool.shutdown()
        assert (server.returncode, server_err) == (0, "")
        assert "Server profile (2 frames" in server_out
        report = run("report", "c.csv", "s.csv")
        assert "2 frames" in report and "Draw Time" in report
