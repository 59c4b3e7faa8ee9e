import argparse
import dataclasses
import math
import os
import re
import socket
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from splitfov import cli, client, metrics, wire
from splitfov.camera import CameraPath, CameraRig
from splitfov.cli import build_parser, main, parse_cli
from splitfov.codec import CodecId
from splitfov.render import SceneConfig, SceneId
from splitfov.server import run_server
from splitfov.sim import CostModel, NetModel
from splitfov.wire import SubframeMsg, read_msg, write_msg

TINY = ["--size", "160x80", "--fovea", "32x24", "--scale", "0.5"]
# The server draws 40 of each fovea's 80 rows at this geometry.
SPLIT = ["--size", "160x80", "--fovea", "80x80", "--scale", "0.25"]
ROOT = Path(__file__).resolve().parent.parent
COST_FLAGS = {
    "--cost-server-draw": "server_draw", "--cost-encode": "encode",
    "--cost-client-draw": "client_draw", "--cost-decode": "decode",
    "--cost-merge": "merge", "--us-per-ray": "us_per_ray",
}


class TestDefaults:
    def test_sim_defaults_to_full_size_geometry(self):
        config = parse_cli(["compare"])
        s = config.spec
        assert (s.full_w, s.full_h) == (2400, 1080)
        assert (s.fov_w, s.fov_h) == (512, 360)
        assert s.periph_scale == pytest.approx(0.6)
        assert config.path.frame_count == 1000
        assert config.codec == CodecId.PRED_DEFLATE

    def test_geometry_flags(self):
        config = parse_cli(["compare", "--size", "600x270", "--fovea", "128x90",
                            "--scale", "0.5", "--frames", "12"])
        s = config.spec
        assert (s.full_w, s.full_h, s.fov_w, s.fov_h) == (600, 270, 128, 90)
        assert s.periph_scale == 0.5
        assert config.path.frame_count == 12

    def test_codec_and_scene_choices(self):
        config = parse_cli(["compare", "--codec", "raw", "--scene", "empty"])
        assert config.codec == CodecId.RAW
        assert config.scene.scene_id == SceneId.EMPTY

    def test_net_flags(self):
        config = parse_cli(["compare", "--latency", "7.5", "--bandwidth", "inf"])
        assert config.net.latency_ms == 7.5
        assert math.isinf(config.net.bandwidth_mbps)

    def test_cost_models(self):
        fixed = parse_cli(["compare", "--cost-server-draw", "9"])
        assert isinstance(fixed.cost, CostModel)
        assert fixed.cost.server_draw == 9.0
        ray = parse_cli(["compare", "--us-per-ray", "2.5"])
        assert isinstance(ray.cost, CostModel)
        assert ray.cost.us_per_ray == 2.5

    def test_cost_defaults_per_subcommand(self):
        # compare is the one subcommand with a cost model
        assert parse_cli(["compare"]).cost == cli.RAY_COST == CostModel(
            server_draw=0.0, encode=0.0, client_draw=0.0, decode=0.0, merge=0.0, us_per_ray=1.0
        )

    def test_one_cost_flag_per_model_field(self):
        assert sorted(COST_FLAGS.values()) == sorted(f.name for f in dataclasses.fields(CostModel))

    def test_every_cost_flag_reaches_the_model(self):
        # each flag is honoured, none silently ignored
        for flag, field in COST_FLAGS.items():
            assert getattr(parse_cli(["compare", flag, "7.5"]).cost, field) == 7.5, flag

    def test_defaults_come_from_the_models(self):
        config = parse_cli(["compare"])
        assert config.path == CameraPath()
        assert config.net == NetModel()

    def test_report_config(self, tmp_path):
        p = str(tmp_path / "a.csv")
        config = parse_cli(["report", p])
        assert config.mode == "report"
        assert config.inputs == [p]


class TestUsageErrors:
    def test_oversized_fovea_lists_violation(self, capsys):
        with pytest.raises(SystemExit) as e:
            parse_cli(["compare", "--fovea", "1300x360"])
        assert e.value.code == 2
        assert "foveal width exceeds eye width" in capsys.readouterr().err

    def test_zero_frames(self):
        with pytest.raises(SystemExit) as e:
            parse_cli(["compare", "--frames", "0"])
        assert e.value.code == 2

    def test_geometry_beyond_the_wire(self, capsys):
        with pytest.raises(SystemExit) as e:
            parse_cli(["compare", "--size", "140000x32", "--fovea", "16x16"])
        assert e.value.code == 2
        assert "u16 limit" in capsys.readouterr().err

    def test_bad_dims_format(self):
        with pytest.raises(SystemExit) as e:
            parse_cli(["compare", "--size", "600by270"])
        assert e.value.code == 2

    def test_net_flags_rejected_outside_sim(self):
        with pytest.raises(SystemExit) as e:
            parse_cli(["native", "--latency", "3"])
        assert e.value.code == 2
        with pytest.raises(SystemExit) as e:
            parse_cli(["client", "--bandwidth", "100"])
        assert e.value.code == 2

    def test_report_needs_inputs(self):
        with pytest.raises(SystemExit) as e:
            parse_cli(["report"])
        assert e.value.code == 2

    def test_unknown_clock(self):
        with pytest.raises(SystemExit) as e:
            parse_cli(["compare", "--clock", "sundial"])
        assert e.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["native", "--server-csv", "x.csv"],
        ["client", "--server-csv", "x.csv"],
        ["native", "--clock", "virtual"],
        ["compare", "--path", "orbit"],
        ["native", "--codec", "raw"],
        ["compare", "--ppm-every", "2"],
    ])
    def test_flags_that_would_do_nothing_are_refused(self, argv):
        with pytest.raises(SystemExit) as e:
            parse_cli(argv)
        assert e.value.code == 2

    @pytest.mark.parametrize("argv", [
        *([mode, "--summary", "x.txt"] for mode in ("client", "native", "server", "compare")),
        *([mode, flag, "1"] for mode in ("native", "compare")
          for flag in ("--cost-pose", "--cost-display")),
        # compare runs on the virtual clock only
        ["compare", "--clock", "wall"],
        ["compare", "--clock", "virtual"],
    ])
    def test_removed_flags_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as e:
            parse_cli(argv)
        assert e.value.code == 2
        assert f"unrecognized arguments: {argv[1]}" in capsys.readouterr().err

    def test_the_removed_sim_mode_is_a_usage_error(self, capsys):
        # `compare` runs the modeled session and prints its split tables
        with pytest.raises(SystemExit) as e:
            parse_cli(["sim", *TINY])
        assert e.value.code == 2
        assert "invalid choice: 'sim'" in capsys.readouterr().err

    @pytest.mark.parametrize("every", ["0", "-3"])
    def test_ppm_every_below_one(self, every, capsys):
        with pytest.raises(SystemExit) as e:
            parse_cli(["compare", "--ppm-dir", "frames", "--ppm-every", every])
        assert e.value.code == 2
        assert f"--ppm-every must be at least 1, got {every}" in capsys.readouterr().err

    @pytest.mark.parametrize("scale", ["1e-20", "1e-46"])
    def test_scale_below_the_least_periphery(self, scale, capsys):
        with pytest.raises(SystemExit) as e:
            parse_cli(["compare", "--size", "64x32", "--fovea", "8x8", "--frames", "1",
                       "--scale", scale])
        assert e.value.code == 2
        assert "peripheral scale must be at least 1/65535" in capsys.readouterr().err

    def test_fovea_beyond_the_frame_cap(self, capsys):
        with pytest.raises(SystemExit) as e:
            parse_cli(["compare", "--size", "24000x8000", "--fovea", "12000x8000", "--scale", "0.5"])
        assert e.value.code == 2
        assert "above the wire's frame cap of 67108864 bytes" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["server", "--port", "70000"], ["client", "--port", "-1"]])
    def test_port_out_of_range(self, argv, capsys):
        with pytest.raises(SystemExit) as e:
            parse_cli(argv)
        assert e.value.code == 2
        assert "port must be in [0, 65535]" in capsys.readouterr().err

    def test_negative_latency(self, capsys):
        with pytest.raises(SystemExit) as e:
            parse_cli(["compare", "--latency", "-1"])
        assert e.value.code == 2
        assert "latency_ms must be non-negative" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, error", [
        (["compare", "--latency", "nan"], "latency_ms must be non-negative and finite, got nan"),
        (["compare", "--latency", "inf"], "latency_ms must be non-negative and finite, got inf"),
        (["compare", "--cost-decode", "-20"], "cost decode must be non-negative and finite, got -20.0"),
        (["compare", "--us-per-ray", "nan"], "cost us_per_ray must be non-negative and finite"),
    ])
    def test_models_that_cannot_be_scheduled(self, argv, error, capsys):
        with pytest.raises(SystemExit) as e:
            parse_cli(argv)
        assert e.value.code == 2
        assert error in capsys.readouterr().err

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as e:
            parse_cli(["stream"])
        assert e.value.code == 2

    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as e:
            parse_cli([])
        assert e.value.code == 2


class TestEnvOverrides:
    def test_port_env_is_default(self, monkeypatch):
        monkeypatch.setenv("SPLITFOV_PORT", "4711")
        monkeypatch.setenv("SPLITFOV_HOST", "10.0.0.9")
        config = parse_cli(["client"])
        assert config.port == 4711
        assert config.host == "10.0.0.9"

    def test_explicit_flag_wins(self, monkeypatch):
        monkeypatch.setenv("SPLITFOV_PORT", "4711")
        config = parse_cli(["client", "--port", "5001"])
        assert config.port == 5001


class TestMain:
    def test_sim_runs_clean(self, capsys, tmp_path):
        code = main(["compare", "--size", "160x80", "--fovea", "32x24",
                     "--scale", "0.5", "--frames", "3",
                     "--client-csv", str(tmp_path / "c.csv")])
        out = capsys.readouterr().out
        assert code == 0
        assert "end-to-end" in out
        assert (tmp_path / "c.csv").exists()

    def test_native_runs_clean(self, capsys):
        code = main(["native", "--size", "160x80", "--fovea", "32x24",
                     "--scale", "0.5", "--frames", "2"])
        assert code == 0
        assert "Native baseline" in capsys.readouterr().out

    def test_compare_runs_clean(self, capsys):
        code = main(["compare", "--size", "160x80", "--fovea", "32x24",
                     "--scale", "0.5", "--frames", "2",
                     "--latency", "0", "--bandwidth", "inf"])
        out = capsys.readouterr().out
        assert code == 0
        assert "improvement" in out

    def test_report_round_trip(self, capsys, tmp_path):
        c = str(tmp_path / "c.csv")
        s = str(tmp_path / "s.csv")
        assert main(["compare", "--size", "160x80", "--fovea", "32x24",
                     "--scale", "0.5", "--frames", "3",
                     "--client-csv", c, "--server-csv", s]) == 0
        capsys.readouterr()
        assert main(["report", c, s]) == 0
        out = capsys.readouterr().out
        assert "3 frames" in out
        assert "Draw Time" in out

    def test_report_missing_file_fails(self, capsys, tmp_path):
        code = main(["report", str(tmp_path / "nope.csv")])
        assert code == 1
        assert "error" in capsys.readouterr().err


def server_dims_cells(out: str) -> list[str]:
    """The first cell of the line under each Server Dims header."""
    lines = out.splitlines()
    return [lines[i + 1].split()[0] for i, line in enumerate(lines)
            if line.strip().startswith("Server Dims")]


class TestServerDims:
    """Every profile that has a Server Dims cell shows the rect the server
    draws per eye: the fovea's width by the server's rows."""

    def test_compare(self, capsys):
        assert main(["compare", *SPLIT, "--frames", "2"]) == 0
        # compare's native table has no server: its cell stays "-"
        assert server_dims_cells(capsys.readouterr().out) == ["-", "80x40", "80x40"]

    def test_client(self, capsys):
        ready = threading.Event()
        bound = {}

        def serve():
            run_server("127.0.0.1", 0, CameraRig(),
                       ready=lambda port: (bound.setdefault("port", port), ready.set()))

        worker = threading.Thread(target=serve, daemon=True)
        worker.start()
        assert ready.wait(timeout=10.0)
        assert main(["client", "--port", str(bound["port"]), *SPLIT, "--frames", "2"]) == 0
        worker.join(timeout=30.0)
        assert not worker.is_alive()
        assert server_dims_cells(capsys.readouterr().out) == ["80x40"]

    def test_server(self, capsys, monkeypatch):
        # The server learns the geometry from the hello alone.
        listening = threading.Event()
        bound, codes = {}, []
        serve = cli.run_server

        def spied(*args, ready, **kwargs):
            def tell(port):
                bound["port"] = port
                ready(port)
                listening.set()
            return serve(*args, ready=tell, **kwargs)

        monkeypatch.setattr(cli, "run_server", spied)
        worker = threading.Thread(target=lambda: codes.append(main(["server", "--port", "0"])),
                                  daemon=True)
        worker.start()
        assert listening.wait(timeout=10.0)
        client.run_client("127.0.0.1", bound["port"], parse_cli(["client", *SPLIT]).spec,
                           CodecId.PRED_DEFLATE, SceneConfig(), CameraRig(), CameraPath(frame_count=2))
        worker.join(timeout=30.0)
        assert codes == [0]
        assert server_dims_cells(capsys.readouterr().out) == ["80x40"]


class TestModuleEntryPoint:
    def test_python_dash_m_runs_the_cli(self):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "splitfov", "compare", *TINY, "--frames", "2"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("Native baseline (2 frames, all times median ms)\n")


USAGE_LINE = re.compile(r"  process: \d+ minor faults/frame, \d+\.\d\d ms kernel CPU/frame")


class TestProcessUsage:
    """The server, client and native summaries end with the process's minor
    faults and kernel CPU ms per frame over the run."""

    def test_native(self, capsys):
        assert main(["native", *TINY, "--frames", "2"]) == 0
        assert USAGE_LINE.fullmatch(capsys.readouterr().out.splitlines()[-1])

    def test_without_resource(self, monkeypatch, capsys):
        monkeypatch.setattr(metrics, "resource", None)
        assert main(["native", *TINY, "--frames", "2"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == (
            "  process: - minor faults/frame, - ms kernel CPU/frame")

    def test_server_and_client(self, monkeypatch):
        listening = threading.Event()
        bound, texts = {}, {}

        def spied_run_server(*args, ready, **kwargs):
            def on_ready(port):
                bound["port"] = port
                listening.set()
                ready(port)
            return run_server(*args, ready=on_ready, **kwargs)

        monkeypatch.setattr(cli, "run_server", spied_run_server)
        server_args = parse_cli(["server", "--port", "0"])
        worker = threading.Thread(
            target=lambda: texts.setdefault("server", server_args.run(server_args)), daemon=True)
        worker.start()
        assert listening.wait(timeout=10.0)
        client_args = parse_cli(["client", "--port", str(bound["port"]), *TINY, "--frames", "2"])
        texts["client"] = client_args.run(client_args)
        worker.join(timeout=30.0)
        assert not worker.is_alive()
        for mode in ("server", "client"):
            assert USAGE_LINE.fullmatch(texts[mode].splitlines()[-1]), mode


DESK_RAW = ["--size", "600x270", "--fovea", "128x90", "--frames", "6", "--codec", "raw"]

# The virtual clock's text at the desk geometry. RAW subframes keep every
# byte count, and so the Network and Mbps cells, independent of zlib.
CLIENT_STAGES = "  Server Dims  Network  Decode  Merge  Mbps  "
NATIVE_TABLE = [
    "  end-to-end: 73.15 ms/frame (14 fps, IQR = 0.000)",
    "  Server Dims  Network  Decode  Merge  Mbps",
    "  -            0.00     0.00    0.00   -   ",
    "  (draw 73.15 ms)",
]
SIM_COSTS = ["--cost-server-draw", "5", "--cost-encode", "3", "--cost-client-draw", "6",
             "--cost-decode", "4", "--cost-merge", "1", "--us-per-ray", "0"]
SIM_TABLE = [
    "  end-to-end: 18.11 ms/frame (55 fps, IQR = 0.000)",
    CLIENT_STAGES,
    "  {dims}       1.11     4.00    1.00   499.74",
    "  (draw 6.00 ms)",
    "Server profile (6 frames, all times median ms)",
    "  Server Dims  Draw Time  Encode Time",
    "  {dims}       5.00       3.00       ",
    "  (send 1.11 ms)",
]
SPLIT_TABLE = [
    "  end-to-end: 50.11 ms/frame (20 fps, IQR = 0.000)",
    CLIENT_STAGES,
    "  {dims}       1.11     0.00    0.00   499.74",
    "  (draw 50.11 ms)",
    "Server profile (6 frames, all times median ms)",
    "  Server Dims  Draw Time  Encode Time",
    "  {dims}       23.04      0.00       ",
    "  (send 1.11 ms)",
]


def text(title, table, dims="128x90"):
    """A profile table's lines under its title; `dims` fills the Server Dims cells."""
    return [f"{title} (6 frames, all times median ms)",
            *(line.format(dims=dims.ljust(6)) for line in table)]


class TestPinnedText:
    """The printed text of `compare` and `report` on the virtual clock, byte
    for byte."""

    @staticmethod
    def run(argv, capsys):
        assert main(argv) == 0
        return capsys.readouterr().out

    def test_sim_and_its_report(self, tmp_path, capsys):
        # compare at CostModel()'s fixed costs and no per-ray cost; its split
        # block sits between the native block and the improvement line
        c, s = str(tmp_path / "c.csv"), str(tmp_path / "s.csv")
        out = self.run(["compare", *DESK_RAW, *SIM_COSTS, "--client-csv", c, "--server-csv", s],
                       capsys)
        assert out.split("\n\n")[1] == "\n".join(text("Split client", SIM_TABLE))
        assert self.run(["report", c, s], capsys) == (
            "\n".join(text("Client profile", SIM_TABLE, dims="-")) + "\n")

    def test_compare_and_its_report(self, tmp_path, capsys):
        c, s, n = (str(tmp_path / name) for name in ("c.csv", "s.csv", "n.csv"))
        out = self.run(["compare", *DESK_RAW, "--client-csv", c, "--server-csv", s,
                        "--native-csv", n], capsys)
        assert out == "\n".join([
            *text("Native baseline", NATIVE_TABLE), "",
            *text("Split client", SPLIT_TABLE), "",
            "median end-to-end: native 73.15 ms vs split 50.11 ms -> improvement 45.98%",
        ]) + "\n"
        assert self.run(["report", n], capsys) == (
            "\n".join(text("Client profile", NATIVE_TABLE)) + "\n")
        assert self.run(["report", s, c], capsys) == (
            "\n".join(text("Client profile", SPLIT_TABLE, dims="-")) + "\n")


class TestTypedErrors:
    """A failing session ends in one `error: ...` line and exit 1, never a
    traceback."""

    @staticmethod
    def peer(answer: bytes) -> int:
        """Listens for one client, reads its hello, sends `answer`, then
        reads until the client hangs up. Returns the port."""
        listener = socket.create_server(("127.0.0.1", 0))

        def serve():
            with listener:
                conn, _ = listener.accept()
                with conn:
                    conn.settimeout(10.0)
                    reader = conn.makefile("rb")
                    read_msg(reader)
                    conn.sendall(answer)
                    while reader.read(1):
                        pass
                    reader.close()

        threading.Thread(target=serve, daemon=True).start()
        return listener.getsockname()[1]

    @pytest.mark.parametrize("answer, error", [
        (struct.pack("<I", 2) + b"\x09\x00", "error: unknown message type 0x09\n"),
        (b"".join(write_msg(SubframeMsg(0, band, bytes(9))) for band in (0, 1)),
         "error: RAW payload is 9 bytes, expected 2304\n"),
    ], ids=["protocol", "codec"])
    def test_bad_peer(self, answer, error, capsys):
        port = self.peer(answer)
        code = main(["client", "--port", str(port), *TINY, "--frames", "1", "--codec", "raw"])
        assert code == 1
        assert capsys.readouterr().err == error

    def test_silent_server_times_out(self, monkeypatch, capsys):
        monkeypatch.setattr(wire, "IO_TIMEOUT_S", 0.5)
        with socket.create_server(("127.0.0.1", 0)) as listener:  # never accepts
            t0 = time.monotonic()
            code = main(["client", "--port", str(listener.getsockname()[1]), *TINY,
                         "--frames", "1"])
        assert code == 1
        assert capsys.readouterr().err == "error: timed out\n"
        assert time.monotonic() - t0 < 5.0

    @pytest.mark.parametrize("argv", [
        ["compare", "--latency", "0", "--bandwidth", "inf", "--cost-server-draw", "0",
         "--cost-encode", "0", "--cost-client-draw", "0", "--cost-decode", "0",
         "--cost-merge", "0", "--us-per-ray", "0"],
        ["compare", "--us-per-ray", "0"],
    ], ids=["every-cost-flag", "compare"])
    def test_zero_frame_time(self, argv, capsys):
        assert main([*argv, *TINY, "--frames", "2"]) == 1
        assert capsys.readouterr().err == "error: median_total_ms must be positive, got 0.0\n"


class TestReadme:
    """README and the CLI name the same flags, so a flag cannot be added or
    removed without its documentation following."""

    README = Path(__file__).resolve().parent.parent / "README.md"

    def test_readme_and_cli_name_the_same_flags(self):
        modes = next(a for a in build_parser()._actions
                     if isinstance(a, argparse._SubParsersAction)).choices.values()
        cli = {opt for p in modes for a in p._actions for opt in a.option_strings
               if opt.startswith("--")}
        readme = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", self.README.read_text()))
        readme.discard("--no-build-isolation")  # pip's, in the install steps
        assert cli - readme == set(), "flags the README does not mention"
        assert readme - cli == set(), "README flags no subcommand defines"
