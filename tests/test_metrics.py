import math

import pytest
from hypothesis import given, strategies as st

from splitfov.client import ClientFrameRecord
from splitfov.metrics import (
    fps_display,
    improvement_pct,
    iqr,
    mbps,
    median,
    read_csv,
    render_profile,
    write_csv,
)
from splitfov.server import ServerFrameTiming


def client_rec(frame_id, total, network=0.0, rx=0, **kw):
    base = dict(draw_ms=1.0, network_ms=network, decode_ms=2.0, merge_ms=0.5,
                total_ms=total, bytes_received=rx)
    base.update(kw)
    return ClientFrameRecord(frame_id=frame_id, **base)


class TestQuantiles:
    def test_even_count_interpolates(self):
        assert median([1, 2, 3, 4]) == 2.5
        assert iqr([1, 2, 3, 4]) == pytest.approx(1.5)

    def test_odd_count(self):
        assert median([1, 2, 3]) == 2.0
        assert iqr([1, 2, 3]) == pytest.approx(1.0)

    def test_single_sample(self):
        assert median([7.5]) == 7.5
        assert iqr([7.5]) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            median([])
        with pytest.raises(ValueError):
            iqr([])

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
                    min_size=1, max_size=50))
    def test_median_within_range(self, xs):
        m = median(xs)
        assert min(xs) <= m <= max(xs)
        assert iqr(xs) >= 0


class TestRates:
    def test_reference_link_rate(self):
        # 441509 bytes over a 4.99 ms window
        assert mbps(441509, 0.00499) == pytest.approx(707.83, abs=0.1)

    def test_simple_case(self):
        # 1 MB in one second = 8 Mbit/s
        assert mbps(1_000_000, 1.0) == 8.0

    def test_zero_window_rejected(self):
        with pytest.raises(ValueError):
            mbps(100, 0.0)


class TestImprovement:
    def test_reference_medians(self):
        assert improvement_pct(32.2, 26.17) == pytest.approx(23.04, abs=0.05)

    def test_no_change(self):
        assert improvement_pct(10.0, 10.0) == 0.0

    def test_regression_is_negative(self):
        assert improvement_pct(10.0, 20.0) == -50.0

    def test_positive_inputs_required(self):
        with pytest.raises(ValueError):
            improvement_pct(0.0, 5.0)


class TestFps:
    def test_reference_frame_rates(self):
        assert fps_display(32.2) == 31
        assert fps_display(26.17) == 38

    def test_exact_division(self):
        assert fps_display(20.0) == 50

    @pytest.mark.parametrize("bad", [0.0, -5.0])
    def test_rejects_non_positive_frame_time(self, bad):
        with pytest.raises(ValueError, match="median_total_ms must be positive"):
            fps_display(bad)


def value_row(text, header):
    """The cells of the line under the table header that starts with `header`."""
    lines = text.splitlines()
    i = next(k for k, line in enumerate(lines) if line.strip().startswith(header))
    return lines[i + 1].split()


class TestSummarize:
    """The numbers `render_profile` aggregates from per-frame records."""

    def test_stage_medians(self):
        recs = [client_rec(i, total=10.0 + i, network=2.0, rx=1000) for i in range(5)]
        text = render_profile(recs)
        assert text.splitlines()[:2] == [
            "Client profile (5 frames, all times median ms)",
            f"  end-to-end: 12.00 ms/frame ({fps_display(12.0)} fps, IQR = 2.000)",
        ]
        assert value_row(text, "Server Dims  Network") == ["-", "2.00", "2.00", "0.50", "4.00"]
        assert text.splitlines()[-1] == "  (draw 1.00 ms)"

    def test_mbps_median_skips_zero_network_frames(self):
        recs = [
            client_rec(0, total=10.0, network=0.0, rx=0),
            client_rec(1, total=10.0, network=1.0, rx=125_000),  # 1000 Mbps
            client_rec(2, total=10.0, network=1.0, rx=62_500),   # 500 Mbps
        ]
        assert value_row(render_profile(recs), "Server Dims  Network")[-1] == "750.00"

    def test_all_local_frames_have_no_rate(self):
        assert value_row(render_profile([client_rec(0, total=5.0)]),
                         "Server Dims  Network")[-1] == "-"

    def test_server_stages(self):
        srecs = [ServerFrameTiming(i, 4.0 + i, 15.0, 0.5, 40_000) for i in range(3)]
        text = render_profile([client_rec(0, total=9.0)], srecs, dims="512x360")
        assert value_row(text, "Server Dims  Network")[0] == "512x360"
        assert value_row(text, "Server Dims  Draw Time") == ["512x360", "5.00", "15.00"]
        assert text.splitlines()[-1] == "  (send 0.50 ms)"

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no records to profile"):
            render_profile()
        with pytest.raises(ValueError, match="no records to profile"):
            render_profile([], [])


class TestRenderTable:
    def test_contains_headline_and_stages(self):
        recs = [client_rec(i, total=26.17, network=4.99, decode_ms=18.64,
                           merge_ms=0.96, rx=441509) for i in range(4)]
        srecs = [ServerFrameTiming(i, 4.42, 15.33, 0.2, 441509) for i in range(4)]
        text = render_profile(recs, srecs, "512x360")
        assert "26.17" in text
        assert "38 fps" in text
        assert "18.64" in text
        assert "512x360" in text
        assert "Draw Time" in text and "Encode Time" in text
        assert "707.8" in text

    def test_native_table_has_no_server_half(self):
        text = render_profile([client_rec(0, total=7.0)])
        assert "Server profile" not in text


class TestCsv:
    def test_client_round_trip(self, tmp_path):
        recs = [client_rec(i, total=10.0 + i * 0.1, network=1.234567891234,
                           rx=100 + i) for i in range(7)]
        p = str(tmp_path / "c.csv")
        write_csv(recs, p)
        assert read_csv(p, ClientFrameRecord) == recs

    def test_server_round_trip(self, tmp_path):
        recs = [ServerFrameTiming(i, 4.42, 15.33, 0.5, 441509) for i in range(3)]
        p = str(tmp_path / "s.csv")
        write_csv(recs, p)
        assert read_csv(p, ServerFrameTiming) == recs

    def test_header_mismatch_rejected(self, tmp_path):
        recs = [ServerFrameTiming(0, 1.0, 2.0, 3.0, 4)]
        p = str(tmp_path / "s.csv")
        write_csv(recs, p)
        with pytest.raises(ValueError):
            read_csv(p, ClientFrameRecord)
        with open(p, "w", encoding="ascii") as f:  # every name, one of them twice
            f.write("frame_id,draw_ms,encode_ms,send_ms,bytes_sent,send_ms\n")
        with pytest.raises(ValueError):
            read_csv(p, ServerFrameTiming)

    def test_empty_write_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_csv([], str(tmp_path / "x.csv"))
