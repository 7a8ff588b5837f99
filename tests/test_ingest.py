import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trafficast.errors import ParseError, ValidationError
from trafficast.ingest import (
    PacketTrace,
    bin_to_rate,
    load_packet_trace,
    load_series_csv,
    write_series_csv,
)
from trafficast.rng import uniform_stream
from trafficast.series import TimeSeries

import reference


def packet_csv(rows, header="time,protocol"):
    return io.StringIO(header + "\n" + "\n".join(f"{t},{p}" for t, p in rows) + ("\n" if rows else ""))


class TestLoadPacketTrace:
    def test_filters_non_tcp_udp(self):
        trace = load_packet_trace(packet_csv([(0.0, "TCP"), (0.5, "UDP"), (0.7, "ICMP")]))
        assert len(trace) == 2
        assert trace.protocols == ("TCP", "UDP")

    def test_empty_body_gives_empty_trace(self):
        assert len(load_packet_trace(packet_csv([]))) == 0

    def test_unsorted_timestamps_are_sorted(self):
        trace = load_packet_trace(packet_csv([(1.0, "TCP"), (0.2, "TCP")]))
        assert trace.timestamps.tolist() == [0.2, 1.0]

    def test_filter_can_be_disabled(self):
        trace = load_packet_trace(
            packet_csv([(0.0, "TCP"), (0.7, "ICMP")]), filter_protocols=False
        )
        assert trace.protocols == ("TCP", "other")

    def test_case_insensitive_protocols(self):
        trace = load_packet_trace(packet_csv([(0.0, "tcp"), (0.1, "udp")]))
        assert trace.protocols == ("TCP", "UDP")

    def test_malformed_time_reports_line(self):
        with pytest.raises(ParseError, match="line 3"):
            load_packet_trace(packet_csv([(0.0, "TCP"), ("oops", "TCP")]))

    def test_negative_timestamp_rejected(self):
        with pytest.raises(ValidationError, match="negative"):
            load_packet_trace(packet_csv([(-1.0, "TCP")]))

    def test_missing_header_column(self):
        with pytest.raises(ParseError, match="line 1"):
            load_packet_trace(io.StringIO("a,b\n1,TCP\n"))

    def test_unknown_format_rejected(self):
        with pytest.raises(ValidationError):
            load_packet_trace(packet_csv([]), fmt="pcap")


class TestBinToRate:
    def test_basic_counting(self):
        trace = PacketTrace(np.array([0.1, 0.2, 1.5]), ("TCP",) * 3)
        assert bin_to_rate(trace, 1.0).values.tolist() == [2.0, 1.0]

    def test_single_packet(self):
        trace = PacketTrace(np.array([0.0]), ("TCP",))
        series = bin_to_rate(trace, 1.0)
        assert series.values.tolist() == [1.0]
        assert series.dt == 1.0

    def test_uniform_timestamps_match_brute_force(self):
        ts = np.sort(10.0 * uniform_stream(seed=31, n=1000))
        trace = PacketTrace(ts, ("UDP",) * 1000)
        series = bin_to_rate(trace, 1.0)
        assert series.values.tolist() == reference.count_per_bin(ts, 1.0)
        assert series.values.sum() == 1000

    def test_empty_trace_rejected(self):
        with pytest.raises(ValidationError, match="empty"):
            bin_to_rate(PacketTrace(np.empty(0), ()), 1.0)

    def test_nonpositive_width_rejected(self):
        trace = PacketTrace(np.array([0.0]), ("TCP",))
        with pytest.raises(ValidationError):
            bin_to_rate(trace, 0.0)

    @settings(max_examples=60, deadline=None)
    @given(
        times=st.lists(
            st.floats(min_value=0.0, max_value=500.0, allow_nan=False),
            min_size=1,
            max_size=100,
        ),
        width=st.floats(min_value=0.05, max_value=20.0, allow_nan=False),
    )
    def test_counts_sum_to_packet_count(self, times, width):
        trace = PacketTrace(np.sort(times), ("TCP",) * len(times))
        assert bin_to_rate(trace, width).values.sum() == len(times)

    def test_permutation_invariance(self):
        rows = [(3.0, "TCP"), (0.5, "UDP"), (2.2, "TCP"), (0.6, "UDP")]
        shuffled = [rows[2], rows[0], rows[3], rows[1]]
        a = bin_to_rate(load_packet_trace(packet_csv(rows)), 1.0)
        b = bin_to_rate(load_packet_trace(packet_csv(shuffled)), 1.0)
        assert a.values.tolist() == b.values.tolist()


class TestSeriesCsv:
    def test_loads_values_with_default_dt(self):
        series = load_series_csv(io.StringIO("value\n3\n1\n4\n"))
        assert series.values.tolist() == [3.0, 1.0, 4.0]
        assert series.dt == 1.0
        assert (series.scale_mean, series.scale_std, series.log1p) == (0.0, 1.0, False)

    def test_header_only_is_an_error(self):
        with pytest.raises(ParseError, match="empty series"):
            load_series_csv(io.StringIO("value\n"))

    def test_bad_value_reports_line(self):
        with pytest.raises(ParseError, match="line 4"):
            load_series_csv(io.StringIO("value\n1.0\n2.0\nabc\n"))

    def test_dt_metadata_honoured(self):
        series = load_series_csv(io.StringIO("# dt=0.5\nvalue\n1\n2\n"))
        assert series.dt == 0.5

    def test_missing_header(self):
        with pytest.raises(ParseError):
            load_series_csv(io.StringIO(""))

    def test_round_trip_is_exact(self):
        values = np.array([1 / 3, np.pi, 1e-17, 12345.678901234567, 0.1])
        original = TimeSeries(
            values, dt=0.25, origin=3.5, scale_mean=-1 / 7, scale_std=0.3, log1p=True
        )
        buf = io.StringIO()
        write_series_csv(original, buf)
        reloaded = load_series_csv(io.StringIO(buf.getvalue()))
        assert reloaded.values.tolist() == original.values.tolist()
        for name in ("dt", "origin", "scale_mean", "scale_std", "log1p"):
            assert getattr(reloaded, name) == getattr(original, name), name


class TestTimeSeriesInvariants:
    def test_rejects_nan(self):
        with pytest.raises(ValidationError):
            TimeSeries(np.array([1.0, np.nan]))

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            TimeSeries(np.empty(0))

    def test_rejects_inf(self):
        with pytest.raises(ValidationError):
            TimeSeries(np.array([np.inf]))

    def test_rejects_zero_scale_std(self):
        with pytest.raises(ValidationError):
            TimeSeries(np.array([1.0]), scale_std=0.0)

    def test_rejects_bad_dt(self):
        with pytest.raises(ValidationError):
            TimeSeries(np.array([1.0]), dt=0.0)

    def test_values_are_read_only(self):
        series = TimeSeries(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            series.values[0] = 9.0
