#!/usr/bin/env python3
"""From a raw packet log to a packets-per-second series.

Builds a small capture in memory (mixed TCP/UDP/ICMP rows, deliberately
out of order), loads the TCP/UDP timestamps as one sorted array, and bins
them into a uniform rate series.
"""
import io

from trafficast.ingest import bin_to_rate, load_packet_rates, load_packet_trace
from trafficast.rng import uniform_stream

# A fake 30-second capture: 900 TCP/UDP packets plus some ICMP chatter.
times = 30.0 * uniform_stream(seed=7, n=1000)
protocols = ["TCP"] * 600 + ["UDP"] * 300 + ["ICMP"] * 100

rows = "".join(f"{t},{p}\n" for t, p in zip(times, protocols))
csv_text = "time,protocol\n" + rows

timestamps = load_packet_trace(io.StringIO(csv_text))
print(f"loaded {timestamps.size} packets (ICMP rows dropped, timestamps sorted)")
print(f"first at {timestamps[0]:.3f} s, last at {timestamps[-1]:.3f} s")
assert timestamps.size == 900 and (timestamps[1:] >= timestamps[:-1]).all()

series = bin_to_rate(timestamps, bin_width=1.0)
print(f"binned into {len(series)} one-second buckets")
print("first ten rates:", series.values[:10].astype(int).tolist())
print("total packets:  ", int(series.values.sum()))

# One pass straight to bin counts gives the same series, without holding every packet.
assert load_packet_rates(io.StringIO(csv_text)).values.tolist() == series.values.tolist()

# Coarser bins tell the same story at lower resolution.
coarse = bin_to_rate(timestamps, bin_width=5.0)
print("5-second bins:  ", coarse.values.astype(int).tolist())
assert series.values.sum() == coarse.values.sum() == 900
