"""The ``dram`` property: the columnar DRAM replay vs. the scalar model.

:class:`~repro.dram.simulator.DramSimulator` replays traces on the
columnar fast path (:mod:`repro.dram.columnar`).  This property pins it
to :class:`~repro.dram.channel.Channel`, the readable per-request
model, on two seeded traces per case:

* a random trace — dense arrivals, read/write runs, streaming and
  scattered addresses — of a length that scales with the case's GEMM,
  so the shrinker minimizes the trace along with the case;
* the case's own prefetch schedule, lowered by
  :func:`~repro.engine.tracefiles.dram_request_stream`.

Each trace is replayed under a device drawn from the case seed:
refresh on (a short ``t_refi``, so short traces cross blackouts) or
off, ``t_wtr`` 0 or 50, reorder window 1, 8 or 16 and 1, 2 or 4
channels.  The checks:

* fast ``DramSimulator.run`` stats equal a reference replay through
  ``Channel.service``;
* every request finishes no earlier than ``arrival + t_cl + t_burst``;
* data-bus bursts on one channel never overlap;
* achieved bandwidth stays within ``timing.peak_bandwidth``;
* with ``reorder_window=1`` every channel serves in arrival order;
* bytes moved equal requests times ``line_bytes``.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import asdict
from typing import List, Sequence, Tuple

from repro.dram.channel import Channel, ServicedRequest
from repro.dram.request import DramAccess, decode
from repro.dram.simulator import DramSimulator, DramStats
from repro.dram.timing import DramTiming
from repro.verify.cases import VerifyCase
from repro.verify.oracles import Violation

#: Longest trace one check replays (the scalar reference is O(n * window)).
MAX_REQUESTS = 400

_REFRESH = ((600, 80), (0, 350))
_T_WTR = (0, 50)
_WINDOWS = (1, 8, 16)
_CHANNELS = (1, 2, 4)


def reference_replay(
    requests: Sequence, timing: DramTiming, window: int
) -> Tuple[DramStats, List[ServicedRequest]]:
    """The scalar model end to end: route each request to its channel
    with :func:`decode`, service every channel with :class:`Channel`."""
    per_channel: List[list] = [[] for _ in range(timing.num_channels)]
    for request in requests:
        per_channel[decode(request.address, timing).channel].append(request)
    serviced: List[ServicedRequest] = []
    for channel_requests in per_channel:
        if channel_requests:
            serviced.extend(Channel(timing, window=window).service(channel_requests))
    stats = DramStats(
        num_requests=len(serviced),
        num_reads=sum(1 for item in serviced if not item.request.is_write),
        num_writes=sum(1 for item in serviced if item.request.is_write),
        first_cycle=min(item.request.cycle for item in serviced),
        last_finish_cycle=max(item.finish_cycle for item in serviced),
        total_latency=sum(item.latency for item in serviced),
        row_hits=sum(1 for item in serviced if item.row_hit),
        bytes_moved=len(serviced) * timing.line_bytes,
    )
    return stats, serviced


def random_trace(rng: random.Random, count: int) -> List[DramAccess]:
    """``count`` requests with bursty arrivals, read/write runs and a
    mix of streaming and scattered line addresses."""
    trace: List[DramAccess] = []
    cycle, cursor, is_write = 0, rng.randrange(1 << 12) * 64, False
    for _ in range(count):
        cycle += rng.choice((0, 0, 1, 2, 5, 40))
        if rng.random() < 0.25:
            is_write = not is_write
        if rng.random() < 0.6:
            cursor += 64
            address = cursor
        else:
            address = rng.randrange(1 << 16) * 64 + rng.randrange(64)
        trace.append(DramAccess(cycle, address, is_write))
    return trace


def stream_trace(case: VerifyCase) -> list:
    """The head of the case's GEMM prefetch schedule on a healthy,
    monolithic array of the case's shape."""
    from repro.engine.simulator import Simulator
    from repro.engine.tracefiles import dram_request_stream
    from repro.memory.bandwidth import compute_dram_traffic
    from repro.memory.buffers import BufferSet

    healthy = case.replace(
        partition_rows=1, partition_cols=1,
        dead_pe_rows=(), dead_pe_cols=(), dead_partitions=(),
    )
    config = healthy.config()
    simulator = Simulator(config)
    layer = healthy.layer()
    traffic = compute_dram_traffic(
        simulator.engine(layer), BufferSet.from_config(config), config.word_bytes
    )
    stream = dram_request_stream(traffic, simulator.address_layout(layer))
    return list(itertools.islice(stream, MAX_REQUESTS))


def dram_variant(case: VerifyCase) -> Tuple[random.Random, DramTiming, int]:
    """The case's seeded generator, device and reorder window."""
    rng = random.Random(f"dram:{case!r}")
    t_refi, t_rfc = rng.choice(_REFRESH)
    timing = DramTiming(
        num_channels=rng.choice(_CHANNELS),
        banks_per_channel=rng.choice((2, 16)),
        row_bytes=rng.choice((1024, 8192)),
        t_refi=t_refi,
        t_rfc=t_rfc,
        t_wtr=rng.choice(_T_WTR),
    )
    return rng, timing, rng.choice(_WINDOWS)


def _check_trace(
    label: str, trace: Sequence, timing: DramTiming, window: int,
    case: VerifyCase,
) -> List[Violation]:
    def violation(message: str, expected=None, actual=None) -> Violation:
        return Violation(
            prop="dram",
            message=f"{label} trace, {len(trace)} requests: {message}",
            expected=expected,
            actual=actual,
            case=case,
            context={"timing": asdict(timing), "window": window},
        )

    simulator = DramSimulator(timing, reorder_window=window)
    fast = simulator.run(trace)
    reference, _ = reference_replay(trace, timing, window)
    found: List[Violation] = []
    if fast != reference:
        found.append(violation("columnar stats diverge from Channel.service",
                               asdict(reference), asdict(fast)))
    if fast.bytes_moved != len(trace) * timing.line_bytes:
        found.append(violation("bytes moved != requests x line_bytes",
                               len(trace) * timing.line_bytes, fast.bytes_moved))
    if fast.achieved_bandwidth > timing.peak_bandwidth:
        found.append(violation("achieved bandwidth above the device peak",
                               timing.peak_bandwidth, fast.achieved_bandwidth))

    _, served = simulator.service_log(trace)
    floor = timing.t_cl + timing.t_burst
    for channel_log in served:
        bus_free = 0
        for arrival, finish in channel_log:
            if finish < arrival + floor:
                found.append(violation("request finished before arrival + t_cl + t_burst",
                                       arrival + floor, finish))
                break
            if finish - timing.t_burst < bus_free:
                found.append(violation("data-bus bursts overlap on one channel",
                                       bus_free, finish - timing.t_burst))
                break
            bus_free = finish

    _, fcfs = DramSimulator(timing, reorder_window=1).service_log(trace)
    for channel_log in fcfs:
        arrivals = [arrival for arrival, _ in channel_log]
        if arrivals != sorted(arrivals):
            found.append(violation("reorder_window=1 served out of arrival order"))
            break
    return found


def prop_dram(case: VerifyCase) -> List[Violation]:
    """Fast DRAM replay == scalar ``Channel`` model, plus device bounds."""
    rng, timing, window = dram_variant(case)
    count = min(MAX_REQUESTS, 4 * (case.m + case.k + case.n))
    violations = _check_trace("random", random_trace(rng, count), timing, window, case)
    stream = stream_trace(case)
    if stream:
        violations += _check_trace("stream", stream, timing, window, case)
    return violations
