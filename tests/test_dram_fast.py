"""The columnar DRAM replay against its scalar reference.

``DramSimulator.run`` replays on :mod:`repro.dram.columnar`; these tests
pin it to :class:`repro.dram.channel.Channel` over the timing variants
the ``dram`` verify property draws from, pin the numpy
``dram_request_stream`` to the per-line loop it replaced, and cover
request validation, stage spans and the ``dram.*`` metrics.
"""

import itertools
import random
from dataclasses import dataclass

import pytest

from repro import obs
from repro.obs import Histogram
from repro.config.hardware import HardwareConfig
from repro.dram.request import DramAccess
from repro.dram.simulator import DramSimulator
from repro.dram.timing import DramTiming
from repro.engine.simulator import Simulator
from repro.engine.tracefiles import DramRequest, dram_request_stream
from repro.errors import DramError
from repro.memory.bandwidth import compute_dram_traffic
from repro.memory.buffers import BufferSet
from repro.verify.dram import random_trace, reference_replay
from repro.verify.harness import run_verify
from repro.workloads.registry import get_workload

VARIANTS = list(
    itertools.product(
        ((600, 80), (0, 350)),  # (t_refi, t_rfc): refresh on / off
        (0, 50),  # t_wtr
        (1, 8, 16),  # reorder window
        (1, 2, 4),  # channels
    )
)


def variant_id(variant):
    (t_refi, _), t_wtr, window, channels = variant
    refresh = "refresh" if t_refi else "norefresh"
    return f"{refresh}-wtr{t_wtr}-w{window}-ch{channels}"


def resnet_traffic(name: str):
    config = HardwareConfig(array_rows=16, array_cols=16)
    simulator = Simulator(config)
    layer = next(layer for layer in get_workload("resnet50") if layer.name == name)
    traffic = compute_dram_traffic(
        simulator.engine(layer), BufferSet.from_config(config), config.word_bytes
    )
    return traffic, simulator.address_layout(layer)


@pytest.mark.parametrize("variant", VARIANTS, ids=variant_id)
def test_fast_replay_equals_channel_reference(variant):
    (t_refi, t_rfc), t_wtr, window, channels = variant
    timing = DramTiming(
        num_channels=channels, banks_per_channel=4, row_bytes=1024,
        t_refi=t_refi, t_rfc=t_rfc, t_wtr=t_wtr,
    )
    trace = random_trace(random.Random(variant_id(variant)), 600)
    expected, _ = reference_replay(trace, timing, window)
    assert DramSimulator(timing, reorder_window=window).run(trace) == expected


@pytest.mark.parametrize("window", [1, 3, 16])
def test_fast_replay_equals_reference_on_a_resnet_stream(window):
    traffic, layout = resnet_traffic("IB2b_1")
    trace = list(itertools.islice(dram_request_stream(traffic, layout), 3000))
    timing = DramTiming(num_channels=2)
    expected, _ = reference_replay(trace, timing, window)
    assert DramSimulator(timing, reorder_window=window).run(trace) == expected


def test_service_log_matches_reference_per_request():
    timing = DramTiming(num_channels=2, t_refi=600, t_rfc=80, t_wtr=50)
    trace = random_trace(random.Random(11), 500)
    _, serviced = reference_replay(trace, timing, 8)
    _, served = DramSimulator(timing, reorder_window=8).service_log(trace)
    flat = [pair for channel_log in served for pair in channel_log]
    assert flat == [(item.request.cycle, item.finish_cycle) for item in serviced]


# ----------------------------------------------------------------------
# dram_request_stream: numpy lowering vs. the per-line loop
# ----------------------------------------------------------------------
def loop_request_stream(traffic, layout, line_bytes=64):
    """The per-line Python loop ``dram_request_stream`` was before it was
    lowered to numpy, kept verbatim as the reference."""
    fold_cycles = traffic.fold_cycles
    fold_starts = [0]
    for cycles in fold_cycles[:-1]:
        fold_starts.append(fold_starts[-1] + cycles)
    total_cycles = fold_starts[-1] + fold_cycles[-1]

    read_cursor = {"ifmap": layout.ifmap_offset, "filter": layout.filter_offset}
    write_cursor = layout.ofmap_offset

    per_fold_reads = [
        (("ifmap", i_bytes), ("filter", f_bytes))
        for i_bytes, f_bytes in zip(traffic.ifmap.per_fold_bytes, traffic.filter.per_fold_bytes)
    ]
    write_bytes_per_fold = list(traffic.ofmap_per_fold_bytes)

    events = []
    for k, reads in enumerate(per_fold_reads):
        window_start = 0 if k == 0 else fold_starts[k - 1]
        window_len = fold_cycles[0] if k == 0 else fold_cycles[k - 1]
        for stream, nbytes in reads:
            lines = -(-nbytes // line_bytes) if nbytes else 0
            for j in range(lines):
                cycle = window_start + (j * window_len) // max(lines, 1)
                events.append(DramRequest(cycle, read_cursor[stream], False))
                read_cursor[stream] += line_bytes
        wb = write_bytes_per_fold[k]
        drain_start = fold_starts[k + 1] if k + 1 < len(fold_starts) else total_cycles
        drain_len = fold_cycles[k + 1] if k + 1 < len(fold_cycles) else fold_cycles[-1]
        lines = -(-wb // line_bytes) if wb else 0
        for j in range(lines):
            cycle = drain_start + (j * drain_len) // max(lines, 1)
            events.append(DramRequest(cycle, write_cursor, True))
            write_cursor += line_bytes

    events.sort(key=lambda req: (req.cycle, req.is_write, req.address))
    return events


@pytest.mark.parametrize("name", ["Conv1", "IB2c_2", "FC1000"])
def test_request_stream_equals_the_loop_on_resnet_layers(name):
    traffic, layout = resnet_traffic(name)
    fast = list(dram_request_stream(traffic, layout))
    assert fast == loop_request_stream(traffic, layout)
    assert all(type(req.cycle) is int and type(req.is_write) is bool for req in fast[:64])


@pytest.mark.parametrize("line_bytes", [16, 64, 256])
def test_request_stream_equals_the_loop_at_other_line_sizes(line_bytes):
    traffic, layout = resnet_traffic("IB2b_1")
    fast = list(dram_request_stream(traffic, layout, line_bytes=line_bytes))
    assert fast == loop_request_stream(traffic, layout, line_bytes=line_bytes)


# ----------------------------------------------------------------------
# Validation of duck-typed records
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Record:
    cycle: int
    address: int
    is_write: bool = False


class TestValidation:
    @pytest.mark.parametrize("field", ["cycle", "address"])
    def test_negative_trace_request_rejected(self, field):
        bad = DramRequest(**{"cycle": 5, "address": 64, "is_write": False, field: -1})
        trace = [DramRequest(0, 0, False), bad]
        with pytest.raises(DramError, match=f"{field} must be non-negative.*request 1"):
            DramSimulator().run(trace)

    def test_negative_duck_typed_record_rejected(self):
        with pytest.raises(DramError, match="address must be non-negative"):
            DramSimulator().run([Record(3, -64)])

    def test_address_beyond_64_bits_rejected(self):
        with pytest.raises(DramError, match="64-bit"):
            DramSimulator().run([Record(0, 2**70)])

    def test_duck_typed_records_replay_like_dram_access(self):
        records = [Record(i, 64 * i, i % 3 == 0) for i in range(50)]
        accesses = [DramAccess(r.cycle, r.address, r.is_write) for r in records]
        assert DramSimulator().run(records) == DramSimulator().run(accesses)

    def test_cli_exit_code_for_dram_error_is_unchanged(self):
        from repro.cli import exit_code_for

        with pytest.raises(DramError) as caught:
            DramSimulator().run([Record(-1, 0)])
        assert exit_code_for(caught.value) == 7


# ----------------------------------------------------------------------
# Observability: stage spans and metrics
# ----------------------------------------------------------------------
@pytest.fixture
def traced():
    obs.trace.clear()
    obs.trace.enable()
    try:
        yield obs.trace
    finally:
        obs.trace.disable()
        obs.trace.clear()


def test_traced_replay_shows_decode_and_channel_spans(traced):
    timing = DramTiming(num_channels=4)
    trace = random_trace(random.Random(5), 400)
    stats = DramSimulator(timing).run(trace)
    records = {name: [r for r in traced.records() if r.name == name]
               for name in ("dram.run", "dram.decode", "dram.channel")}
    assert len(records["dram.run"]) == 1
    assert len(records["dram.decode"]) == 1
    channels = records["dram.channel"]
    assert sorted(r.args["channel"] for r in channels) == [0, 1, 2, 3]
    assert sum(r.args["requests"] for r in channels) == stats.num_requests
    assert sum(r.args["row_hits"] for r in channels) == stats.row_hits
    assert sum(r.args["total_latency"] for r in channels) == stats.total_latency


def test_metrics_match_the_reference_replay():
    timing = DramTiming(num_channels=2)
    trace = random_trace(random.Random(9), 500)
    _, serviced = reference_replay(trace, timing, 8)
    expected = Histogram("dram.request_latency")
    for item in serviced:
        expected.observe(item.latency)
    obs.metrics.clear()
    obs.metrics.enable()
    try:
        stats = DramSimulator(timing).run(trace)
        snapshot = obs.metrics.snapshot()
    finally:
        obs.metrics.disable()
        obs.metrics.clear()
    counters = snapshot["counters"]
    assert counters["dram.requests"] == stats.num_requests
    assert counters["dram.row_hits"] == stats.row_hits
    assert counters["dram.bytes_moved"] == stats.bytes_moved
    assert counters["dram.stall_cycles"] == stats.total_latency
    assert snapshot["histograms"]["dram.request_latency"] == expected.snapshot()


def test_verify_dram_property_passes():
    report = run_verify(budget=30.0, seed=7, max_cases=20, props=["dram"])
    assert report.passed, report.summary()
    assert report.checks_by_prop == {"dram": 20}
