"""Top-level DRAM simulator: route requests to channels, gather stats."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Tuple

import numpy as np

from repro.dram import columnar
from repro.dram.request import DramAccess
from repro.dram.timing import DDR4_2400_LIKE, DramTiming
from repro.errors import DramError
from repro.obs import metrics, trace


@dataclass(frozen=True)
class DramStats:
    """Aggregate outcome of replaying one trace."""

    num_requests: int
    num_reads: int
    num_writes: int
    first_cycle: int
    last_finish_cycle: int
    total_latency: int
    row_hits: int
    bytes_moved: int

    @property
    def span_cycles(self) -> int:
        """Cycles from first arrival to last completion."""
        return max(1, self.last_finish_cycle - self.first_cycle)

    @property
    def achieved_bandwidth(self) -> float:
        """Bytes per cycle actually sustained over the trace span."""
        return self.bytes_moved / self.span_cycles

    @property
    def avg_latency(self) -> float:
        return self.total_latency / max(1, self.num_requests)

    @property
    def row_hit_rate(self) -> float:
        return self.row_hits / max(1, self.num_requests)


class DramSimulator:
    """Replay a (cycle, address, is_write) trace through the device model.

    The replay runs on the columnar fast path (:mod:`repro.dram.columnar`);
    :class:`~repro.dram.channel.Channel` is its scalar reference.
    """

    def __init__(self, timing: DramTiming = DDR4_2400_LIKE, reorder_window: int = 8):
        self.timing = timing
        self.reorder_window = reorder_window

    def run(self, requests: Iterable[DramAccess]) -> DramStats:
        """Service the whole trace and return aggregate statistics.

        Accepts :class:`DramAccess`, :class:`repro.engine.tracefiles.DramRequest`
        or any record with ``cycle``, ``address`` and ``is_write``.
        """
        stats, served = self._replay(requests, log=metrics.enabled)
        if metrics.enabled:
            metrics.counter("dram.requests").add(stats.num_requests)
            metrics.counter("dram.row_hits").add(stats.row_hits)
            metrics.counter("dram.bytes_moved").add(stats.bytes_moved)
            metrics.counter("dram.stall_cycles").add(stats.total_latency)
            latency = metrics.histogram("dram.request_latency")
            for channel_log in served:
                for arrival, finish in channel_log:
                    latency.observe(finish - arrival)
        return stats

    def service_log(
        self, requests: Iterable[DramAccess]
    ) -> Tuple[DramStats, List[List[Tuple[int, int]]]]:
        """:meth:`run` without metrics, plus the ``(arrival, finish)``
        cycles of every request in service order, one list per non-empty
        channel in channel order."""
        return self._replay(requests, log=True)

    def _replay(
        self, requests: Iterable[DramAccess], log: bool
    ) -> Tuple[DramStats, List[List[Tuple[int, int]]]]:
        all_requests = requests if isinstance(requests, list) else list(requests)
        if not all_requests:
            raise DramError("empty DRAM trace")
        timing = self.timing
        served: List[List[Tuple[int, int]]] = []
        last_finish = total_latency = row_hits = 0
        with trace.span(
            "dram.run", requests=len(all_requests), channels=timing.num_channels
        ):
            with trace.span("dram.decode"):
                columns = columnar.decode_columns(all_requests, timing)
                orders = columnar.channel_orders(columns, timing.num_channels)
            for channel, order in enumerate(orders):
                if not order.size:
                    continue
                channel_log: List[Tuple[int, int]] = []
                with trace.span("dram.channel", channel=channel) as span:
                    totals = columnar.service_channel(
                        timing,
                        self.reorder_window,
                        columns.cycle[order].tolist(),
                        columns.bank[order].tolist(),
                        columns.row[order].tolist(),
                        columns.is_write[order].tolist(),
                        channel_log if log else None,
                    )
                    span.set(
                        requests=int(order.size),
                        row_hits=totals.row_hits,
                        total_latency=totals.total_latency,
                    )
                served.append(channel_log)
                last_finish = max(last_finish, totals.last_finish)
                total_latency += totals.total_latency
                row_hits += totals.row_hits

        num_writes = int(np.count_nonzero(columns.is_write))
        stats = DramStats(
            num_requests=len(all_requests),
            num_reads=len(all_requests) - num_writes,
            num_writes=num_writes,
            first_cycle=int(columns.cycle.min()),
            last_finish_cycle=last_finish,
            total_latency=total_latency,
            row_hits=row_hits,
            bytes_moved=len(all_requests) * timing.line_bytes,
        )
        return stats, served

    def sustainable(self, demanded_bandwidth: float) -> bool:
        """Quick feasibility check against the device's peak bandwidth."""
        return demanded_bandwidth <= self.timing.peak_bandwidth
