"""Columnar DRAM replay: decode the trace once, schedule over plain ints.

:class:`~repro.dram.channel.Channel` is the readable scalar model: it
keeps one object per request and decodes an address every time the
scheduler looks at it.  This module is the same model lowered for
speed, and ``repro verify --props dram`` pins the two together:

* the request list becomes three numpy columns (cycle, address,
  is_write), validated in one vectorized check;
* channel, bank and row are decoded for the whole trace in one pass,
  with the arithmetic of :func:`~repro.dram.request.decode`;
* one stable lexsort orders requests by (channel, cycle), so each
  channel sees the FCFS tie order ``sorted(..., key=cycle)`` gives;
* :func:`service_channel` runs the FR-FCFS scheduler over Python int
  lists with a window-sized pending buffer refilled from the sorted
  stream, and keeps running totals instead of per-request records.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.dram.timing import DramTiming
from repro.errors import DramError


class Columns(NamedTuple):
    """A decoded trace, one entry per request in submission order."""

    cycle: np.ndarray  # int64
    is_write: np.ndarray  # bool
    channel: np.ndarray  # int64
    bank: np.ndarray  # int64
    row: np.ndarray  # int64


class ChannelTotals(NamedTuple):
    """Running totals of one channel's replay."""

    last_finish: int
    total_latency: int
    row_hits: int


def decode_columns(requests: Sequence, timing: DramTiming) -> Columns:
    """Validate and decode any sequence of (cycle, address, is_write)
    records into columns; raises :class:`DramError` on a negative cycle
    or address, or on one too large for a 64-bit column."""
    try:
        cycle = np.array([request.cycle for request in requests], dtype=np.int64)
        address = np.array([request.address for request in requests], dtype=np.int64)
    except OverflowError as exc:
        raise DramError(f"cycle or address out of the 64-bit range: {exc}") from None
    is_write = np.array([request.is_write for request in requests], dtype=bool)
    for name, column in (("cycle", cycle), ("address", address)):
        negative = np.flatnonzero(column < 0)
        if negative.size:
            index = int(negative[0])
            raise DramError(
                f"{name} must be non-negative, got {int(column[index])} "
                f"(request {index})"
            )
    block = address // timing.line_bytes
    rest = block // timing.num_channels
    return Columns(
        cycle=cycle,
        is_write=is_write,
        channel=block % timing.num_channels,
        bank=rest % timing.banks_per_channel,
        row=rest // timing.banks_per_channel // timing.lines_per_row,
    )


def channel_orders(columns: Columns, num_channels: int) -> List[np.ndarray]:
    """Per channel, the request indices in service-queue order: arrival
    cycle, ties in submission order."""
    order = np.lexsort((columns.cycle, columns.channel))
    bounds = np.searchsorted(columns.channel[order], np.arange(num_channels + 1))
    return [order[bounds[c]:bounds[c + 1]] for c in range(num_channels)]


def service_channel(
    timing: DramTiming,
    window: int,
    cycles: List[int],
    banks: List[int],
    rows: List[int],
    writes: List[bool],
    log: Optional[List[Tuple[int, int]]] = None,
) -> ChannelTotals:
    """Replay one channel's queue-ordered requests; bit-for-bit the
    timing of :meth:`Channel.service`.

    ``log``, when given, receives ``(arrival, finish)`` of every
    request in service order.
    """
    t_cl, t_rcd, t_rp, t_ras = timing.t_cl, timing.t_rcd, timing.t_rp, timing.t_ras
    t_burst, t_wtr = timing.t_burst, timing.t_wtr
    t_refi, t_rfc = timing.t_refi, timing.t_rfc
    window = max(1, window)
    # Bank state, indexed by bank; -1 is "no open row" (rows are >= 0).
    open_row = [-1] * timing.banks_per_channel
    ready = [0] * timing.banks_per_channel
    activated = [0] * timing.banks_per_channel
    bus_free = 0
    last_was_write = False
    last_finish = total_latency = row_hits = 0

    # The oldest ``window`` pending requests, in queue order; the rest
    # of the queue is the untouched tail of the sorted stream.
    count = len(cycles)
    pending = list(range(min(window, count)))
    refill = len(pending)

    # A refresh every t_refi cycles blocks all banks for t_rfc: a cycle
    # in a blackout [k*t_refi, k*t_refi + t_rfc), k >= 1, moves to its
    # end.  Written out at each use below, as in Channel._skip_refresh.
    first_refresh = t_refi if t_refi else float("inf")

    while pending:
        # First row hit among the window, never past a request that
        # arrived after the bus frees up (or after the head arrives).
        slot = 0
        horizon = cycles[pending[0]]
        if bus_free > horizon:
            horizon = bus_free
        for position, candidate in enumerate(pending):
            if cycles[candidate] > horizon:
                break
            if open_row[banks[candidate]] == rows[candidate]:
                slot = position
                break
        index = pending.pop(slot)
        if refill < count:
            pending.append(refill)
            refill += 1

        arrival = cycles[index]
        bank = banks[index]
        row = rows[index]
        is_write = writes[index]
        start = ready[bank] if ready[bank] > arrival else arrival
        if start >= first_refresh and start % t_refi < t_rfc:
            start += t_rfc - start % t_refi
        if open_row[bank] == row:
            row_hits += 1
        else:
            if open_row[bank] != -1:
                # Respect tRAS before precharging the currently open row.
                if activated[bank] + t_ras > start:
                    start = activated[bank] + t_ras
                start += t_rp
            start += t_rcd
            if start >= first_refresh and start % t_refi < t_rfc:
                start += t_rfc - start % t_refi
            open_row[bank] = row
            activated[bank] = start

        # Column access, then the burst on the shared data bus; switching
        # the bus from writes back to reads pays the turnaround penalty.
        data_start = start + t_cl
        bus_ready = bus_free + t_wtr if last_was_write and not is_write else bus_free
        if bus_ready > data_start:
            data_start = bus_ready
        if data_start >= first_refresh and data_start % t_refi < t_rfc:
            data_start += t_rfc - data_start % t_refi
        finish = data_start + t_burst
        bus_free = finish
        last_was_write = is_write
        ready[bank] = data_start
        total_latency += finish - arrival
        if finish > last_finish:
            last_finish = finish
        if log is not None:
            log.append((arrival, finish))
    return ChannelTotals(last_finish, total_latency, row_hits)
