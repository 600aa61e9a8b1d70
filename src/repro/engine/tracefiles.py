"""Trace-file emission: SCALE-Sim's first output class (Sec. II-E).

Two artifacts are produced:

* **SRAM trace CSVs** — one row per cycle listing the addresses read
  (or written) that cycle, exactly like the original tool's
  ``*_sram_read.csv`` / ``*_sram_write.csv`` files.
* **DRAM request streams** — the prefetch schedule the double-buffer
  model implies, lowered to (cycle, address, is_write) triples that a
  DRAM back-end (:mod:`repro.dram`) can consume.  Fetches for fold
  ``k`` are spread evenly across fold ``k-1``'s execution window;
  writebacks for fold ``k`` across fold ``k+1``'s.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Tuple, Union

import numpy as np

from repro.dataflow.base import AddressLayout, DataflowEngine
from repro.memory.bandwidth import DramTraffic


def write_sram_trace_csv(
    engine: DataflowEngine,
    layout: AddressLayout,
    directory: Union[str, Path],
    prefix: str = "layer",
) -> Tuple[Path, Path]:
    """Write read and write SRAM traces; returns (read_path, write_path).

    Only use for small configurations: the files contain one row per
    cycle with every address touched that cycle.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    read_path = directory / f"{prefix}_sram_read.csv"
    write_path = directory / f"{prefix}_sram_write.csv"
    with read_path.open("w") as reads, write_path.open("w") as writes:
        for row in engine.layer_trace(layout):
            addrs = list(row.ifmap_addrs) + list(row.filter_addrs)
            if addrs:
                reads.write(f"{row.cycle}," + ",".join(map(str, addrs)) + ",\n")
            if row.ofmap_addrs:
                writes.write(f"{row.cycle}," + ",".join(map(str, row.ofmap_addrs)) + ",\n")
    return read_path, write_path


@dataclass(frozen=True)
class DramRequest:
    """One DRAM transaction of ``line_bytes`` at ``cycle``."""

    cycle: int
    address: int
    is_write: bool


def _spread(
    lines: np.ndarray, starts: np.ndarray, lengths: np.ndarray
) -> np.ndarray:
    """Cycles of ``lines[f]`` requests spread evenly over the window
    ``[starts[f], starts[f] + lengths[f])`` of every fold ``f``, folds
    concatenated: request ``j`` of a fold issues at
    ``start + j * length // lines``."""
    first = np.cumsum(lines) - lines
    j = np.arange(int(lines.sum()), dtype=np.int64) - np.repeat(first, lines)
    return np.repeat(starts, lines) + (j * np.repeat(lengths, lines)) // np.repeat(
        np.maximum(lines, 1), lines
    )


def dram_request_stream(
    traffic: DramTraffic,
    layout: AddressLayout,
    line_bytes: int = 64,
) -> Iterator[DramRequest]:
    """Lower a layer's DRAM traffic into a timed request stream.

    Addresses walk each operand region sequentially (prefetches are
    bulk, linear transfers in SCALE-Sim's model); request timestamps
    spread each fold's transfer uniformly over the fold it overlaps
    with.  The stream is ordered by (cycle, is_write, address) and is
    suitable for :class:`repro.dram.DramSimulator`.
    """
    if line_bytes <= 0:
        raise ValueError(f"line_bytes must be positive, got {line_bytes}")
    fold_cycles = np.asarray(traffic.fold_cycles, dtype=np.int64)
    fold_starts = np.cumsum(fold_cycles) - fold_cycles
    total_cycles = fold_starts[-1] + fold_cycles[-1]
    folds = min(len(traffic.ifmap.per_fold_bytes), len(traffic.filter.per_fold_bytes))
    k = np.arange(folds)

    # Fold 0 prefetches before execution (cold start at cycle 0, over
    # fold 0's length); fold k prefetches during fold k-1.
    before = np.maximum(k - 1, 0)
    read_start = fold_starts[before]
    read_len = fold_cycles[before]
    # Fold k's outputs drain during fold k+1 (or right after the end).
    has_next = k + 1 < len(fold_cycles)
    after = np.where(has_next, k + 1, len(fold_cycles) - 1)
    drain_start = np.where(has_next, fold_starts[after], total_cycles)
    drain_len = fold_cycles[after]

    cycles, addresses = [], []
    for offset, per_fold, starts, lengths in (
        (layout.ifmap_offset, traffic.ifmap.per_fold_bytes, read_start, read_len),
        (layout.filter_offset, traffic.filter.per_fold_bytes, read_start, read_len),
        (layout.ofmap_offset, traffic.ofmap_per_fold_bytes, drain_start, drain_len),
    ):
        lines = -(-np.asarray(per_fold[:folds], dtype=np.int64) // line_bytes)
        cycles.append(_spread(lines, starts, lengths))
        # Each operand's cursor walks its region line by line across folds.
        addresses.append(offset + line_bytes * np.arange(int(lines.sum()), dtype=np.int64))
    is_write = np.repeat([False, False, True], [len(c) for c in cycles])
    cycle = np.concatenate(cycles)
    address = np.concatenate(addresses)
    order = np.lexsort((address, is_write, cycle))
    return iter(
        list(
            map(
                DramRequest,
                cycle[order].tolist(),
                address[order].tolist(),
                is_write[order].tolist(),
            )
        )
    )
