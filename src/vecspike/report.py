"""Run reports: per-layer stats plus cycle, traffic and throughput totals.

Reports serialize to JSON (schema versioned), CSV (one row per layer plus
a totals row) and plain text.  With deterministic mode on, no timestamps
or other environment-dependent fields are emitted, so identical inputs
produce byte-identical reports.

This is the only module that names report keys; a layer's are named once,
in :meth:`LayerReportRow.as_dict`, for both its JSON entry and its CSV row.
"""

from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import dataclass

from .arch import CycleReport
from .memmodel import TrafficLedger

REPORT_SCHEMA = 1

CSV_HEADER = [
    "layer",
    "kind",
    "out_c",
    "out_h",
    "out_w",
    "cycles",
    "warmup_cycles",
    "utilization",
    "spikes",
    "weight_bytes_read",
    "input_spike_bytes_read",
    "output_spike_bytes_written",
]


@dataclass
class LayerReportRow:
    index: int
    kind: str
    out_shape: tuple[int, int, int]
    cycles: int
    warmup_cycles: int
    utilization: float
    spike_count: int
    weight_bytes_read: int = 0
    input_spike_bytes_read: int = 0
    output_spike_bytes_written: int = 0
    boundary_rows_peak: int = 0
    boundary_deposits: int = 0

    def as_dict(self) -> dict:
        """The layer's JSON ``layers`` entry, each key named once; its CSV
        row takes the ``CSV_HEADER`` cells from it."""
        return {
            "layer": self.index,
            "kind": self.kind,
            "out_shape": list(self.out_shape),
            "cycles": self.cycles,
            "warmup_cycles": self.warmup_cycles,
            "utilization": self.utilization,
            "spikes": self.spike_count,
            "weight_bytes_read": self.weight_bytes_read,
            "input_spike_bytes_read": self.input_spike_bytes_read,
            "output_spike_bytes_written": self.output_spike_bytes_written,
            "boundary_rows_peak": self.boundary_rows_peak,
            "boundary_deposits": self.boundary_deposits,
        }


@dataclass
class RunReport:
    """A run's layer rows, cycle totals, DRAM traffic and class counts;
    :meth:`render` writes it as JSON, CSV or text."""

    network: str
    input_shape: tuple[int, int, int]
    time_steps: int
    layers: list[LayerReportRow]
    totals: CycleReport
    traffic: TrafficLedger
    peak_gops: float
    class_counts: list[int]
    oracle_match: bool | None = None  # present only when verification ran
    deterministic: bool = False

    def to_dict(self) -> dict:
        data = {
            "schema": REPORT_SCHEMA,
            "network": self.network,
            "input_shape": list(self.input_shape),
            "timesteps": self.time_steps,
            "layers": [row.as_dict() for row in self.layers],
            "cycle_totals": {
                "total_cycles": self.totals.total_cycles,
                "warmup_cycles": self.totals.warmup_cycles,
                "active_pe_cycles": self.totals.active_pe_cycles,
                "total_pe_cycles": self.totals.total_pe_cycles,
                "utilization": self.totals.utilization,
                "steady_state_utilization": self.totals.steady_state_utilization,
                "achieved_ops": self.totals.achieved_ops,
            },
            "traffic": {
                "tick_batching": True,  # the ledger's only mode
                "layer_fusion": self.traffic.layer_fusion,
                "records": [
                    {
                        "layer": r.layer_index,
                        "kind": r.kind,
                        "note": r.note,
                        "weight_bytes_read": r.weight_bytes_read,
                        "input_spike_bytes_read": r.input_spike_bytes_read,
                        "output_spike_bytes_written": r.output_spike_bytes_written,
                        "total": r.total,
                    }
                    for r in self.traffic.records
                ],
                "weight_total": self.traffic.weight_total,
                "input_total": self.traffic.input_total,
                "output_total": self.traffic.output_total,
                "total_bytes": self.traffic.total_bytes,
            },
            "peak_gops": self.peak_gops,
            "achieved_gops": self.totals.achieved_gops,
            "class_counts": self.class_counts,
        }
        if self.oracle_match is not None:
            data["oracle_match"] = self.oracle_match
        if not self.deterministic:
            data["generated_at"] = time.strftime("%Y-%m-%dT%H:%M:%S")
        return data

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def to_csv(self) -> str:
        out = io.StringIO()
        writer = csv.DictWriter(out, CSV_HEADER, extrasaction="ignore", lineterminator="\n")
        writer.writeheader()
        for row in self.layers:
            cells = row.as_dict()
            cells["out_c"], cells["out_h"], cells["out_w"] = row.out_shape
            cells["utilization"] = f"{row.utilization:.6f}"
            writer.writerow(cells)
        writer.writerow(
            {
                "layer": "TOTAL",
                "cycles": self.totals.total_cycles,
                "warmup_cycles": self.totals.warmup_cycles,
                "utilization": f"{self.totals.utilization:.6f}",
                "spikes": sum(r.spike_count for r in self.layers),
                "weight_bytes_read": self.traffic.weight_total,
                "input_spike_bytes_read": self.traffic.input_total,
                "output_spike_bytes_written": self.traffic.output_total,
            }
        )
        return out.getvalue()

    def to_text(self) -> str:
        lines = [
            f"network: {self.network}",
            f"input shape: {self.input_shape}  time steps: {self.time_steps}",
            "",
            f"{'layer':>5} {'kind':<14} {'output':<14} {'cycles':>10} "
            f"{'util':>7} {'spikes':>10}",
        ]
        for row in self.layers:
            shape = "x".join(str(v) for v in row.out_shape)
            lines.append(
                f"{row.index:>5} {row.kind:<14} {shape:<14} {row.cycles:>10} "
                f"{row.utilization:>7.3f} {row.spike_count:>10}"
            )
        lines += [
            "",
            f"total cycles: {self.totals.total_cycles} "
            f"(warmup {self.totals.warmup_cycles})",
            f"utilization: {self.totals.utilization:.4f} "
            f"(steady-state {self.totals.steady_state_utilization:.4f})",
            f"peak GOPS: {self.peak_gops:.1f}  achieved GOPS: "
            f"{self.totals.achieved_gops:.1f}",
            f"DRAM traffic: {self.traffic.total_bytes} bytes "
            f"({self.traffic.total_bytes / 1024:.3f} KiB), "
            f"fusion {'on' if self.traffic.layer_fusion else 'off'}",
            f"class counts: {self.class_counts}",
        ]
        if self.oracle_match is not None:
            lines.append(
                "oracle match: " + ("exact" if self.oracle_match else "MISMATCH")
            )
        return "\n".join(lines) + "\n"

    def render(self, kind: str) -> str:
        if kind == "json":
            return self.to_json()
        if kind == "csv":
            return self.to_csv()
        if kind == "text":
            return self.to_text()
        raise ValueError(f"unknown report format {kind!r}")
