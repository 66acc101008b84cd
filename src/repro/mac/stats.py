"""Per-MAC counters and samples used by the paper's figures.

Figure 2 plots the *average contention window* of each sender; Figure 3 needs
the full CW distribution at transmission attempts (to feed Equations 1-2) and
the RTS sending counts; several tables need retry/drop accounting.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field


@dataclass
class MacStats:
    """Counters for one MAC instance."""

    tx_rts: int = 0
    tx_cts: int = 0
    tx_data: int = 0
    tx_ack: int = 0
    tx_spoofed_ack: int = 0
    tx_fake_ack: int = 0
    retries: int = 0
    drops: int = 0
    queue_drops: int = 0
    msdu_sent: int = 0
    rx_data_clean: int = 0
    rx_data_corrupted: int = 0
    rx_duplicates: int = 0
    acks_ignored_by_grc: int = 0
    # Fault-injection accounting (repro.faults): station crash/reboot events
    # and the MSDUs they cost (queue flushed at crash + arrivals while down).
    crashes: int = 0
    reboots: int = 0
    crash_dropped_msdus: int = 0
    #: Attempts per contention window in force (Figures 2 and 3).
    cw_histogram: Counter = field(default_factory=Counter)
    # Per-destination data-transmission attempts and ACK failures, used by the
    # GRC fake-ACK detector to estimate per-transmission MAC loss rate.
    data_attempts_by_dst: Counter = field(default_factory=Counter)
    ack_failures_by_dst: Counter = field(default_factory=Counter)

    def mac_loss_rate(self, dst: str) -> float:
        """Observed per-transmission loss rate of data frames toward ``dst``."""
        attempts = self.data_attempts_by_dst[dst]
        if attempts == 0:
            return 0.0
        return self.ack_failures_by_dst[dst] / attempts

    def sample_cw(self, cw: int) -> None:
        """Record the contention window in force at a transmission attempt."""
        self.cw_histogram[cw] += 1

    @property
    def average_cw(self) -> float:
        """Mean CW over all attempts (Figure 2 / Table IV metric)."""
        # Integer sums, so the same float as the mean of the samples.
        attempts = sum(self.cw_histogram.values())
        if attempts == 0:
            return 0.0
        return sum(cw * n for cw, n in self.cw_histogram.items()) / attempts

    def as_metrics(self) -> dict[str, float]:
        """Flatten the counters for the telemetry gauge sweep.

        Keys become ``mac.<station>.<metric>`` entries in a
        :class:`repro.obs.TelemetrySnapshot`; set-semantics (gauges) so a
        repeated sweep never double counts.
        """
        return {
            "tx_rts": float(self.tx_rts),
            "tx_cts": float(self.tx_cts),
            "tx_data": float(self.tx_data),
            "tx_ack": float(self.tx_ack),
            "tx_spoofed_ack": float(self.tx_spoofed_ack),
            "tx_fake_ack": float(self.tx_fake_ack),
            "retries_total": float(self.retries),
            "drops_total": float(self.drops),
            "queue_drops": float(self.queue_drops),
            "msdu_sent": float(self.msdu_sent),
            "rx_data_clean": float(self.rx_data_clean),
            "rx_data_corrupted": float(self.rx_data_corrupted),
            "rx_duplicates": float(self.rx_duplicates),
            "acks_ignored_by_grc": float(self.acks_ignored_by_grc),
            "crashes": float(self.crashes),
            "reboots": float(self.reboots),
            "crash_dropped_msdus": float(self.crash_dropped_msdus),
            "avg_cw": self.average_cw,
        }

    def cw_distribution(self) -> dict[int, float]:
        """Empirical Pr[CW = m] over transmission attempts (Equations 1-2)."""
        total = sum(self.cw_histogram.values())
        if total == 0:
            return {}
        return {cw: count / total for cw, count in sorted(self.cw_histogram.items())}
