"""Steady-state invariants: what "healthy under sustained churn" means.

Each rule watches one signal across epochs and, when it crosses its
threshold after warmup, emits a structured :class:`Verdict` (never a
bare string, never an exception — a soak reports every violation it
saw, it does not die at the first).  The rule set:

========================  ==========================================
signal                    verdict when
========================  ==========================================
EFI                       above ``max_efi`` for ``efi_patience``
                          consecutive epochs (compaction lost)
allocation-table entries  windowed-regression slope says monotonic
                          growth after warmup (tracking leak)
escape-map footprint      same regression (escape records leak)
allocated frames          same regression (physical-memory leak)
pause ledger              per-tenant pause sums != charged move
                          cycles (accounting broke)
request latency           p99 cycles-per-request above the SLO
quarantine age            a quarantined range outlived the drain
                          budget (degradation never recovered)
watchdog                  no forward progress / stalled moves
========================  ==========================================

The leak detector is a windowed least-squares regression over the last
``window`` epoch samples, once all of them are past warmup: a service
whose working set is a sliding window should oscillate around a
plateau, so a sustained positive slope (relative to the signal's
magnitude) after warmup is growth that churn cannot explain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional


def windowed_slope(values: List[float], window: int) -> float:
    """Least-squares slope (per epoch) over the last ``window`` samples.

    Returns 0.0 with fewer than two samples.  Exact arithmetic over the
    sample values; no numpy.
    """
    tail = values[-window:]
    n = len(tail)
    if n < 2:
        return 0.0
    mean_x = (n - 1) / 2.0
    mean_y = sum(tail) / n
    num = sum((i - mean_x) * (y - mean_y) for i, y in enumerate(tail))
    den = sum((i - mean_x) ** 2 for i in range(n))
    return num / den


@dataclass(frozen=True)
class Verdict:
    """One steady-state invariant violation, as structured data."""

    name: str
    epoch: int
    detail: str
    value: float
    threshold: float

    def describe(self) -> str:
        return (
            f"[{self.name}] epoch {self.epoch}: {self.detail} "
            f"(value {self.value:g}, threshold {self.threshold:g})"
        )

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "epoch": self.epoch,
            "detail": self.detail,
            "value": self.value,
            "threshold": self.threshold,
        }


@dataclass
class EpochSample:
    """One epoch's telemetry, as the monitor consumes it."""

    epoch: int
    machine_cycles: int
    efi: float
    allocated_frames: int
    table_entries: int
    escape_footprint: int
    escape_pending: int
    completed_requests: int
    #: Cycles-per-request samples observed this epoch (one per tenant
    #: that completed any requests).
    latencies: List[int] = field(default_factory=list)
    quarantined_ranges: int = 0
    oldest_quarantine_age: int = 0
    moves_attempted: int = 0
    moves_committed: int = 0
    moves_degraded: int = 0
    dropped_events: int = 0

    def to_dict(self) -> dict:
        return {
            "epoch": self.epoch,
            "machine_cycles": self.machine_cycles,
            "efi": self.efi,
            "allocated_frames": self.allocated_frames,
            "table_entries": self.table_entries,
            "escape_footprint": self.escape_footprint,
            "escape_pending": self.escape_pending,
            "completed_requests": self.completed_requests,
            "latency_samples": len(self.latencies),
            "quarantined_ranges": self.quarantined_ranges,
            "oldest_quarantine_age": self.oldest_quarantine_age,
            "moves_attempted": self.moves_attempted,
            "moves_committed": self.moves_committed,
            "moves_degraded": self.moves_degraded,
            "dropped_events": self.dropped_events,
        }


class SteadyStateMonitor:
    """Accumulates epoch samples and emits verdicts; see module docstring."""

    #: Signals the windowed-regression leak detector watches.
    LEAK_SIGNALS = ("table_entries", "escape_footprint", "allocated_frames")

    def __init__(
        self,
        *,
        warmup: int = 5,
        window: int = 16,
        max_efi: float = 0.97,
        efi_patience: int = 4,
        slo_p99: int = 0,
        drain_budget: int = 12,
        #: A leak verdict needs the slope to project at least this much
        #: absolute growth over one window AND at least this fraction of
        #: the signal's window mean (guards against flagging a signal
        #: oscillating around a plateau).
        leak_min_growth: float = 8.0,
        leak_min_relative: float = 0.05,
    ) -> None:
        self.warmup = warmup
        self.window = window
        self.max_efi = max_efi
        self.efi_patience = efi_patience
        self.slo_p99 = slo_p99
        self.drain_budget = drain_budget
        self.leak_min_growth = leak_min_growth
        self.leak_min_relative = leak_min_relative
        self.samples: List[EpochSample] = []
        self.verdicts: List[Verdict] = []
        self.latencies: List[int] = []
        self._efi_breaches = 0
        self._flagged: Dict[str, bool] = {}

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------

    def flag(
        self,
        name: str,
        epoch: int,
        detail: str,
        value: float,
        threshold: float,
        *,
        once: bool = True,
    ) -> Optional[Verdict]:
        """Record a verdict (external rules — pause ledger, watchdog —
        report through here too).  ``once`` suppresses repeats of the
        same rule name."""
        if once and self._flagged.get(name):
            return None
        verdict = Verdict(name, epoch, detail, value, threshold)
        self.verdicts.append(verdict)
        self._flagged[name] = True
        return verdict

    def observe(self, sample: EpochSample) -> List[Verdict]:
        """Fold in one epoch; returns any verdicts it triggered."""
        before = len(self.verdicts)
        self.samples.append(sample)
        self.latencies.extend(sample.latencies)
        past_warmup = sample.epoch > self.warmup

        if past_warmup and sample.efi > self.max_efi:
            self._efi_breaches += 1
            if self._efi_breaches >= self.efi_patience:
                self.flag(
                    "efi-bound",
                    sample.epoch,
                    f"EFI above {self.max_efi} for "
                    f"{self._efi_breaches} consecutive epochs",
                    sample.efi,
                    self.max_efi,
                )
        else:
            self._efi_breaches = 0

        # The leak regression sees only post-warmup samples: a window
        # that still holds the start-up ramp would read it as growth.
        tail = self.samples[-self.window:]
        if len(tail) >= self.window and all(
            s.epoch > self.warmup for s in tail
        ):
            for signal in self.LEAK_SIGNALS:
                self._check_leak(signal, tail, sample.epoch)

        if sample.oldest_quarantine_age > self.drain_budget:
            self.flag(
                "degradation-drain",
                sample.epoch,
                "a quarantined range outlived the drain budget "
                "(degradation never recovered)",
                sample.oldest_quarantine_age,
                self.drain_budget,
            )
        return self.verdicts[before:]

    def _check_leak(
        self, signal: str, tail: List[EpochSample], epoch: int
    ) -> None:
        series = [float(getattr(s, signal)) for s in tail]
        slope = windowed_slope(series, self.window)
        mean = sum(series) / len(series)
        projected = slope * self.window
        if projected >= max(
            self.leak_min_growth, self.leak_min_relative * max(mean, 1.0)
        ):
            self.flag(
                f"leak-{signal.replace('_', '-')}",
                epoch,
                f"{signal} grows ~{slope:.2f}/epoch after warmup "
                f"(projected +{projected:.0f} per {self.window}-epoch "
                f"window over a mean of {mean:.0f})",
                slope,
                self.leak_min_growth / self.window,
            )

    # ------------------------------------------------------------------
    # End-of-soak gates
    # ------------------------------------------------------------------

    def percentile_latency(self, fraction: float) -> int:
        from repro.multiproc.scheduler import percentile

        return percentile(self.latencies, fraction)

    def finish(self, epoch: int) -> List[Verdict]:
        """The SLO gate, evaluated over the whole run's latency samples."""
        before = len(self.verdicts)
        if self.slo_p99 and self.latencies:
            p99 = self.percentile_latency(0.99)
            if p99 > self.slo_p99:
                self.flag(
                    "slo-p99",
                    epoch,
                    f"p99 request latency {p99} cycles exceeds the SLO",
                    p99,
                    self.slo_p99,
                )
        return self.verdicts[before:]

    @property
    def ok(self) -> bool:
        return not self.verdicts

    def efi_trajectory(self) -> List[float]:
        return [s.efi for s in self.samples]
