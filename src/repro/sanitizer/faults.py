"""Deliberate state corruption, to prove the checker has teeth.

Each :class:`FaultInjector` method breaks exactly one cross-layer
invariant the way a real bug would — bypassing the code paths that keep
the structures consistent — and the meta-tests assert the corresponding
:class:`~repro.sanitizer.checker.InvariantChecker` rule flags it.  A
sanitizer that passes clean runs but misses injected faults is
measuring nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.kernel.pagetable import PAGE_SIZE, PTE
from repro.resilience.journal import (
    PAGE_MOVE_STEPS,
    TORN_CAPABLE_STEPS,
)
from repro.resilience.retry import InjectedFault, InjectedHang
from repro.runtime.patching import RegisterSnapshot
from repro.runtime.regions import Region
from repro.sanitizer.shadow import ShadowedEscapeMap

__all__ = [
    "FAULT_KINDS",
    "FaultInjector",
    "FaultPoint",
    "InjectedFault",
    "InjectedHang",
    "ProtocolFaultInjector",
    "parse_fault_points",
    "random_fault_schedule",
]


class FaultInjector:
    """Corrupts one kernel's state, one invariant at a time."""

    def __init__(self, kernel) -> None:
        self.kernel = kernel
        #: Human-readable log of the faults injected, in order.
        self.injected: List[str] = []

    # -- region set -------------------------------------------------------

    def overlap_regions(self, process) -> Region:
        """Append a region overlapping an existing one, bypassing the
        validation ``add``/``replace_all`` perform (the pre-fix
        ``replace_all`` bug).  Detected by ``region-geometry``."""
        regions = process.regions
        victim = regions.regions[0]
        rogue = Region(
            victim.base + max(8, victim.length // 2),
            victim.length,
            victim.perms,
        )
        regions._regions.append(rogue)
        regions._regions.sort(key=lambda r: r.base)
        regions.version += 1
        self.injected.append(f"overlap-regions: {rogue!r} over {victim!r}")
        return rogue

    # -- escape map -------------------------------------------------------

    def drop_escape(self, process) -> Tuple[int, int]:
        """Silently forget one resolved escape record, the way a missed
        ``record()`` call would.  The drop goes to the *primary* map only,
        so it is detectable by ``escape-shadow`` (which is the point: no
        other structure knows the record existed)."""
        runtime = process.runtime
        runtime.flush_escapes()
        escapes = runtime.escapes
        primary = (
            escapes._primary
            if isinstance(escapes, ShadowedEscapeMap)
            else escapes
        )
        for base, locations in sorted(primary.resolved_items()):
            if locations:
                location = min(locations)
                primary.discard(base, location)
                self.injected.append(
                    f"drop-escape: cell {location:#x} of allocation {base:#x}"
                )
                return base, location
        raise ValueError("no resolved escape record to drop")

    # -- registers --------------------------------------------------------

    def skip_register_patch(
        self,
        process,
        allocation=None,
        snapshot: Optional[RegisterSnapshot] = None,
    ) -> RegisterSnapshot:
        """Move the page under a live pointer register without patching
        the register (the snapshot is withheld from the move).  The
        returned snapshot still aims at the old location; feeding it to a
        check is detected by ``register-coverage``."""
        runtime = process.runtime
        if allocation is None:
            allocation = next(
                a for a in runtime.table if a.kind == "heap"
            )
        if snapshot is None:
            # Aim inside the allocation (not at its base): a base pointer
            # at a page boundary is indistinguishable from a legitimate
            # one-past-end pointer into the preceding region, which the
            # coverage rule must tolerate.
            interior = allocation.address + allocation.size // 2
            snapshot = RegisterSnapshot(99, {"rax": interior}, {"rax"})
        page = allocation.address & ~(PAGE_SIZE - 1)
        self.kernel.request_page_move(process, page, 1)
        held = ", ".join(
            f"{snapshot.slots[name]:#x}" for name in sorted(snapshot.pointer_slots)
        )
        self.injected.append(
            f"skip-register-patch: moved page {page:#x}, register still "
            f"holds {held}"
        )
        return snapshot

    # -- TLB --------------------------------------------------------------

    def stale_tlb(self, process) -> int:
        """Plant a DTLB entry whose frame disagrees with the page table
        (a missed shootdown).  Detected by ``tlb``."""
        vpn, pte = next(iter(process.page_table.entries()))
        bogus = PTE(pfn=pte.pfn + 1, flags=pte.flags)
        process.mmu.dtlb.insert(vpn, bogus)
        self.injected.append(
            f"stale-tlb: vpn {vpn:#x} cached with frame {bogus.pfn} "
            f"(page table says {pte.pfn})"
        )
        return vpn

    # -- frames -----------------------------------------------------------

    def leak_frame(self) -> int:
        """Allocate a frame and forget it — no page table maps it, no
        region covers it.  Detected by ``frame-ownership``."""
        frame = self.kernel.frames.alloc()
        self.injected.append(f"leak-frame: frame {frame}")
        return frame

    # -- translation-client leases ----------------------------------------

    def move_into_lease(self, process) -> int:
        """Forge a queued move whose *destination* sits inside a live
        translation-client lease, bypassing the admission check that
        refuses exactly this (the way a racing enqueue-vs-translate bug
        would).  The flip would land bytes under an agent's guard-free
        stream.  Detected by ``dma-pin``."""
        from repro.resilience.movequeue import MoveRequest

        agents = self.kernel.agents
        queue = self.kernel.move_queue
        if agents is None:
            raise ValueError("kernel has no AgentMediator attached")
        if queue is None:
            raise ValueError("kernel has no MoveQueue attached")
        leases = agents.live_leases()
        if not leases:
            raise ValueError("no live lease to collide with")
        lease = leases[0]
        destination = lease.lo & ~(PAGE_SIZE - 1)
        victim = next(
            a for a in process.runtime.table if a.kind == "heap" and a.live
        )
        forged = MoveRequest(
            process=process,
            lo=victim.address & ~(PAGE_SIZE - 1),
            page_count=1,
            destination=destination,
            destination_claimed=True,
        )
        queue.pending.append(forged)  # straight past enqueue()'s admission
        self.injected.append(
            f"move-into-lease: destination {destination:#x} inside "
            f"{lease.describe()}"
        )
        return destination

    # -- CoW sharing ------------------------------------------------------

    def corrupt_cow_share(self, process) -> int:
        """Grant ``process`` write permission on one of its CoW-shared
        pages *without* detaching it from the share group — the stores of
        one tenant would silently reach every other member.  Detected by
        ``shared-cow``."""
        from repro.runtime.regions import PERM_RWX

        shares = self.kernel.shares
        if shares is None:
            raise ValueError("kernel has no ShareManager attached")
        for group in shares.groups.values():
            indices = group.members.get(process.pid)
            if indices:
                index = min(indices)
                address = group.base + index * PAGE_SIZE
                process.regions.set_range_perms(
                    address, address + PAGE_SIZE, PERM_RWX
                )
                self.injected.append(
                    f"corrupt-cow-share: pid {process.pid} made shared "
                    f"page {address:#x} writable without detaching"
                )
                return address
        raise ValueError(f"pid {process.pid} has no attached shared pages")


# ---------------------------------------------------------------------------
# Step-targeted protocol fault injection (the resilience campaign)
# ---------------------------------------------------------------------------

#: The fault classes a :class:`FaultPoint` can inject.
FAULT_KINDS = ("crash", "hang", "torn")


@dataclass
class FaultPoint:
    """Fail at Figure 8 step ``step`` on the ``move_index``-th move.

    ``kind`` is one of :data:`FAULT_KINDS`: ``crash`` and ``hang`` fire
    at step *entry*; ``torn`` fires mid-step, after roughly half the
    step's items completed (only the steps in
    :data:`~repro.resilience.journal.TORN_CAPABLE_STEPS` have items).
    ``move_index`` counts kernel-level change *requests* (retries of one
    request share its index); ``None`` matches any.  Points are one-shot
    — consumed when they fire, so the retry succeeds — unless
    ``persistent``, which re-fires on every retry and exercises the
    exhaustion/degradation path.
    """

    step: str
    kind: str = "crash"
    move_index: Optional[int] = None
    persistent: bool = False
    #: ``hang`` only: how long the stuck step stalls.
    stall_cycles: int = 1_000_000_000
    #: ``torn`` only: fire after exactly this many items; ``None`` means
    #: half the step's items (at least one).
    torn_after: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")


class ProtocolFaultInjector:
    """Kills the move protocol at chosen steps, deterministically.

    Attach to a kernel via :meth:`Kernel.attach_fault_injector`.  The
    transaction layer calls :meth:`begin_move` once per change request
    and :meth:`on_step` at every step boundary and mid-step progress
    point.  ``rng`` is a *seeded* ``random.Random`` instance supplied by
    the caller — this module never touches the ``random`` module's
    global state — and is only consulted by helpers that build random
    schedules (:func:`random_fault_schedule`, ``random:N`` CLI specs).
    """

    def __init__(self, points, rng=None) -> None:
        self.points: List[FaultPoint] = list(points)
        self.rng = rng
        #: Human-readable log of the faults that actually fired.
        self.fired: List[str] = []
        self.move_index = -1

    def begin_move(self) -> None:
        """A new kernel-level change request is starting."""
        self.move_index += 1

    def on_step(
        self, step: str, progress: Optional[Tuple[int, int]] = None
    ) -> None:
        """Fire any matching fault point.  ``progress`` is ``None`` at a
        step boundary, or ``(items_done, items_total)`` mid-step."""
        for point in self.points:
            if point.step != step:
                continue
            if (
                point.move_index is not None
                and point.move_index != self.move_index
            ):
                continue
            if point.kind == "torn":
                if progress is None:
                    continue
                done, total = progress
                if total <= 0:
                    continue
                threshold = (
                    point.torn_after
                    if point.torn_after is not None
                    else max(1, total // 2)
                )
                if done != threshold:
                    continue
            elif progress is not None:
                continue  # crash/hang fire at step entry only
            if not point.persistent:
                self.points.remove(point)
            self.fired.append(f"{step}:{point.kind}@move{self.move_index}")
            if point.kind == "hang":
                raise InjectedHang(step, point.stall_cycles)
            raise InjectedFault(step, point.kind)

    __call__ = on_step


def parse_fault_points(spec: str, rng=None) -> List[FaultPoint]:
    """Parse a CLI ``--inject-faults`` spec into fault points.

    Comma-separated entries of ``STEP:KIND[:MOVE][:persist]`` — e.g.
    ``copy-data:crash``, ``patch-escapes:torn:0``,
    ``region-install:hang:2:persist`` — or ``random:N`` for ``N``
    rng-drawn points (requires a seeded ``rng``).
    """
    points: List[FaultPoint] = []
    for entry in spec.split(","):
        entry = entry.strip()
        if not entry:
            continue
        parts = entry.split(":")
        if parts[0] == "random":
            count = int(parts[1]) if len(parts) > 1 else 1
            if rng is None:
                raise ValueError("random fault specs need a seeded rng")
            points.extend(random_fault_schedule(rng, count))
            continue
        step = parts[0]
        kind = parts[1] if len(parts) > 1 else "crash"
        move_index: Optional[int] = None
        persistent = False
        for extra in parts[2:]:
            if extra == "persist":
                persistent = True
            elif extra == "any":
                move_index = None
            else:
                move_index = int(extra)
        points.append(
            FaultPoint(
                step=step,
                kind=kind,
                move_index=move_index,
                persistent=persistent,
            )
        )
    return points


def random_fault_schedule(
    rng, count: int = 1, max_move_index: int = 4
) -> List[FaultPoint]:
    """``count`` fault points drawn from a seeded ``random.Random`` —
    the property-test/CLI source of randomized campaigns."""
    points: List[FaultPoint] = []
    for _ in range(count):
        kind = rng.choice(FAULT_KINDS)
        step = rng.choice(
            sorted(TORN_CAPABLE_STEPS) if kind == "torn" else PAGE_MOVE_STEPS
        )
        points.append(
            FaultPoint(
                step=step,
                kind=kind,
                move_index=rng.randrange(max_move_index),
                persistent=rng.random() < 0.25,
            )
        )
    return points
