"""repro.faults — deterministic fault injection, two planes.

**Sim plane** (this package's models): seed-reproducible impairments that
plug into the scenario — a Gilbert–Elliott bursty-error channel
(:mod:`repro.faults.channel`), a periodic jammer station
(:mod:`repro.faults.jammer`) and station crash/reboot events
(:class:`~repro.faults.plan.CrashConfig`, executed by
:meth:`repro.mac.dcf.DcfMac.crash`).  All are off by default; a scenario
without ``install_faults`` is byte-identical to one on a pre-fault build
(golden traces pin this).

**Harness plane** (lives in :mod:`repro.runtime` / :mod:`repro.campaign`):
retries, timeouts, watchdog worker kills, cache quarantine and manifest
recovery.  The chaos harness that proves the harness plane end to end is
:mod:`repro.faults.chaos`.

DESIGN.md §11 documents the determinism guarantees of both planes.
"""

from repro._lazy import exports

__all__, __getattr__, __dir__ = exports(__name__, {
    ".channel": ("GilbertElliottChannel",),
    ".inject": ("FaultInjector",),
    ".jammer": ("JamFrame", "Jammer"),
    ".plan": (
        "CrashConfig", "FaultPlan", "GilbertElliottConfig", "JammerConfig",
        "RtsFloodConfig",
    ),
    ".rtsflood": ("RtsFlooder",),
    # Harness-plane convenience re-export: the deterministic jittered backoff
    # policy lives in repro.runtime.retry, but callers reaching for "how do I
    # retry against faults" (the fleet HTTP client foremost) look here first.
    "..runtime.retry": ("RetryPolicy",),
})
