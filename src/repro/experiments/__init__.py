"""One module per table/figure of the paper's evaluation.

Every module exposes ``run(settings: RunSettings | None = None) ->
ExperimentResult``; quick-mode settings (``RunSettings.quick()``) shorten
runs and sweeps for CI/benchmarks while the full mode regenerates the
numbers recorded in EXPERIMENTS.md.

The package keeps a metadata registry: one :class:`ExperimentEntry` per
artifact, carrying the paper figure/table it reproduces, topical tags and the
:mod:`repro.campaign.builders` scenario builder (if any) that sweeps the same
scenario declaratively.  :func:`get` returns the runner; :func:`get_entry` /
:func:`entries` expose the metadata (the CLI listing and
``benchmarks/run_all.py`` both read them).
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.stats import ExperimentResult

if TYPE_CHECKING:  # pragma: no cover
    from repro.experiments.common import RunSettings


@dataclass(frozen=True)
class ExperimentEntry:
    """Registry metadata for one reproduced artifact."""

    id: str
    module: str  # module name relative to this package
    artifact: str  # paper artifact, e.g. "Figure 4" / "Table I"
    title: str  # one-line description of what it shows
    tags: tuple[str, ...] = ()
    #: Name of the :mod:`repro.campaign.builders` builder that runs the same
    #: scenario family point-by-point, or None for analytic/Monte-Carlo
    #: artifacts that have no per-seed scenario.
    builder: str | None = None
    extension: bool = False

    @property
    def runner(self) -> "Callable[..., ExperimentResult]":
        """The module's ``run`` entrypoint (imported on first use)."""
        mod = importlib.import_module(f"repro.experiments.{self.module}")
        return mod.run

    def default_settings(self) -> "RunSettings":
        """The settings ``run()`` resolves to when called without arguments."""
        from repro.experiments.common import RunSettings

        return RunSettings()


def _entry(
    id: str,
    module: str,
    artifact: str,
    title: str,
    tags: tuple[str, ...] = (),
    builder: str | None = None,
    extension: bool = False,
) -> ExperimentEntry:
    return ExperimentEntry(id, module, artifact, title, tags, builder, extension)


#: The paper's evaluation artifacts, in presentation order.
REGISTRY: dict[str, ExperimentEntry] = {
    e.id: e
    for e in (
        _entry("table1", "table1_corruption", "Table I",
               "Corrupted frames mostly preserve src/dst MAC addresses",
               ("testbed", "model")),
        _entry("fig1", "fig1_nav_udp", "Figure 1",
               "Two UDP flows while GR inflates CTS NAV (802.11b)",
               ("nav", "udp"), builder="nav_pairs"),
        _entry("fig2", "fig2_nav_cw", "Figure 2",
               "Sender contention windows under NAV inflation",
               ("nav", "udp"), builder="nav_pairs"),
        _entry("fig3", "fig3_model", "Figure 3",
               "RTS sending-ratio model (Eqs. 1-2) vs simulation",
               ("nav", "model"), builder="rts_share_model"),
        _entry("fig4", "fig4_nav_tcp", "Figure 4",
               "Two TCP flows under NAV inflation per frame kind (802.11b)",
               ("nav", "tcp"), builder="nav_pairs"),
        _entry("fig5", "fig5_nav_tcp_11a", "Figure 5",
               "The Figure 4 sweep repeated under 802.11a",
               ("nav", "tcp"), builder="nav_pairs"),
        _entry("fig6", "fig6_nav_8flows", "Figure 6",
               "Eight competing flows, one greedy NAV inflator",
               ("nav", "udp"), builder="nav_pairs"),
        _entry("fig7", "fig7_nav_gp", "Figure 7",
               "NAV inflation applied to a percentage of frames",
               ("nav", "udp"), builder="nav_pairs"),
        _entry("fig8", "fig8_nav_ngr", "Figure 8",
               "Goodput vs number of greedy receivers (sorted flows)",
               ("nav", "tcp"), builder="nav_pairs_sorted"),
        _entry("fig9", "fig9_nav_many_gr", "Figure 9",
               "Many greedy receivers sharing the gains",
               ("nav", "udp"), builder="nav_pairs"),
        _entry("fig10", "fig10_shared_sender", "Figure 10",
               "One sender, several receivers, one inflating NAV",
               ("nav", "udp"), builder="nav_shared_sender"),
        _entry("table2", "table2_cwnd", "Table II",
               "TCP congestion windows under NAV inflation",
               ("nav", "tcp"), builder="nav_pairs"),
        _entry("table3", "table3_fer", "Table III",
               "BER to per-frame-type FER mapping", ("model",)),
        _entry("fig11", "fig11_spoof_ber", "Figure 11",
               "ACK spoofing vs channel BER (TCP pairs)",
               ("spoof", "tcp"), builder="spoof_tcp_pairs"),
        _entry("fig12", "fig12_spoof_gp", "Figure 12",
               "ACK spoofing applied to a percentage of frames",
               ("spoof", "tcp"), builder="spoof_tcp_pairs"),
        _entry("fig13", "fig13_spoof_ngr", "Figure 13",
               "Mutually spoofing greedy receivers",
               ("spoof", "tcp"), builder="spoof_tcp_pairs"),
        _entry("fig14", "fig14_spoof_pairs", "Figure 14",
               "ACK spoofing vs number of competing pairs",
               ("spoof", "tcp"), builder="spoof_tcp_pairs"),
        _entry("fig15", "fig15_remote", "Figure 15",
               "Remote TCP senders behind a wired link, one spoofing receiver",
               ("spoof", "tcp"), builder="remote_tcp"),
        _entry("fig16", "fig16_remote_gp", "Figure 16",
               "Remote TCP with partial spoofing percentages",
               ("spoof", "tcp"), builder="remote_tcp"),
        _entry("fig17", "fig17_spoof_udp", "Figure 17",
               "Shared-AP UDP with one ACK-spoofing receiver",
               ("spoof", "udp"), builder="spoof_udp_shared_ap"),
        _entry("fig18", "fig18_fake_hidden", "Figure 18",
               "Fake ACKs between hidden senders",
               ("fake", "udp"), builder="fake_hidden_terminals"),
        _entry("table4", "table4_fake_cw", "Table IV",
               "Sender CW under fake ACKs (hidden terminals)",
               ("fake", "udp"), builder="fake_hidden_terminals"),
        _entry("table5", "table5_fake_inherent", "Table V",
               "Fake ACKs under inherent medium losses",
               ("fake", "udp"), builder="fake_inherent_loss"),
        _entry("fig19", "fig19_fake_pairs", "Figure 19",
               "Fake ACKs vs number of pairs at random BER",
               ("fake", "udp"), builder="fake_inherent_loss"),
        _entry("table6", "table6_testbed_nav_tcp", "Table VI",
               "Testbed emulation: NAV inflation over TCP", ("nav", "testbed"),
               builder="testbed_pairs"),
        _entry("table7", "table7_testbed_nav_udp", "Table VII",
               "Testbed emulation: NAV inflation over UDP", ("nav", "testbed"),
               builder="testbed_pairs"),
        _entry("table8", "table8_testbed_spoof", "Table VIII",
               "Testbed emulation: ACK spoofing", ("spoof", "testbed"),
               builder="testbed_shared_sender"),
        _entry("table9", "table9_testbed_fake", "Table IX",
               "Testbed emulation: fake ACKs", ("fake", "testbed"),
               builder="testbed_pairs"),
        _entry("fig21", "fig21_rssi_cdf", "Figure 21",
               "RSSI difference CDF for the spoof detector", ("grc", "rssi")),
        _entry("fig22", "fig22_rssi_roc", "Figure 22",
               "RSSI spoof-detector ROC curve", ("grc", "rssi")),
        _entry("fig23", "fig23_grc_nav", "Figure 23",
               "GRC NAV validation vs pair distance",
               ("grc", "nav"), builder="grc_nav_distance"),
        _entry("fig24", "fig24_grc_spoof", "Figure 24",
               "GRC spoof detection restoring goodput",
               ("grc", "spoof"), builder="spoof_tcp_pairs"),
        _entry("ext_autorate", "ext_autorate", "Extension",
               "Greedy receivers vs ARF rate adaptation (Section IX)",
               ("fake", "spoof", "autorate"), extension=True),
        _entry("ext_sender_baseline", "ext_sender_baseline", "Extension",
               "Greedy-receiver vs greedy-sender baseline (Section IX)",
               ("nav", "baseline"), builder="sender_baseline", extension=True),
        _entry("ext_bursty_nav", "ext_bursty_nav", "Extension",
               "NAV inflation under Gilbert-Elliott bursty interference",
               ("nav", "faults"), builder="bursty_nav", extension=True),
        _entry("ext_jammer_crash", "ext_jammer_crash", "Extension",
               "Goodput under periodic jamming and station crash/reboot",
               ("faults", "jammer", "crash"), builder="jammer_crash",
               extension=True),
        _entry("ext_rts_roc", "ext_rts_roc", "Extension",
               "Streaming RTS-flood detector ROC (attack zoo, Section VII)",
               ("grc", "faults", "detection"), builder="rts_flood_roc",
               extension=True),
        _entry("ext_hidden_node", "ext_hidden_node", "Extension",
               "Hidden-terminal triangle on the SINR channel: RTS/CTS off vs on",
               ("sinr", "udp", "channel"), builder="hidden_node",
               extension=True),
    )
}

#: Experiment id -> module path (kept for compatibility; derived from the
#: registry).
ALL_EXPERIMENTS: dict[str, str] = {
    e.id: e.module for e in REGISTRY.values() if not e.extension
}

#: Beyond the paper's evaluation: its Section IX future-work studies.
EXTENSIONS: dict[str, str] = {
    e.id: e.module for e in REGISTRY.values() if e.extension
}


def get_entry(experiment_id: str) -> ExperimentEntry:
    """Return the registry entry for an experiment id (e.g. ``"fig4"``)."""
    entry = REGISTRY.get(experiment_id)
    if entry is None:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; known: {sorted(REGISTRY)}"
        )
    return entry


def entries(tag: str | None = None) -> list[ExperimentEntry]:
    """All registry entries, optionally filtered by tag."""
    found = list(REGISTRY.values())
    if tag is not None:
        found = [e for e in found if tag in e.tags]
    return found


def get(experiment_id: str) -> Callable[..., ExperimentResult]:
    """Return the ``run`` callable for an experiment id (e.g. ``"fig4"``)."""
    return get_entry(experiment_id).runner
