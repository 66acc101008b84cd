"""Assemble EXPERIMENTS.md from results/ plus per-experiment commentary.

Run after ``benchmarks/run_all.py``:

    python benchmarks/make_experiments_md.py

The commentary records (a) what the paper reports for each artifact and
(b) how our measurement compares — the paper-vs-measured record the
reproduction is judged by.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

HEADER = """\
# EXPERIMENTS — paper vs. measured

Every table and figure of *Greedy Receivers in IEEE 802.11 Hotspots* (Han &
Qiu, DSN 2007), regenerated on this repository's simulator, plus the two
Section-IX extensions.  Regenerate with `python benchmarks/run_all.py`; the
tables below come from `results/` (full mode: 5-second simulations, median
of 5 seeds, matching the paper's methodology).

**Reading the comparison.** The authors ran ns-2 and a MadWifi testbed; we
run a from-scratch simulator.  Absolute Mbps therefore differ (their exact
PHY overheads, TCP flavor and queueing are not bit-identical), but the
evaluation's *shapes* — who wins, by roughly what factor, where crossovers
fall — are the reproduction target, and several artifacts also match
numerically.  Known systematic differences:

* Our 802.11b control frames ride a 1 Mbps long-preamble PHY like ns-2's
  defaults; totals land within ~10 % of the paper's saturation goodputs.
* "BER" follows ns-2's per-*byte* error semantics — back-solved from the
  paper's own Table III (see `repro/phy/error.py`).
* TCP is Reno with a 20-segment default window; the paper's ns-2 agent
  differs in minor constants (e.g. header sizes: our FERs for TCP frames sit
  within 20 % of Table III's).

"""

#: experiment id -> (paper reference summary, our verdict commentary).
COMMENTARY: dict[str, tuple[str, str]] = {
    "table1": (
        "Paper: 2.1 % / 32 % of frames arrive corrupted (802.11b / 802.11a); "
        "98.8 % / 84 % of corrupted frames keep the destination MAC, and "
        "94.9 % / 91.4 % of those also keep the source.",
        "Match: the calibrated bursty-density model reproduces corruption "
        "rates and destination survival within a few percent; source "
        "survival is modeled symmetric with destination (~0.99b/~0.86a vs "
        "the paper's 0.949/0.914) since no position-symmetric error model "
        "can make the source field fail 4x more often than the destination. "
        "The attack-feasibility conclusion (most corrupted frames remain "
        "attributable) holds in all cases.",
    ),
    "fig1": (
        "Paper: two saturating UDP flows; the greedy receiver completely "
        "grabs the medium and starves the competitor from 0.6 ms of CTS NAV "
        "inflation.",
        "Match: fair 1.8/1.8 Mbps split at zero inflation; NR collapses to "
        "~0.01 Mbps at alpha=6 (0.6 ms) while GR saturates at ~3.5 Mbps — "
        "the same crossover the paper highlights.",
    ),
    "fig2": (
        "Paper: GS's average CW stays near CW_min (31) while NS's climbs "
        "with the inflation, fluctuating once NS barely transmits (v>28).",
        "Match: GS pinned at 31-34 across the sweep; NS rises from ~36 to "
        "45-80 and collapses back toward 31 at v=31 when it stops sending "
        "entirely — including the fluctuation artifact the paper explains.",
    ),
    "fig3": (
        "Paper: Equations (1)-(2), fed with measured CW distributions, "
        "accurately estimate the RTS sending ratio.",
        "Match: model-vs-simulation absolute error stays below ~0.08 over "
        "the whole inflation sweep, with both rising monotonically from "
        "0.5 to ~0.99.",
    ),
    "fig4": (
        "Paper (802.11b TCP): greedy receiver always wins; larger inflation "
        "-> larger gain; RTS+CTS inflation starves from very small values; "
        "ACK-only slightly weaker than CTS-only; all-frames dominates from "
        "2 ms.",
        "Match on the main shapes: all variants favor GR monotonically; "
        "RTS+CTS and 'all' starve NR from ~1-2 ms; CTS at 31 ms shuts NR "
        "off.  One nuance does not reproduce: the paper found ACK-only "
        "slightly weaker than CTS-only because losses make CTS frames more "
        "frequent than ACKs; our loss-free Figure 4 runs have exactly one "
        "CTS and one ACK per exchange, so the two variants coincide.",
    ),
    "fig5": (
        "Paper: same trends under 802.11a, with larger damage per ms of "
        "inflation (smaller IFS/transmission times).",
        "Match: identical ordering; starvation thresholds sit at equal or "
        "smaller inflation than 802.11b.",
    ),
    "fig6": (
        "Paper: against 7 normal TCP flows, the greedy receiver needs "
        "~10 ms of CTS NAV inflation to dominate the medium.",
        "Match: GR overtakes the per-flow average from ~2 ms and dominates "
        "(>4x the mean normal goodput) at 10 ms.",
    ),
    "fig7": (
        "Paper: gains grow with greedy percentage; at GP=50 % the greedy "
        "receiver already leads by >1 Mbps (5 ms) and grabs everything at "
        "31 ms.",
        "Match: monotone in GP for each inflation level; GP=50 % already "
        "decisive, full starvation at GP=100 %/31 ms.",
    ),
    "fig8": (
        "Paper: 0 GR -> fair; 1 GR -> near-starvation of the victim; 2 GRs "
        "-> whoever grabs the medium first keeps it.",
        "Match: per-seed sorted goodputs show one winner taking >3x the "
        "loser with two greedy receivers (the winner alternates with the "
        "seed, which is why the experiment reports sorted values).",
    ),
    "fig9": (
        "Paper: with several 31 ms-inflating receivers among 8 flows, only "
        "one survives; the rest get virtually nothing.",
        "Match: rank-0 exceeds 5x rank-1 for every greedy count >= 1.",
    ),
    "fig10": (
        "Paper: a shared sender dampens the gain (head-of-line blocking) "
        "but TCP still favors the greedy receiver; under UDP both flows "
        "sink together.",
        "Match: TCP 2-rx and 8-rx cases favor GR at large inflation (the "
        "8-rx case needs ~8 simulated seconds for the victims' congestion "
        "windows to collapse); UDP total drops with inflation and stays "
        "near-even between receivers.",
    ),
    "table2": (
        "Paper: the cwnd gap between greedy and normal flows grows with "
        "inflation and is larger with two senders than one (22->4.5 vs "
        "42->3.2 at 31 ms).",
        "Match: both topologies show the greedy flow keeping a (much) "
        "larger average cwnd at high inflation, with the two-sender gap "
        "at least as large as the shared-sender gap.",
    ),
    "table3": (
        "Paper: BER->FER per frame type (e.g. 2e-4 -> 0.203 for TCP data, "
        "7.5e-3 for ACK/CTS).",
        "Match (by construction): the error model was calibrated to this "
        "table; control-frame FERs agree to <1 %, TCP-frame FERs to <20 % "
        "(ns-2 carried slightly larger headers).",
    ),
    "fig11": (
        "Paper: spoofing gain peaks at moderate BER (~2e-4), vanishes at "
        "zero loss, and dies off as loss saturates everything; same trend "
        "in 802.11a.",
        "Match: zero effect at BER 0; GR peaks near 1e-4-2e-4 at ~1.5-1.6 "
        "Mbps vs NR ~0.3; both collapse together by 14e-4. 802.11a mirrors "
        "802.11b.",
    ),
    "fig12": (
        "Paper: goodput of the greedy receiver rises with spoofing GP at "
        "every loss rate.",
        "Match: monotone GP response; the victim's goodput falls "
        "correspondingly.",
    ),
    "fig13": (
        "Paper: with both receivers spoofing each other, MAC retransmission "
        "is disabled network-wide and total goodput drops.",
        "Match: the two-spoofer total lands below the honest total; a "
        "single spoofer still wins individually.",
    ),
    "fig14": (
        "Paper: the greedy receiver out-earns the average normal receiver "
        "for any number of pairs; the gap shrinks under one shared AP.",
        "Deviation: GR stays above the normal mean in both topologies at "
        "every pair count, but the gap runs the other way from the paper's. "
        "At 2 / 4 / 6 / 8 pairs the spoofer's edge over the normal mean is "
        "1.53 / 1.39 / 1.15 / 1.09 Mbps under one AP, against "
        "1.45 / 0.93 / 0.49 / 0.30 with per-flow APs: larger under one "
        "shared AP at every count, and shrinking far more slowly as pairs "
        "are added. The ratio points the same way (GR/NR 12-15x under one "
        "AP, 8.7x falling to 2.8x with per-flow APs), so absolute against "
        "relative gap does not explain it; how the one AP's queue serves "
        "its receivers, against ns-2's, is the open suspect.",
    ),
    "fig15": (
        "Paper: wireline latency makes end-to-end recovery costlier, "
        "widening the spoofer's edge; past ~200 ms the spoofer's own "
        "ACK-clocked goodput decays though it still wins.",
        "Shape match with one caveat: the victim collapses at every "
        "latency (0.15–0.18 Mbps with the spoofer up to 200 ms, against "
        "0.98–1.10 without), so the greedy/normal ratio follows the "
        "attacker's own goodput rather than widening with latency: 10.4x "
        "at 2 ms, 13.2x at 50 ms, 9.7x at 200 ms. The attacker's "
        "ACK-clocked goodput already starts to decay at 100 ms (1.96 at "
        "50 ms, 1.89 at 100 ms, 1.70 at 200 ms), and the signature 400 ms "
        "regime — that goodput down to 0.76 Mbps while still far above "
        "the victim — reproduces. Earlier versions of this table were "
        "capped near 1.7 Mbps of total goodput by a MAC duplicate filter "
        "that stalled a sender after 4,096 MSDUs (its 12-bit sequence "
        "counter wrapped within these 20 s runs); the numbers above are "
        "from the fixed receive cache.",
    ),
    "fig16": (
        "Paper: increasing GP widens the gap at every latency; spoofing "
        "20 % of frames already yields ~52 % gain at 200 ms.",
        "Match: GP=20 % already hurts the victim at 200 ms (0.98 to 0.46 "
        "Mbps) and lifts the spoofer from 0.96 to 1.48 Mbps, a 54 % gain "
        "against the paper's ~52 %; the gap grows with GP at every "
        "latency, though not monotonically between neighbouring GP points "
        "(seed noise of up to ~0.15 Mbps).",
    ),
    "fig17": (
        "Paper: under UDP the spoofer steals service time from the victim "
        "sharing its AP; milder than the TCP case.",
        "Match: GR > NR at moderate-to-high loss, with a smaller ratio "
        "than the TCP experiments.",
    ),
    "fig18": (
        "Paper: under hidden-terminal collisions, one faker at GP=100 "
        "dominates; two fakers both suffer (no exponential backoff left).",
        "Match: one faker takes ~3.6 vs ~0.17 Mbps; with two fakers the "
        "flows return to near-even and gain nothing over honest.",
    ),
    "table4": (
        "Paper: sender CWs 124/126 honest -> 362 vs 43 with one faker -> "
        "77/76 with two (802.11b; analogous for 802.11a).",
        "Strong numeric match: ~125/144 -> ~420 vs ~38 -> ~100/~113; the "
        "802.11a rows show the same pattern at smaller absolute values.",
    ),
    "table5": (
        "Paper: under inherent losses faking helps: 1 GR gets 2.49 vs 0.59 "
        "(FER 0.5); with 2 GRs both sit slightly above honest (2-12 %).",
        "Match: 1 GR ~2.0 vs ~0.4 at FER 0.5; both-greedy rows exceed the "
        "honest baseline at every loss rate — the paper's 'useful "
        "surviving technique' observation.",
    ),
    "fig19": (
        "Paper: the faker's relative advantage persists for all crowd "
        "sizes; the absolute gap shrinks as per-flow goodput shrinks.",
        "Match: relative gain stays >1.2x for 2-8 pairs and grows with the "
        "loss rate; the absolute gap narrows with the crowd.",
    ),
    "table6": (
        "Paper (testbed): inflating NAV in RTS-for-TCP-ACK: 2.28/2.51 fair "
        "-> 4.41 vs 0.04 Mbps.",
        "Match: ~1.9/1.9 fair -> ~3.8 vs ~0.004 Mbps at 802.11a/6 Mbps "
        "(our TCP totals run slightly below the testbed's).",
    ),
    "table7": (
        "Paper (testbed): UDP with max NAV inflation: ~4.9 vs 0.08 (ACK, "
        "no RTS/CTS), ~4.65 vs 0.08 (CTS), ~4.65 vs 0.05 (CTS+ACK).",
        "Strong numeric match: ~5.0/~4.6 vs ~0.004 across the three "
        "variants.",
    ),
    "table8": (
        "Paper (testbed emulation): disabling MAC retransmissions toward "
        "the victim: GR +30 %, NR roughly halved (3.51/0.98 from "
        "2.68/1.96).",
        "Match in direction and magnitude: GR up ~75 %, NR down to ~25 % "
        "(our lossier substitute link amplifies the victim's damage).",
    ),
    "table9": (
        "Paper (testbed emulation): CW_max=CW_min toward the greedy flow: "
        "2.79 vs 2.35 from a noisy 2.08/2.99 baseline.",
        "Match in direction: greedy flow up, victim down, greedy > victim "
        "(~2.5 vs ~1.6 from ~2.2/~1.9); the paper's own baseline asymmetry "
        "(±0.5 Mbps) brackets our deltas.",
    ),
    "fig21": (
        "Paper: ~95 % of RSSI samples within 1 dB of the link median.",
        "Match by construction of the measurement model: ~96 % within "
        "1 dB, long tail to ~5 dB.",
    ),
    "fig22": (
        "Paper: a 1 dB threshold yields both low false positives and low "
        "false negatives.",
        "Match: FP ~4 %, FN ~5 % at 1 dB, with the expected monotone "
        "trade-off on both sides.",
    ),
    "fig23": (
        "Paper: GRC restores fairness wherever the inflated CTS can be "
        "heard; validators in RTS range clamp exactly, beyond it the "
        "1500-byte MTU bound leaves the greedy receiver a bounded residual "
        "edge; beyond interference range the attack never mattered.",
        "Match: starvation without GRC inside ~55 m; with GRC the victim "
        "recovers to within ~2x everywhere and detections all attribute to "
        "the greedy receiver; beyond range both flows are independent.",
    ),
    "fig24": (
        "Paper: with GRC both flows track the no-attacker goodput curves "
        "across the BER sweep.",
        "Match: without GRC the spoofer takes 3-5x the victim's goodput; "
        "with GRC the victim returns to within ~50-100 % of its no-attack "
        "curve at every loss rate, with nonzero detections throughout.",
    ),
    "ext_autorate": (
        "Paper (Section IX, prediction only): fake ACKs should backfire "
        "under auto-rate; ACK spoofing should hurt the victim more.",
        "Confirmed by measurement: under ARF the faking receiver loses "
        "~2/3 of its honest-ARF goodput (rate fooled up to 11 Mbps on a "
        "marginal link), and the spoofed victim drops to ~0 with its "
        "sender pinned at an undecodable rate.",
    ),
    "ext_sender_baseline": (
        "Related work (Kyasanur-Vaidya / DOMINO): selfish senders gain "
        "significantly by backoff cheating.",
        "Head-to-head: a 10 ms NAV-inflating receiver captures at least as "
        "much of the medium (>70 % share) as an aggressive CW/8 backoff "
        "cheater — the paper's motivation quantified.",
    ),
    "ext_bursty_nav": (
        "Beyond the paper (robustness extension): the paper measures NAV "
        "inflation on clean channels; real hotspots see bursty "
        "interference.",
        "NAV inflation stays profitable on impaired channels, but "
        "burstiness *blunts* it: on a Gilbert-Elliott channel with the "
        "same average FER as a memoryless one, the honest victim keeps "
        "~100x more goodput (0.14 vs 0.0016 Mbps) because loss bursts "
        "break the greedy receiver's CTS inflation chain and let the "
        "victim's frames through between bursts.",
    ),
    "ext_jammer_crash": (
        "Beyond the paper (robustness extension): how the DCF capture "
        "dynamics the paper relies on interact with external interference "
        "and station churn.",
        "A mid-run crash/reboot of one sender hands its airtime to the "
        "surviving pair (~0.45 Mbps gain at every jamming level) and the "
        "queued MSDUs are dropped, not replayed; a periodic jammer taxes "
        "both pairs roughly proportionally to its duty cycle without "
        "changing who wins.",
    ),
    "ext_rts_roc": (
        "Beyond the paper (attack zoo): \"Detection and Prevention Against "
        "RTS Attacks\" — a sender-side dual of the paper's NAV inflation. "
        "Large-NAV RTS frames to an absent receiver reserve the medium "
        "without ever transmitting data.",
        "The flood is a near-total DoS (victim goodput collapses from ~3.7 "
        "Mbps unflooded to ~0.03 Mbps) and the streaming unanswered-RTS "
        "detector separates it: with ~10 flood RTS per 100 ms window, "
        "thresholds up to 8 flag the flooder on every seed; false "
        "positives from honest RTS retries during collision bursts persist "
        "through threshold 4 and vanish at 8, so threshold 8 is the clean "
        "operating point, while 16 and above miss entirely.  The detector "
        "runs live through the DetectionTap in constant memory, "
        "event-identical to the offline replay (`repro detect diff`).",
    ),
    "ext_hidden_node": (
        "Beyond the paper (channel-model extension): the paper keeps every "
        "station inside carrier-sense range, so its pairwise reach-list "
        "medium never faces the classic 802.11 hotspot failure — two "
        "mutually-hidden senders uplinking to one AP.  This triangle runs "
        "on the new aggregate-interference SINR medium (DESIGN.md §15), "
        "with the pairwise medium answering the same topology for "
        "comparison.",
        "The expected collapse-and-recovery shape, on 802.11a (its 6 Mbps "
        "control frames keep the RTS/CTS handshake cheap; at 802.11b's "
        "1 Mbps the handshake costs what the collisions do and the "
        "recovery vanishes): blind overlap at the AP collapses total "
        "goodput to ~1.5 Mbps (SINR) with contention windows pinned near "
        "their maximum, and RTS/CTS recovers ~2.9x to ~4.5 Mbps.  The "
        "SINR medium is measurably harsher than the pairwise "
        "approximation under overlap (1.54 vs 2.09 Mbps blind), and the "
        "two models agree *exactly* once RTS/CTS serializes the channel — "
        "no concurrent transmissions means no interference to model, a "
        "built-in consistency check on the seam.",
    ),
}

ORDER = [
    "table1", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
    "fig8", "fig9", "fig10", "table2", "table3", "fig11", "fig12", "fig13",
    "fig14", "fig15", "fig16", "fig17", "fig18", "table4", "table5",
    "fig19", "table6", "table7", "table8", "table9", "fig21", "fig22",
    "fig23", "fig24", "ext_autorate", "ext_sender_baseline",
    "ext_bursty_nav", "ext_jammer_crash", "ext_rts_roc",
    "ext_hidden_node",
]


#: Hand-written trailer sections (not tied to a results/ table) that must
#: survive regeneration.
FOOTER = """\
## perf: one simulation path

Not a paper artifact — the measurement record for the simulation core.
Every table above comes from one pure-python path with no runtime
dependencies.  A numpy `vectorized` backend once ran beside it,
bit-exact against it, and measured events/s ratios over the scalar
core of ~1.07x on fig1_nav_udp, ~1.09x on fig8_nav_tcp, ~0.99x on
spoof_tcp and ~1.23x on the 240-station dense_hotspot (min of 5
repeats, seed 1).  Its one real win, per-sender hearer lists, moved into
the scalar `Medium`, and the backend was deleted (DESIGN.md §12).

With the hearer lists, `python3 perfbench/run.py --workload dense_grid`
measures `pairwise_p50_rel` 65.2 → 34.0 reference-kernel units over the
per-frame filter (ten pairs, same outputs digest; DESIGN.md §9).
`benchmarks/perf/baseline.json` is the committed reference that
`repro perf --check-regression` gates against (2x wall-time factor, exact
events and metrics at the baseline's seed and durations).
"""


def main() -> int:
    results_dir = ROOT / "results"
    sections = [HEADER]
    missing = []
    for experiment_id in ORDER:
        paper, verdict = COMMENTARY[experiment_id]
        sections.append(f"## {experiment_id}\n")
        sections.append(f"**Paper.** {paper}\n")
        sections.append(f"**This reproduction.** {verdict}\n")
        result_file = results_dir / f"{experiment_id}.txt"
        if result_file.exists():
            sections.append("```\n" + result_file.read_text().rstrip() + "\n```\n")
        else:
            missing.append(experiment_id)
            sections.append(
                "*(measured table pending — run "
                f"`python benchmarks/run_all.py {experiment_id}`)*\n"
            )
    sections.append(FOOTER)
    out = ROOT / "EXPERIMENTS.md"
    out.write_text("\n".join(sections))
    print(f"wrote {out}" + (f" ({len(missing)} tables pending: {missing})" if missing else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
