"""Rate adaptation vs greedy receivers — the paper's future work, measured.

The paper's conclusion predicts two interactions with auto-rate (ARF):
fake ACKs should *backfire* (the faked feedback drives the sender to a
modulation the channel can't carry) while ACK spoofing should get *worse*
for the victim (its sender never falls back to a decodable rate).

Run:  python examples/autorate_interactions.py
"""

from repro.experiments.ext_autorate import fake_ack_autorate, spoof_autorate

DURATION_S = 3.0
SEED = 1


def main() -> None:
    print("Fake ACKs under ARF (marginal 11 Mbps link, clean at 2 Mbps)\n")
    honest = fake_ack_autorate(SEED, DURATION_S, greedy=False, autorate=True)
    faking = fake_ack_autorate(SEED, DURATION_S, greedy=True, autorate=True)
    print(
        f"  honest client : {honest['goodput_R1']:.2f} Mbps "
        f"(ARF settles at {honest['gs_rate_final']:g} Mbps)"
    )
    print(
        f"  faking client : {faking['goodput_R1']:.2f} Mbps "
        f"(ARF fooled up to {faking['gs_rate_final']:g} Mbps)"
    )
    print("  -> faking ACKs BACKFIRES under auto-rate, as the paper predicts.\n")

    print("ACK spoofing under ARF\n")
    clean = spoof_autorate(SEED, DURATION_S, spoof=False, autorate=True)
    spoofed = spoof_autorate(SEED, DURATION_S, spoof=True, autorate=True)
    print(
        f"  victim, no attacker : {clean['goodput_NR']:.2f} Mbps "
        f"(sender adapts to {clean['ns_rate_final']:g} Mbps)"
    )
    print(
        f"  victim, spoofed     : {spoofed['goodput_NR']:.2f} Mbps "
        f"(sender pinned at {spoofed['ns_rate_final']:g} Mbps)"
    )
    print(f"  attacker            : {spoofed['goodput_GR']:.2f} Mbps")
    print("  -> spoofing is even more damaging with auto-rate in play.")


if __name__ == "__main__":
    main()
