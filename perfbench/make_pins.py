#!/usr/bin/env python3
"""Regenerate ``pins.json``: every op's outputs for the default seed.

    PYTHONPATH=src python3 perfbench/make_pins.py

Runs :data:`workloads.SUBSEEDS` full op cycles of each workload and
refuses to write unless the pinned values reproduce the paper's anchors:
Section 5.2's line-rate frequencies (MoonGen 1.5 GHz, Pktgen-DPDK
1.7 GHz) and Section 8.3's ~1.93 Mpps zero-loss rate at 64 B.
"""

from __future__ import annotations

import json
import sys

import workloads as W

#: Section 5.2: lowest 100 MHz step reaching 14.88 Mpps (within 0.1 %).
LINE_RATE_GHZ = {"moongen": 1.5, "pktgen": 1.7}


def line_rate_ghz(tx_pins: dict, sub: int, script: str) -> float:
    """The paper's methodology applied to the pinned windows."""
    for freq in W.FREQS_HZ:
        out = tx_pins[W.TxLinerate.key(sub, freq, script)]
        if out["mpps"] * 1e6 >= 0.999 * W.units.LINE_RATE_10G_64B_PPS:
            return freq / 1e9
    return float("nan")


def check_anchors(pins: dict) -> list:
    """Anchor violations of ``pins`` (empty when all hold)."""
    errors = []
    for script, ghz in LINE_RATE_GHZ.items():
        got = line_rate_ghz(pins["tx_linerate"], W.DEFAULT_SEED, script)
        if round(got, 1) != ghz:
            errors.append(f"{script} reaches line rate at {got} GHz, "
                          f"paper {ghz} GHz")
    for key, pps in pins["rfc2544_search"]["searches"].items():
        if key.endswith("/64") and abs(pps / W.ZERO_LOSS_64B_PPS - 1) > \
                W.ZERO_LOSS_REL_TOL:
            errors.append(f"{key}: zero-loss {pps / 1e6:.3f} Mpps, "
                          f"paper ~1.93 Mpps")
    return errors


def collect(name: str) -> dict:
    workload = W.WORKLOADS[name](W.DEFAULT_SEED)
    outputs = {}

    def capture(key, out):
        outputs[key] = out
        return None

    workload.run(W.Driver(), W.Recorder(capture), cycles=W.SUBSEEDS)
    if name != "rfc2544_search":
        return outputs
    trials = {k: {"offered_pps": o["offered_pps"], "loss": o["loss"]}
              for k, o in outputs.items()}
    return {"trials": trials, "searches": workload.searches}


def main() -> int:
    pins = {name: collect(name) for name in W.WORKLOADS}
    errors = check_anchors(pins)
    if errors:
        print("\n".join(errors), file=sys.stderr)
        return 1
    with open(W.PINS_PATH, "w") as f:
        json.dump(pins, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {W.PINS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
