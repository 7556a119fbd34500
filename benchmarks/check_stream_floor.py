"""Real-time receive floor: the streaming LoRa receiver keeps up at 4 Msps.

The AT86RF215 hands the FPGA 4 Msps of I/Q words; a gateway that
demodulates slower than that falls behind the radio.  This reads
``rx_msps`` from the untraced pass of the traced ``phy_stream`` run that
``benchmarks/check_counters.py`` last made (``detail.untraced_end_to_end``
in ``perfbench/runs/phy_stream-seed2020-trace1.json``) and fails below
4.0 Msps.  It is a wall-time floor, so it runs in ``make check`` after
``make perfbench-smoke`` and not in CI, whose runners' speed is not the
code's.
"""

from __future__ import annotations

import json
from pathlib import Path

RECORD = (Path(__file__).resolve().parent.parent / "perfbench" / "runs"
          / "phy_stream-seed2020-trace1.json")
MIN_RX_MSPS = 4.0


def main() -> int:
    rx_msps = json.loads(RECORD.read_text())[
        "detail"]["untraced_end_to_end"]["rx_msps"]
    ok = rx_msps >= MIN_RX_MSPS
    print(f"{'ok  ' if ok else 'FAIL'} phy_stream rx_msps {rx_msps:.3f} "
          f"(need >= {MIN_RX_MSPS})")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
