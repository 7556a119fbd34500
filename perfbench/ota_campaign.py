"""ota_campaign: Fig. 14 at both scales, the path ``repro campaign`` takes.

One unit is one byte-level campaign through ``testbed.run_campaign``
followed by one 100k-node fleet campaign.  The byte-level campaign
programs a small campus deployment with the paper-sized BLE bitstream
(``generate_bitstream(0.03, ...)``, ~579 kB); each has its own seeded
image, placement and link draws, and its nodes sit close enough that
every one must be programmed and verified.  The fleet campaign is
``run_fleet_campaign`` with burst loss and verify failures, in process,
then ``write_fleet_spill`` to the run's work directory; it is the same
campaign every unit, so its time is a mean over the run.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from common import PassResult, clock
from repro import testbed
from repro.fpga import generate_bitstream
from repro.ota import fleet

NODES = 3
RADIUS_M = 600.0  # every node decodes the backbone link at this range
BLE_UTILIZATION = 0.03
FLEET_NODES = 100_000
FLEET_IMAGE_BYTES = 1800
FLEET_VERIFY_FAILURE_PROB = 0.01


class Pass:
    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.inputs = self.campaign_inputs(0)
        self.fleet = fleet.FleetCampaignConfig(
            num_nodes=FLEET_NODES, image_bytes=FLEET_IMAGE_BYTES,
            seed=seed, loss=fleet.FleetBurstLoss(),
            verify_failure_prob=FLEET_VERIFY_FAILURE_PROB)
        self.spill = workdir / "fleet_spill.jsonl"
        self.units = 0
        self.campaign_s: list[float] = []
        self.fleet_s: list[float] = []
        self.busy = 0.0
        self.attempted = 0
        self.failures: list[str] = []
        self.outputs: list = []
        self.sent = self.delivered = 0
        self.fleet_events = self.spill_rows = 0

    def campaign_inputs(self, index: int) -> tuple:
        """Image, deployment and link RNG of byte-level campaign ``index``."""
        def rng(stream: int) -> np.random.Generator:
            return np.random.default_rng([self.seed, stream, index])

        image = generate_bitstream(BLE_UTILIZATION, rng=rng(1))
        deployment = testbed.campus_deployment(
            num_nodes=NODES, max_radius_m=RADIUS_M, rng=rng(2))
        return image, deployment, rng(3)

    def close(self) -> None:
        pass

    def step(self, tracer=None) -> int:
        image, deployment, rng = self.inputs
        if tracer is not None:
            tracer.op = self.units
        begin = clock()
        result = testbed.run_campaign(deployment, image, "ble", rng)
        middle = clock()
        report = fleet.run_fleet_campaign(self.fleet)
        spill = fleet.write_fleet_spill(report, self.spill)
        end = clock()
        self.campaign_s.append(middle - begin)
        self.fleet_s.append(end - middle)
        self.busy += end - begin
        self.check_campaign(len(image), result)
        self.check_fleet(report, spill)
        self.units += 1
        self.inputs = self.campaign_inputs(self.units)
        return 1

    def check_campaign(self, image_bytes: int, result) -> None:
        """Every node programmed and verified; keep what must reproduce."""
        rows = []
        for node in result.results:
            update = node.report
            if not node.succeeded or update is None or \
                    update.raw_bytes != image_bytes:
                self.failures.append(f"campaign {self.units}: node "
                                     f"{node.node_id} not programmed")
                rows.append((node.node_id, False))
                continue
            transfer = update.transfer
            self.sent += transfer.packets_sent
            self.delivered += transfer.packets_delivered
            rows.append((node.node_id, True, transfer.packets_sent,
                         transfer.packets_delivered, update.total_time_s))
        self.outputs.append(rows)
        self.attempted += len(result.results)

    def check_fleet(self, report, spill: dict) -> None:
        """Outcomes cover the fleet and the spill holds every row."""
        with open(self.spill, "rb") as handle:
            spilled = sum(1 for _ in handle)
        self.spill.unlink()
        outcomes = report.outcome_counts()
        expected = 1 + report.num_nodes + len(report.rollup.to_rows())
        if sum(outcomes.values()) != FLEET_NODES:
            self.failures.append(f"fleet run {self.units}: outcomes sum "
                                 f"to {sum(outcomes.values())}, not "
                                 f"{FLEET_NODES}")
        elif not spilled == spill["rows_written"] == expected:
            self.failures.append(f"fleet run {self.units}: spill holds "
                                 f"{spilled} rows, reported "
                                 f"{spill['rows_written']}, expected "
                                 f"{expected}")
        self.outputs.append((sorted(outcomes.items()), report.total_events,
                             spill["rows_written"]))
        self.attempted += 1
        self.fleet_events += report.total_events
        self.spill_rows += spill["rows_written"]

    def result(self) -> PassResult:
        return PassResult(
            attempted=self.attempted,
            failures=self.failures,
            metrics={
                # Means: on a shared machine whose speed shifts for
                # seconds at a time, a median of a few samples jumps
                # between the fast and the slow speed.
                "campaign_s": float(np.mean(self.campaign_s)),
                "fleet_campaign_s": float(np.mean(self.fleet_s)),
            },
            layer={
                "ota.mac.delivery_ratio":
                    self.delivered / self.sent if self.sent else 0.0,
                "ota.fleet.events": self.fleet_events,
                "ota.fleet.spill.rows": self.spill_rows,
            },
            outputs=self.outputs,
            busy_s=self.busy)
