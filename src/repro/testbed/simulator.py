"""OTA programming campaigns over a testbed (paper section 5.3, Fig. 14).

The AP programs nodes sequentially; each node's session time depends on
its link quality through the retransmission count.  Running one session
per node yields the distribution Fig. 14 plots as a CDF of programming
time for the LoRa FPGA image, the BLE FPGA image and the (shared) MCU
image.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import OtaError
from repro.ota.blocks import split_and_compress
from repro.ota.mac import DEFAULT_OTA_PARAMS, OtaLink
from repro.ota.updater import OtaUpdater, UpdateReport
from repro.phy.lora.params import LoRaParams
from repro.testbed.deployment import Deployment


@dataclass(frozen=True)
class NodeResult:
    """Outcome of programming one node.

    Attributes:
        node_id: testbed identifier.
        distance_m: node-AP distance.
        downlink_rssi_dbm: realized downlink RSSI (with shadowing).
        report: the full per-session update report, or None on failure.
    """

    node_id: int
    distance_m: float
    downlink_rssi_dbm: float
    report: UpdateReport | None

    @property
    def succeeded(self) -> bool:
        """Whether the session completed."""
        return self.report is not None

    @property
    def duration_s(self) -> float:
        """Session duration (inf for failed sessions, for CDF plotting)."""
        return self.report.total_time_s if self.report else float("inf")


@dataclass(frozen=True)
class CampaignResult:
    """All node results for one firmware image."""

    image_label: str
    results: tuple[NodeResult, ...]

    def durations_s(self, successes_only: bool = True) -> np.ndarray:
        """Per-node programming times."""
        durations = [r.duration_s for r in self.results
                     if r.succeeded or not successes_only]
        return np.asarray(durations, dtype=np.float64)

    def mean_duration_s(self) -> float:
        """Average programming time over successful sessions.

        Raises:
            OtaError: if every session failed.
        """
        durations = self.durations_s()
        if durations.size == 0:
            raise OtaError("no node was programmed successfully")
        return float(np.mean(durations))

    def cdf(self) -> tuple[np.ndarray, np.ndarray]:
        """Empirical CDF points ``(sorted durations, probabilities)``."""
        durations = np.sort(self.durations_s())
        probabilities = np.arange(1, durations.size + 1) / len(self.results)
        return durations, probabilities

    def total_node_energy_j(self) -> float:
        """Summed node-side energy over successful sessions."""
        return sum(r.report.node_energy_j for r in self.results if r.report)


def run_campaign(deployment: Deployment, image: bytes, image_label: str,
                 rng: np.random.Generator,
                 params: LoRaParams = DEFAULT_OTA_PARAMS,
                 is_fpga_image: bool = True) -> CampaignResult:
    """Program every node in the deployment with one image.

    Each node gets a fresh updater (its own flash/MCU state) and a link
    whose RSSI is drawn from the deployment's path-loss model including
    shadowing - so different nodes land at different points of the PER
    curve, which is exactly what spreads the Fig. 14 CDF.  The AP
    compresses the image once and sends the same blocks to every node.
    """
    blocks = split_and_compress(image)
    results = []
    for node in deployment.nodes:
        downlink = deployment.downlink_rssi_dbm(node, rng)
        link = OtaLink(params=params, downlink_rssi_dbm=downlink,
                       uplink_rssi_dbm=deployment.uplink_rssi_dbm(node, rng))
        try:
            report = OtaUpdater().update(image, link, rng, blocks=blocks,
                                         is_fpga_image=is_fpga_image)
        except OtaError:
            report = None
        results.append(NodeResult(
            node_id=node.node_id, distance_m=node.distance_m,
            downlink_rssi_dbm=downlink, report=report))
    return CampaignResult(image_label=image_label, results=tuple(results))
