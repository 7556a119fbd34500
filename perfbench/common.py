"""What the three workload modules share: the pass result and percentiles.

A workload module (``phy_stream``, ``ota_campaign``, ``service_mix``)
imports the ``repro`` modules it drives at import time, so importing it
is the import part of the workload's set-up.  It defines ``Pass``:

* ``Pass(seed, workdir)`` generates the inputs from the seed alone and
  builds the objects the client drives (the rest of the set-up);
* ``step(tracer=None)`` runs one unit of the closed-loop client and
  returns how many units it ran; ``units`` counts them;
* ``result()`` checks every output and returns a :class:`PassResult`;
* ``close()`` releases what the pass holds open.

The units a pass runs, in order, are a pure function of the seed, so a
traced pass of ``n`` units can be compared output for output with an
untraced one.  ``tracer``, when given, only has its ``op`` attribute set
to the current operation id; the wrappers that record spans are
installed from :mod:`layers`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

clock = time.perf_counter


@dataclass
class PassResult:
    """What one pass did.

    Attributes:
        attempted: operations attempted (packets, campaign nodes plus
            fleet campaigns, or jobs).
        failures: one line per failed operation.
        metrics: the end-to-end metrics this pass defines.
        layer: per-layer figures the client measures itself.
        outputs: everything the program returned that a traced run must
            reproduce exactly.
        busy_s: wall time spent inside ``step``, input generation aside.
    """

    attempted: int
    failures: list[str]
    metrics: dict[str, float]
    layer: dict[str, float]
    outputs: list = field(repr=False)
    busy_s: float


def percentile_ms(seconds: list[float], q: float) -> float:
    """The ``q``-th percentile of samples in seconds, in milliseconds."""
    return float(np.percentile(np.asarray(seconds), q)) * 1e3
