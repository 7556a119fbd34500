"""Where the traced run wraps the program, and how spans become metrics.

Every wrapper sits at the attribute its caller resolves at call time, so
installing it from here changes nothing under ``src/``:

* class methods, for example ``NumpyBackend.fft_block`` or
  ``JobJournal.append``;
* module attributes called through the module, for example
  ``minilzo.compress`` (``repro.ota.blocks`` calls ``minilzo.compress``);
* names another module imported, at the importing module, for example
  ``repro.core.sweeps.receive``.

A span's name is the prefix of its metrics: ``<span>.calls`` and
``<span>.self_s``.  ``perfbench/layer_map.json`` says which end-to-end
metric each per-layer metric should move, and on which workload.
"""

from __future__ import annotations

from spans import Tracer


def _fft_rows(counters, args, kwargs, result) -> None:
    counters["phy.backend.fft_block.rows"] += result.shape[0]


def _compress_bytes(counters, args, kwargs, result) -> None:
    counters["ota.minilzo.compress.bytes_in"] += len(args[0])


def install(tracer: Tracer) -> None:
    """Wrap every traced boundary; ``tracer.uninstall()`` undoes it."""
    from repro.core import sweeps
    from repro.ota import fleet, mac, minilzo
    from repro.ota.flash import Mx25R6435F
    from repro.phy.backend import get_backend
    from repro.phy.ble.gfsk import GfskDemodulator
    from repro.phy.lora import StreamingDemodulator
    from repro.phy.lora.demodulator import SymbolDemodulator
    from repro.radio import iqword
    from repro.service import (
        CampaignService,
        JobJournal,
        ResultCache,
        WorkloadRegistry,
        jobspec,
    )
    from repro.sim import Timeline

    # The kernels run on the resolved backend's class; a subclass that
    # inherits a kernel gets the wrapper on itself, not on its base.
    backend = type(get_backend())
    tracer.install(iqword, "words_to_samples", "radio.words_to_samples")
    tracer.install(backend, "fft_block", "phy.backend.fft_block",
                   measure=_fft_rows)
    tracer.install(backend, "fir_aligned", "phy.backend.fir")
    tracer.install(backend, "fir_carry", "phy.backend.fir")
    tracer.install(backend, "dechirp_magnitudes",
                   "phy.backend.dechirp_magnitudes")
    tracer.install(StreamingDemodulator, "push", "phy.lora.push")
    tracer.install(SymbolDemodulator, "demodulate_upchirp",
                   "phy.lora.demodulate_upchirp")
    tracer.install(GfskDemodulator, "demodulate", "phy.ble.gfsk_demodulate")
    tracer.install(sweeps, "receive", "channel.receive")
    tracer.install(minilzo, "compress", "ota.minilzo.compress",
                   measure=_compress_bytes)
    tracer.install(minilzo, "decompress", "ota.minilzo.decompress")
    tracer.install(Mx25R6435F, "__init__", "ota.flash.init")
    tracer.install(Mx25R6435F, "program", "ota.flash.program")
    tracer.install(mac, "run_stop_and_wait", "ota.mac.stop_and_wait")
    tracer.install(fleet, "run_fleet_campaign", "ota.fleet.run")
    tracer.install(fleet, "write_fleet_spill", "ota.fleet.spill")
    tracer.install(Timeline, "record", "sim.timeline.record")
    tracer.install(CampaignService, "submit", "service.submit")
    tracer.install(CampaignService, "run_next", "service.run_next")
    # canonical_form recurses through its module global: one span per
    # top-level call.
    tracer.install(jobspec, "canonical_form", "service.canonical_form",
                   outermost_only=True)
    tracer.install(ResultCache, "get", "service.cache.get")
    tracer.install(ResultCache, "put", "service.cache.put")
    tracer.install(JobJournal, "append", "service.journal.append")
    tracer.install(WorkloadRegistry, "invoke", "service.engine")


def per_layer(names: list[str], tracer: Tracer,
              measured: dict[str, float]) -> dict[str, float]:
    """Every per-layer metric in ``names``.

    A name is looked up in ``measured`` (figures the client and the run
    took themselves), then in the tracer's counters, then as
    ``<span>.calls`` or ``<span>.self_s``.  A layer the workload never
    entered reads 0.
    """
    spans = tracer.summary()
    values = {}
    for name in names:
        if name in measured:
            values[name] = float(measured[name])
        elif name in tracer.counters:
            values[name] = float(tracer.counters[name])
        else:
            span, _, field = name.rpartition(".")
            values[name] = float(spans.get(span, {}).get(field, 0.0))
    return values
