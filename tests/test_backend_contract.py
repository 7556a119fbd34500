"""The PHY chains reach their hot kernels through the shared instance.

``perfbench/layers.py`` times the ``phy.backend.*`` layers by wrapping
methods on ``type(get_backend())``; a kernel the PHY code called as a
plain function, or on another object, would silently read zero there.
"""

from collections import Counter

import numpy as np

from repro.phy.backend import get_backend, resolve_backend_name
from repro.phy.lora import (
    LoRaDemodulator,
    LoRaModulator,
    LoRaParams,
    StreamingDemodulator,
)

TRACED_KERNELS = ("fft_block", "fir_aligned", "fir_carry",
                  "dechirp_magnitudes")


def test_phy_chains_call_the_traced_kernels(monkeypatch):
    kernels = type(get_backend())
    for name in TRACED_KERNELS:
        assert name in vars(kernels), name

    calls = Counter()

    def counting(name, original):
        def wrapper(self, *args, **kwargs):
            calls[name] += 1
            return original(self, *args, **kwargs)
        return wrapper

    for name in TRACED_KERNELS:
        monkeypatch.setattr(kernels, name,
                            counting(name, vars(kernels)[name]))

    params = LoRaParams(spreading_factor=7, bandwidth_hz=125e3,
                        oversampling=2)
    payload = b"contract"
    frame = np.concatenate([np.zeros(700, dtype=np.complex128),
                            LoRaModulator(params).modulate(payload),
                            np.zeros(700, dtype=np.complex128)])

    streaming = StreamingDemodulator(params)
    packets = streaming.push(frame) + streaming.flush()
    assert [p.decoded.payload for p in packets] == [payload]
    for name in ("fft_block", "fir_carry", "dechirp_magnitudes"):
        assert calls[name] > 0, name

    calls.clear()
    packets = LoRaDemodulator(params).receive_all(frame)
    assert [p.decoded.payload for p in packets] == [payload]
    assert calls["fir_aligned"] > 0

    assert resolve_backend_name() == "numpy"
