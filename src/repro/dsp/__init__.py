"""Digital signal processing substrate.

Everything the tinySDR FPGA does to samples - NCO chirp synthesis, FIR
filtering, FFT demodulation, Gaussian pulse shaping - plus the fixed-point
quantization those blocks impose and the measurement tools used to
characterize the results.
"""

from repro.dsp.fft import Radix2Fft
from repro.dsp.filters import StreamingFir, design_lowpass, filter_block
from repro.dsp.fixedpoint import (
    from_codes,
    quantization_snr_db,
    quantize,
    quantize_complex,
    to_codes,
)
from repro.dsp.measure import (
    envelope,
    estimate_snr_db,
    periodogram,
    scale_to_power,
    signal_power,
    signal_power_dbm,
    spurious_free_dynamic_range_db,
)
from repro.dsp.nco import Nco, NcoConfig
from repro.dsp.resample import decimate, interpolate, resample_power_of_two
from repro.dsp.pulse import (
    frequency_to_phase,
    gaussian_taps,
    shape_bits,
    upsample,
)

__all__ = [
    "Nco",
    "NcoConfig",
    "Radix2Fft",
    "StreamingFir",
    "decimate",
    "design_lowpass",
    "envelope",
    "estimate_snr_db",
    "filter_block",
    "frequency_to_phase",
    "from_codes",
    "gaussian_taps",
    "interpolate",
    "periodogram",
    "quantization_snr_db",
    "quantize",
    "quantize_complex",
    "resample_power_of_two",
    "scale_to_power",
    "shape_bits",
    "signal_power",
    "signal_power_dbm",
    "spurious_free_dynamic_range_db",
    "to_codes",
    "upsample",
]
