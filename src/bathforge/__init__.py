"""bathforge: engineered noise baths, IQ control waveforms, qubit simulation.

Synthesize classical noise with user-chosen power-law spectra from discrete
frequency combs, compile it into IQ-modulated control waveforms, simulate
single-qubit Ramsey and Rabi experiments under the resulting dephasing or
amplitude-noise Hamiltonians, and verify everything against analytic
filter-function predictions and spectral oracles.
"""

__version__ = "0.16.0"

from .errors import (AmplitudeRangeWarning, BathforgeError, ConfigError, FitError,
                     NyquistError, ValidationError)
from .grid import TimeGrid
from .noise import (AnalyticComb, NoiseRealization, NoiseSpec, Quadrature, analytic_psd,
                    draw_phases, realize)
from .filter_theory import (CoherenceCurve, chi_fid_comb, chi_white_analytic,
                            coherence_curve, fidelity_from_chi, predicted_t2)
from .spectral import (PsdEstimate, SidebandComb, estimate_psd, fit_tooth_powerlaw,
                       pm_sidebands, powerlaw_map_pm, to_dbc, tooth_weights)
from .waveform import (ControlProgram, ContinuityReport, IQWaveform, Segment,
                       compose, continuity_report, quantize, to_iq)
from .qubit import ExperimentRecord, HamiltonianSamples, ket0, propagate, rabi, ramsey
from .measurement import (REFERENCE_CALIBRATION, CountCalibration, ThetaPosterior,
                          bayes_update, population_from_theta, simple_normalize,
                          simulate_counts, uniform_prior)
from .analysis import (AlphaScanResult, DecayFit, alpha_scaling, fit_decay,
                       fit_rate_exponent)
