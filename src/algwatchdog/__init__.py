"""Two-hop algebraic watchdog for wireless network coding.

Source nodes overhear their peer and the downstream relay over noisy
channels and determine, from hash side-information and Hamming-ball candidate
sets, whether the relay corrupted the coded payload.  The package bundles
the field/hash/channel primitives, both detection engines, closed-form
error-probability predictors, and a reproducible Monte Carlo harness.
"""

from .channel import (
    BinarySymmetricChannel,
    Radius,
    ball_offsets,
    ball_volume,
    binomial_cdf_exact,
    likelihood,
    radius_for_epsilon,
    transmit,
)
from .gf2n import FieldElement, FieldSpec, SpecMismatchError, UnsupportedWidthError, canonical_spec
from .harness import (
    ConfigError,
    SimConfig,
    SimReport,
    report_json,
    run_trials,
    sweep,
    wilson_interval,
    write_report,
)
from .hashing import HashFunction, evaluate, sample
from .protocol import (
    AdversaryStrategy,
    Scenario,
    observe,
    relay_output,
)
from .theory import (
    Prediction,
    TheoryParams,
    conservative_gamma_bound,
    gamma_bound,
    misdetection_v1,
    misdetection_v2,
    predicted_beta,
    predicted_beta_no_overhear,
)
from .watchdog import (
    Hypothesis,
    Observation,
    Trellis,
    Verdict,
    algebraic_batch,
    algebraic_check,
    build_trellis,
    candidate_set,
    consistency_probability,
    trellis_batch,
)

__version__ = "0.1.0"
