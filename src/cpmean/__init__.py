"""Operator means and Lebesgue decomposition for completely positive maps.

The package is organized in layers, each using only those above it:

* :mod:`cpmean.hermlinalg` -- Hermitian/PSD matrix kernel (types, spectral
  primitives, tolerance policy).
* :mod:`cpmean.opmeans` -- operator means and Kubo-Ando connections on the
  PSD cone.
* :mod:`cpmean.cpmaps` -- CP maps as Choi matrices: order, means, indices,
  and the channel zoo.
* :mod:`cpmean.lebesgue` -- Lebesgue-type decomposition relative to a
  reference map.
* :mod:`cpmean.channeldoc` -- channel documents (Choi or Kraus JSON).
* :mod:`cpmean.report` -- command reports with per-check residuals.
* :mod:`cpmean.registry` -- the worked-example registry.
* :mod:`cpmean.cli` -- the ``cpmean`` command-line tool.
"""

from .errors import (
    CpMeanError,
    DomainError,
    InvalidInput,
    NotCompletelyPositive,
    ParseError,
    ShapeError,
    UnknownExample,
)
from .hermlinalg import (
    HermitianMatrix,
    PsdMatrix,
    is_psd,
    psd_sqrt,
)
from .opmeans import (
    ConnectionRep,
    MeanKind,
    adjoint_rep,
    dual_rep,
    geometric_mean,
    mean,
    power_rep,
    transpose_rep,
)
from .cpmaps import (
    CpMap,
    choi_from_action,
    compose,
    cond_exp_diag,
    cond_exp_rotated,
    cond_exp_tensor,
    depolarizing,
    from_choi,
    from_kraus,
    functional,
    geo_certificate,
    identity,
    index_cp,
    kraus_decompose,
    mean_cp,
    order_cp,
    schur,
    state_mean_quantities,
    tensor,
    unitary_conj,
)
from .lebesgue import (
    LebesgueSplit,
    decompose,
    is_abs_continuous,
    is_singular,
)
from .channeldoc import read_doc, save_channel

__version__ = "0.1.0"
