"""Gauss-Jacobi atoms of t^alpha: the test oracle of the ConnectionRep atom sum.

``cpmean.power_rep`` is t^alpha in closed form; this finite discretization of
its representing measure exercises the atom sum of ``ConnectionRep`` instead.
Needs scipy, which the package itself does not.
"""

import numpy as np
from scipy.special import roots_jacobi

from cpmean.errors import DomainError
from cpmean.opmeans import ConnectionRep

TOL_QUAD = 1e-6   # scalar quadrature accuracy of power_atoms


def power_atoms(alpha: float, nodes: int = 64) -> ConnectionRep:
    """Discretize the representing measure of t^alpha into ``nodes`` atoms.

    The measure density is sin(a pi)/pi * l^(a-1) / (1 + l) dl on (0, inf).
    Under l = u/(1-u) this becomes sin(a pi)/pi * u^(a-1) (1-u)^(-a) du on
    (0, 1), whose endpoint singularities defeat plain Gauss-Legendre; the
    nodes are therefore taken from the Gauss-Jacobi rule with exactly that
    weight, which integrates the remaining analytic kernel to near machine
    precision.

    A finite atom sum has ``g(inf) = sum_k w_k (1 + l_k) < inf``, so the
    adjoint and the dual leak ``1/g(inf)`` (1/128 at alpha = 1/2) onto ker B,
    where those of t^alpha vanish: an oracle of the atom sum, not a
    substitute for ``power_rep``.
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"power_atoms requires alpha in (0, 1), got {alpha}")
    if nodes < 4:
        raise DomainError("power_atoms requires at least 4 quadrature nodes")
    with np.errstate(invalid="ignore"):
        x, wj = roots_jacobi(nodes, -alpha, alpha - 1.0)
    u = 0.5 * (x + 1.0)
    lam = u / (1.0 - u)
    wt = np.sin(alpha * np.pi) / np.pi * wj
    atoms = tuple((float(l), float(w)) for l, w in zip(lam, wt) if w > 0.0)
    return ConnectionRep(0.0, 0.0, atoms)
