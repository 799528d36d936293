"""Global utility structures.

Discrete structures are rank-based surrogate weight vectors; continuous
structures are risk-preference utility densities over ``[0, K]`` together
with closed-form segment integrals.
"""

from dataclasses import dataclass
import math
import sys

import numpy as np

from .exceptions import DomainError, ValidationError

DISCRETE_KINDS = ("rs", "ref", "rr", "sr", "roc", "uniform")
CONTINUOUS_KINDS = ("neutral", "hara", "crra", "cara", "sshape")
# the parameters each kind reads; a structure object may hold only these
KIND_PARAMETERS = {
    "rs": (), "ref": ("exponent",), "rr": (), "sr": (), "roc": (), "uniform": (),
    "neutral": (), "hara": ("alpha", "beta", "gamma"), "crra": ("alpha", "gamma"),
    "cara": ("a",), "sshape": ("steepness",),
}
_FLOAT_MAX = sys.float_info.max

DEFAULT_REF_EXPONENT = 1.17
DEFAULT_SSHAPE_STEEPNESS = 1.0


@dataclass(frozen=True)
class UtilityStructure:
    """Tagged selection of a global utility structure for one cell.

    Discrete kinds: ``rs`` (rank sum), ``ref`` (rank exponent, uses
    ``exponent``), ``rr`` (rank reciprocal), ``sr`` (sum reciprocal),
    ``roc`` (rank order centroid), ``uniform``.

    Continuous kinds: ``neutral``, ``hara`` (uses ``alpha, beta, gamma``),
    ``crra`` (uses ``alpha, gamma``), ``cara`` (uses ``a``), ``sshape``
    (uses ``steepness``).
    """

    kind: str
    exponent: float = DEFAULT_REF_EXPONENT
    alpha: float = 1.0
    beta: float = 0.0
    gamma: float = 1.0
    a: float = 1.0
    steepness: float = DEFAULT_SSHAPE_STEEPNESS

    def __post_init__(self):
        if self.kind not in DISCRETE_KINDS + CONTINUOUS_KINDS:
            raise ValidationError("structures.kind", f"unknown kind {self.kind!r}")
        if self.kind == "ref" and not self.exponent > 0:
            raise ValidationError("structures.exponent", "rank exponent must be > 0")
        if self.kind in ("hara", "crra") and not self.alpha > 0:
            raise ValidationError("structures.alpha", "density scale alpha must be > 0")
        if self.kind == "hara" and self.gamma == 0:
            raise ValidationError("structures.gamma", "hara gamma must be nonzero")
        if self.kind == "crra" and not 0 < self.gamma < 1:
            # gamma >= 1 makes the density non-integrable at the origin
            raise ValidationError("structures.gamma", "crra gamma must lie in (0, 1)")
        if self.kind == "cara" and self.a == 0:
            raise ValidationError("structures.a", "cara coefficient must be nonzero")
        if self.kind == "sshape" and not self.steepness > 0:
            raise ValidationError("structures.steepness", "steepness must be > 0")

    @property
    def is_discrete(self):
        return self.kind in DISCRETE_KINDS

    def to_dict(self):
        return {"kind": self.kind, **{name: getattr(self, name)
                                      for name in KIND_PARAMETERS[self.kind]}}

    @classmethod
    def from_dict(cls, doc, path="structures"):
        if not isinstance(doc, dict) or "kind" not in doc:
            raise ValidationError(path, "structure must be an object with a 'kind' key")
        kind = doc["kind"]
        if not isinstance(kind, str) or kind not in KIND_PARAMETERS:
            raise ValidationError(f"{path}.kind", f"unknown kind {kind!r}")
        unread = sorted(set(doc) - {"kind", *KIND_PARAMETERS[kind]})
        if unread:
            raise ValidationError(f"{path}.{unread[0]}",
                                  f"kind {kind!r} reads no parameter {unread[0]!r}")
        for name, value in doc.items():   # the checks of __post_init__ compare numbers
            if name != "kind" and not isinstance(value, (int, float)):
                raise ValidationError(f"{path}.{name}", "expected a finite number")
        structure = cls(**doc)
        for name, value in doc.items():   # a bool, NaN or an infinity those checks let through
            if name != "kind":
                finite(value, f"{path}.{name}")
        return structure


def finite(value, path):
    """``value`` as a float; raises `ValidationError` at ``path`` unless it is a
    finite int or float (a bool is not, nor is an int beyond the float range)."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not -_FLOAT_MAX <= value <= _FLOAT_MAX):
        raise ValidationError(path, "expected a finite number")
    return float(value)


def surrogate_weights(kind, size, exponent=DEFAULT_REF_EXPONENT):
    """Return the surrogate weight vector of a discrete structure.

    Parameters
    ----------
    kind : str or UtilityStructure
        One of ``rs, ref, rr, sr, roc, uniform``.
    size : int
        Number of ranks K (>= 1).
    exponent : float
        Exponent for the ``ref`` family.

    Returns
    -------
    ndarray, shape (size,)
        Nonnegative, nonincreasing, summing to 1.
    """
    if isinstance(kind, UtilityStructure):
        if not kind.is_discrete:
            raise ValidationError("structures.kind", f"{kind.kind!r} is not a discrete kind")
        exponent = kind.exponent
        kind = kind.kind
    if size < 1:
        raise DomainError("size must be >= 1")
    r = np.arange(1, size + 1, dtype=float)
    if kind == "rs":
        v = 2.0 * (size + 1 - r) / (size * (size + 1))
    elif kind == "ref":
        if not exponent > 0:
            raise ValidationError("structures.exponent", "rank exponent must be > 0")
        v = (size + 1 - r) ** exponent
    elif kind == "rr":
        v = 1.0 / r
    elif kind == "sr":
        v = (size + 1 - r) / size + 1.0 / r
    elif kind == "roc":
        # tail sums of the harmonic series, divided by K
        v = np.cumsum(1.0 / r[::-1])[::-1] / size
    elif kind == "uniform":
        v = np.ones(size)
    else:
        raise ValidationError("structures.kind", f"unknown discrete kind {kind!r}")
    return v / v.sum()


class TargetDensity:
    """A normalized risk-preference utility density on ``[0, size]``.

    Exposes a pointwise evaluator, exact segment integrals, the cumulative
    distribution, and the risk coefficient ``-d/dx ln v(x)``.  Instances are
    immutable and safe to share across threads.
    """

    def __init__(self, structure, size):
        if isinstance(structure, str):
            structure = UtilityStructure(kind=structure)
        if structure.is_discrete:
            raise ValidationError("structures.kind",
                                  f"{structure.kind!r} is not a continuous kind")
        if size < 1:
            raise DomainError("size must be >= 1")
        self.structure = structure
        self.size = int(size)
        self.kind = structure.kind
        self._center = (1.0 + size) / 2.0  # sshape symmetry point
        self._check_domain()
        self._mass = self._raw_integral(0.0, float(size))
        if not self._mass > 0:
            raise DomainError(f"{self.kind} density has nonpositive mass on [0, {size}]")

    def _check_domain(self):
        s = self.structure
        if self.kind == "hara":
            slope = s.alpha / s.gamma
            base0 = s.beta
            base1 = s.beta + slope * self.size
            if min(base0, base1) <= 0:
                raise DomainError(
                    f"hara base beta + (alpha/gamma) x must stay positive on "
                    f"[0, {self.size}] (endpoints {base0:g}, {base1:g})")

    # --- raw (unnormalized) family -----------------------------------------

    def _raw_value(self, x):
        s = self.structure
        if self.kind == "neutral":
            return np.ones_like(x)
        if self.kind == "cara":
            return np.exp(-s.a * x)
        if self.kind in ("hara", "crra"):
            beta = s.beta if self.kind == "hara" else 0.0
            base = beta + (s.alpha / s.gamma) * x
            return s.alpha * base ** (-s.gamma)
        if self.kind == "sshape":
            k = s.steepness
            half = 0.5 * k * (x - self._center)
            return (k / 4.0) / np.cosh(half) ** 2
        raise DomainError(f"unknown continuous kind {self.kind!r}")

    def _raw_integral(self, a, b):
        s = self.structure
        if self.kind == "neutral":
            return b - a
        if self.kind == "cara":
            return (math.exp(-s.a * a) - math.exp(-s.a * b)) / s.a
        if self.kind in ("hara", "crra"):
            beta = s.beta if self.kind == "hara" else 0.0
            slope = s.alpha / s.gamma
            ua, ub = beta + slope * a, beta + slope * b
            if s.gamma == 1.0:
                return s.gamma * math.log(ub / ua)
            p = 1.0 - s.gamma
            return s.gamma * (ub ** p - ua ** p) / p
        if self.kind == "sshape":
            return self._logistic(b) - self._logistic(a)
        raise DomainError(f"unknown continuous kind {self.kind!r}")

    def _logistic(self, x):
        t = self.structure.steepness * (x - self._center)
        if t >= 0:
            return 1.0 / (1.0 + math.exp(-t))
        return math.exp(t) / (1.0 + math.exp(t))

    # --- normalized surface ---------------------------------------------------

    def value(self, x):
        """Density value(s) at ``x`` (scalar or array)."""
        x = np.asarray(x, dtype=float)
        return self._raw_value(x) / self._mass

    def integral(self, a, b):
        """Exact integral of the normalized density over ``[a, b]``."""
        return self._raw_integral(float(a), float(b)) / self._mass

    def cdf(self, x):
        return self.integral(0.0, x)

    def risk_coefficient(self, x):
        """Arrow-Pratt coefficient ``-d/dx ln v(x)`` of the density."""
        s = self.structure
        if self.kind == "neutral":
            return 0.0
        if self.kind == "cara":
            return s.a
        if self.kind in ("hara", "crra"):
            beta = s.beta if self.kind == "hara" else 0.0
            base = beta + (s.alpha / s.gamma) * x
            if base <= 0:
                raise DomainError(f"x={x:g} outside the density domain")
            return s.alpha / base
        if self.kind == "sshape":
            return s.steepness * (2.0 * self._logistic(float(x)) - 1.0)
        raise DomainError(f"unknown continuous kind {self.kind!r}")


def target_density(structure, size):
    """Build the normalized ``TargetDensity`` of a continuous structure on ``[0, size]``."""
    return TargetDensity(structure, size)
