"""Problem model, scenario datasets, and configuration shared by all modules.

A design problem is described by an objective J(theta), a list of
requirement functions r_k(theta, a, e) that are satisfied when <= 0, and a
box of admissible designs.  The aleatory parameter ``a`` is random with an
unknown distribution, the epistemic parameter ``e`` lives in a bounded set.

Contract on user-supplied callables
-----------------------------------
Objective and requirement functions must be pure and reentrant (no hidden
mutable state) and must broadcast over leading axes: ``theta`` has trailing
dimension ``m_theta``, ``a`` trailing ``m_a``, ``e`` trailing ``m_e``, and
any compatible leading shapes are combined by normal numpy broadcasting.
All functions must return finite values for finite input, including points
slightly outside the design box (finite-difference probes step outside).

Grid contract: each output entry of a requirement depends only on its own
(theta, a, e) point and is bit-identical under any broadcast layout of the
same points.  ``montecarlo.analyze`` relies on it to evaluate the testing
grid in tiles of at most ``_TILE_FLOATS`` values, as the NLP relies on its
batch contract (see ``scendo.nlp``) to stack and split batches of design
rows.

All types in this module are immutable after construction and safe to
share across threads.

scipy's compiled kernels.  scendo calls four of scipy's extension
modules, each loaded from its file alone by ``_scipy_extension``, not
through its package: ``optimize._lbfgsb`` (``setulb``, see ``scendo.nlp``),
``optimize._zeros`` (Brent's method, see ``scendo.risk_bounds``),
``special._special_ufuncs`` (``gammaln``) and ``special._ufuncs_cxx``
(the C routine of ``betaincinv``, see ``scendo.montecarlo``).  Importing
the scipy.optimize or scipy.special package would load hundreds of scipy
modules and its array-API layer that scendo never calls.  This relies on
scipy's private file layout and names.
"""

from __future__ import annotations

import inspect
import os
import sys
from dataclasses import dataclass, field
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from importlib.util import module_from_spec, spec_from_loader
from typing import Callable, Optional, Sequence

import numpy as np
import scipy

Array = np.ndarray

#: floats per hot-loop temporary of ``montecarlo.analyze`` (a tile of
#: requirement values), the training selection (a tile of candidates'
#: offsets and products) and ``risk_bounds.epsilon_bar`` (a block of
#: series terms): 2**14, 128 KiB, which glibc's default mmap threshold
#: still serves from the heap.  So these loops reuse the same heap memory
#: whatever the allocator did before, and do not fault fresh pages in on
#: every pass.
_TILE_FLOATS = 2**14


def _scipy_extension(dotted_name: str):
    """scipy's compiled module ``scipy.<dotted_name>``, e.g.
    ``"optimize._lbfgsb"``: the entry in ``sys.modules`` if there is one,
    else loaded from its file, the first ``scipy/<package>/<module><suffix>``
    (``importlib.machinery.EXTENSION_SUFFIXES``) next to ``scipy.__file__``,
    and registered there, so the extension is never loaded twice and a
    later import of its package picks up the same module.  If the package
    is already imported, the module is also set as its attribute; a package
    imported later finds the module in ``sys.modules`` but does not set it.
    ImportError naming the path if there is no such file."""
    name = f"scipy.{dotted_name}"
    if name in sys.modules:
        return sys.modules[name]
    stem = os.path.join(os.path.dirname(scipy.__file__), *dotted_name.split("."))
    path = next((stem + s for s in EXTENSION_SUFFIXES if os.path.isfile(stem + s)), None)
    if path is None:
        suffixes = ",".join(EXTENSION_SUFFIXES)
        raise ImportError(f"scipy extension {name} not found: no file {stem}{{{suffixes}}}")
    loader = ExtensionFileLoader(name, path)
    module = module_from_spec(spec_from_loader(name, loader))
    sys.modules[name] = module
    loader.exec_module(module)
    parent, _, child = name.rpartition(".")
    if parent in sys.modules:
        setattr(sys.modules[parent], child, module)
    return module


class InputError(ValueError):
    """User-supplied data violates a documented precondition."""


def _as_float_array(x, name: str, ndim: int | None = None) -> Array:
    try:
        arr = np.asarray(x, dtype=float)
    except (TypeError, ValueError):
        raise InputError(f"{name} must be numeric, got {x!r}") from None
    if ndim is not None and arr.ndim != ndim:
        raise InputError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InputError(f"{name} contains non-finite entries")
    return arr


def _integers(obj, *names: str) -> None:
    """InputError unless each field ``names`` of ``obj`` is a Python or
    numpy integer; a bool is not one."""
    for name in names:
        value = getattr(obj, name)
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise InputError(f"{name} must be an integer, got {value!r}")


def _fractions(name: str, value, n_r: int | None = None) -> Array:
    """``value`` as a vector of fractions in [0, 1], else InputError.

    A scalar or one-entry vector applies to every requirement; with the
    requirement count ``n_r`` given it is broadcast to ``n_r`` entries, and
    a vector of any other length but ``n_r`` is an InputError.
    """
    v = np.atleast_1d(np.asarray(value, dtype=float))
    if not np.all((v >= 0) & (v <= 1)):  # NaN fails both comparisons
        raise InputError(f"{name} entries must lie in [0, 1]")
    if n_r is None:
        return v
    if v.size == 1:
        return np.full(n_r, v[0])
    if v.size != n_r:
        raise InputError(f"{name} has {v.size} entries; the problem has {n_r} requirements")
    return v


@dataclass(frozen=True)
class ProblemSpec:
    """The mathematical object being optimized.

    ``requirements[k](theta, a, e) <= 0`` means requirement k is met.
    ``design_bounds`` is an (m_theta, 2) array of [lower, upper] columns.
    """

    objective: Callable[[Array], Array]
    requirements: Sequence[Callable[[Array, Array, Array], Array]]
    design_bounds: Array
    m_a: int
    m_e: int

    def __post_init__(self):
        bounds = _as_float_array(self.design_bounds, "design_bounds", ndim=2)
        if bounds.shape[1] != 2 or bounds.shape[0] < 1:
            raise InputError(f"design_bounds must be (m_theta, 2), got {bounds.shape}")
        if np.any(bounds[:, 0] > bounds[:, 1]):
            raise InputError("design_bounds has lower > upper")
        object.__setattr__(self, "design_bounds", bounds)
        object.__setattr__(self, "requirements", tuple(self.requirements))
        if len(self.requirements) < 1:
            raise InputError("at least one requirement function is required")
        if self.m_a < 1 or self.m_e < 1:
            raise InputError("m_a and m_e must be positive")
        bounds.setflags(write=False)

    @property
    def m_theta(self) -> int:
        return self.design_bounds.shape[0]

    @property
    def n_r(self) -> int:
        return len(self.requirements)


def _check_trailing(name: str, arr: Array, expected: int) -> Array:
    arr = np.asarray(arr, dtype=float)
    if arr.ndim == 0 or arr.shape[-1] != expected:
        raise InputError(
            f"{name} must have trailing dimension {expected}, got shape {arr.shape}"
        )
    return arr


def r_max(spec: ProblemSpec, theta, a, e) -> Array:
    """Worst-case requirement value max_k r_k(theta, a, e).

    Accepts broadcastable batches on the leading axes; a design satisfies
    every requirement at (a, e) iff the returned value is <= 0.
    """
    theta = _check_trailing("theta", theta, spec.m_theta)
    a = _check_trailing("a", a, spec.m_a)
    e = _check_trailing("e", e, spec.m_e)
    vals = [np.asarray(rk(theta, a, e), dtype=float) for rk in spec.requirements]
    return np.maximum.reduce(vals) if len(vals) > 1 else vals[0]


@dataclass(frozen=True)
class ScenarioData:
    """Training scenarios (aleatory rows, epistemic rows) plus optional
    testing sets used by the Monte Carlo analysis and sequential design.

    The aleatory training set needs at least two rows so the empirical CDF
    of the requirement values is defined.  A single epistemic scenario is
    allowed: every epistemic quantile then degenerates to that scenario's
    value (this covers designs that ignore epistemic uncertainty).
    """

    aleatory: Array
    epistemic: Array
    testing_aleatory: Optional[Array] = None
    testing_epistemic: Optional[Array] = None

    def __post_init__(self):
        a = _as_float_array(self.aleatory, "aleatory", ndim=2)
        e = _as_float_array(self.epistemic, "epistemic", ndim=2)
        if a.shape[0] < 2:
            raise InputError("need at least 2 aleatory scenarios")
        if e.shape[0] < 1:
            raise InputError("need at least 1 epistemic scenario")
        object.__setattr__(self, "aleatory", a)
        object.__setattr__(self, "epistemic", e)
        for name in ("testing_aleatory", "testing_epistemic"):
            val = getattr(self, name)
            if val is not None:
                val = _as_float_array(val, name, ndim=2)
                ref = a if name == "testing_aleatory" else e
                if val.shape[1] != ref.shape[1]:
                    raise InputError(f"{name} column count differs from training set")
                object.__setattr__(self, name, val)
                val.setflags(write=False)
        a.setflags(write=False)
        e.setflags(write=False)

    @property
    def n_a(self) -> int:
        return self.aleatory.shape[0]

    @property
    def n_e(self) -> int:
        return self.epistemic.shape[0]

    @property
    def n_a_test(self) -> int:
        return 0 if self.testing_aleatory is None else self.testing_aleatory.shape[0]

    @property
    def n_e_test(self) -> int:
        return 0 if self.testing_epistemic is None else self.testing_epistemic.shape[0]

    def drop_aleatory(self, i: int) -> "ScenarioData":
        """Dataset without aleatory scenario i (its whole epistemic row of
        constraints disappears with it)."""
        keep = np.delete(np.arange(self.n_a), i)
        return ScenarioData(
            self.aleatory[keep],
            self.epistemic,
            self.testing_aleatory,
            self.testing_epistemic,
        )

    def check_widths(self, spec: ProblemSpec) -> None:
        """InputError naming every set whose column count is not the
        problem's: ``spec.m_a`` for the aleatory sets, ``spec.m_e`` for the
        epistemic ones, training and (where present) testing."""
        bad = [
            f"{name} has {arr.shape[1]} columns, the problem needs {width}"
            for name, width in (
                ("aleatory", spec.m_a), ("epistemic", spec.m_e),
                ("testing_aleatory", spec.m_a), ("testing_epistemic", spec.m_e),
            )
            if (arr := getattr(self, name)) is not None and arr.shape[1] != width
        ]
        if bad:
            raise InputError("; ".join(bad))

    def require_testing(self) -> None:
        if self.testing_aleatory is None or self.testing_epistemic is None:
            raise InputError("operation requires testing_aleatory and testing_epistemic")


@dataclass(frozen=True)
class EpistemicSet:
    """Bounded epistemic set {e : ||c - e|| <= radius}.

    ``kind="box"`` uses the weighted max-norm max_i |x_i| / scale_i, so the
    set is a hyper-rectangle; ``kind="ellipsoid"`` uses the weighted 2-norm
    sqrt(sum (x_i/scale_i)^2).  ``scale`` entries must be positive.
    """

    center: Array
    radius: float
    kind: str = "box"
    scale: Optional[Array] = None

    def __post_init__(self):
        c = _as_float_array(self.center, "center", ndim=1)
        object.__setattr__(self, "center", c)
        if not 0.0 <= self.radius < np.inf:  # NaN fails it
            raise InputError(f"radius must be finite and nonnegative, got {self.radius}")
        if self.kind not in ("box", "ellipsoid"):
            raise InputError(f"unknown norm kind {self.kind!r}")
        scale = np.ones_like(c) if self.scale is None else _as_float_array(self.scale, "scale", ndim=1)
        if scale.shape != c.shape or np.any(scale <= 0):
            raise InputError("scale must be positive with the center's shape")
        object.__setattr__(self, "scale", scale)
        c.setflags(write=False)
        scale.setflags(write=False)

    @property
    def m_e(self) -> int:
        return self.center.shape[0]

    def norm(self, e) -> Array:
        """Weighted norm of e - center (broadcasts over leading axes)."""
        x = (np.asarray(e, dtype=float) - self.center) / self.scale
        if self.kind == "box":
            return np.max(np.abs(x), axis=-1)
        return np.sqrt(np.sum(x * x, axis=-1))

    def contains(self, e) -> Array:
        return self.norm(e) <= self.radius

    @classmethod
    def from_box(cls, lower, upper) -> "EpistemicSet":
        lo = _as_float_array(lower, "lower", ndim=1)
        hi = _as_float_array(upper, "upper", ndim=1)
        if lo.shape != hi.shape or np.any(lo >= hi):
            raise InputError("box needs lower < upper componentwise")
        return cls(center=(lo + hi) / 2.0, radius=1.0, kind="box", scale=(hi - lo) / 2.0)

    def sample(self, n: int, rng: np.random.Generator) -> Array:
        """n points uniformly distributed in the set."""
        if self.kind == "box":
            u = rng.uniform(-1.0, 1.0, size=(n, self.m_e))
            return self.center + self.radius * self.scale * u
        g = rng.standard_normal((n, self.m_e))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        rad = rng.uniform(size=(n, 1)) ** (1.0 / self.m_e)
        return self.center + self.radius * self.scale * g * rad


@dataclass(frozen=True)
class AlphaConfig:
    """Outlier fractions and smoothing parameters for the scenario programs.

    alpha_a[k] / alpha_e[k] are the fractions of aleatory / epistemic
    scenarios allowed to violate requirement k; a scalar or one-entry
    vector applies to every requirement.  ``rho`` penalizes slack in
    the risk-averse programs, ``kappa`` sharpens the slack-to-weight map of
    the moment programs, ``gamma`` sharpens the epistemic weight rule.
    """

    alpha_a: Array = 0.0
    alpha_e: Array = 0.0
    rho: float = 1e6
    kappa: float = 1000.0
    gamma: float = 100.0

    def __post_init__(self):
        aa = _fractions("alpha_a", self.alpha_a)
        ae = _fractions("alpha_e", self.alpha_e)
        # each check is written so that NaN fails it
        if not 0 <= self.rho < np.inf:
            raise InputError("rho must be finite and nonnegative")
        if not (1 <= self.kappa < np.inf and 1 <= self.gamma < np.inf):
            raise InputError("kappa and gamma must be finite and >= 1")
        object.__setattr__(self, "alpha_a", aa)
        object.__setattr__(self, "alpha_e", ae)
        aa.setflags(write=False)
        ae.setflags(write=False)

    @classmethod
    def uniform(cls, n_r: int, alpha_a: float = 0.0, alpha_e: float = 0.0,
                **kwargs) -> "AlphaConfig":
        return cls(np.full(n_r, float(alpha_a)), np.full(n_r, float(alpha_e)), **kwargs)

    def for_spec(self, spec: ProblemSpec) -> "AlphaConfig":
        """Broadcast scalar fractions up to the spec's requirement count."""
        aa = _fractions("alpha_a", self.alpha_a, spec.n_r)
        ae = _fractions("alpha_e", self.alpha_e, spec.n_r)
        return AlphaConfig(aa, ae, self.rho, self.kappa, self.gamma)


@dataclass(frozen=True)
class SolveResult:
    """Solution of one scenario program.

    ``epistemic_outliers`` is a global index array for the global-outlier
    formulations and a list of per-aleatory-scenario index arrays for the
    local ones.  ``objective`` is J(theta_star) (lambda_star for the
    moment-based programs, sum(alpha_a_lower) for the feasibility seed).
    ``alpha_a_lower`` is set by the feasibility seed only.
    """

    theta_star: Array
    objective: float
    solver_status: str  # converged | max-iter | infeasible
    xi_star: Optional[Array] = None
    lambda_star: Optional[float] = None
    aleatory_outliers: Array = field(default_factory=lambda: np.empty(0, dtype=int))
    epistemic_outliers: object = None
    diagnostics: dict = field(default_factory=dict)
    alpha_a_lower: Optional[Array] = None


@dataclass(frozen=True)
class ProblemBundle:
    """A registered problem: spec plus the extras the tools need."""

    spec: ProblemSpec
    epistemic_set: EpistemicSet
    response: Optional[Callable] = None
    density: Optional[Callable] = None
    generate: Optional[Callable] = None  # (n_a, n_e, seed, n_a_test=0, n_e_test=0) -> ScenarioData


_PROBLEM_REGISTRY: dict[str, Callable[..., ProblemBundle]] = {}


def register_problem(name: str):
    """Decorator registering a problem factory under ``name``.

    Factories take keyword parameters and return a ProblemBundle; the CLI
    resolves the ``problem.name`` config field through this registry.
    """

    def deco(factory: Callable[..., ProblemBundle]):
        _PROBLEM_REGISTRY[name] = factory
        return factory

    return deco


def make_problem(name: str, **params) -> ProblemBundle:
    """The registered problem ``name`` built from ``params``, which must bind
    to its factory's signature."""
    try:
        factory = _PROBLEM_REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_PROBLEM_REGISTRY)) or "(none)"
        raise InputError(f"unknown problem {name!r}; registered: {known}") from None
    try:
        inspect.signature(factory).bind(**params)
    except TypeError as exc:
        raise InputError(f"problem {name!r} parameters: {exc}") from None
    return factory(**params)
