"""Constructors for finite-dimensional operator pairs (H0, H = H0 + G* V0 G).

Models provided:

* explicitly factorized pairs from user matrices,
* the half-line resolvent pair with rank-one difference (Nystrom
  discretization of the Dirichlet/Neumann Green kernels on [0, L]),
* 1-d Schrodinger pairs on a Dirichlet box with a decaying potential,
* seeded random gapped pairs for identity sweeps,

plus the resolvent change of spectral variable and probe recentering.
"""

import functools
import json
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .errors import DecayBoundError, GapViolationError, NonHermitianError
from .linalg import check_hermitian, herm_eig, is_tridiagonal, tridiagonal_bands
from .quadrature import make_quadrature

__all__ = [
    "OperatorPair", "PotentialSpec", "ResolventTransform",
    "build_finite_pair", "build_krein", "build_schrodinger_1d",
    "random_gapped_pair", "resolvent_transform", "shift_pair",
    "sech2_spec", "square_well_spec", "preset_pair", "preset_names",
    "thresholds",
]

FACTORIZATION_TOL = 1e-10
MODEL_HERMITIAN_TOL = 1e-10


def thresholds():
    """Calibrated sizes and thresholds shipped with the package."""
    with resources.files("projdiff").joinpath("thresholds.json").open() as fh:
        return json.load(fh)


@dataclass(frozen=True)
class OperatorPair:
    """A pair H0 and H = H0 + G* V0 G with the factorization kept explicit.

    ``g`` maps the main space into the coupling space (kdim x dim);
    ``v0`` is Hermitian on the coupling space.  ``meta`` records the model
    and any exactly known facts about it.

    Eigen-data are computed on first use and cached on the instance.  When
    both operators are tridiagonal (an exact test on the matrices) the
    eigenvalues and the eigenvectors near a probe come from a banded
    solver; otherwise from the dense eigensystems.
    """

    h0: np.ndarray
    h: np.ndarray
    g: np.ndarray
    v0: np.ndarray
    meta: dict = field(default_factory=dict)

    @property
    def dim(self):
        return self.h0.shape[0]

    @property
    def kdim(self):
        return self.g.shape[0]

    def factorization_residual(self):
        v = self.g.conj().T @ self.v0 @ self.g
        return np.linalg.norm(self.h - self.h0 - v, 2)

    def eigensystems(self):
        """Dense eigendecompositions of h0 and h."""
        return self._eigensystems

    @functools.cached_property
    def _eigensystems(self):
        return herm_eig(self.h0), herm_eig(self.h)

    @functools.cached_property
    def tridiagonal(self):
        """Whether h0 and h both vanish off their three central diagonals."""
        return is_tridiagonal(self.h0) and is_tridiagonal(self.h)

    @functools.cached_property
    def _bands(self):
        return tridiagonal_bands(self.h0), tridiagonal_bands(self.h)

    @functools.cached_property
    def eigenvalues(self):
        """Ascending eigenvalues of h0 and h."""
        if self.tridiagonal:
            return tuple(b.eigenvalues() for b in self._bands)
        return tuple(e.eigenvalues for e in self.eigensystems())

    def probe_basis(self, probe):
        """Eigenvectors of h0 and h on the side of ``probe`` holding fewer of them.

        Returns (side, u0, u1): side -1 takes the eigenvalues below the
        probe, +1 those above it; the side is shared by both operators.
        """
        n = self.dim
        below = [int(np.searchsorted(w, probe)) for w in self.eigenvalues]
        side = -1 if sum(below) <= n else +1
        ranges = [(0, m) if side < 0 else (m, n) for m in below]
        if self.tridiagonal:
            u0, u1 = (b.eigenpairs(lo, hi).eigenvectors
                      for b, (lo, hi) in zip(self._bands, ranges))
        else:
            u0, u1 = (e.eigenvectors[:, lo:hi]
                      for e, (lo, hi) in zip(self.eigensystems(), ranges))
        return side, u0, u1


def _finite(m, name):
    m = np.asarray(m)
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} has non-finite entries")
    return m


def _hermitize_check(m, name):
    m = _finite(m, name)
    if m.size == 0:
        return m
    try:
        check_hermitian(m, MODEL_HERMITIAN_TOL)
    except NonHermitianError as exc:
        raise ValueError(f"{name} is not Hermitian") from exc
    return m


def build_finite_pair(h0, g, v0, meta=None):
    """Assemble an :class:`OperatorPair` from its factorization pieces."""
    h0 = _hermitize_check(h0, "h0")
    v0 = _hermitize_check(v0, "v0")
    g = _finite(g, "g")
    if g.ndim != 2 or g.shape[1] != h0.shape[0] or v0.shape[0] != g.shape[0]:
        raise ValueError("inconsistent dimensions in (h0, g, v0)")
    h = h0 + g.conj().T @ v0 @ g
    pair = OperatorPair(h0, 0.5 * (h + h.conj().T), g, v0, dict(meta or {}))
    # Frobenius bounds the operator norm from above, and is O(n^2) to check
    resid = np.linalg.norm(pair.h - h0 - g.conj().T @ v0 @ g)
    scale = np.linalg.norm(pair.h) + np.linalg.norm(h0)
    if resid > FACTORIZATION_TOL * max(scale, 1.0):
        raise ArithmeticError(f"factorization residual {resid:.3e}")
    return pair


def build_krein(n=400, L=40.0):
    """Half-line resolvent pair with a rank-one difference.

    H0 is the Nystrom matrix of the kernel sinh(min(x,y))*exp(-max(x,y))
    on [0, L]; H adds the rank-one kernel exp(-x-y).  Both continuum
    operators have simple purely a.c. spectrum [0, 1]; the counting-shift
    between them is 1/2 on (0, 1) and the scattering matrix is -1 there.
    """
    if n < 16 or L < 10:
        raise ValueError("need n >= 16 and L >= 10")
    rule = make_quadrature("bounded-legendre", n, a=0.0, b=float(L))
    x, sq = rule.nodes, np.sqrt(rule.weights)
    lo = np.minimum.outer(x, x)
    hi = np.maximum.outer(x, x)
    # sinh(lo)*exp(-hi) written to avoid overflow of sinh at large argument
    kernel = 0.5 * (np.exp(lo - hi) - np.exp(-lo - hi))
    h0 = sq[:, None] * kernel * sq[None, :]
    u = sq * np.exp(-x)
    meta = {
        "model": "krein", "n": n, "L": float(L), "rule": rule,
        "exact": {"spectrum": (0.0, 1.0), "counting_shift": 0.5, "smatrix": -1.0},
    }
    return build_finite_pair(h0, u[None, :], np.array([[1.0]]), meta)


@dataclass(frozen=True)
class PotentialSpec:
    """A real potential with its declared decay envelope and grid.

    The envelope |V(x)| <= decay_constant * (1+|x|)**(-decay_exponent)
    is verified on the grid when the pair is built.
    """

    potential: callable
    decay_constant: float
    decay_exponent: float
    half_width: float
    n: int

    def grid(self):
        h = 2.0 * self.half_width / (self.n + 1)
        return -self.half_width + h * np.arange(1, self.n + 1), h


def sech2_spec(depth=1.0, half_width=120.0, n=2400):
    # sech^2(x) <= 4 exp(-2|x|) <= 4 (1+|x|)^{-2}, so rho = 2 with C = 4*depth
    pot = lambda x: -depth / np.cosh(x) ** 2
    return PotentialSpec(pot, 4.0 * depth, 2.0, float(half_width), int(n))


def square_well_spec(depth=1.0, width=1.0, half_width=120.0, n=2400):
    pot = lambda x: np.where(np.abs(x) < width, -depth, 0.0)
    c = depth * (1.0 + width) ** 2
    return PotentialSpec(pot, c, 2.0, float(half_width), int(n))


def build_schrodinger_1d(spec, support_floor=1e-14):
    """Dirichlet-box discretization of -d^2/dx^2 + V on [-X, X].

    The coupling space is restricted to grid points where |V| exceeds
    ``support_floor``; the pair's potential is the thresholded one, so
    the factorization H = H0 + G* V0 G is exact.
    """
    if spec.decay_exponent <= 1:
        raise ValueError("decay exponent must exceed 1")
    if spec.n < 200:
        raise ValueError("grid too coarse; need n >= 200")
    x, h = spec.grid()
    v = np.asarray(spec.potential(x), dtype=float)
    envelope = spec.decay_constant * (1.0 + np.abs(x)) ** (-spec.decay_exponent)
    bad = np.abs(v) > envelope * (1 + 1e-12)
    if np.any(bad):
        i = int(np.argmax(np.abs(v) - envelope))
        raise DecayBoundError(
            f"|V({x[i]:.4g})| = {abs(v[i]):.4g} exceeds declared envelope {envelope[i]:.4g}")
    n = spec.n
    h0 = (np.diag(np.full(n, 2.0)) + np.diag(np.full(n - 1, -1.0), 1)
          + np.diag(np.full(n - 1, -1.0), -1)) / h ** 2
    keep = np.abs(v) > support_floor
    idx = np.where(keep)[0]
    g = np.zeros((len(idx), n))
    g[np.arange(len(idx)), idx] = np.sqrt(np.abs(v[idx]))
    v0 = np.diag(np.sign(v[idx]))
    meta = {
        "model": "schrodinger", "grid": x, "step": h, "support": idx,
        "potential": np.where(keep, v, 0.0), "spec": spec,
    }
    return build_finite_pair(h0, g, v0, meta)


def random_gapped_pair(dim, kdim, seed, probes=(0.0,), gap=1e-3, max_tries=200):
    """Seeded random pair with both spectra bounded away from every probe.

    H0 is diagonal with entries uniform in [-1, 1] (resampled until
    gapped at the probes), G is Gaussian, V0 is a random sign matrix
    scaled to keep ||V|| about 1/2.  H is resampled until its spectrum
    is also gapped; the accepted try index is recorded in meta.
    """
    rng = np.random.default_rng(seed)
    probes = np.atleast_1d(np.asarray(probes, dtype=float))

    def gapped(values):
        return np.all(np.abs(values[:, None] - probes[None, :]) > gap)

    for attempt in range(max_tries):
        d = rng.uniform(-1.0, 1.0, size=dim)
        if not gapped(d):
            continue
        g = rng.standard_normal((kdim, dim)) + 1j * rng.standard_normal((kdim, dim))
        g *= 0.7 / np.linalg.norm(g, 2)
        v0 = np.diag(rng.choice([-1.0, 1.0], size=kdim))
        h = np.diag(d) + g.conj().T @ v0 @ g
        if gapped(np.linalg.eigvalsh(h)):
            meta = {"model": "finite:random", "seed": seed, "attempt": attempt,
                    "probes": probes.tolist(), "gap": gap}
            return build_finite_pair(np.diag(d).astype(complex), g, v0, meta)
    raise RuntimeError(f"no gapped pair found in {max_tries} tries for seed {seed}")


@dataclass(frozen=True)
class ResolventTransform:
    """The pair mapped through x -> 1/(x - shift), with its factorization.

    The spectral parameter moves by mu = 1/(lambda - shift); because the
    map is strictly decreasing on spectra above ``shift``, projection
    differences transform with the operator roles swapped:
    E(lambda) - E0(lambda) = E_trans_h0(mu) - E_trans_h(mu).
    """

    pair: OperatorPair
    shift: float

    def mu(self, lam):
        return 1.0 / (np.asarray(lam, dtype=float) - self.shift)


def resolvent_transform(pair, shift):
    """Invariance-principle transform (h0, h) = ((H0-a)^-1, (H-a)^-1).

    The transformed difference factorizes over the same coupling space:
    h - h0 = g* w0 g with g = G h0 and w0 = -V0 + V0 (G h G*) V0, an
    iterated resolvent identity.
    """
    e0, e1 = pair.eigensystems()
    bottom = min(e0.eigenvalues[0], e1.eigenvalues[0])
    if not shift < bottom - 1e-6:
        raise GapViolationError(shift, bottom)
    eye = np.eye(pair.dim)
    h0t = np.linalg.solve(pair.h0 - shift * eye, eye)
    ht = np.linalg.solve(pair.h - shift * eye, eye)
    h0t = 0.5 * (h0t + h0t.conj().T)
    ht = 0.5 * (ht + ht.conj().T)
    g = pair.g @ h0t
    w0 = -pair.v0 + pair.v0 @ (pair.g @ ht @ pair.g.conj().T) @ pair.v0
    w0 = 0.5 * (w0 + w0.conj().T)
    meta = {"model": "resolvent-transform", "base": pair.meta.get("model"), "shift": shift}
    transformed = OperatorPair(h0t, ht, g, w0, meta)
    return ResolventTransform(transformed, float(shift))


def shift_pair(pair, probe):
    """Translate both operators by -probe so the probe moves to 0."""
    if probe == 0:
        return pair
    eye = np.eye(pair.dim)
    meta = dict(pair.meta, shifted_by=float(probe))
    return OperatorPair(pair.h0 - probe * eye, pair.h - probe * eye,
                        pair.g, pair.v0, meta)


def preset_names():
    return ["krein", "schrodinger:sech2", "schrodinger:square-well", "finite:random(seed)"]


def preset_pair(name, **overrides):
    """Build a model pair by CLI preset name.

    ``finite:random(seed)`` takes its seed from the name; other presets
    read calibrated defaults from the thresholds file, overridable by
    keyword.
    """
    cfg = thresholds()
    if name == "krein":
        p = {"n": cfg["krein"]["n"], "L": cfg["krein"]["L"]}
        p.update(overrides)
        return build_krein(**p)
    if name == "schrodinger:sech2":
        c = cfg["sech2"]
        p = {"depth": c["depth"], "half_width": c["scatter_half_width"], "n": c["scatter_n"]}
        p.update(overrides)
        return build_schrodinger_1d(sech2_spec(**p))
    if name == "schrodinger:square-well":
        c = cfg["square_well"]
        p = {"depth": c["depth"], "width": c["width"],
             "half_width": c["scatter_half_width"], "n": c["scatter_n"]}
        p.update(overrides)
        return build_schrodinger_1d(square_well_spec(**p))
    if name.startswith("finite:random(") and name.endswith(")"):
        seed = int(name[len("finite:random("):-1])
        c = cfg["random_pair"]
        p = {"dim": c["dim"], "kdim": c["kdim"], "gap": c["gap"]}
        p.update(overrides)
        if "n" in p:  # size-study axis uses the generic name
            p["dim"] = p.pop("n")
        return random_gapped_pair(seed=seed, **p)
    raise ValueError(f"unknown preset {name!r}; known: {preset_names()}")
