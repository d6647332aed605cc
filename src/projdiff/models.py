"""Constructors for finite-dimensional operator pairs (H0, H = H0 + G* V0 G).

Models provided:

* explicitly factorized pairs from user matrices,
* the half-line resolvent pair with rank-one difference (Nystrom
  discretization of the Dirichlet/Neumann Green kernels on [0, L]),
* 1-d Schrodinger pairs on a Dirichlet box with a decaying potential,
  stored as real symmetric tridiagonal bands,
* seeded random gapped pairs for identity sweeps,

plus the resolvent change of spectral variable and the translation of a
pair, the test oracle of the probe-relative paths.  A pair's eigen-data at
a probe come from one step, :meth:`OperatorPair.probe_basis`, on the whole
pair or on its parity blocks.
"""

import functools
import json
from dataclasses import dataclass
from importlib import resources

import numpy as np
from scipy import sparse

from .errors import DecayBoundError, GapViolationError, NonHermitianError, ResidualError
from . import linalg
from .linalg import DenseHermitian, SpectralDecomposition, TridiagonalBands
from .quadrature import legendre_rule

__all__ = [
    "OperatorPair", "PotentialSpec", "ResolventTransform",
    "build_finite_pair", "build_krein", "build_schrodinger_1d",
    "random_gapped_pair", "resolvent_transform", "shift_pair",
    "sech2_spec", "square_well_spec", "preset_pair", "preset_defaults", "preset_names",
    "thresholds",
]

FACTORIZATION_TOL = 1e-10
SUPPORT_FLOOR = 1e-14      # |V| at which a grid point joins the coupling space
MAX_TRIES = 200            # draws of a random gapped pair before giving up


def thresholds():
    """Calibrated sizes and thresholds shipped with the package."""
    with resources.files("projdiff").joinpath("thresholds.json").open() as fh:
        return json.load(fh)


@dataclass(frozen=True)
class OperatorPair:
    """A pair H0 and H = H0 + G* V0 G with the factorization kept explicit.

    ``operators`` holds (h0, h), either as
    :class:`projdiff.linalg.DenseHermitian` or, for pairs built from bands,
    as real symmetric :class:`TridiagonalBands`; both answer the same index
    queries (counts below a value, eigenvalues and eigenpairs by index).
    The dense ``h0`` and ``h`` of a band pair are built on first use, for
    dense consumers only.  ``g`` maps the main space into the coupling
    space (kdim x dim), as an array for a dense pair and as a real
    ``csr_array`` of its nonzeros for a band pair; ``v0`` is Hermitian on
    the coupling space (real symmetric for a band pair).  It holds its
    factorization only; a model's grid or rule comes from its inputs.

    Every probe consumer reads its eigenpairs through one step,
    :meth:`probe_basis` (counts and gaps alone through :meth:`probe_gaps`),
    which asks each operator for its count below the probe, the two
    eigenvalues beside it and the eigenpairs on one side of it.  A dense
    operator reads them off its eigensystem, solved on first use and cached
    on the operator.  A band forms no dense matrix and solves no full
    spectrum at a probe: it takes Sturm counts and eigenpairs from a banded
    solver restricted to the requested indices, in closed form for a
    uniform chain such as every Schrodinger H0 (see
    :attr:`projdiff.linalg.TridiagonalBands.free_chain`).  A band caches no
    eigen-data, so it solves again on every call: two consumers at one
    probe, such as the difference and the product check, solve twice.
    When both bands are mirror-symmetric, as on a centred box with an even
    potential, the probe step does this on the even and odd blocks
    (:attr:`parity_blocks`), each about half as long.  :attr:`basis_path`
    names the path taken.  The pair caches its dense ``h0`` and ``h`` and
    its whole spectra (:attr:`eigenvalues`), each computed on first use.
    """

    operators: tuple
    g: object
    v0: np.ndarray

    @property
    def dim(self):
        return self.g.shape[1]

    @property
    def kdim(self):
        return self.g.shape[0]

    @property
    def banded(self):
        """Whether the operators are stored as bands."""
        return isinstance(self.operators[0], TridiagonalBands)

    @functools.cached_property
    def _dense(self):
        return tuple(b.dense() for b in self.operators)

    @property
    def h0(self):
        return self._dense[0]

    @property
    def h(self):
        return self._dense[1]

    @functools.cached_property
    def coupling_window(self):
        """(lo, hi): every nonzero column of ``g`` lies in lo, ..., hi - 1."""
        cols = self.g.nonzero()[1]
        return (int(cols.min()), int(cols.max()) + 1) if cols.size else (0, 0)

    def factorization_residual(self):
        """||h - h0 - G* V0 G||_2, the largest |eigenvalue| of that Hermitian matrix."""
        v = self.g.conj().T @ self.v0 @ self.g
        return linalg.hermitian_norm(self.h - self.h0 - v)

    @functools.cached_property
    def eigenvalues(self):
        """Ascending eigenvalues of h0 and h, all of them: for consumers of
        whole spectra such as the smoothed counting shift; the probe paths
        read :meth:`probe_basis` instead."""
        return tuple(b.eigenvalues() for b in self.operators)

    @functools.cached_property
    def parity_blocks(self):
        """((h0+, h+), (h0-, h-)): the even and odd
        :class:`projdiff.linalg.ParityBlock` of both band operators when
        both are mirror-symmetric (see :attr:`TridiagonalBands.parity_blocks`),
        else None.  The reflection then commutes with h0 and h, so D splits
        into an even and an odd block, and the probe step runs on each
        block's folded bands."""
        blocks = [b.parity_blocks for b in self.operators]
        return None if any(b is None for b in blocks) else tuple(zip(*blocks))

    @property
    def basis_path(self):
        """Where the probe basis comes from: "free-chain" when h0 or h is a
        uniform chain with closed-form eigenpairs, "banded" for other band
        pairs, "dense" for the dense eigensystems; a band path taken on the
        parity blocks ends in "+parity"."""
        if not self.banded:
            return "dense"
        path = "banded" if all(b.free_chain is None for b in self.operators) else "free-chain"
        return path + "+parity" if self.parity_blocks else path

    @property
    def _blocks(self):
        """The (h0, h) blocks of the probe step: the parity blocks, or the
        two operators as one block."""
        return self.parity_blocks or (self.operators,)

    def _probe_step(self, probe):
        """(counts, gaps): [(m0, m1)] per block of the probe step and the
        gaps of :meth:`probe_gaps`."""
        counts = [tuple(b.count_below(probe) for b in ops) for ops in self._blocks]
        near = [np.concatenate([b.eigenvalues(max(m - 1, 0), min(m + 1, b.dim))
                                for b, m in zip(ops, below)])
                for ops, below in zip(zip(*self._blocks), zip(*counts))]
        return counts, tuple(linalg.probe_gaps(probe, near))

    def probe_gaps(self, probe):
        """((m0, m1), (gap0, gap1)): the numbers of eigenvalues of h0 and h
        below ``probe`` (Sturm counts for a band pair, summed over its parity
        blocks) and the distances from ``probe`` to the two spectra, read off
        the eigenvalues with indices m - 1 and m of each block; one too close
        raises :class:`GapViolationError` (see :func:`projdiff.linalg.probe_gaps`)."""
        counts, gaps = self._probe_step(probe)
        return tuple(map(sum, zip(*counts))), gaps

    def probe_basis(self, probe, sides=None):
        """(gaps, side, bases): the gaps of :meth:`probe_gaps`, the side of
        ``probe`` holding fewer eigenvectors of h0 and h together (-1 below
        it, +1 above), and per block of the probe step the eigenpairs
        (e0, e1) of h0 and h, as :class:`SpectralDecomposition`, on the sides
        ``sides`` = (s0, s1) of the probe, by default both on ``side``.  The
        blocks are the whole pair, or the even and odd :attr:`parity_blocks`
        in their own coordinates (see :meth:`unfold`)."""
        counts, gaps = self._probe_step(probe)
        side = -1 if sum(map(sum, counts)) <= self.dim else +1
        bases = tuple(tuple(b.eigenpairs(*((0, m) if s < 0 else (m, b.dim)))
                            for b, m, s in zip(ops, below, sides or (side, side)))
                      for ops, below in zip(self._blocks, counts))
        return gaps, side, bases

    def unfold(self, bases):
        """(e0, e1) in the pair's space from the ``bases`` of :meth:`probe_basis`:
        the parity blocks' eigenvalues joined and their vectors mapped back
        (:meth:`projdiff.linalg.ParityBlock.unfold`) and joined."""
        if self.parity_blocks is None:
            return bases[0]
        return tuple(SpectralDecomposition(np.concatenate([e.eigenvalues for e in es]),
                                           np.hstack([b.unfold(e.eigenvectors)
                                                      for b, e in zip(ops, es)]))
                     for ops, es in zip(zip(*self.parity_blocks), zip(*bases)))


def _finite(m, name):
    m = np.asarray(m)
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} has non-finite entries")
    return m


def _hermitian(m, name):
    """The certified Hermitian part of ``m`` (see :func:`projdiff.linalg.hermitian`),
    at the tolerance of the pair's eigensolves, so a pair that builds diagonalizes."""
    try:
        return linalg.hermitian(_finite(m, name))
    except NonHermitianError as exc:
        raise ValueError(f"{name} is not Hermitian") from exc


def build_finite_pair(h0, g, v0):
    """Assemble an :class:`OperatorPair` from its factorization, and from nothing else.

    ``h0`` is a dense Hermitian matrix or a :class:`TridiagonalBands`, and
    ``g`` a dense or ``scipy.sparse`` array.  A band pair is real
    symmetric: ValueError names ``h0``, ``g`` or ``v0`` when one of them
    is complex.  From bands, G* V0 G is formed from the nonzeros of ``g``;
    it must be tridiagonal, and the pair stores the bands of h0 and h and
    ``g`` as a ``csr_array``, with no n x n or dense k x n array; a dense
    pair stores ``g`` dense, and h0 and h as the
    :class:`projdiff.linalg.DenseHermitian` of their Hermitian parts
    (M + M*) / 2, h formed as h0 + G* V0 G from the ``h0`` given.  Either
    way the pair stores ``v0`` as its certified Hermitian part, the input
    itself when that equals its conjugate transpose (see
    :func:`projdiff.linalg.hermitian`), so every stored operand is exactly
    Hermitian and its eigensolves need no second certificate (see
    :func:`projdiff.linalg.herm_eig`).  Either way :class:`ResidualError`
    is raised when the factorization residual ||h - h0 - G* V0 G||_F exceeds
    FACTORIZATION_TOL relative to ||h||_F + ||h0||_F.
    """
    banded = isinstance(h0, TridiagonalBands)
    if banded:
        _finite(np.concatenate([h0.diagonal, h0.offdiagonal]), "h0")
        n = h0.dim
        g = sparse.csr_array(g)
        _finite(g.data, "g")
    else:
        h0, h0_part = np.asarray(h0), _hermitian(h0, "h0")
        n = h0.shape[0]
        g = _finite(g.toarray() if sparse.issparse(g) else g, "g")
    v0 = _hermitian(v0, "v0")
    if g.ndim != 2 or g.shape[1] != n or v0.shape[0] != g.shape[0]:
        raise ValueError("inconsistent dimensions in (h0, g, v0)")
    if banded:
        for name, x in (("h0", h0.diagonal), ("h0", h0.offdiagonal), ("g", g), ("v0", v0)):
            if np.iscomplexobj(x):
                raise ValueError(f"{name} is complex; a band pair is real symmetric")
        return _band_pair(h0, g, v0)
    v = g.conj().T @ v0 @ g
    h = h0 + v
    # both operators are stored exactly Hermitian, so that their eigensolves
    # certify them by one exact comparison (see herm_eig)
    pair = OperatorPair((DenseHermitian(h0_part), DenseHermitian(linalg.hermitian_part(h))),
                        g, v0)
    # Frobenius bounds the operator norm from above, and is O(n^2) to check
    resid = np.linalg.norm(pair.h - h0 - v)
    scale = np.linalg.norm(pair.h) + np.linalg.norm(h0)
    _check_factorization(resid, scale)
    return pair


def _check_factorization(resid, scale):
    bound = FACTORIZATION_TOL * max(scale, 1.0)
    if resid > bound:
        raise ResidualError(f"factorization residual {resid:.3e}", resid, bound)


def _band_pair(b0, g, v0):
    """The band pair of :func:`build_finite_pair`: G* V0 G from g, a real csr_array."""
    v = (g.T @ sparse.csr_array(v0)) @ g
    lo, d, up = (v.diagonal(k) for k in (-1, 0, 1))
    if v.count_nonzero() != sum(np.count_nonzero(x) for x in (lo, d, up)):
        c = v.tocoo()
        mass = np.linalg.norm(c.data[abs(c.row - c.col) > 1])
        raise ResidualError("G* V0 G leaves the three central diagonals", mass, 0.0)
    off0 = b0.offdiagonal
    b1 = TridiagonalBands(b0.diagonal + d, off0 + 0.5 * (lo + up))
    # h - h0 - G* V0 G vanishes off the three diagonals, so its Frobenius
    # norm, and those of h0 and h, are O(n) sums over them
    off1 = b1.offdiagonal
    resid = np.sqrt(sum(np.sum(x ** 2) for x in (
        b1.diagonal - b0.diagonal - d, off1 - off0 - lo, off1 - off0 - up)))
    scale = sum(np.sqrt(np.sum(b.diagonal ** 2) + 2.0 * np.sum(b.offdiagonal ** 2))
                for b in (b0, b1))
    _check_factorization(resid, scale)
    return OperatorPair((b0, b1), g, v0)


def build_krein(n, L):
    """Half-line resolvent pair with a rank-one difference.

    H0 is the Nystrom matrix of the kernel sinh(min(x,y))*exp(-max(x,y))
    on [0, L]; H adds the rank-one kernel exp(-x-y).  Both continuum
    operators have simple purely a.c. spectrum [0, 1]; the counting-shift
    between them is 1/2 on (0, 1) and the scattering matrix is -1 there.
    """
    if n < 16 or L < 10:
        raise ValueError("need n >= 16 and L >= 10")
    rule = legendre_rule(n, 0.0, L)
    x, sq = rule.nodes, np.sqrt(rule.weights)
    # sinh(min)*exp(-max) = (exp(-|x - y|) - exp(-(x + y)))/2, which cannot
    # overflow, built in two n x n buffers
    h0 = np.subtract.outer(x, x)
    np.abs(h0, out=h0)
    np.negative(h0, out=h0)
    np.exp(h0, out=h0)
    far = np.add.outer(x, x)
    np.negative(far, out=far)
    np.exp(far, out=far)
    h0 -= far
    h0 *= 0.5
    h0 *= sq[:, None]
    h0 *= sq[None, :]
    u = sq * np.exp(-x)
    return build_finite_pair(h0, u[None, :], np.array([[1.0]]))


@dataclass(frozen=True)
class PotentialSpec:
    """A real potential with its declared decay envelope and grid.

    ``potential`` is evaluated on arrays of x (elementwise, any shape), as
    both shipped specs are: the grid, and the transfer-matrix oracle's cells,
    sample it in one call, through :meth:`samples`.  The envelope
    |V(x)| <= decay_constant * (1+|x|)**(-decay_exponent) is verified on
    the grid when the pair is built.  A half-width X that is not finite and
    positive, or a grid size n that is not an integer (a bool is not one) or
    is negative, raises ValueError naming it; n = 0 is a grid of no points,
    on which the oracle still runs on one cell.
    """

    potential: callable
    decay_constant: float
    decay_exponent: float
    half_width: float
    n: int

    def __post_init__(self):
        if not (np.isfinite(self.half_width) and self.half_width > 0):
            raise ValueError(f"half_width must be finite and positive, got {self.half_width}")
        if not isinstance(self.n, (int, np.integer)) or isinstance(self.n, bool):
            raise ValueError(f"n must be an integer, got {self.n!r}")
        if self.n < 0:
            raise ValueError(f"n must be >= 0, got {self.n}")

    def samples(self, x):
        """V on the array x as floats; a non-finite value raises ValueError
        naming the first (smallest) such x."""
        v = np.asarray(self.potential(x), dtype=float)
        bad = ~np.isfinite(v)
        if np.any(bad):
            first = float(np.min(np.broadcast_to(x, v.shape)[bad]))
            raise ValueError(f"potential not finite at x = {first:.6g}")
        return v

    def grid(self):
        """(x, h): the n interior points of [-X, X] at step h = 2X / (n + 1),
        x[k] = h (k + 1 - (n + 1) / 2), so that x[::-1] == -x exactly.  For
        even n they are half-integer multiples of h; for odd n integer
        multiples, with a node at 0, so a node can fall on a jump of V (the
        square-well corner box, X = 60 and n = 1199, has nodes at x = +-1)."""
        h = 2.0 * self.half_width / (self.n + 1)
        return h * (np.arange(1, self.n + 1) - 0.5 * (self.n + 1)), h


def _sech2(x):
    """sech^2 x = 4 q / (1 + q)^2 with q = exp(-2|x|), which underflows
    to 0 where cosh x would overflow."""
    q = np.exp(-2.0 * np.abs(x))
    return 4.0 * q / (1.0 + q) ** 2


def sech2_spec(depth, half_width, n):
    # sech^2(x) <= 4 exp(-2|x|) <= 4 (1+|x|)^{-2}, so rho = 2 with C = 4*depth
    pot = lambda x: -depth * _sech2(x)
    return PotentialSpec(pot, 4.0 * depth, 2.0, float(half_width), n)


def square_well_spec(depth, width, half_width, n):
    pot = lambda x: np.where(np.abs(x) < width, -depth, 0.0)
    c = depth * (1.0 + width) ** 2
    return PotentialSpec(pot, c, 2.0, float(half_width), n)


def build_schrodinger_1d(spec):
    """Dirichlet-box discretization of -d^2/dx^2 + V on [-X, X].

    The coupling space is restricted to grid points where |V| exceeds
    SUPPORT_FLOOR; the pair's potential is the thresholded one, so
    the factorization H = H0 + G* V0 G is exact.  The pair is built from
    the bands of H0 (2/h^2 on the diagonal, -1/h^2 beside it) and stores
    the bands of H0 and H, and G, one nonzero per row, as a csr_array.
    """
    if spec.decay_exponent <= 1:
        raise ValueError("decay exponent must exceed 1")
    if spec.n < 200:
        raise ValueError("grid too coarse; need n >= 200")
    x, h = spec.grid()
    v = spec.samples(x)
    envelope = spec.decay_constant * (1.0 + np.abs(x)) ** (-spec.decay_exponent)
    bad = np.abs(v) > envelope * (1 + 1e-12)
    if np.any(bad):
        i = int(np.argmax(np.abs(v) - envelope))
        raise DecayBoundError(
            f"|V({x[i]:.4g})| = {abs(v[i]):.4g} exceeds declared envelope {envelope[i]:.4g}")
    n = spec.n
    h0 = TridiagonalBands(np.full(n, 2.0) / h ** 2, np.full(n - 1, -1.0) / h ** 2)
    idx = np.flatnonzero(np.abs(v) > SUPPORT_FLOOR)
    g = sparse.csr_array((np.sqrt(np.abs(v[idx])), idx, np.arange(len(idx) + 1)),
                         shape=(len(idx), n))
    v0 = np.diag(np.sign(v[idx]))
    return build_finite_pair(h0, g, v0)


def random_gapped_pair(dim, kdim, seed, probes=(0.0,), gap=1e-3):
    """Seeded random pair with both spectra bounded away from every probe.

    H0 is diagonal with entries uniform in [-1, 1] (resampled until
    gapped at the probes), V0 is a random sign matrix and G is complex
    Gaussian scaled to ||G|| = 0.7, so that ||G* V0 G|| <= 0.49; the whole
    draw repeats until H is also gapped, tested on the eigenvalues of the
    built pair's H, whose eigensystem the pair keeps.  Raises ValueError
    for dim < 1, kdim < 1, gap <= 0 or a probe that is not finite, and when
    MAX_TRIES draws find no gapped pair.
    """
    if dim < 1 or kdim < 1 or not gap > 0:
        raise ValueError(f"need dim >= 1, kdim >= 1 and gap > 0, got {dim}, {kdim}, {gap}")
    probes = np.atleast_1d(np.asarray(probes, dtype=float))
    bad = probes[~np.isfinite(probes)]
    if bad.size:
        raise ValueError(f"probe {bad[0]} is not finite")
    rng = np.random.default_rng(seed)

    def gapped(values):
        return np.all(np.abs(values[:, None] - probes[None, :]) > gap)

    for _ in range(MAX_TRIES):
        d = rng.uniform(-1.0, 1.0, size=dim)
        if not gapped(d):
            continue
        g = rng.standard_normal((kdim, dim)) + 1j * rng.standard_normal((kdim, dim))
        g *= 0.7 / linalg.norm2(g)
        v0 = np.diag(rng.choice([-1.0, 1.0], size=kdim))
        pair = build_finite_pair(np.diag(d).astype(complex), g, v0)
        if gapped(pair.operators[1].eigenvalues()):
            return pair
    raise ValueError(f"no gapped pair found in {MAX_TRIES} tries for seed {seed}")


@dataclass(frozen=True)
class ResolventTransform:
    """The pair mapped through x -> 1/(x - shift), with its factorization.

    The spectral parameter moves by mu = 1/(lambda - shift); because the
    map is strictly decreasing on spectra above ``shift``, each operator's
    spectral projection maps to the complement of its transformed one,
    E_j(lambda) = I - F_j(mu), and projection differences transform with
    the operator roles swapped:
    E(lambda) - E0(lambda) = F_0(mu) - F_1(mu).
    """

    pair: OperatorPair
    shift: float

    def mu(self, lam):
        return 1.0 / (np.asarray(lam, dtype=float) - self.shift)


def resolvent_transform(pair, shift):
    """Invariance-principle transform (h0, h) = ((H0-a)^-1, (H-a)^-1).

    The transformed difference factorizes over the same coupling space:
    h - h0 = g* w0 g with g = G h0 and w0 = -V0 + V0 (G h G*) V0, an
    iterated resolvent identity.  A shift that is not finite raises
    ValueError, one not below both spectra :class:`GapViolationError`.
    """
    if not np.isfinite(shift):
        raise ValueError(f"shift {shift} is not finite")
    bottom = min(b.eigenvalues(0, 1)[0] for b in pair.operators)
    if not shift < bottom - 1e-6:
        raise GapViolationError(shift, bottom)
    eye = np.eye(pair.dim)
    h0t = np.linalg.solve(pair.h0 - shift * eye, eye)
    ht = np.linalg.solve(pair.h - shift * eye, eye)
    h0t, ht = linalg.hermitian_part(h0t), linalg.hermitian_part(ht)
    g = pair.g @ h0t
    w0 = linalg.hermitian_part(-pair.v0 + pair.v0 @ (pair.g @ ht @ pair.g.conj().T) @ pair.v0)
    transformed = OperatorPair((DenseHermitian(h0t), DenseHermitian(ht)), g, w0)
    return ResolventTransform(transformed, float(shift))


def shift_pair(pair, probe):
    """The pair translated by -probe, so that the probe moves to 0.

    Bands shift in O(n); a dense pair stores h0 - probe*I and h - probe*I.
    The translated pair computes its own eigen-data.
    """
    operators = tuple(b.shifted(probe) for b in pair.operators)
    return OperatorPair(operators, pair.g, pair.v0)


# preset: (thresholds.json section, {keyword: key there}, builder(seed, **keywords))
_BOX = {"half_width": "scatter_half_width", "n": "scatter_n"}
_PRESETS = {
    "krein": ("krein", {"n": "n", "L": "L"}, lambda seed, **p: build_krein(**p)),
    "schrodinger:sech2": ("sech2", {"depth": "depth", **_BOX},
                          lambda seed, **p: build_schrodinger_1d(sech2_spec(**p))),
    "schrodinger:square-well": ("square_well", {"depth": "depth", "width": "width", **_BOX},
                                lambda seed, **p: build_schrodinger_1d(square_well_spec(**p))),
    "finite:random": ("random_pair", {"n": "dim", "kdim": "kdim", "gap": "gap"},
                      lambda seed, n, **p: random_gapped_pair(n, seed=seed, **p)),
}


def preset_names():
    return list(_PRESETS)


def preset_defaults(name):
    """The calibrated keyword defaults of preset ``name``: the overrides
    :func:`preset_pair` accepts.  Every preset takes ``n``, the size-study
    axis (a random pair's ``dim``).  Raises ValueError for an unknown preset."""
    if name not in _PRESETS:
        raise ValueError(f"unknown preset {name!r}; known: {preset_names()}")
    section, keys, _ = _PRESETS[name]
    cfg = thresholds()[section]
    return {param: cfg[key] for param, key in keys.items()}


def preset_pair(name, seed=0, **overrides):
    """Build a model pair by CLI preset name.

    ``seed`` picks the draw of ``finite:random``; the other presets are
    deterministic.  Every preset starts from :func:`preset_defaults`,
    overridable by keyword.
    """
    p = preset_defaults(name)
    p.update(overrides)
    return _PRESETS[name][2](seed, **p)
