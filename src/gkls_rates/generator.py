"""GKLS generators: construction, canonical form, reshaping, extension.

A generator is stored as an effective Hamiltonian H plus channels
(gamma_l, L_l) acting on a d-dimensional Hilbert space:

    L(rho) = -i[H, rho] + sum_l gamma_l (L_l rho L_l^+ - 1/2 {L_l^+ L_l, rho})

Rates may be plain reals or parsed time expressions gamma_l(t); noise
operators are time independent.  The canonical form has traceless noise
operators orthonormal under the Hilbert-Schmidt inner product, which makes
the rates unique up to degeneracies of the Kossakowski matrix.

Vectorization is row-major throughout: vec(rho) = rho.reshape(d*d), so the
Kronecker product A (x) B^T acts as rho -> A rho B.  ``superop_parts`` is the
one assembly of the reshaped d^2 x d^2 generator: batched einsum Kronecker
products over the stacked noise operators give the Hamiltonian part
-i(H (x) 1 - 1 (x) H^T) and the dissipators

    D_l = L_l (x) conj(L_l) - 1/2 (L_l^+ L_l (x) 1 + 1 (x) (L_l^+ L_l)^T).

Constant-rate channels fold into a static matrix once; time-dependent ones
stay a flattened (n_td, d^4) stack, so that

    L(t) = static + (gamma(t) @ stack).reshape(d^2, d^2).

``reshape`` and the integrators in ``pauli`` and ``lyapunov`` all read L(t)
through ``SuperopParts.at``.
"""

import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from . import matcore, ratelang
from .errors import (
    BadChannelCountError,
    DimensionMismatchError,
    NonHermitianHamiltonianError,
    NonHermitianKossakowskiError,
    NotHermiticityPreservingError,
    NotTracePreservingError,
    TimeDependentError,
)

__all__ = [
    "Channel",
    "GklsGenerator",
    "CanonicalForm",
    "Superoperator",
    "SuperopParts",
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "SIGMA_PLUS",
    "SIGMA_MINUS",
    "build",
    "freeze",
    "apply",
    "adjoint_apply",
    "reshape",
    "superop_parts",
    "gks_decompose",
    "canonicalize",
    "canonical_form",
    "is_canonical",
    "extend",
    "random_cp",
    "gell_mann_basis",
    "vec",
    "unvec",
]

ORTHO_TOL = 1e-10
CP_TOL = 1e-12
PRUNE_TOL = 1e-12

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
# index-lowering convention: sigma_minus maps |1> to the ground state |0>
SIGMA_MINUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
SIGMA_PLUS = SIGMA_MINUS.conj().T


def vec(rho):
    """Row-major vectorization of a d x d matrix."""
    return np.asarray(rho, dtype=complex).reshape(-1)


def unvec(v, d):
    return np.asarray(v, dtype=complex).reshape(d, d)


@dataclass(frozen=True)
class Channel:
    """One dissipative channel: a rate (real or time expression) and its op."""

    rate: object  # float | ratelang.RateExpr
    op: np.ndarray

    @property
    def time_dependent(self):
        return isinstance(self.rate, ratelang.RateExpr)

    def rate_at(self, t):
        if self.time_dependent:
            return ratelang.evaluate(self.rate, t)
        return float(self.rate)


@dataclass(frozen=True)
class GklsGenerator:
    dim: int
    hamiltonian: np.ndarray
    channels: tuple
    time_dependent: bool

    def rates_at(self, t=0.0):
        return np.array([ch.rate_at(t) for ch in self.channels], dtype=float)

    def noise_ops(self):
        return [ch.op for ch in self.channels]


@dataclass(frozen=True)
class CanonicalForm:
    """Generator whose channels are traceless and HS-orthonormal."""

    base: GklsGenerator
    gamma_sum: float  # sum of canonical rates; evaluated at t=0 if time dependent

    @property
    def completely_positive(self):
        if self.base.time_dependent:
            raise TimeDependentError("CP flag is time dependent; inspect rates_at(t)")
        return bool(np.all(self.base.rates_at() >= -CP_TOL))


@dataclass(frozen=True)
class Superoperator:
    """Reshaped generator acting on row-major vectorized matrices."""

    matrix: np.ndarray
    dim: int


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def _coerce_rate(rate):
    if isinstance(rate, ratelang.RateExpr):
        return rate
    if isinstance(rate, str):
        return ratelang.parse(rate)
    if isinstance(rate, numbers.Real):
        value = float(rate)
        if not np.isfinite(value):
            raise ValueError(f"channel rate {rate!r} is not finite")
        return value
    raise TypeError(f"channel rate must be a real number or expression, got {rate!r}")


def build(hamiltonian, channels):
    """Validate and assemble a generator.

    The Hamiltonian must be Hermitian to 1e-12 (relative) and is symmetrized
    on storage.  Channels that are not traceless-orthonormal only draw a
    warning; ``canonicalize`` repairs such representations.
    """
    h = matcore.as_matrix(hamiltonian, "hamiltonian")
    d = h.shape[0]
    if h.shape[0] != h.shape[1]:
        raise DimensionMismatchError(f"hamiltonian must be square, got {h.shape}")
    scale = max(1.0, float(np.linalg.norm(h)))
    if float(np.linalg.norm(h - h.conj().T)) > 1e-12 * scale:
        raise NonHermitianHamiltonianError("hamiltonian is not Hermitian to 1e-12")
    h = (h + h.conj().T) / 2.0

    built = []
    for k, (rate, op) in enumerate(channels):
        op = matcore.as_matrix(op, f"channel {k} operator")
        if op.shape != (d, d):
            raise DimensionMismatchError(
                f"channel {k} operator has shape {op.shape}, expected {(d, d)}"
            )
        built.append(Channel(_coerce_rate(rate), op))

    gen = GklsGenerator(
        dim=d,
        hamiltonian=h,
        channels=tuple(built),
        time_dependent=any(ch.time_dependent for ch in built),
    )
    if built and not is_canonical(gen, tol=1e-8):
        warnings.warn(
            "channels are not traceless-orthonormal; canonicalize() repairs this",
            stacklevel=2,
        )
    return gen


def is_canonical(gen, tol=ORTHO_TOL):
    """True when all noise operators are traceless and HS-orthonormal."""
    ops = gen.noise_ops()
    if not ops:
        return True
    for op in ops:
        if abs(np.trace(op)) > tol:
            return False
    flat = np.stack([op.reshape(-1) for op in ops])
    gram = flat.conj() @ flat.T
    return bool(np.max(np.abs(gram - np.eye(len(ops)))) <= tol)


def freeze(gen, t):
    """Autonomous snapshot with all rates evaluated at time ``t``."""
    if not gen.time_dependent:
        return gen
    channels = tuple(Channel(ch.rate_at(t), ch.op) for ch in gen.channels)
    return GklsGenerator(gen.dim, gen.hamiltonian, channels, False)


# ---------------------------------------------------------------------------
# action on operators
# ---------------------------------------------------------------------------

def apply(gen, rho, t=0.0):
    """Schroedinger-picture action L(rho) at time ``t``."""
    rho = matcore.as_matrix(rho, "rho")
    if rho.shape != (gen.dim, gen.dim):
        raise DimensionMismatchError(f"state has shape {rho.shape}, expected {(gen.dim,) * 2}")
    h = gen.hamiltonian
    out = -1.0j * (h @ rho - rho @ h)
    for ch in gen.channels:
        g = ch.rate_at(t)
        l = ch.op
        ldl = l.conj().T @ l
        out += g * (l @ rho @ l.conj().T - 0.5 * (ldl @ rho + rho @ ldl))
    return out


def adjoint_apply(gen, x, t=0.0):
    """Heisenberg-picture action L^++(X); satisfies Tr(X L(rho)) = Tr(L^++(X) rho)."""
    x = matcore.as_matrix(x, "x")
    if x.shape != (gen.dim, gen.dim):
        raise DimensionMismatchError(f"operator has shape {x.shape}, expected {(gen.dim,) * 2}")
    h = gen.hamiltonian
    out = 1.0j * (h @ x - x @ h)
    for ch in gen.channels:
        g = ch.rate_at(t)
        l = ch.op
        ldl = l.conj().T @ l
        out += g * (l.conj().T @ x @ l - 0.5 * (ldl @ x + x @ ldl))
    return out


# ---------------------------------------------------------------------------
# reshaping
# ---------------------------------------------------------------------------

def _kron(a, b):
    """Kronecker product of the trailing square axes, batched over leading ones."""
    d = a.shape[-1]
    out = np.einsum("...ab,...cd->...acbd", a, b)
    return out.reshape(out.shape[:-4] + (d * d, d * d))


@dataclass(frozen=True)
class SuperopParts:
    """Reshaped generator split as L(t) = static + sum_l gamma_l(t) D_l.

    ``static`` holds the Hamiltonian part and every constant-rate channel;
    ``stack`` holds the flattened dissipators D_l of the time-dependent
    channels, one row per entry of ``rates``.
    """

    static: np.ndarray  # (d^2, d^2)
    stack: np.ndarray  # (n_td, d^4)
    rates: tuple  # ratelang.RateExpr per row of ``stack``

    def at(self, t):
        """The d^2 x d^2 matrix of L(t); ``static`` itself when no rate varies."""
        if not self.rates:
            return self.static
        gammas = np.array([ratelang.evaluate(r, t) for r in self.rates])
        return self.static + (gammas @ self.stack).reshape(self.static.shape)


def _dissipator_sums(weights, ops, d):
    """Flattened sums sum_l weights[k, l] D_l over the noise operators, one row per k."""
    k, n = weights.shape
    eye = np.eye(d)
    ops = np.array(ops, dtype=complex).reshape(n, d, d)
    flat = ops.reshape(n, d * d)
    # sum_l w_kl L_l (x) conj(L_l): the outer products of vec(L_l), regrouped
    jumps = np.einsum("kl,la,lb->kab", weights, flat, flat.conj())
    jumps = jumps.reshape(k, d, d, d, d).transpose(0, 1, 3, 2, 4).reshape(k, d * d, d * d)
    damp = np.einsum("kl,lba,lbc->kac", weights, ops.conj(), ops)  # sum_l w_kl L_l^+ L_l
    out = jumps - 0.5 * (_kron(damp, eye) + _kron(eye, damp.transpose(0, 2, 1)))
    return out.reshape(k, d**4)


def superop_parts(gen):
    """The single assembly of the reshaped generator (see the module notes)."""
    d = gen.dim
    eye = np.eye(d)
    h = gen.hamiltonian
    fixed = [ch for ch in gen.channels if not ch.time_dependent]
    varying = [ch for ch in gen.channels if ch.time_dependent]
    fixed_rates = np.array([[ch.rate for ch in fixed]], dtype=float)
    dissipative = _dissipator_sums(fixed_rates, [ch.op for ch in fixed], d)
    static = -1.0j * (_kron(h, eye) - _kron(eye, h.T)) + dissipative.reshape(d * d, d * d)
    stack = _dissipator_sums(np.eye(len(varying)), [ch.op for ch in varying], d)
    return SuperopParts(static=static, stack=stack, rates=tuple(ch.rate for ch in varying))


def reshape(gen, t=0.0):
    """Reshaped d^2 x d^2 superoperator of the generator frozen at time ``t``."""
    return Superoperator(matrix=superop_parts(gen).at(t), dim=gen.dim)


# ---------------------------------------------------------------------------
# traceless orthonormal basis (generalized Gell-Mann matrices)
# ---------------------------------------------------------------------------

def gell_mann_basis(d):
    """Hermitian traceless orthonormal basis, ordered symmetric,
    antisymmetric, diagonal."""
    basis = []
    for j in range(d):
        for k in range(j + 1, d):
            m = np.zeros((d, d), dtype=complex)
            m[j, k] = m[k, j] = 1.0 / np.sqrt(2.0)
            basis.append(m)
    for j in range(d):
        for k in range(j + 1, d):
            m = np.zeros((d, d), dtype=complex)
            m[j, k] = -1.0j / np.sqrt(2.0)
            m[k, j] = 1.0j / np.sqrt(2.0)
            basis.append(m)
    for l in range(1, d):
        m = np.zeros((d, d), dtype=complex)
        for i in range(l):
            m[i, i] = 1.0
        m[l, l] = -float(l)
        basis.append(m / np.sqrt(l * (l + 1.0)))
    return basis


# ---------------------------------------------------------------------------
# GKS decomposition and canonical form
# ---------------------------------------------------------------------------

def _full_basis(d):
    return [np.eye(d, dtype=complex) / np.sqrt(d)] + gell_mann_basis(d)


def gks_decompose(superop):
    """Recover (H, Kossakowski matrix, basis) from a reshaped generator.

    The superoperator must preserve trace and Hermiticity to 1e-8.  In the
    returned convention the generator reads

        L(rho) = -i[H, rho] + sum_{k,l} C_{kl} (F_k rho F_l - 1/2 {F_l F_k, rho})

    over the Hermitian ``gell_mann_basis`` F, with C Hermitian.
    """
    s = matcore.as_matrix(superop.matrix, "superoperator")
    d = superop.dim
    if s.shape != (d * d, d * d):
        raise DimensionMismatchError(f"superoperator shape {s.shape} does not match dim {d}")
    snorm = max(1.0, float(np.linalg.norm(s)))

    trace_row = vec(np.eye(d)).conj() @ s
    if float(np.linalg.norm(trace_row)) > 1e-8 * snorm:
        raise NotTracePreservingError("Tr functional is not a left null vector")

    # reshuffle S[(i,j),(k,l)] -> R[(i,k),(j,l)]; then R = U c U^+ with the
    # columns of U the vectorized orthonormal basis elements
    r = s.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)
    basis_full = _full_basis(d)
    u = np.stack([vec(g) for g in basis_full], axis=1)
    c = u.conj().T @ r @ u
    if float(np.linalg.norm(c - c.conj().T)) > 1e-8 * snorm:
        raise NotHermiticityPreservingError("process matrix is not Hermitian")
    c = (c + c.conj().T) / 2.0

    basis = basis_full[1:]
    kossakowski = c[1:, 1:]
    phi = sum(c[k + 1, 0] * basis[k] for k in range(len(basis))) / np.sqrt(d)
    phi = phi + (c[0, 0].real / (2.0 * d)) * np.eye(d)
    h = 1.0j * (phi - phi.conj().T) / 2.0
    return h, kossakowski, basis


def _fix_phase(op):
    flat = op.reshape(-1)
    idx = int(np.argmax(np.abs(flat)))
    pivot = flat[idx]
    if abs(pivot) == 0.0:
        return op
    return op * (abs(pivot) / pivot)


def canonicalize(h, kossakowski, basis=None):
    """Diagonalize the Kossakowski matrix into canonical channels.

    Channels with |gamma| < 1e-12 are dropped; each canonical operator has
    its largest-magnitude entry made real positive so output is
    deterministic.
    """
    h = matcore.as_matrix(h, "hamiltonian")
    d = h.shape[0]
    if basis is None:
        basis = gell_mann_basis(d)
    c = matcore.as_matrix(kossakowski, "kossakowski")
    scale = max(1.0, float(np.linalg.norm(c)))
    if float(np.linalg.norm(c - c.conj().T)) > 1e-10 * scale:
        raise NonHermitianKossakowskiError("Kossakowski matrix is not Hermitian")
    c = (c + c.conj().T) / 2.0

    gammas, mixing = np.linalg.eigh(c)
    channels = []
    for l in range(len(gammas)):
        g = float(gammas[l])
        if abs(g) < PRUNE_TOL:
            continue
        op = sum(mixing[k, l] * basis[k] for k in range(len(basis)))
        channels.append((g, _fix_phase(op)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # canonical by construction
        base = build(h, channels)
    return CanonicalForm(base=base, gamma_sum=float(sum(g for g, _ in channels)))


def canonical_form(gen, tol=ORTHO_TOL):
    """CanonicalForm of ``gen``; fast path when channels already satisfy it.

    Time-dependent generators must already be canonical (their noise
    operators are fixed, only rates vary); autonomous others go through
    ``gks_decompose``.
    """
    if is_canonical(gen, tol=tol):
        return CanonicalForm(base=gen, gamma_sum=float(np.sum(gen.rates_at(0.0))))
    if gen.time_dependent:
        raise TimeDependentError(
            "time-dependent generator with non-canonical channels; "
            "canonicalize a frozen snapshot instead"
        )
    h, c, basis = gks_decompose(reshape(gen))
    return canonicalize(h, c, basis)


def canonical_rates_at(gen, t=0.0):
    """Canonical rates of the generator frozen at time ``t``.

    Canonical channels report their evaluated rates directly; otherwise the
    rates are the Kossakowski eigenvalues of the frozen snapshot, which
    keeps the vector length d^2 - 1 at every time (nothing is pruned).
    """
    if is_canonical(gen):
        return gen.rates_at(t)
    frozen = freeze(gen, t)
    _, c, _ = gks_decompose(reshape(frozen))
    return np.linalg.eigvalsh(c)


# ---------------------------------------------------------------------------
# extension to a larger Hilbert space
# ---------------------------------------------------------------------------

def extend(gen, d_ext):
    """Embed the generator in dimension D = d + d_ext.

    H and the noise operators are zero-padded, which reproduces the block
    action: the original generator on the upper block, K A and A^+ K^+ on
    the off-diagonal blocks with K = -iH - 1/2 sum gamma_l L_l^+ L_l, and
    zero on the new block.  Padded channels stay traceless-orthonormal, so
    a canonical generator stays canonical.
    """
    if gen.time_dependent:
        raise TimeDependentError("extension supports autonomous generators only")
    if d_ext < 1:
        raise ValueError("d_ext must be at least 1")
    d = gen.dim
    dd = d + d_ext

    def pad(m):
        out = np.zeros((dd, dd), dtype=complex)
        out[:d, :d] = m
        return out

    channels = [(ch.rate_at(0.0), pad(ch.op)) for ch in gen.channels]
    return build(pad(gen.hamiltonian), channels)


def damping_operator(gen, t=0.0):
    """K = -iH - 1/2 sum gamma_l L_l^+ L_l (the no-jump drift)."""
    k = -1.0j * gen.hamiltonian.astype(complex)
    for ch in gen.channels:
        k = k - 0.5 * ch.rate_at(t) * (ch.op.conj().T @ ch.op)
    return k


# ---------------------------------------------------------------------------
# random sampling
# ---------------------------------------------------------------------------

def random_cp(d, n_channels, seed):
    """Deterministic completely positive canonical generator.

    H is a GUE-like Hermitian matrix; the Kossakowski matrix is a trace-
    normalized complex Wishart matrix of rank ``n_channels``, so all
    canonical rates are nonnegative and sum to one.
    """
    if not 1 <= n_channels <= d * d - 1:
        raise BadChannelCountError(f"n_channels must lie in [1, {d * d - 1}], got {n_channels}")
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((d, d)) + 1.0j * rng.standard_normal((d, d))
    h = (a + a.conj().T) / 2.0
    b = rng.standard_normal((d * d - 1, n_channels)) + 1.0j * rng.standard_normal(
        (d * d - 1, n_channels)
    )
    c = b @ b.conj().T
    c = c / np.trace(c).real
    return canonicalize(h, c).base
