"""GKLS generators: construction, canonical form, reshaping, extension.

A generator is one record: an effective Hamiltonian H, an (n, d, d) stack of
noise operators L_l and a tuple of n rates gamma_l acting on a d-dimensional
Hilbert space:

    L(rho) = -i[H, rho] + sum_l gamma_l (L_l rho L_l^+ - 1/2 {L_l^+ L_l, rho})

Rates may be plain reals or parsed time expressions gamma_l(t); noise
operators are time independent.  The canonical form has traceless noise
operators orthonormal under the Hilbert-Schmidt inner product, which makes
the rates unique up to degeneracies of the Kossakowski matrix; it is a
record of the same type, and (1/d) sum_l Gamma_l = sum_k gamma_k on it.
Both ``canonical_form`` and ``canonical_rates`` reach it from the noise-operator
coefficients c_lk = Tr(F_k L_l) over the Gell-Mann basis F: the Kossakowski
matrix is C = sum_l gamma_l c_l c_l^+, and the identity part of each L_l only
shifts H.

Vectorization is row-major throughout: vec(rho) = rho.reshape(d*d), so the
Kronecker product A (x) B^T acts as rho -> A rho B.  One assembly builds the
reshaped d^2 x d^2 generator, batched over a leading axis: einsum Kronecker
products over stacked noise operators give the Hamiltonian part
-i(H (x) 1 - 1 (x) H^T) and the dissipators

    D_l = L_l (x) conj(L_l) - 1/2 (L_l^+ L_l (x) 1 + 1 (x) (L_l^+ L_l)^T).

Constant-rate channels fold into a static matrix once; time-dependent ones
stay a flattened (n_td, d^4) stack, so that

    L(t) = static + (gamma(t) @ stack).reshape(d^2, d^2).

``reshape`` returns L(t) at one time as a plain d^2 x d^2 array.  It and the
integrators in ``pauli`` and ``lyapunov`` all read L(t) through
``SuperopParts.at``; the integrators read it as stacks at the RK4 stage times
(``SuperopParts.flow``).  ``superop_parts`` runs the assembly with a unit
batch axis; ``random_cp_batch`` runs it on one random generator per seed.
Every tolerance here is a level of the table in ``matcore``.
"""

import functools
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
    TimeDependentError,
)

__all__ = [
    "GklsGenerator",
    "SuperopParts",
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "SIGMA_PLUS",
    "SIGMA_MINUS",
    "build",
    "freeze",
    "apply",
    "reshape",
    "superop_parts",
    "canonicalize",
    "canonical_form",
    "is_canonical",
    "extend",
    "random_cp",
    "random_cp_batch",
    "gell_mann_basis",
    "vec",
    "unvec",
]

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


@dataclass(frozen=True, eq=False)
class GklsGenerator:
    """H plus noise operators ``ops`` (n, d, d) and one rate per operator, each a
    float or a ``ratelang.RateExpr``; ``time_dependent`` when any rate is an expression."""

    dim: int
    hamiltonian: np.ndarray
    ops: np.ndarray
    rates: tuple
    time_dependent: bool

    def rates_at(self, t=0.0):
        """The rates at time ``t`` as a float array, one per row of ``ops``."""
        values = [
            ratelang.evaluate(r, t) if isinstance(r, ratelang.RateExpr) else r for r in self.rates
        ]
        return np.array(values, dtype=float)


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


def _hermitian_part(hamiltonian):
    """The Hamiltonian, checked square and Hermitian to EXACT_TOL (relative), symmetrized."""
    h = matcore.as_matrix(hamiltonian, "hamiltonian")
    if h.shape[0] != h.shape[1]:
        raise DimensionMismatchError(f"hamiltonian must be square, got {h.shape}")
    if not matcore.is_hermitian(h, matcore.EXACT_TOL):
        raise NonHermitianHamiltonianError(f"hamiltonian is not Hermitian to {matcore.EXACT_TOL}")
    return (h + h.conj().T) / 2.0


def build(hamiltonian, channels):
    """Validate and assemble a generator from H and (rate, operator) pairs.

    The Hamiltonian must be Hermitian to EXACT_TOL (relative) and is symmetrized
    on storage.  Channels that are not traceless-orthonormal only draw a
    warning; ``canonicalize`` repairs such representations.
    """
    h = _hermitian_part(hamiltonian)
    d = h.shape[0]
    ops, rates = [], []
    for k, (rate, op) in enumerate(channels):
        op = matcore.as_matrix(op, f"channel {k} operator")
        if op.shape != (d, d):
            raise DimensionMismatchError(
                f"channel {k} operator has shape {op.shape}, expected {(d, d)}"
            )
        ops.append(op)
        rates.append(_coerce_rate(rate))

    gen = GklsGenerator(
        dim=d,
        hamiltonian=h,
        ops=np.array(ops, dtype=complex).reshape(-1, d, d),
        rates=tuple(rates),
        time_dependent=any(isinstance(r, ratelang.RateExpr) for r in rates),
    )
    if not is_canonical(gen):
        warnings.warn(
            "channels are not traceless-orthonormal; canonicalize() repairs this",
            stacklevel=2,
        )
    return gen


def is_canonical(gen):
    """True when all noise operators are traceless and HS-orthonormal to INPUT_TOL."""
    n = len(gen.ops)
    flat = gen.ops.reshape(n, gen.dim * gen.dim)
    gram = flat.conj() @ flat.T
    traces = np.trace(gen.ops, axis1=1, axis2=2)
    traceless = not np.any(np.abs(traces) > matcore.INPUT_TOL)
    return traceless and bool(np.all(np.abs(gram - np.eye(n)) <= matcore.INPUT_TOL))


def freeze(gen, t):
    """Autonomous snapshot with all rates evaluated at time ``t``."""
    if not gen.time_dependent:
        return gen
    return GklsGenerator(gen.dim, gen.hamiltonian, gen.ops, tuple(gen.rates_at(t).tolist()), False)


# ---------------------------------------------------------------------------
# action on operators
# ---------------------------------------------------------------------------

def apply(gen, rho, t=0.0):
    """Schroedinger-picture action L(rho) at time ``t``."""
    rho = matcore.as_matrix(rho, "rho")
    if rho.shape != (gen.dim, gen.dim):
        raise DimensionMismatchError(f"state has shape {rho.shape}, expected {(gen.dim,) * 2}")
    h, l = gen.hamiltonian, gen.ops
    l_dag = l.conj().swapaxes(1, 2)
    ldl = l_dag @ l
    terms = l @ rho @ l_dag - 0.5 * (ldl @ rho + rho @ ldl)
    return -1.0j * (h @ rho - rho @ h) + np.einsum("n,nab->ab", gen.rates_at(t), terms)


# ---------------------------------------------------------------------------
# reshaping
# ---------------------------------------------------------------------------

# RK4 steps per stack in ``SuperopParts.flow``: 129 stages are 33 KB at d = 2
# and 21 MB at d = 10, while one ``at`` call per 64 steps costs next to nothing
_FLOW_CHUNK = 64


def _kron(a, b):
    """Kronecker product of the trailing square axes, batched over leading ones."""
    d = a.shape[-1]
    out = np.einsum("...ab,...cd->...acbd", a, b)
    return out.reshape(out.shape[:-4] + (d * d, d * d))


@dataclass(frozen=True, eq=False)
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
        """L(t) as a d^2 x d^2 matrix, or stacked over an array of times, from one
        ``gammas @ stack``; ``static`` itself at a scalar t when no rate varies."""
        ts = np.asarray(t, dtype=float)
        if ts.ndim == 0 and not self.rates:
            return self.static
        gammas = np.array([[ratelang.evaluate(r, s) for r in self.rates] for s in ts.flat])
        gammas = gammas.reshape(ts.size, len(self.rates))
        return self.static + (gammas @ self.stack).reshape(ts.shape + self.static.shape)

    def flow(self, v, a, b, n, sign=1.0):
        """``matcore.rk4`` for v' = sign L(t) v, n equal steps from a to b, reading L
        in stacks of at most ``_FLOW_CHUNK`` steps so that memory stays bounded."""
        ts = np.linspace(a, b, 2 * n + 1)
        for i in range(0, 2 * n, 2 * _FLOW_CHUNK):
            v = matcore.rk4(sign * self.at(ts[i : i + 2 * _FLOW_CHUNK + 1]), v, (b - a) / n)
        return v


def _dissipator_sums(weights, ops, d):
    """Flattened sums sum_l weights[k, l] D_l, one row per k, over noise operators
    ``ops`` given per row (k, n, d, d) or shared by all rows (1, n, d, d)."""
    k = weights.shape[0]
    eye = np.eye(d)
    flat = ops.reshape(ops.shape[:2] + (d * d,))
    # sum_l w_kl L_l (x) conj(L_l): the outer products of vec(L_l), regrouped
    jumps = np.einsum("kl,kla,klb->kab", weights, flat, flat.conj())
    jumps = jumps.reshape(k, d, d, d, d).transpose(0, 1, 3, 2, 4).reshape(k, d * d, d * d)
    damp = np.einsum("kl,klba,klbc->kac", weights, ops.conj(), ops)  # sum_l w_kl L_l^+ L_l
    out = jumps - 0.5 * (_kron(damp, eye) + _kron(eye, damp.transpose(0, 2, 1)))
    return out.reshape(k, d**4)


def _assemble(h, weights, ops):
    """Reshaped generators with Hamiltonians ``h`` and rates ``weights``, batched over k."""
    d = h.shape[-1]
    eye = np.eye(d)
    ham = -1.0j * (_kron(h, eye) - _kron(eye, h.swapaxes(-1, -2)))
    return ham + _dissipator_sums(weights, ops, d).reshape(-1, d * d, d * d)


def superop_parts(gen):
    """The reshaped generator of ``gen`` from the one assembly (see the module notes)."""
    varying = [isinstance(r, ratelang.RateExpr) for r in gen.rates]
    fixed_rates = np.array([[r for r, v in zip(gen.rates, varying) if not v]], dtype=float)
    static = _assemble(gen.hamiltonian, fixed_rates, gen.ops[None, np.logical_not(varying)])
    rates = tuple(r for r, v in zip(gen.rates, varying) if v)
    if rates:
        stack = _dissipator_sums(np.eye(len(rates)), gen.ops[None, varying], gen.dim)
    else:
        stack = np.zeros((0, gen.dim**4), dtype=complex)
    return SuperopParts(static=static[0], stack=stack, rates=rates)


def reshape(gen, t=0.0):
    """Reshaped d^2 x d^2 superoperator array of the generator frozen at time ``t``."""
    return superop_parts(gen).at(t)


# ---------------------------------------------------------------------------
# traceless orthonormal basis (generalized Gell-Mann matrices)
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=16)
def gell_mann_basis(d):
    """Hermitian traceless orthonormal basis as a read-only (d^2 - 1, d, d) stack,
    ordered symmetric, antisymmetric, diagonal; built once per dimension."""
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
    basis = np.array(basis)
    basis.flags.writeable = False
    return basis


# ---------------------------------------------------------------------------
# canonical form
# ---------------------------------------------------------------------------

def _kossakowski(gen, gammas):
    """Kossakowski matrices C = sum_l gamma_l c_l c_l^+ over the Gell-Mann basis F,
    with c_lk = Tr(F_k L_l), one per row of the rates ``gammas`` (..., n)."""
    coeffs = np.einsum("kab,lba->lk", gell_mann_basis(gen.dim), gen.ops)
    return np.einsum("...l,lk,lj->...kj", gammas, coeffs, coeffs.conj())


def _canonical_stack(c, basis):
    """Canonical rates, noise operators and |rate| >= EXACT_TOL mask of ``c`` (..., n, n)."""
    c_dag = c.swapaxes(-1, -2).conj()
    scale = np.maximum(1.0, np.linalg.norm(c, axis=(-2, -1)))
    if np.any(np.linalg.norm(c - c_dag, axis=(-2, -1)) > matcore.INPUT_TOL * scale):
        raise NonHermitianKossakowskiError("Kossakowski matrix is not Hermitian")
    gammas, mixing = np.linalg.eigh((c + c_dag) / 2.0)
    ops = np.einsum("...kl,kab->...lab", mixing, basis)
    return gammas, ops, np.abs(gammas) >= matcore.EXACT_TOL


def canonicalize(h, kossakowski):
    """Diagonalize the Kossakowski matrix over the Gell-Mann basis into the
    canonical generator.

    Channels with |gamma| < EXACT_TOL are dropped; each canonical operator has
    its first largest-magnitude entry made real positive so output is
    deterministic.
    """
    h = _hermitian_part(h)
    d = h.shape[0]
    c = matcore.as_matrix(kossakowski, "kossakowski")
    n = d * d - 1
    if c.shape != (n, n):
        raise DimensionMismatchError(f"kossakowski has shape {c.shape}, expected {(n, n)}")
    gammas, ops, kept = _canonical_stack(c, gell_mann_basis(d))
    ops = matcore.fix_phases(ops[kept].reshape(-1, d * d)).reshape(-1, d, d)
    return GklsGenerator(d, h, ops, tuple(gammas[kept].tolist()), False)


def canonical_form(gen):
    """The canonical generator of ``gen``: ``gen`` itself when its channels already are.

    Time-dependent generators must already be canonical (their noise
    operators are fixed, only rates vary).  Autonomous others go through
    ``canonicalize`` with the Kossakowski matrix of the operator coefficients
    (see the module notes); with L_l = alpha_l 1 + A_l and A_l traceless, the
    identity parts move into H as

        H + (i/2) sum_l gamma_l (conj(alpha_l) A_l - alpha_l A_l^+).
    """
    if is_canonical(gen):
        return gen
    if gen.time_dependent:
        raise TimeDependentError(
            "time-dependent generator with non-canonical channels; "
            "canonicalize a frozen snapshot instead"
        )
    gammas = gen.rates_at()
    alpha = np.trace(gen.ops, axis1=1, axis2=2) / gen.dim
    traceless = gen.ops - alpha[:, None, None] * np.eye(gen.dim)
    shift = np.einsum("l,lab->ab", gammas * alpha.conj(), traceless)
    h = gen.hamiltonian + 0.5j * (shift - shift.conj().T)
    return canonicalize(h, _kossakowski(gen, gammas))


def canonical_rates(gen, times):
    """Canonical rates of the generator frozen at each of ``times``, one row per time.

    Canonical channels report their evaluated rates directly; otherwise the
    rates are the eigenvalues of the Kossakowski matrix C(t) of the operator
    coefficients, which keeps the row length d^2 - 1 at every time (nothing
    is pruned).
    """
    gammas = np.array([gen.rates_at(t) for t in times])
    if is_canonical(gen):
        return gammas
    return np.linalg.eigvalsh(_kossakowski(gen, gammas))


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
    d, dd = gen.dim, gen.dim + d_ext

    def pad(m):
        out = np.zeros(m.shape[:-2] + (dd, dd), dtype=complex)
        out[..., :d, :d] = m
        return out

    return GklsGenerator(dd, pad(gen.hamiltonian), pad(gen.ops), gen.rates, False)


def damping_operator(gen, t=0.0):
    """K = -iH - 1/2 sum gamma_l L_l^+ L_l (the no-jump drift)."""
    ldl = np.einsum("n,nba,nbc->ac", gen.rates_at(t), gen.ops.conj(), gen.ops)
    return -1.0j * gen.hamiltonian - 0.5 * ldl


# ---------------------------------------------------------------------------
# random sampling
# ---------------------------------------------------------------------------

def _draw_cp(d, n_channels, seed):
    """GUE-like H and trace-normalized complex Wishart Kossakowski matrix of one seed."""
    if not 1 <= n_channels <= d * d - 1:
        raise BadChannelCountError(f"n_channels must lie in [1, {d * d - 1}], got {n_channels}")
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((d, d)) + 1.0j * rng.standard_normal((d, d))
    h = (a + a.conj().T) / 2.0
    shape = (d * d - 1, n_channels)
    b = rng.standard_normal(shape) + 1.0j * rng.standard_normal(shape)
    c = b @ b.conj().T
    return h, c / np.trace(c).real


def random_cp(d, n_channels, seed):
    """Deterministic completely positive canonical generator.

    H is a GUE-like Hermitian matrix; the Kossakowski matrix is a trace-
    normalized complex Wishart matrix of rank ``n_channels``, so all
    canonical rates are nonnegative and sum to one.
    """
    return canonicalize(*_draw_cp(d, n_channels, seed))


def random_cp_batch(d, n_channels, seeds):
    """Stacked (len(seeds), d^2, d^2) superoperators of ``random_cp(d, n_channels, s)``
    over the seeds s, and the sums of their canonical rates.  The operators skip
    the phase fix of ``canonicalize``, which leaves the superoperator unchanged."""
    h, c = map(np.stack, zip(*[_draw_cp(d, n_channels, s) for s in seeds]))
    gammas, ops, kept = _canonical_stack(c, gell_mann_basis(d))
    rates = np.where(kept, gammas, 0.0)
    return _assemble(h, rates, ops), rates.sum(axis=-1)
