"""Finite-temperature layer: transfer matrices, Perron eigendata, Gibbs
cylinder measures, pressure scans toward the maximizing value, the
kernel normalization constant, and large-deviation rate checks.

Everything here works in the log domain with log-sum-exp reductions, so
β = 64 on integer-sized potentials is routine.  Exact rational results
from the max-plus layer enter only as comparison targets; nothing in
this module feeds back into the exact pipeline.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .duality import KernelTable, dual_potential
from .errors import InvalidInputError, InvariantViolation, PreconditionError
from .graph import DeBruijnGraph, build_de_bruijn
from .maxplus import (
    CriticalStructure,
    ErrorFunction,
    calibrated_subaction,
    error_function,
    max_mean_cycle,
    min_cost_to_critical,
)
from .potentials import LocallyConstantPotential
from .words import Word, check_word

_NODE_LIMIT = 512          # dense n×n log-matrices; desk scale only
_CONVERGE_TOL = 1e-14      # successive log-eigenvalue estimates
_RESIDUAL_TOL = 1e-12      # ‖Mφ - λφ‖∞ / λ at exit
_ITER_CAP = 10 ** 6


def _logsumexp(arr: np.ndarray, axis=None) -> np.ndarray | float:
    hi = np.max(arr, axis=axis, keepdims=True)
    hi = np.where(np.isfinite(hi), hi, 0.0)
    out = np.log(np.sum(np.exp(arr - hi), axis=axis, keepdims=True)) + hi
    return out.reshape(()).item() if axis is None else np.squeeze(out, axis=axis)


@dataclass
class RuelleMatrix:
    """Transfer matrix of exp(β·A) on the de Bruijn graph, stored as
    log-entries.  Row = target node, column = source node, so applying
    it to a node vector sums over preimages.

    log_shift = β·m (m the exact maximizing mean) rides along: the
    power iteration runs on M + e^{log_shift}·I.  The shift removes the
    near-period-2 oscillation that stalls plain iteration on dual-side
    matrices at large β, and because e^{βm} ≤ λ ≤ d·e^{βm} it is at the
    eigenvalue's own scale, so recovering λ = λ' - e^{βm} costs no
    relative precision."""

    beta: float
    alphabet_size: int
    depth: int
    log_entries: np.ndarray          # (n, n), -inf where no edge
    graph: DeBruijnGraph
    log_shift: float

    @property
    def n_nodes(self) -> int:
        return self.graph.n_nodes


def build_ruelle_matrix(a: LocallyConstantPotential, beta: float) -> RuelleMatrix:
    if not (beta > 0 and math.isfinite(beta)):
        raise InvalidInputError(f"beta must be positive and finite, got {beta}")
    g = build_de_bruijn(a.alphabet_size, a.depth, a)
    if g.n_nodes > _NODE_LIMIT:
        raise PreconditionError(
            f"transfer matrices are dense; {g.n_nodes} nodes exceeds {_NODE_LIMIT}")
    n = g.n_nodes
    logm = np.full((n, n), -np.inf)
    for e in range(g.n_edges):
        s, t = g.source(e), g.target(e)
        term = beta * float(g.weight(e))
        if logm[t, s] == -np.inf:
            logm[t, s] = term
        else:  # parallel edges collapse onto one entry (depth 1 only)
            logm[t, s] = float(_logsumexp(np.array([logm[t, s], term])))
    shift = beta * float(max_mean_cycle(g).mean)
    return RuelleMatrix(beta, a.alphabet_size, a.depth, logm, g, shift)


@dataclass
class EigenTriple:
    """Perron data of one transfer matrix.  phi is the eigenfunction
    with max 1, nu the adjoint eigenmeasure with mass 1, mu = phi·nu
    renormalized — all node-indexed.  log_phi/log_nu carry the same
    data without underflow for large β."""

    log_lambda: float
    phi: np.ndarray
    nu: np.ndarray
    mu: np.ndarray
    log_phi: np.ndarray
    log_nu: np.ndarray
    iterations: int


def _perron_step(shifted: np.ndarray, v: np.ndarray, out: np.ndarray,
                 buf: np.ndarray, hi: np.ndarray) -> float:
    """One power step, _logsumexp(shifted + v[None, :], axis=1) minus
    its maximum, written to `out`; returns the maximum.  Every n×n
    intermediate lives in `buf` and every row vector in `hi` or `out`,
    so a step allocates nothing of size n².  The operations and their
    order are _logsumexp's, and `buf` shares the memory layout of
    `shifted`, so the row sums add in the same order and the floats are
    the same."""
    np.add(shifted, v[None, :], out=buf)
    np.max(buf, axis=1, out=hi)
    np.copyto(hi, 0.0, where=~np.isfinite(hi))
    np.subtract(buf, hi[:, None], out=buf)
    np.exp(buf, out=buf)
    np.sum(buf, axis=1, out=out)
    np.log(out, out=out)
    np.add(out, hi, out=out)
    est = float(np.max(out))
    np.subtract(out, est, out=out)
    return est


def _power_iteration(logm: np.ndarray, log_shift: float,
                     ) -> tuple[float, np.ndarray, int]:
    n = logm.shape[0]
    shifted = logm.copy()
    diag = np.arange(n)
    shifted[diag, diag] = _logsumexp(
        np.stack([logm[diag, diag], np.full(n, log_shift)]), axis=0)
    v = np.zeros(n)
    v_new, buf, hi = np.empty(n), np.empty_like(shifted), np.empty(n)
    est = 0.0
    for it in range(1, _ITER_CAP + 1):
        new_est = _perron_step(shifted, v, v_new, buf, hi)
        # the vector must settle in log-domain sup norm too, otherwise
        # exponentially small components exit with only their absolute
        # size converged and their logs (the subaction estimates) junk;
        # both tolerances scale with magnitude — an absolute 1e-14 is
        # below one ulp once the logs reach the hundreds
        v_scale = max(1.0, float(np.max(np.abs(v_new))))
        v_settled = float(np.max(np.abs(v_new - v))) < 1e-13 * v_scale
        est_tol = _CONVERGE_TOL * max(1.0, abs(new_est))
        if abs(new_est - est) < est_tol and v_settled:
            # undo the shift: λ = λ' - e^{βm}, with e^{βm} ≤ λ'/2
            ratio = math.exp(log_shift - new_est)
            if ratio >= 1.0 - 1e-9:
                raise InvariantViolation(
                    "shifted eigenvalue collapsed onto the shift itself")
            log_lambda = new_est + math.log1p(-ratio)
            check = _logsumexp(logm + v_new[None, :], axis=1)
            resid = float(np.max(np.abs(
                np.exp(check - log_lambda) - np.exp(v_new))))
            if resid <= _RESIDUAL_TOL:
                return log_lambda, v_new, it
        est, v, v_new = new_est, v_new, v
    raise InvariantViolation(
        f"power iteration did not converge within {_ITER_CAP} iterations "
        f"(last shifted log-eigenvalue {est:.17g})")


def leading_eigs(m: RuelleMatrix) -> EigenTriple:
    """Leading eigenvalue with right eigenfunction and adjoint
    eigenmeasure, by log-domain power iteration on the diagonally
    shifted matrix (successive eigenvalue estimates within 1e-14,
    residual of the unshifted matrix at most 1e-12)."""
    log_lambda, log_phi, it1 = _power_iteration(m.log_entries, m.log_shift)
    log_lambda_t, log_nu_raw, it2 = _power_iteration(m.log_entries.T, m.log_shift)
    if abs(log_lambda - log_lambda_t) > 1e-11 * max(1.0, abs(log_lambda)):
        raise InvariantViolation(
            f"adjoint eigenvalue mismatch: {log_lambda} vs {log_lambda_t}")
    log_nu = log_nu_raw - _logsumexp(log_nu_raw)
    log_mu = log_phi + log_nu
    log_mu = log_mu - _logsumexp(log_mu)
    if not (np.all(np.isfinite(log_phi)) and np.all(np.isfinite(log_nu))):
        raise InvariantViolation("eigenvector with a zero component")
    return EigenTriple(
        log_lambda=log_lambda,
        phi=np.exp(log_phi), nu=np.exp(log_nu), mu=np.exp(log_mu),
        log_phi=log_phi, log_nu=log_nu,
        iterations=it1 + it2)


def gibbs_cylinder_log_mass(m: RuelleMatrix, eig: EigenTriple, word: Word) -> float:
    """log μ_β of the cylinder given by an arbitrary finite word.

    Words of length >= depth-1 use the product formula
    φ(first node)·Π e^{βA(window)-log λ}·ν(last node) / Z with Z = Σφν;
    shorter words sum their completions to node length.
    """
    g = m.graph
    d, k = m.alphabet_size, m.depth
    word = tuple(word)
    check_word(word, d)
    if len(word) < k - 1:
        tails = d ** (k - 1 - len(word))
        base = g.node_index(word + (0,) * (k - 1 - len(word)))
        masses = [gibbs_cylinder_log_mass(m, eig, g.node_word(base + i))
                  for i in range(tails)]
        return float(_logsumexp(np.array(masses)))
    log_z = float(_logsumexp(eig.log_phi + eig.log_nu))
    first = g.node_index(word[:k - 1])
    last = g.node_index(word[len(word) - (k - 1):]) if k > 1 else 0
    total = eig.log_phi[first] + eig.log_nu[last] - log_z
    for j in range(len(word) - k + 1):
        total += m.beta * float(g.potential.value(word[j:j + k])) - eig.log_lambda
    return float(total)


# ---------------------------------------------------------------------------
# β scans

@dataclass(frozen=True)
class ScanRow:
    beta: float
    pressure_over_beta: float
    pressure_gap: float             # pressure/β - m, always >= 0
    subaction_gap: float            # sup |(1/β)log φ - V| after anchoring
    tv_distance: float | None       # vs maximizing orbit measure, node cylinders
    subaction_estimate: tuple[float, ...]
    mu: tuple[float, ...]


@dataclass
class ConvergenceReport:
    potential: LocallyConstantPotential
    rows: tuple[ScanRow, ...]
    mean: Fraction
    subaction: tuple[Fraction, ...]
    orbit_masses: tuple[Fraction, ...] | None   # None when maximizer not unique

    def csv(self) -> str:
        # the orbit-measure column only exists when the maximizer is
        # unique; drop it entirely otherwise instead of leaving blanks
        has_tv = self.orbit_masses is not None
        out = io.StringIO()
        out.write("beta,pressure_over_beta,subaction_gap"
                  + (",tv_distance\n" if has_tv else "\n"))
        for r in self.rows:
            out.write(f"{r.beta:.12g},{r.pressure_over_beta:.17g},"
                      f"{r.subaction_gap:.12g}")
            if has_tv:
                tv = "" if r.tv_distance is None else f"{r.tv_distance:.12g}"
                out.write(f",{tv}")
            out.write("\n")
        return out.getvalue()

    def summary(self) -> str:
        lines = [f"maximizing mean value m = {self.mean}",
                 f"betas scanned: {len(self.rows)}"]
        last = self.rows[-1]
        lines.append(f"final pressure/beta gap: {last.pressure_gap:.6g}")
        lines.append(f"final subaction sup-gap: {last.subaction_gap:.6g}")
        if last.tv_distance is not None:
            lines.append(f"final TV distance to orbit measure: "
                         f"{last.tv_distance:.6g}")
        else:
            lines.append("orbit-measure comparison skipped "
                         "(maximizing orbit not unique)")
        return "\n".join(lines)


def _orbit_node_masses(g: DeBruijnGraph, cs: CriticalStructure,
                       ) -> tuple[Fraction, ...] | None:
    if not cs.unique_maximizer or not cs.orbits:
        return None
    cycle = cs.orbits[0]
    masses = [Fraction(0)] * g.n_nodes
    for e in cycle:
        masses[g.source(e)] += Fraction(1, len(cycle))
    return tuple(masses)


def beta_scan(a: LocallyConstantPotential, betas: list[float]) -> ConvergenceReport:
    """Pressure, eigenfunction, and Gibbs-measure convergence along an
    increasing β schedule, against the exact zero-temperature data."""
    if not betas or any(b2 <= b1 for b1, b2 in zip(betas, betas[1:])):
        raise InvalidInputError("betas must be a nonempty increasing sequence")
    g = build_de_bruijn(a.alphabet_size, a.depth, a)
    cs = max_mean_cycle(g)
    v = calibrated_subaction(g, cs)
    m_float = float(cs.mean)
    v_float = np.array([float(x) for x in v.values])
    orbit = _orbit_node_masses(g, cs)
    orbit_arr = None if orbit is None else np.array([float(x) for x in orbit])

    rows = []
    for beta in betas:
        mat = build_ruelle_matrix(a, beta)
        eig = leading_eigs(mat)
        p_over_b = eig.log_lambda / beta
        est = eig.log_phi / beta
        est = est - est[0]                      # anchor at node 0
        sub_gap = float(np.max(np.abs(est - v_float)))
        tv = None
        if orbit_arr is not None:
            tv = 0.5 * float(np.sum(np.abs(eig.mu - orbit_arr)))
        rows.append(ScanRow(
            beta=beta, pressure_over_beta=p_over_b,
            pressure_gap=p_over_b - m_float, subaction_gap=sub_gap,
            tv_distance=tv, subaction_estimate=tuple(est), mu=tuple(eig.mu)))
    return ConvergenceReport(a, tuple(rows), cs.mean, v.values, orbit)


# ---------------------------------------------------------------------------
# kernel normalization and the eigenfunction identity

def _beta_kernel(w: KernelTable, beta: float) -> np.ndarray:
    """β·W as floats, rows = w-nodes; each W entry is the correctly
    rounded quotient of its exact integer numerator by the denominator."""
    return np.array([[beta * (v / w.denom) for v in row]
                     for row in w.table.tolist()])


def kernel_normalization(a: LocallyConstantPotential, w: KernelTable,
                         beta: float) -> float:
    """The constant c with ∫∫ e^{βW - c} dν_{βA*} dν_{βA} = 1, computed
    as a double sum over node pairs (W is locally constant, so the
    integral is exact at cylinder resolution)."""
    a_star = dual_potential(a, w, verify="none")
    eig = leading_eigs(build_ruelle_matrix(a, beta))
    eig_star = leading_eigs(build_ruelle_matrix(a_star, beta))
    logw = _beta_kernel(w, beta)
    table = eig_star.log_nu[:, None] + eig.log_nu[None, :] + logw
    return float(_logsumexp(table))


@dataclass(frozen=True)
class KernelIdentityReport:
    """Residuals of the eigenfunction-from-kernel identities
    φ_{βA*}(w) = Σ_x e^{βW(w,x)-c} ν_{βA}(x) and its mirror, after a
    single scalar normalization fit."""

    residual_dual: float
    residual_primal: float
    normalization: float

    @property
    def residual(self) -> float:
        return max(self.residual_dual, self.residual_primal)

    @property
    def ok(self) -> bool:
        return self.residual <= 1e-8


def _scalar_fit_residual(log_target: np.ndarray, log_rhs: np.ndarray) -> float:
    shift = float(np.mean(log_target - log_rhs))
    fitted = np.exp(log_rhs + shift - log_target)
    return float(np.max(np.abs(fitted - 1.0)))


def verify_kernel_identity(a: LocallyConstantPotential, w: KernelTable,
                           beta: float) -> KernelIdentityReport:
    """Check that integrating e^{βW-c} against one side's eigenmeasure
    reproduces the other side's eigenfunction (up to one scalar)."""
    a_star = dual_potential(a, w, verify="none")
    eig = leading_eigs(build_ruelle_matrix(a, beta))
    eig_star = leading_eigs(build_ruelle_matrix(a_star, beta))
    logw = _beta_kernel(w, beta)
    c = float(_logsumexp(eig_star.log_nu[:, None] + eig.log_nu[None, :] + logw))

    # φ*(w) =? Σ_x e^{βW(w,x)-c} ν(x)
    rhs_dual = _logsumexp(logw - c + eig.log_nu[None, :], axis=1)
    # φ(x) =? Σ_w e^{βW(w,x)-c} ν*(w)
    rhs_primal = _logsumexp(logw - c + eig_star.log_nu[:, None], axis=0)

    return KernelIdentityReport(
        residual_dual=_scalar_fit_residual(eig_star.log_phi, np.asarray(rhs_dual)),
        residual_primal=_scalar_fit_residual(eig.log_phi, np.asarray(rhs_primal)),
        normalization=c)


# ---------------------------------------------------------------------------
# large deviations

@dataclass(frozen=True)
class LdpRow:
    beta: float
    rate_estimate: float            # -(1/β) log μ_β(cylinder)
    gap: float                      # rate_estimate - exact_inf


@dataclass
class LdpReport:
    cylinder: Word
    exact_inf: Fraction             # inf of the deviation function on the cylinder
    rows: tuple[LdpRow, ...]
    bound_constant: float           # gaps compare against bound_constant/β


def _deviation_infimum(g: DeBruijnGraph, r: ErrorFunction,
                       j: tuple[Fraction, ...], word: Word) -> Fraction:
    k = g.depth
    if len(word) < k - 1:
        tails = g.alphabet_size ** (k - 1 - len(word))
        base = g.node_index(word + (0,) * (k - 1 - len(word)))
        return min(j[base + i] for i in range(tails))
    total = Fraction(0)
    for i in range(len(word) - k + 1):
        total += r.values[g.edge_index(word[i:i + k])]
    tail = g.node_index(word[len(word) - (k - 1):]) if k > 1 else 0
    return total + j[tail]


def ldp_rate_check(a: LocallyConstantPotential, cylinder: Word,
                   betas: list[float]) -> LdpReport:
    """Compare -(1/β)·log μ_β(cylinder) with the exact infimum of the
    deviation function over the cylinder (window costs plus the
    min-cost-to-critical tail).  Needs a unique maximizing orbit."""
    if not betas or any(b2 <= b1 for b1, b2 in zip(betas, betas[1:])):
        raise InvalidInputError("betas must be a nonempty increasing sequence")
    cylinder = tuple(cylinder)
    check_word(cylinder, a.alphabet_size)
    if not cylinder:
        raise InvalidInputError("cylinder word must be nonempty")
    g = build_de_bruijn(a.alphabet_size, a.depth, a)
    cs = max_mean_cycle(g)
    if not cs.unique_maximizer:
        raise PreconditionError(
            "large-deviation comparison needs a unique maximizing orbit")
    v = calibrated_subaction(g, cs)
    r = error_function(g, cs, v)
    j = min_cost_to_critical(g, r, cs)
    inf_i = _deviation_infimum(g, r, j, cylinder)

    rows = []
    for beta in betas:
        mat = build_ruelle_matrix(a, beta)
        eig = leading_eigs(mat)
        log_mass = gibbs_cylinder_log_mass(mat, eig, cylinder)
        est = -log_mass / beta
        rows.append(LdpRow(beta, est, est - float(inf_i)))
    bound = 2.0 * a.depth * math.log(a.alphabet_size)
    return LdpReport(cylinder, inf_i, tuple(rows), bound)
