"""Gaussian correlation measures computed from the 8x8 covariance matrix.

Half-unit convention throughout: vacuum quadrature variance is 1/2 and a
two-mode state is entangled iff the minimum symplectic eigenvalue of the
partially transposed covariance matrix drops below 1/2.

Canonical pairs and triple follow the {c2, a, b} sector; pairs involving
c1 work through the same API but are not part of the standard report.

Every two-mode measure is a function of the four Seralian invariants of
its pair (Serafini, Illuminati & De Siena, J. Phys. B 37, L21 (2004)).
`correlation_report` computes them once per canonical pair and derives
E_N, D_G (Adesso & Datta, PRL 105, 030501 (2010)) and the pair
contangles of the residual from that one pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dynamics import MODE_BLOCKS, StabilityVerdict
from .errors import NumericDomainError

CANONICAL_PAIRS = (("c2", "a"), ("a", "b"), ("c2", "b"))
TRIPLE_MODES = ("c2", "a", "b")

# tolerances pinned by the verification contract
DISCRIMINANT_TOL = 1.0e-12
G_DOMAIN_TOL = 1.0e-12
MONOGAMY_CLAMP = 1.0e-9

# closed-form determinants carry ~1e-16 relative round-off, so log-negativity
# below this floor cannot be distinguished from the separability threshold
EN_ZERO_TOL = 1.0e-12

# 6x6 symplectic form, three [[0,1],[-1,0]] blocks
OMEGA_3 = np.kron(np.eye(3), np.array([[0.0, 1.0], [-1.0, 0.0]]))

# one-vs-two partial transposition matrices for mode order (c2, a, b):
# flip the momentum quadrature of the singled-out mode
PT_MATRICES = {
    "c2": np.diag([1.0, -1.0, 1.0, 1.0, 1.0, 1.0]),
    "a": np.diag([1.0, 1.0, 1.0, -1.0, 1.0, 1.0]),
    "b": np.diag([1.0, 1.0, 1.0, 1.0, 1.0, -1.0]),
}

# one-vs-two partitions: the singled-out mode, then the pair contangles
# subtracted from the partition's contangle, in this order
PARTITIONS = {
    "c2|ab": ("c2", ("c2a", "c2b")),
    "a|c2b": ("a", ("c2a", "ab")),
    "b|c2a": ("b", ("c2b", "ab")),
}


def extract_submatrix(v: np.ndarray, modes) -> np.ndarray:
    """Select the rows/columns of the given modes, order preserved."""
    idx = []
    for m in modes:
        if m not in MODE_BLOCKS:
            raise ValueError(f"unknown mode tag {m!r}")
        idx.extend(MODE_BLOCKS[m])
    if len(set(modes)) != len(modes):
        raise ValueError("mode tags must be distinct")
    return v[np.ix_(idx, idx)]


# ---------------------------------------------------------------------------
# closed-form determinants (precision at the E_N ~ 0 clamping threshold)
# ---------------------------------------------------------------------------

def det2(m) -> float:
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def _det3(m) -> float:
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


def det4(m) -> float:
    """Cofactor expansion along the first row with closed-form 3x3 minors."""
    total = 0.0
    rows = [1, 2, 3]
    for j in range(4):
        cols = [k for k in range(4) if k != j]
        minor = [[m[r][c] for c in cols] for r in rows]
        total += ((-1.0) ** j) * m[0][j] * _det3(minor)
    return total


def _seralian_invariants(v4: np.ndarray):
    """I1 = det psi1, I2 = det psi2, I3 = det psi3, I4 = det V4."""
    v4 = 0.5 * (v4 + v4.T)  # measures see only the symmetric part
    i1 = det2(v4[:2, :2])
    i2 = det2(v4[2:, 2:])
    i3 = det2(v4[:2, 2:])
    i4 = det4(v4)
    return i1, i2, i3, i4


def _symplectic_pair(inv, transposed: bool):
    """Symplectic eigenvalues (nu_-, nu_+) from the Seralian invariants.

    Partial transposition flips the sign of the inter-mode block
    determinant, so the transposed Seralian enters with -2 det(psi3).
    """
    i1, i2, i3, i4 = inv
    sigma = i1 + i2 - 2.0 * i3 if transposed else i1 + i2 + 2.0 * i3
    disc = sigma * sigma - 4.0 * i4
    if disc < -DISCRIMINANT_TOL:
        kind = "PT discriminant" if transposed else "discriminant"
        raise NumericDomainError(f"negative {kind} {disc!r}: unphysical input")
    root = math.sqrt(max(disc, 0.0))
    inner = 0.5 * (sigma - root)
    if inner < -DISCRIMINANT_TOL:
        raise NumericDomainError(f"negative squared symplectic eigenvalue {inner!r}")
    return math.sqrt(max(inner, 0.0)), math.sqrt(max(0.5 * (sigma + root), 0.0))


def pt_symplectic_min(v4: np.ndarray) -> float:
    """Minimum symplectic eigenvalue of the partially transposed 4x4 CM."""
    return _symplectic_pair(_seralian_invariants(v4), transposed=True)[0]


def _en_from_nu(nu: float) -> float:
    """E_N = max[0, -ln(2 nu)] from a minimum PT symplectic eigenvalue."""
    if nu <= 0.0:
        raise NumericDomainError("PT symplectic eigenvalue vanished; unphysical input")
    val = -math.log(2.0 * nu)
    return val if val > EN_ZERO_TOL else 0.0


def log_negativity(v4: np.ndarray) -> float:
    """Logarithmic negativity E_N = max[0, -ln(2 nu_-^PT)] of a 4x4 CM."""
    return _en_from_nu(pt_symplectic_min(v4))


# ---------------------------------------------------------------------------
# tripartite sector
# ---------------------------------------------------------------------------

def pt_min_symplectic(v6: np.ndarray, partition: str) -> float:
    """Minimum |eigenvalue| of i Omega_3 (P V6 P) for a one-vs-two partition.

    The eigenvalues of i Omega V come in +/- pairs; the symplectic
    spectrum is their modulus, so the minimum is taken over absolute
    values (a literal signed minimum would be negative and meaningless
    in the entanglement formula).
    """
    if partition not in PARTITIONS:
        raise ValueError(f"unknown partition {partition!r}; expected one of {sorted(PARTITIONS)}")
    p = PT_MATRICES[PARTITIONS[partition][0]]
    v_pt = p @ (0.5 * (v6 + v6.T)) @ p
    eigs = np.linalg.eigvals(1j * OMEGA_3 @ v_pt)
    if not np.all(np.isfinite(eigs)):
        raise NumericDomainError("non-finite eigenvalues in tripartite PT spectrum")
    return float(np.min(np.abs(eigs)))


def one_vs_rest_contangle(v6: np.ndarray, partition: str) -> float:
    """Contangle (squared log-negativity) of a one-vs-two bipartition."""
    return _en_from_nu(pt_min_symplectic(v6, partition)) ** 2


def _residuals(v6: np.ndarray, e_n: dict) -> dict:
    """C_{i|jk} - C_{i|j} - C_{i|k} per partition, with C_{i|j} = E_N(ij)^2."""
    return {tag: one_vs_rest_contangle(v6, tag) - e_n[first] ** 2 - e_n[second] ** 2
            for tag, (_, (first, second)) in PARTITIONS.items()}


def residual_contangle_min(v6: np.ndarray):
    """Minimum residual contangle of the (c2, a, b) triple.

    Returns (r_min, residuals) where residuals maps each one-vs-two
    partition tag to C_{i|jk} - C_{i|j} - C_{i|k} (raw, unclamped).
    """
    blocks = {"c2": [0, 1], "a": [2, 3], "b": [4, 5]}  # quadratures within v6
    e_n = {}
    for i, j in CANONICAL_PAIRS:
        idx = blocks[i] + blocks[j]
        e_n[_pair_key((i, j))] = log_negativity(v6[np.ix_(idx, idx)])
    residuals = _residuals(v6, e_n)
    return min(residuals.values()), residuals


# ---------------------------------------------------------------------------
# Gaussian quantum discord
# ---------------------------------------------------------------------------

def _g(x: float) -> float:
    """Entropic function of a symplectic eigenvalue; g(1/2) = 0 by continuity."""
    if x < 0.5 - G_DOMAIN_TOL:
        raise NumericDomainError(f"g argument {x!r} below 1/2: unphysical input")
    x = max(x, 0.5)
    hi = (x + 0.5) * math.log(x + 0.5)
    lo = 0.0 if x - 0.5 <= 0.0 else (x - 0.5) * math.log(x - 0.5)
    return hi - lo


def unPT_symplectic_pair(v4: np.ndarray):
    """Symplectic eigenvalues (nu_-, nu_+) of the untransposed 4x4 CM."""
    return _symplectic_pair(_seralian_invariants(v4), transposed=False)


def _measurement_witness(i1, i2, i3, i4) -> float:
    """Post-measurement determinant W of the optimal Gaussian measurement."""
    i3sq = i3 * i3
    branch_denom = (i2 + 4.0 * i4) * (1.0 + 4.0 * i1) * i3sq
    use_first = False
    if i3sq > 0.0 and branch_denom != 0.0 and abs(4.0 * i1 - 1.0) > G_DOMAIN_TOL:
        use_first = 4.0 * (i1 * i2 - i4) ** 2 / branch_denom <= 1.0
    if use_first:
        num = 2.0 * abs(i3) + math.sqrt(max(4.0 * i3sq + (4.0 * i1 - 1.0) * (4.0 * i4 - i2), 0.0))
        return (num / (4.0 * i1 - 1.0)) ** 2
    s = i1 * i2 + i4 - i3sq
    disc = max(s * s - 4.0 * i1 * i2 * i4, 0.0)
    return (s - math.sqrt(disc)) / (2.0 * i1)


def _discord(inv) -> float:
    """D_G from the Seralian invariants of a pair; see gaussian_discord."""
    nu_lo, nu_hi = _symplectic_pair(inv, transposed=False)
    w = _measurement_witness(*inv)
    if w < 0.0:
        raise NumericDomainError(f"negative measurement determinant {w!r}")
    val = _g(math.sqrt(inv[0])) - _g(nu_lo) - _g(nu_hi) + _g(math.sqrt(w))
    if val < -1.0e-10:
        return val  # genuine negative indicates an upstream bug; surface it
    return max(val, 0.0)


def gaussian_discord(v4: np.ndarray) -> float:
    """Gaussian quantum discord of a 4x4 CM (measurement on the second mode).

    D_G = g(sqrt(I1)) - g(nu_-) - g(nu_+) + g(sqrt(W)); tiny negative
    round-off is clamped to zero.
    """
    return _discord(_seralian_invariants(v4))


# ---------------------------------------------------------------------------
# aggregate report
# ---------------------------------------------------------------------------

def _pair_key(pair) -> str:
    return f"{pair[0]}{pair[1]}"


@dataclass(frozen=True)
class CorrelationReport:
    """All correlation measures for one parameter point.

    r_tau residuals are clamped to zero when within round-off of the
    monogamy bound; the raw values stay available in r_tau_raw.
    """

    e_n: dict
    d_g: dict
    r_tau: dict
    r_tau_raw: dict
    r_tau_min: float
    stability: StabilityVerdict
    n_th: float
    params_echo: dict = field(default_factory=dict)

    def as_flat_dict(self) -> dict:
        out = {}
        for pair in CANONICAL_PAIRS:
            out[f"EN_{_pair_key(pair)}"] = self.e_n[_pair_key(pair)]
        for pair in CANONICAL_PAIRS:
            out[f"DG_{_pair_key(pair)}"] = self.d_g[_pair_key(pair)]
        out["Rtau_min"] = self.r_tau_min
        for tag, val in self.r_tau.items():
            out[f"Rtau_{tag.replace('|', '_')}"] = val
        out["stable"] = self.stability.stable
        out["max_real_part"] = self.stability.max_real_part
        out["n_th"] = self.n_th
        return out


def _clamp_residual(r: float) -> float:
    return 0.0 if -MONOGAMY_CLAMP <= r < 0.0 else r


def correlation_report(v: np.ndarray, verdict: StabilityVerdict, n_th: float,
                       params_echo: dict | None = None) -> CorrelationReport:
    """Compute every canonical measure from the steady-state CM.

    One Seralian pass per canonical pair feeds E_N, D_G and, as E_N^2,
    the pair contangles of the residual.
    """
    e_n = {}
    d_g = {}
    for pair in CANONICAL_PAIRS:
        inv = _seralian_invariants(extract_submatrix(v, pair))
        e_n[_pair_key(pair)] = _en_from_nu(_symplectic_pair(inv, transposed=True)[0])
        d_g[_pair_key(pair)] = _discord(inv)
    raw = _residuals(extract_submatrix(v, TRIPLE_MODES), e_n)
    clamped = {tag: _clamp_residual(val) for tag, val in raw.items()}
    return CorrelationReport(
        e_n=e_n, d_g=d_g,
        r_tau=clamped, r_tau_raw=raw,
        r_tau_min=min(clamped.values()),
        stability=verdict, n_th=n_th,
        params_echo=params_echo or {},
    )
