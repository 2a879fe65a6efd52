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
from dataclasses import dataclass

import numpy as np

from .dynamics import MODE_BLOCKS, OMEGA_4, StabilityVerdict
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

# quadrature indices of each mode in extract_submatrix(v, TRIPLE_MODES)
_TRIPLE_BLOCKS = {m: (2 * k, 2 * k + 1) for k, m in enumerate(TRIPLE_MODES)}
_TRIPLE_DIM = 2 * len(TRIPLE_MODES)

# rows and columns of each canonical pair ("c2a", ...) in that block
_PAIR_INDEX = {p + q: np.ix_(_TRIPLE_BLOCKS[p] + _TRIPLE_BLOCKS[q], _TRIPLE_BLOCKS[p] + _TRIPLE_BLOCKS[q])
               for p, q in CANONICAL_PAIRS}

# symplectic form of the triple: the leading blocks of the four-mode form
OMEGA_3 = OMEGA_4[:_TRIPLE_DIM, :_TRIPLE_DIM].copy()

# one-vs-two partial transposition matrices of the triple:
# flip the momentum quadrature of the singled-out mode
PT_MATRICES = {m: np.diag([-1.0 if i == _TRIPLE_BLOCKS[m][1] else 1.0 for i in range(_TRIPLE_DIM)])
               for m in TRIPLE_MODES}

# one-vs-two partitions: the singled-out mode, then the pair contangles
# subtracted from the partition's contangle, in this order
PARTITIONS = {
    "c2|ab": ("c2", ("c2a", "c2b")),
    "a|c2b": ("a", ("c2a", "ab")),
    "b|c2a": ("b", ("c2b", "ab")),
}
_PARTITION_PT = np.stack([PT_MATRICES[mode] for mode, _ in PARTITIONS.values()])


def _pair_key(pair) -> str:
    return f"{pair[0]}{pair[1]}"


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
    m = (0.5 * (v4 + v4.T)).tolist()  # the symmetric part, as Python floats
    i1 = det2([row[:2] for row in m[:2]])
    i2 = det2([row[2:] for row in m[2:]])
    i3 = det2([row[2:] for row in m[:2]])
    i4 = det4(m)
    return i1, i2, i3, i4


def _symplectic_pair(inv, transposed: bool):
    """Symplectic eigenvalues (nu_-, nu_+) from the Seralian invariants.

    Partial transposition flips the sign of the inter-mode block
    determinant, so the transposed Seralian enters with -2 det(psi3).
    """
    i1, i2, i3, i4 = inv
    sigma = i1 + i2 - 2.0 * i3 if transposed else i1 + i2 + 2.0 * i3
    disc = sigma * sigma - 4.0 * i4
    if not disc >= -DISCRIMINANT_TOL:  # also rejects the NaN of a non-finite input
        kind = "PT discriminant" if transposed else "discriminant"
        raise NumericDomainError(f"negative {kind} {disc!r}: unphysical input")
    root = math.sqrt(max(disc, 0.0))
    inner = 0.5 * (sigma - root)
    if not inner >= -DISCRIMINANT_TOL:
        raise NumericDomainError(f"negative squared symplectic eigenvalue {inner!r}")
    return math.sqrt(max(inner, 0.0)), math.sqrt(max(0.5 * (sigma + root), 0.0))


def pt_symplectic_min(v4: np.ndarray) -> float:
    """Minimum symplectic eigenvalue of the partially transposed 4x4 CM."""
    return _symplectic_pair(_seralian_invariants(v4), transposed=True)[0]


def _en_from_nu(nu: float) -> float:
    """E_N = max[0, -ln(2 nu)] from a minimum PT symplectic eigenvalue."""
    if not nu > 0.0:
        raise NumericDomainError("PT symplectic eigenvalue vanished; unphysical input")
    val = -math.log(2.0 * nu)
    return val if val > EN_ZERO_TOL else 0.0


def _pair_en(inv) -> float:
    """E_N of a pair from its Seralian invariants."""
    return _en_from_nu(_symplectic_pair(inv, transposed=True)[0])


def log_negativity(v4: np.ndarray) -> float:
    """Logarithmic negativity E_N = max[0, -ln(2 nu_-^PT)] of a 4x4 CM."""
    return _pair_en(_seralian_invariants(v4))


def _triple_invariants(v6: np.ndarray) -> dict:
    """Seralian invariants of each canonical pair of the (c2, a, b) block."""
    return {key: _seralian_invariants(v6[idx]) for key, idx in _PAIR_INDEX.items()}


# ---------------------------------------------------------------------------
# tripartite sector
# ---------------------------------------------------------------------------

def _pt_minima(v6: np.ndarray, p: np.ndarray):
    """Minimum |eigenvalue| of i Omega_3 (P V6 P) for a PT flip P, or for each
    P of a stack in one eigenvalue call.  The eigenvalues of i Omega V come
    in +/- pairs and the symplectic spectrum is their modulus, so the
    minimum is over absolute values (a signed minimum would be negative).
    """
    if not np.isfinite(v6).all():
        raise NumericDomainError("non-finite covariance in tripartite PT spectrum")
    v_pt = p @ (0.5 * (v6 + v6.T)) @ p
    try:
        eigs = np.linalg.eigvals(1j * OMEGA_3 @ v_pt)
    except np.linalg.LinAlgError as exc:
        raise NumericDomainError(f"tripartite PT eigenvalue iteration failed: {exc}") from exc
    return np.min(np.abs(eigs), axis=-1)


def pt_min_symplectic(v6: np.ndarray, partition: str) -> float:
    """Minimum symplectic eigenvalue of P V6 P for a one-vs-two partition."""
    if partition not in PARTITIONS:
        raise ValueError(f"unknown partition {partition!r}; expected one of {sorted(PARTITIONS)}")
    return float(_pt_minima(v6, PT_MATRICES[PARTITIONS[partition][0]]))


def one_vs_rest_contangle(v6: np.ndarray, partition: str) -> float:
    """Contangle (squared log-negativity) of a one-vs-two bipartition."""
    return _en_from_nu(pt_min_symplectic(v6, partition)) ** 2


def _residuals(v6: np.ndarray, e_n: dict) -> dict:
    """C_{i|jk} - C_{i|j} - C_{i|k} per partition, with C_{i|j} = E_N(ij)^2."""
    nus = _pt_minima(v6, _PARTITION_PT).tolist()
    return {tag: _en_from_nu(nu) ** 2 - e_n[first] ** 2 - e_n[second] ** 2
            for (tag, (_, (first, second))), nu in zip(PARTITIONS.items(), nus)}


def residual_contangle_min(v6: np.ndarray):
    """Minimum residual contangle of the (c2, a, b) triple.

    Returns (r_min, residuals) where residuals maps each one-vs-two
    partition tag to C_{i|jk} - C_{i|j} - C_{i|k} (raw, unclamped).
    """
    e_n = {key: _pair_en(inv) for key, inv in _triple_invariants(v6).items()}
    residuals = _residuals(v6, e_n)
    return min(residuals.values()), residuals


# ---------------------------------------------------------------------------
# Gaussian quantum discord
# ---------------------------------------------------------------------------

def _g(x: float) -> float:
    """Entropic function of a symplectic eigenvalue; g(1/2) = 0 by continuity."""
    if not x >= 0.5 - G_DOMAIN_TOL:
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
        raise NumericDomainError(f"negative Gaussian discord {val!r} beyond round-off")
    return max(val, 0.0)


def gaussian_discord(v4: np.ndarray) -> float:
    """Gaussian quantum discord of a 4x4 CM (measurement on the second mode).

    D_G = g(sqrt(I1)) - g(nu_-) - g(nu_+) + g(sqrt(W)); round-off down to
    -1e-10 is clamped to zero, a lower value raises NumericDomainError.
    """
    return _discord(_seralian_invariants(v4))


# ---------------------------------------------------------------------------
# aggregate report
# ---------------------------------------------------------------------------

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


def correlation_report(v: np.ndarray, verdict: StabilityVerdict,
                       n_th: float) -> CorrelationReport:
    """Compute every canonical measure from the steady-state CM.

    One Seralian pass per canonical pair of the (c2, a, b) block feeds
    E_N, D_G and, as E_N^2, the pair contangles of the residual.
    """
    v6 = extract_submatrix(v, TRIPLE_MODES)
    e_n, d_g = {}, {}
    for key, inv in _triple_invariants(v6).items():
        e_n[key], d_g[key] = _pair_en(inv), _discord(inv)
    raw = _residuals(v6, e_n)
    clamped = {tag: 0.0 if -MONOGAMY_CLAMP <= val < 0.0 else val for tag, val in raw.items()}
    return CorrelationReport(e_n=e_n, d_g=d_g, r_tau=clamped, r_tau_raw=raw,
                             r_tau_min=min(clamped.values()), stability=verdict, n_th=n_th)
