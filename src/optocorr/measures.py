"""Gaussian correlation measures computed from the 8x8 covariance matrix.

Half-unit convention throughout: vacuum quadrature variance is 1/2 and a
two-mode state is entangled iff the minimum symplectic eigenvalue of the
partially transposed covariance matrix drops below 1/2.

Canonical pairs and triple follow the {c2, a, b} sector; pairs involving
c1 work through the same API but are not part of the standard report.

Every two-mode measure is a function of the four Seralian invariants of
its pair (Serafini, Illuminati & De Siena, J. Phys. B 37, L21 (2004)).
`correlation_report` and `residual_contangle_min` share one kernel on the
(c2, a, b) block: it symmetrizes the block once and runs one straight-line
pass on Python floats per canonical pair; E_N, D_G (Adesso & Datta, PRL
105, 030501 (2010)) and the pair contangles of the residual all come from
that one pass, computing only the measure families it is asked for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import lapack
from .dynamics import DIM, MODE_BLOCKS, OMEGA_4
from .errors import NumericDomainError

CANONICAL_PAIRS = (("c2", "a"), ("a", "b"), ("c2", "b"))
TRIPLE_MODES = ("c2", "a", "b")

# measure families, the prefixes of the flat report keys ("EN_c2a" -> "EN")
MEASURE_FAMILIES = ("EN", "DG", "Rtau")

# tolerances pinned by the verification contract
DISCRIMINANT_TOL = 1.0e-12
G_DOMAIN_TOL = 1.0e-12
DISCORD_TOL = 1.0e-10       # a discord down to -DISCORD_TOL is round-off, clamped to 0
MONOGAMY_CLAMP = 1.0e-9

# closed-form determinants carry ~1e-16 relative round-off, so log-negativity
# below this floor cannot be distinguished from the separability threshold
EN_ZERO_TOL = 1.0e-12

# the (c2, a, b) block of the 8x8 covariance, a slice since the modes are adjacent
_TRIPLE_ROWS = slice(MODE_BLOCKS[TRIPLE_MODES[0]][0], MODE_BLOCKS[TRIPLE_MODES[-1]][1] + 1)
_TRIPLE_BLOCKS = {m: (2 * k, 2 * k + 1) for k, m in enumerate(TRIPLE_MODES)}
_TRIPLE_DIM = 2 * len(TRIPLE_MODES)

# rows of each canonical pair ("c2a", ...) in that block
_PAIR_ROWS = {p + q: _TRIPLE_BLOCKS[p] + _TRIPLE_BLOCKS[q] for p, q in CANONICAL_PAIRS}

# the flat report keys a sweep can ask for; "stability" is the verdict alone
EN_MEASURES = tuple(f"EN_{key}" for key in _PAIR_ROWS)
DG_MEASURES = tuple(f"DG_{key}" for key in _PAIR_ROWS)
MEASURE_KEYS = EN_MEASURES + DG_MEASURES + ("Rtau_min", "stability")

# symplectic form of the triple: the leading blocks of the four-mode form
OMEGA_3 = OMEGA_4[:_TRIPLE_DIM, :_TRIPLE_DIM].copy()

# one-vs-two partitions: the singled-out mode, then the pair contangles
# subtracted from the partition's contangle, in this order
PARTITIONS = {
    "c2|ab": ("c2", ("c2a", "c2b")),
    "a|c2b": ("a", ("c2a", "ab")),
    "b|c2a": ("b", ("c2b", "ab")),
}

# partial transposition of each partition, in PARTITIONS order: a diagonal
# matrix that flips the momentum quadrature of the singled-out mode
_PARTITION_PT = np.stack([
    np.diag([-1.0 if i == _TRIPLE_BLOCKS[mode][1] else 1.0 for i in range(_TRIPLE_DIM)])
    for mode, _ in PARTITIONS.values()])


# ---------------------------------------------------------------------------
# Seralian invariants (closed forms: precision at the E_N ~ 0 clamping threshold)
# ---------------------------------------------------------------------------

def _pair_invariants(m, rows):
    """I1 = det psi1, I2 = det psi2, I3 = det psi3, I4 = det V4 of the pair on
    `rows` of the symmetric list-of-lists m.  I4 expands along the first row,
    each 3x3 minor along its first row, from the last two rows' 2x2 minors."""
    p, q, s, t = rows
    rp, rq, rs, rt = m[p], m[q], m[s], m[t]
    m00, m01, m02, m03 = rp[p], rp[q], rp[s], rp[t]
    m11, m12, m13 = rq[q], rq[s], rq[t]
    m22, m23 = rs[s], rs[t]
    m33 = rt[t]
    c23 = m22 * m33 - m23 * m23
    c13 = m12 * m33 - m23 * m13
    c12 = m12 * m23 - m22 * m13
    c03 = m02 * m33 - m23 * m03
    c02 = m02 * m23 - m22 * m03
    c01 = m02 * m13 - m12 * m03
    i4 = (0.0 + m00 * (m11 * c23 - m12 * c13 + m13 * c12)
          - m01 * (m01 * c23 - m12 * c03 + m13 * c02)
          + m02 * (m01 * c13 - m11 * c03 + m13 * c01)
          - m03 * (m01 * c12 - m11 * c02 + m12 * c01))
    return m00 * m11 - m01 * m01, m22 * m33 - m23 * m23, m02 * m13 - m03 * m12, i4


def _require_shape(v: np.ndarray, n: int) -> None:
    """ValueError unless v is an n x n matrix."""
    if v.shape != (n, n):
        raise ValueError(f"covariance matrix must be {n}x{n}, got shape {v.shape}")


def _seralian_invariants(v4: np.ndarray):
    """The pair invariants of a 4x4 CM's symmetric part."""
    _require_shape(v4, 4)
    return _pair_invariants((0.5 * (v4 + v4.T)).tolist(), (0, 1, 2, 3))


def _symplectic_pair(inv):
    """Symplectic eigenvalues (nu_-, nu_+) from the Seralian invariants."""
    if not all(map(math.isfinite, inv)):
        raise NumericDomainError(f"non-finite covariance (or overflow): invariants {inv!r}")
    i1, i2, i3, i4 = inv
    sigma = i1 + i2 + 2.0 * i3
    disc = sigma * sigma - 4.0 * i4
    if not math.isfinite(disc):
        raise NumericDomainError(f"overflow: discriminant {disc!r} of finite invariants {inv!r}")
    if not disc >= -DISCRIMINANT_TOL:
        raise NumericDomainError(f"negative discriminant {disc!r}: unphysical input")
    root = math.sqrt(max(disc, 0.0))
    inner = 0.5 * (sigma - root)
    if not inner >= -DISCRIMINANT_TOL:
        raise NumericDomainError(f"negative squared symplectic eigenvalue {inner!r}")
    return math.sqrt(max(inner, 0.0)), math.sqrt(max(0.5 * (sigma + root), 0.0))


def _en_from_nu(nu: float) -> float:
    """E_N = max[0, -ln(2 nu)] from a minimum PT symplectic eigenvalue."""
    if not nu > 0.0:
        raise NumericDomainError("PT symplectic eigenvalue vanished; unphysical input")
    val = -math.log(2.0 * nu)
    return val if val > EN_ZERO_TOL else 0.0


def _pair_en(inv) -> float:
    """E_N of a pair from its Seralian invariants.  Partial transposition
    flips the sign of I3 = det psi3, the inter-mode block's determinant."""
    i1, i2, i3, i4 = inv
    return _en_from_nu(_symplectic_pair((i1, i2, -i3, i4))[0])


def log_negativity(v4: np.ndarray) -> float:
    """Logarithmic negativity E_N = max[0, -ln(2 nu_-^PT)] of a 4x4 CM."""
    return _pair_en(_seralian_invariants(v4))


# ---------------------------------------------------------------------------
# tripartite sector
# ---------------------------------------------------------------------------

def _pt_minima(s6: np.ndarray):
    """Minimum |eigenvalue| of the real Omega_3 (P S6 P), S6 symmetric, for
    each partition's PT flip P, in one eigenvalue call.  The eigenvalues of
    Omega V are +/- i nu, so the symplectic spectrum is their modulus.
    """
    if not np.isfinite(s6).all():
        raise NumericDomainError("non-finite covariance in tripartite PT spectrum")
    try:
        eigs = lapack.eigvals(OMEGA_3 @ (_PARTITION_PT @ s6 @ _PARTITION_PT))
    except lapack.LinAlgError as exc:
        raise NumericDomainError(f"tripartite PT eigenvalue iteration failed: {exc}") from exc
    return np.min(np.abs(eigs), axis=-1)


def _residuals(s6: np.ndarray, e_n: dict) -> dict:
    """C_{i|jk} - C_{i|j} - C_{i|k} per partition, with C_{i|j} = E_N(ij)^2."""
    nus = _pt_minima(s6).tolist()
    return {tag: _en_from_nu(nu) ** 2 - e_n[first] ** 2 - e_n[second] ** 2
            for (tag, (_, (first, second))), nu in zip(PARTITIONS.items(), nus)}


def residual_contangle_min(v6: np.ndarray):
    """Minimum residual contangle of the (c2, a, b) triple, by correlation_report's kernel.

    Returns (r_min, residuals) where residuals maps each one-vs-two
    partition tag to C_{i|jk} - C_{i|j} - C_{i|k} (raw, unclamped), and r_min
    is their raw minimum.  A report's r_tau_min (Rtau_min) is the minimum
    after MONOGAMY_CLAMP clamping, so the two differ when that minimum is
    within the clamp below zero.
    """
    _require_shape(v6, _TRIPLE_DIM)
    raw = _triple_report(v6, ("Rtau",)).r_tau_raw
    return min(raw.values()), raw


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


def _measurement_witness(i1, i2, i3, i4) -> float:
    """Post-measurement determinant W of the optimal Gaussian measurement."""
    i3sq = i3 * i3
    branch_denom = (i2 + 4.0 * i4) * (1.0 + 4.0 * i1) * i3sq
    use_first = False
    if i3sq > 0.0 and branch_denom != 0.0 and abs(4.0 * i1 - 1.0) > G_DOMAIN_TOL:
        gap = i1 * i2 - i4      # squares are products: `**` raises OverflowError, `*` gives inf
        use_first = 4.0 * gap * gap / branch_denom <= 1.0
    if use_first:
        num = 2.0 * abs(i3) + math.sqrt(max(4.0 * i3sq + (4.0 * i1 - 1.0) * (4.0 * i4 - i2), 0.0))
        root = num / (4.0 * i1 - 1.0)
        return root * root
    s = i1 * i2 + i4 - i3sq
    disc = s * s - 4.0 * i1 * i2 * i4
    if not math.isfinite(disc):
        raise NumericDomainError(f"overflow: measurement discriminant {disc!r} "
                                 f"of finite invariants {(i1, i2, i3, i4)!r}")
    return (s - math.sqrt(max(disc, 0.0))) / (2.0 * i1)


def _discord(inv) -> float:
    """D_G from the Seralian invariants of a pair; see gaussian_discord."""
    nu_lo, nu_hi = _symplectic_pair(inv)
    if not inv[0] > 0.0:    # the witness divides by I1, and g takes sqrt(I1)
        raise NumericDomainError(f"non-positive first-mode determinant I1 {inv[0]!r}: "
                                 "unphysical input")
    w = _measurement_witness(*inv)
    if not w >= 0.0:
        raise NumericDomainError(f"negative or NaN measurement determinant {w!r}")
    val = _g(math.sqrt(inv[0])) - _g(nu_lo) - _g(nu_hi) + _g(math.sqrt(w))
    if not val >= -DISCORD_TOL:
        raise NumericDomainError(f"negative Gaussian discord {val!r} beyond round-off")
    return max(val, 0.0)


def gaussian_discord(v4: np.ndarray) -> float:
    """Gaussian quantum discord of a 4x4 CM (measurement on the second mode).

    D_G = g(sqrt(I1)) - g(nu_-) - g(nu_+) + g(sqrt(W)); round-off down to
    -DISCORD_TOL is clamped to zero, a lower value raises NumericDomainError,
    and so does I1 <= 0.
    """
    return _discord(_seralian_invariants(v4))


# ---------------------------------------------------------------------------
# aggregate report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CorrelationReport:
    """The correlation measures of one steady-state covariance matrix.

    r_tau residuals are clamped to zero when within round-off of the
    monogamy bound; the raw values stay available in r_tau_raw.  A report
    built for some measure families leaves the others' dicts empty, and
    r_tau_min is None unless the residual was asked for.
    """

    e_n: dict
    d_g: dict
    r_tau: dict
    r_tau_raw: dict
    r_tau_min: float | None

    def as_flat_dict(self) -> dict:
        out = {f"EN_{key}": val for key, val in self.e_n.items()}
        out.update((f"DG_{key}", val) for key, val in self.d_g.items())
        if self.r_tau_min is not None:
            out["Rtau_min"] = self.r_tau_min
        for tag, val in self.r_tau.items():
            out[f"Rtau_{tag.replace('|', '_')}"] = val
        return out


def measure_families(measures=None) -> set:
    """The measure families that flat report keys belong to; None names all.

    "stability" belongs to none: the verdict needs no covariance.
    """
    if measures is None:
        return set(MEASURE_FAMILIES)
    return {key.split("_")[0] for key in measures}.intersection(MEASURE_FAMILIES)


def correlation_report(v: np.ndarray, families=MEASURE_FAMILIES) -> CorrelationReport:
    """Compute the requested canonical measures from the steady-state CM.

    `families` names measure families ("EN", "DG", "Rtau"), as
    measure_families returns them; each is computed for all three pairs.
    The (c2, a, b) block goes through the kernel residual_contangle_min
    shares: one Seralian pass per canonical pair feeds E_N, D_G and, as E_N^2,
    the residual's pair contangles; only the residual needs PT spectra.
    """
    _require_shape(v, DIM)
    return _triple_report(v[_TRIPLE_ROWS, _TRIPLE_ROWS], families)


def _triple_report(v6: np.ndarray, families) -> CorrelationReport:
    """The requested families' report of a (c2, a, b) covariance block."""
    want_rtau, want_dg = "Rtau" in families, "DG" in families
    want_en = want_rtau or "EN" in families     # the residual subtracts pair E_N^2
    s6 = 0.5 * (v6 + v6.T)
    m = s6.tolist()
    e_n, d_g, raw = {}, {}, {}
    for key, rows in _PAIR_ROWS.items():
        inv = _pair_invariants(m, rows)
        if want_en:
            e_n[key] = _pair_en(inv)
        if want_dg:
            d_g[key] = _discord(inv)
    if want_rtau:
        raw = _residuals(s6, e_n)
    clamped = {tag: 0.0 if -MONOGAMY_CLAMP <= val < 0.0 else val for tag, val in raw.items()}
    return CorrelationReport(e_n=e_n, d_g=d_g, r_tau=clamped, r_tau_raw=raw,
                             r_tau_min=min(clamped.values()) if want_rtau else None)
