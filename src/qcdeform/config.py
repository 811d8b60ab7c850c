"""Run configuration shared by the solvers and the command line tool.

A single RunConfig value travels through a run and is echoed verbatim into
every report, so that a report always pins down the resolution it was
computed at.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

__all__ = ["RunConfig", "DEFAULT_CONFIG"]


def _is_pow2(m: int) -> bool:
    return m >= 1 and (m & (m - 1)) == 0


@dataclass(frozen=True)
class RunConfig:
    # truncation degree of series arithmetic
    n_trunc: int = 64
    # highest Taylor degree the deformation solve recovers from its circle
    # samples; it is capped at m_samples // 4, which wins at the defaults (64)
    n_norm: int = 256
    # sampling circle radius for coefficient recovery
    rho_s: float = 0.9
    # number of circle samples; power of two, at least 4 * n_trunc
    m_samples: int = 256
    # disk quadrature: radial Gauss-Legendre x uniform angular
    n_rad: int = 48
    n_ang: int = 128
    # Newton tolerances for the deformation solve
    coeff_tol: float = 1e-8
    norm_tol: float = 1e-7
    newton_max_iter: int = 30
    # Neumann series control
    neumann_tol: float = 1e-12
    neumann_max_terms: int = 20
    # hard ceiling on the dilatation sup-norm during solves
    kappa_max: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_trunc < 4:
            raise ValueError("n_trunc must be at least 4")
        if not _is_pow2(self.m_samples) or self.m_samples < 4 * self.n_trunc:
            raise ValueError(
                "m_samples must be a power of two and at least 4 * n_trunc; "
                f"got {self.m_samples} with n_trunc={self.n_trunc}"
            )
        if not 0.0 < self.rho_s < 1.0:
            raise ValueError("rho_s must lie in (0, 1)")
        if not 0.0 < self.kappa_max < 1.0:
            raise ValueError("kappa_max must lie in (0, 1)")
        if self.n_rad < 2 or self.n_ang < 4:
            raise ValueError("quadrature grid too small")

    def with_updates(self, **kw) -> "RunConfig":
        return replace(self, **kw)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        known = {f for f in cls.__dataclass_fields__}  # type: ignore[attr-defined]
        bad = set(d) - known
        if bad:
            raise ValueError(f"unknown config keys: {sorted(bad)}")
        return cls(**d)


DEFAULT_CONFIG = RunConfig()
