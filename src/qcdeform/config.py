"""Run configuration shared by the solvers and the command line tool.

A single RunConfig value travels through a run and is echoed verbatim into
every report, so that a report always pins down the resolution it was
computed at.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

__all__ = ["RunConfig", "DEFAULT_CONFIG"]


@dataclass(frozen=True)
class RunConfig:
    # truncation degree of the deformation solve: its residuals and norm use
    # the Taylor coefficients 0 .. n_norm of h o f, with no further cap
    n_norm: int = 256
    # quadrature of grid densities: radial Gauss-Legendre x uniform angular.
    # n_ang also sets terms_sup's 4 n_ang circle samples.  Neither changes
    # deform's coefficients or its cross-check
    n_rad: int = 48
    n_ang: int = 128
    # largest coefficient and norm residuals the deformation solve accepts;
    # coeff_tol also caps its cross-check and norm_tol its tail bound
    coeff_tol: float = 1e-8
    norm_tol: float = 1e-7
    # hard ceiling on the dilatation sup-norm during solves; it also sets the
    # Neumann term budget, enough terms for a series contracting at kappa_max
    kappa_max: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.kappa_max < 1.0:
            raise ValueError("kappa_max must lie in (0, 1)")
        if self.n_rad < 2 or self.n_ang < 4:
            raise ValueError("quadrature grid too small")
        for name in ("coeff_tol", "norm_tol"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive; got {getattr(self, name)}")

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
