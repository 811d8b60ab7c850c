"""Case types and workloads of the benchmark.

A case is one user action: one or two ``qcdeform`` CLI subcommands run in
process through ``qcdeform.cli.main`` on JSON inputs, plus, for constant
dilatations, evaluation of the built map.  Every case type has four parts:

* ``generate(rng)``: the JSON input files and the generator-side facts the
  oracle needs, drawn from the benchmark seed only;
* ``load(case)``: reads what the timed part needs besides the CLI inputs;
* ``run(case, data, out)``: the timed part;
* ``check(case, outcome)``: the oracle, run after the timed pass.  It returns
  ``Check`` rows; a row with ``accuracy=True`` also feeds ``accuracy_digits``.

A workload is a fixed round of case types repeated a whole number of times,
so that every run of a workload times the same mix of cases.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
from typing import NamedTuple

import numpy as np

SPACES = ("hardy", "bergman", "dirichlet")


class Check(NamedTuple):
    name: str
    error: float
    tol: float
    accuracy: bool  # feeds accuracy_digits; False: pass/fail only

    @property
    def ok(self) -> bool:
        return bool(self.error <= self.tol)


def pairs(values) -> list:
    return [[float(np.real(v)), float(np.imag(v))] for v in np.atleast_1d(values)]


def complexes(p) -> np.ndarray:
    return np.array([complex(a, b) for a, b in p], dtype=np.complex128)


def cli_call(argv: list[str]) -> tuple[int, str]:
    """Run one subcommand through ``qcdeform.cli.main``; returns (code, stderr)."""
    from qcdeform import cli  # looked up per call so a traced run sees its wrapper

    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


def read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def flag(ok: bool, name: str) -> Check:
    """A pass/fail condition as a check row (error 0 passes, 1 fails)."""
    return Check(name, 0.0 if ok else 1.0, 0.5, False)


class CliCase:
    """A case type that runs one subcommand on one generated input file.

    Subclasses set ``name`` and ``command``, implement ``generate`` and
    ``verdict``, and may override the rest.  The input's file role is
    "problem" (passed as ``--config``) or "series" (passed as ``--in``); a
    "seed" in the case's meta is passed as ``--seed``.  ``check`` turns an
    unexpected exit code into a failed row before ``verdict`` reads the
    report.
    """

    role = "problem"
    expected_codes = [0]

    def load(self, case):
        return None

    def run(self, case, data, out: str) -> dict:
        argv = [self.command, "--config" if self.role == "problem" else "--in",
                case["files"][self.role], "--out", out]
        if "seed" in case["meta"]:
            argv += ["--seed", str(case["meta"]["seed"])]
        code, err = cli_call(argv)
        return {"codes": [code], "report": out, "stderr": err}

    def check(self, case, outcome) -> list[Check]:
        if outcome["codes"] != self.expected_codes:
            return [flag(False, f"exit codes {outcome['codes']}, expected {self.expected_codes}")]
        return self.verdict(case, read_json(outcome["report"]), outcome)


# ---------------------------------------------------------------------------
# deform


def _first_order_sup(space: str, f: np.ndarray, center: complex, radius: float,
                     d, a: float) -> float:
    """sup of the first-order dilatation for shifts (d, a), via the public API."""
    import qcdeform as q

    prob = q.DeformationProblem(getattr(q, space)(), q.HoloSeries(f, radius=np.inf),
                                q.Disk(center, radius), 1, 3, list(d), a)
    mu0 = q.build_mu0(prob)
    return _span_density(prob, mu0, q.linearized_init(prob, mu0)).sup


def _span_density(prob, mu0, x):
    """The dilatation sum_k xi_k conj((z - c0)^-(k+1)) + tau mu0 of the
    solver's search space, for x = (Re xi_2, Im xi_2, Re xi_3, Im xi_3, tau)."""
    import qcdeform as q

    nq = prob.n - prob.j
    terms = [(complex(x[2 * i], x[2 * i + 1]), prob.c0, k + 1)
             for i, k in enumerate(prob.controlled)]
    terms += [(x[2 * nq] * c, p, k) for c, p, k in mu0.terms]
    cfg = prob.config
    return q.Density.from_terms(prob.disk, terms, cfg.n_rad, cfg.n_ang)


def shifts_of(space: str, f: np.ndarray, mu, config=None, radius: float = 0.85,
              m: int = 256, keep: int = 64) -> tuple[np.ndarray, float]:
    """Shifts of a_2, a_3 and of the norm that the map of mu makes to f,
    recovered from m samples of h o f on |z| = radius.  Keeping about 64
    coefficients is safe; recovering 200 from 256 samples aliases."""
    import qcdeform as q

    qc = q.build_map(mu, config)
    fs = q.HoloSeries(f, radius=np.inf)
    z = radius * np.exp(2j * np.pi * np.arange(m) / m)
    wv = fs.evaluate(z)
    coeffs = (np.fft.fft(wv + qc.displacement(wv)) / m)[: keep + 1] / radius ** np.arange(keep + 1)
    sp = getattr(q, space)()
    norm_shift = q.hilbert_norm(sp, q.HoloSeries(coeffs, radius=radius)) - q.hilbert_norm(sp, fs)
    return coeffs[2:4] - f[2:4], float(norm_shift)


class Deform(CliCase):
    """CLI ``deform``; reachable targets, or criterion-4-style unreachable ones.

    f is z plus a seeded perturbation of degree 2..5 with coefficient sum at
    most 0.02, which keeps Disk(2.2 e^{i phi}, 1.1) clear of f(D) by more than
    the solver's 0.05 R margin.

    A reachable target is made by a known dilatation: a seeded point of the
    solver's search space with sup in SUP_RANGE, whose map's shifts of a_2,
    a_3 and the norm become the target, so it is reachable by construction.
    It is then sized as a first-order problem: halved until its first-order
    dilatation sup is at most FIRST_ORDER_MAX, well below 0.9 kappa_max.
    Both rules are needed.  Shifts drawn on their own, norm shift included,
    can lie below the norm floor that mu0's drift of a_0 adds (ROADMAP item
    2), and Newton fails its line search there.  And mu0 barely moves the
    norm to first order in some geometries, so a target made by a dilatation
    of sup 0.035 can need a first-order sup of 2.2, which the solver refuses.

    An unreachable target is criterion 4's: Disk(3 e^{i phi}, 0.3), shifts
    1e-2 and 5e-3, norm shift 1e-3.
    """

    command = "deform"
    SUP_RANGE = (0.02, 0.05)
    FIRST_ORDER_MAX = 0.1

    def __init__(self, name: str, unreachable: bool):
        self.name = name
        self.unreachable = unreachable
        self.expected_codes = [2] if unreachable else [0]
        self._count = 0

    def generate(self, rng) -> tuple[dict, dict]:
        import qcdeform as q

        space = SPACES[self._count % len(SPACES)]
        self._count += 1
        phi = float(rng.uniform(0.0, 2.0 * np.pi))
        v = (rng.standard_normal(4) + 1j * rng.standard_normal(4)) * 0.5 ** np.arange(4)
        f = np.zeros(6, dtype=np.complex128)
        f[1] = 1.0
        f[2:] = float(rng.uniform(0.01, 0.02)) * v / np.sum(np.abs(v))
        if self.unreachable:
            center, radius = 3.0 * np.exp(1j * phi), 0.3
            d = np.array([0.01, 0.005]) * np.exp(2j * np.pi * rng.random(2))
            a = 0.001
            sup = _first_order_sup(space, f, center, radius, d, a)
        else:
            center, radius = 2.2 * np.exp(1j * phi), 1.1
            prob = q.DeformationProblem(getattr(q, space)(), q.HoloSeries(f, radius=np.inf),
                                        q.Disk(center, radius), 1, 3, [0j, 0j], 0.0)
            mu0 = q.build_mu0(prob)
            x = rng.standard_normal(5)
            x *= float(rng.uniform(*self.SUP_RANGE)) / _span_density(prob, mu0, x).sup
            while True:
                d, a = shifts_of(space, f, _span_density(prob, mu0, x))
                sup = _first_order_sup(space, f, center, radius, d, a)
                if sup <= self.FIRST_ORDER_MAX:
                    break
                x *= 0.5
        doc = {"space": space, "f": pairs(f),
               "disk": {"center": pairs(center)[0], "radius": radius},
               "j": 1, "n": 3, "d": pairs(d), "a": float(a)}
        return {"problem": doc}, {"first_order_sup": float(sup)}

    def verdict(self, case, rep, outcome) -> list[Check]:
        if self.unreachable:
            return [flag(rep.get("error_type") == "ConvergenceError", "ConvergenceError"),
                    flag(re.search(r"bound \d", rep.get("error", "")) is not None,
                         "numeric bound in message")]
        return deform_oracle(read_json(case["files"]["problem"]), rep)


def deform_oracle(doc: dict, rep: dict) -> list[Check]:
    """Rebuild mu from the report's terms and recover h o f by FFT on
    |z| = 0.8, away from the solver's rho_s = 0.9.

    Target shifts and the report's own achieved values are compared with the
    oracle's.  The norm's distance to its target is pass/fail only: the
    Newton stopping rule itself bounds it by norm_tol, so its digits say
    where Newton stopped, not how accurate the computation is.
    """
    import qcdeform as q

    cfg = q.RunConfig.from_dict(rep["config"])
    c = doc["disk"]["center"]
    disk = q.Disk(complex(c[0], c[1]), doc["disk"]["radius"])
    terms = [(complex(*co), complex(*p), k) for co, p, k in rep["mu_terms"]]
    mu = q.Density.from_terms(disk, terms, cfg.n_rad, cfg.n_ang)
    shift, norm_shift = shifts_of(doc["space"], complexes(doc["f"]), mu, cfg, radius=0.8)
    res = rep["result"]
    return [
        Check("shift vs target", float(np.max(np.abs(shift - complexes(doc["d"])))),
              cfg.coeff_tol, True),
        Check("reported shift vs oracle",
              float(np.max(np.abs(shift - complexes(res["achieved_d"])))), cfg.coeff_tol, True),
        Check("reported norm shift vs oracle", abs(norm_shift - res["achieved_a"]),
              cfg.norm_tol, True),
        Check("norm shift vs target", abs(norm_shift - doc["a"]), cfg.norm_tol, False),
    ]


# ---------------------------------------------------------------------------
# verify


def _disk_draw(rng) -> tuple[complex, float]:
    return complex(*rng.uniform(-1.0, 1.0, 2)), float(rng.uniform(0.6, 1.4))


class VerifyTerms(CliCase):
    """CLI ``verify`` on a sum of conjugated pole terms of orders 1, 2 and 3,
    poles 1.6-2.0 radii from the center, scaled to sup 0.1-0.4."""

    name = "verify_terms"
    command = "verify"
    PROBES = 3

    def generate(self, rng) -> tuple[dict, dict]:
        import qcdeform as q

        center, radius = _disk_draw(rng)
        poles = center + radius * rng.uniform(1.6, 2.0, 3) * np.exp(2j * np.pi * rng.random(3))
        orders = [1, 2, 3]
        coeffs = np.exp(2j * np.pi * rng.random(3))
        sup = q.Density.from_terms(q.Disk(center, radius), list(zip(coeffs, poles, orders))).sup
        target = float(rng.uniform(0.1, 0.4))
        coeffs = coeffs * (target / sup)
        doc = {"disk": {"center": pairs(center)[0], "radius": radius},
               "mu": {"terms": [[pairs(co)[0], pairs(p)[0], k]
                                for co, p, k in zip(coeffs, poles, orders)]},
               "probes": self.PROBES}
        return {"problem": doc}, {"sup": target}

    def verdict(self, case, rep, outcome) -> list[Check]:
        return [flag(rep["ok"] is True, "verify ok")]


class VerifyConstant(VerifyTerms):
    """CLI ``verify`` on a constant dilatation k, then the built map evaluated
    at seeded inside, near (< 1.25 R) and far points."""

    name = "verify_constant"
    POINTS = 64  # per region

    def generate(self, rng) -> tuple[dict, dict]:
        center, radius = _disk_draw(rng)
        k = complex(float(rng.uniform(0.05, 0.4)) * np.exp(2j * np.pi * rng.random()))
        n = self.POINTS
        # fixed radial layout, seeded angles: every case probes the same depths
        ring = lambda: np.exp(2j * np.pi * rng.random(n))
        inside = center + radius * 0.95 * np.sqrt((np.arange(n) + 0.5) / n) * ring()
        near = center + radius * np.linspace(1.02, 1.24, n) * ring()
        far = center + radius * np.linspace(1.3, 3.0, n) * ring()
        doc = {"disk": {"center": pairs(center)[0], "radius": radius},
               "mu": {"constant": pairs(k)[0]}, "probes": self.PROBES}
        return {"problem": doc, "points": pairs(np.concatenate([inside, near, far]))}, {}

    def load(self, case):
        import qcdeform as q

        doc = read_json(case["files"]["problem"])
        c = doc["disk"]["center"]
        disk = q.Disk(complex(c[0], c[1]), doc["disk"]["radius"])
        return disk, complex(*doc["mu"]["constant"]), complexes(read_json(case["files"]["points"]))

    def run(self, case, data, out: str) -> dict:
        import qcdeform as q

        outcome = super().run(case, data, out)
        disk, k, points = data
        cfg = q.DEFAULT_CONFIG
        qc = q.build_map(q.Density.constant(disk, k, cfg.n_rad, cfg.n_ang), cfg)
        outcome["values"] = qc(points)
        return outcome

    def verdict(self, case, rep, outcome) -> list[Check]:
        import qcdeform as q

        checks = super().verdict(case, rep, outcome)
        disk, k, points = self.load(case)
        want = points + k * q.cauchy_chi(disk, points)
        err = float(np.max(np.abs(outcome["values"] - want)))
        return checks + [Check("map vs w + k chi", err, 1e-7, True)]


# ---------------------------------------------------------------------------
# analysis


class Approx(CliCase):
    """CLI ``approx``: an error curve (monotone) or a two-pole recovery."""

    command = "approx"

    def __init__(self, name: str, target: str):
        self.name = name
        self.target = target

    def generate(self, rng) -> tuple[dict, dict]:
        if self.target == "koebe":
            return {"problem": {"target": {"kind": "koebe_schwarzian"}, "curve": 6}}, {}
        if self.target == "poles":
            base = float(rng.uniform(0.0, 2.0 * np.pi))
            angles = base + np.cumsum(rng.uniform(np.pi / 3, 2 * np.pi / 3, 3))
            curve = 3
        else:
            # criterion 8's geometry, rotated: poles 2.3 rad apart.  (Fits of
            # poles under about 0.6 rad apart miss the 1e-10 tolerance.)
            first = float(rng.uniform(0.0, 2.0 * np.pi))
            angles = np.array([first, first + 2.3])
            curve = None
        angles = np.mod(angles, 2.0 * np.pi)
        strengths = rng.uniform(0.5, 1.5, len(angles)) * np.exp(2j * np.pi * rng.random(len(angles)))
        doc = {"target": {"poles": angles.tolist(), "strengths": pairs(strengths)}}
        if curve:
            doc["curve"] = curve
        else:
            doc["n_poles"] = 2
        return {"problem": doc}, {}

    def verdict(self, case, rep, outcome) -> list[Check]:
        doc = read_json(case["files"]["problem"])
        if "curve" in doc:
            errors = np.array(rep["errors"])
            return [flag(len(errors) == doc["curve"], "curve length"),
                    flag(bool(np.all(np.diff(errors) <= 1e-12)), "monotone curve")]
        true_a = np.array(doc["target"]["poles"])
        true_d = complexes(doc["target"]["strengths"])
        got_a = np.mod(np.array(rep["angles"]), 2.0 * np.pi)
        got_d = complexes(rep["strengths"])
        ta, ga = np.argsort(true_a), np.argsort(got_a)
        ang = np.abs(np.angle(np.exp(1j * (got_a[ga] - true_a[ta]))))
        return [Check("pole angles", float(np.max(ang)), 1e-10, True),
                Check("pole strengths", float(np.max(np.abs(got_d[ga] - true_d[ta]))), 1e-10, True),
                Check("l2 residual", rep["l2_residual"], 1e-10, False)]


class Covering(CliCase):
    """CLI ``covering`` on the Koebe series with 32768 coefficients."""

    name = "covering"
    command = "covering"
    role = "series"

    def generate(self, rng) -> tuple[dict, dict]:
        return {"series": {"koebe": 32768}}, {}

    def verdict(self, case, rep, outcome) -> list[Check]:
        r = rep["covering_radius"]
        return [Check("|r - 1/4|", abs(r - 0.25), 1e-3, True)]


class HszSearch(CliCase):
    """CLI ``hsz-search`` for n = 0, whose extremal value is exactly 1."""

    name = "hsz"
    command = "hsz-search"
    BUDGET = 1000

    def __init__(self):
        self._count = 0

    def generate(self, rng) -> tuple[dict, dict]:
        space = SPACES[self._count % len(SPACES)]
        self._count += 1
        doc = {"space": space, "n": 0, "budget": self.BUDGET}
        return {"problem": doc}, {"seed": int(rng.integers(0, 2**31))}

    def verdict(self, case, rep, outcome) -> list[Check]:
        return [Check("|best - 1|", abs(rep["best_value"] - 1.0), 1e-6, True),
                flag(rep["evaluations"] == self.BUDGET, "budget spent")]


class Thm2Check(CliCase):
    """CLI ``thm2-check``; the oracle regenerates the family and recomputes
    the argmax member, its coefficients and the violation list."""

    name = "thm2"
    command = "thm2-check"
    SAMPLES = 1000

    def generate(self, rng) -> tuple[dict, dict]:
        doc = {"samples": self.SAMPLES, "n": 2}
        return {"problem": doc}, {"seed": int(rng.integers(0, 2**31))}

    def verdict(self, case, rep, outcome) -> list[Check]:
        import qcdeform as q

        n = read_json(case["files"]["problem"])["n"]
        members = q.FamilySpec.random_b2(size=self.SAMPLES).generate(case["meta"]["seed"])
        c1 = np.array([abs(f.coefficient(1)) for f in members])
        i0 = int(np.argmax(c1))
        cn_0 = abs(members[i0].coefficient(n))
        bound = max(c1[i0], cn_0)
        bad = [i for i, f in enumerate(members) if abs(f.coefficient(n)) > bound + rep["tol"]]
        return [flag(rep["rows"] == self.SAMPLES, "row count"),
                flag(rep["f0_index"] == i0, "argmax member"),
                flag(rep["coeff_violations"] == bad, "violation list"),
                Check("|c1_0|", abs(rep["c1_0"] - c1[i0]), 1e-12, True),
                Check("|cn_0|", abs(rep["cn_0"] - cn_0), 1e-12, True)]


def _seeded_series(rng, a1: complex, n: int) -> np.ndarray:
    tail = 0.4 ** np.arange(2, n) * (rng.standard_normal(n - 2) + 1j * rng.standard_normal(n - 2))
    return np.concatenate([[0.0, a1], tail]).astype(np.complex128)


class SchwarzianOde(CliCase):
    """CLI ``schwarzian`` on a seeded w, then ``ode`` on its output with w's
    jet: the solution must give back w's coefficients."""

    name = "schwarzian_ode"
    command = "schwarzian"
    role = "series"
    expected_codes = [0, 0]
    LENGTH = 24
    ORDER = 20

    def generate(self, rng) -> tuple[dict, dict]:
        a1 = float(rng.uniform(0.7, 1.5)) * np.exp(2j * np.pi * rng.random())
        w = _seeded_series(rng, a1, self.LENGTH)
        return {"series": {"series": pairs(w)}}, {}

    def load(self, case):
        return complexes(read_json(case["files"]["series"])["series"])

    def run(self, case, data, out: str) -> dict:
        outcome = super().run(case, data, out)
        if outcome["codes"] != [0]:
            return outcome
        s = read_json(out)["schwarzian"]
        w = data
        ode_in = out[:-5] + "-ode-in.json"
        with open(ode_in, "w", encoding="utf-8") as fh:
            json.dump({"series": s, "n": self.ORDER, "init": pairs([w[0], w[1], 2.0 * w[2]])}, fh)
        ode_out = out[:-5] + "-ode.json"
        code, err = cli_call(["ode", "--in", ode_in, "--out", ode_out])
        outcome["codes"].append(code)
        outcome["stderr"] += err
        outcome["solution"] = ode_out
        return outcome

    def verdict(self, case, rep, outcome) -> list[Check]:
        w = self.load(case)
        sol = complexes(read_json(outcome["solution"])["solution"])
        n = self.ORDER + 1
        return [Check("ode(schwarzian(w)) - w", float(np.max(np.abs(sol[:n] - w[:n]))), 1e-10, True)]


class Invert(CliCase):
    """CLI ``invert`` on a seeded w with |w'(0)| = 1; checks b0 = -a2/a1^2
    and that ``a_from_b`` gives w back."""

    name = "invert"
    command = "invert"
    role = "series"
    LENGTH = 12

    def generate(self, rng) -> tuple[dict, dict]:
        w = _seeded_series(rng, np.exp(-2j * np.pi * rng.random()), self.LENGTH)
        return {"series": {"series": pairs(w)}}, {}

    def verdict(self, case, rep, outcome) -> list[Check]:
        import qcdeform as q

        w = complexes(read_json(case["files"]["series"])["series"])
        F = q.HoloSeries(complexes(rep["inverted"]), radius=1.0, lowest=rep["lowest"])
        back = q.a_from_b(F).coeffs
        m = min(len(back), len(w))
        # the identity holds to rounding, so its error is one or two ulps or
        # zero by luck: it gates the case but stays out of accuracy_digits
        return [Check("b0 + a2/a1^2", abs(F.coefficient(0) + w[2] / w[1] ** 2), 1e-14, False),
                Check("a_from_b(invert(w)) - w", float(np.max(np.abs(back[:m] - w[:m]))), 1e-10, True)]


# ---------------------------------------------------------------------------
# workloads


class Workload(NamedTuple):
    name: str
    why: str
    round: tuple           # case-type names of one round, in run order
    round_seconds: float   # nominal time of one round on the reference host


def kinds() -> dict:
    """Fresh case-type objects (some count their draws to cycle spaces)."""
    ks = [Deform("deform", False), Deform("deform_unreachable", True), VerifyTerms(),
          VerifyConstant(), Approx("curve_koebe", "koebe"), Approx("curve_poles", "poles"),
          Approx("fit_two_pole", "two"), Covering(), HszSearch(), Thm2Check(),
          SchwarzianOde(), Invert()]
    return {k.name: k for k in ks}


WORKLOADS = {
    "deform": Workload(
        "deform",
        "CLI deform: Cauchy sums of grid-only densities at 256 circle samples inside "
        "Newton (ROADMAP item 2); no interior transforms; 1 in 10 targets is refused",
        ("deform",) * 5 + ("deform_unreachable",) + ("deform",) * 4,
        3.8),
    "verify": Workload(
        "verify",
        "CLI verify: interior values of the Neumann output rho through _spider (ROADMAP "
        "item 1), plus constant-k maps evaluated inside, near and far",
        ("verify_terms", "verify_constant", "verify_terms"),
        1.55),
    "analysis": Workload(
        "analysis",
        "approx, covering, hsz-search, thm2-check, schwarzian/ode and invert: ratfit lstsq "
        "and series recurrences (ROADMAP item 3); control with no disk transforms",
        # sorted by time a round reads: 2 invert, 2 schwarzian_ode, hsz, then 5
        # two-pole fits and covering, then 2 curves and thm2, then the Koebe
        # curve; case_s_p50 falls mid-way through the fits and covering, and
        # case_s_tail among the curves and thm2.  Both groups are numpy-bound:
        # cases dominated by interpreter overhead drifted most between runs.
        ("curve_koebe", "fit_two_pole", "invert", "curve_poles", "fit_two_pole",
         "schwarzian_ode", "covering", "fit_two_pole", "hsz", "thm2", "fit_two_pole",
         "invert", "curve_poles", "schwarzian_ode", "fit_two_pole"),
        6.3),
}


def rounds_for(workload: Workload, seconds: float) -> int:
    """Whole rounds that take about ``seconds`` on the reference host."""
    return max(1, int(math.floor(seconds / workload.round_seconds + 0.5)))


def generate(workload: str, seed: int, rounds: int, out_dir: str) -> list[dict]:
    """Write the workload's input files under ``out_dir``; returns the manifest.

    File names in the manifest are relative to ``out_dir``.  The same
    (workload, seed, rounds) gives byte-identical files.
    """
    wl = WORKLOADS[workload]
    ks = kinds()
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(workload)])
    os.makedirs(out_dir, exist_ok=True)
    manifest = []
    for i, name in enumerate(wl.round * rounds):
        docs, meta = ks[name].generate(rng)
        files = {}
        for role, doc in docs.items():
            files[role] = f"case{i:04d}-{role}.json"
            with open(os.path.join(out_dir, files[role]), "w", encoding="utf-8") as fh:
                fh.write(json.dumps(doc, sort_keys=True) + "\n")
        manifest.append({"index": i, "kind": name, "files": files, "meta": meta})
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        fh.write(json.dumps(manifest, sort_keys=True, indent=1) + "\n")
    return manifest


def load_manifest(in_dir: str) -> list[dict]:
    """The manifest written by ``generate``, with file names made absolute."""
    manifest = read_json(os.path.join(in_dir, "manifest.json"))
    for case in manifest:
        case["files"] = {r: os.path.join(in_dir, p) for r, p in case["files"].items()}
    return manifest
