"""Machine-readable run reports.

Every check emits a CheckResult carrying a stable identifier from the
registry below, the measured value, and the target and tolerance that
decide pass/fail by one rule: an entry passes iff value <= target +
tolerance (so a NaN value fails).  An entry without a target is
informational and passes unless its value is NaN: no entry passes on a
NaN.  A RunReport serializes
deterministically: the canonical payload (config echo + entries) is
byte-stable for a fixed (config, seed); wall time and version are emitted
outside the canonical section.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field, fields, asdict

from . import __version__

# stable identifiers for every quantity the laboratory certifies or reports
CHECK_REGISTRY = {
    "dyadic.parseval": "Haar coefficients satisfy the energy identity",
    "dyadic.transform-contraction": "sign flips never increase the mean-zero L2 norm",
    "dyadic.transform-lp-bound": "ascended L4 transform ratio stays under p*-1 = 3",
    "dyadic.weighted-haar-bounds": "weighted Haar coefficients obey the two bounds",
    "dyadic.weighted-haar-gram": "weighted Haar system is orthonormal in L2(w)",
    "dyadic.carleson-intensity-slope": "intensity grows no faster than char^alpha",
    "dyadic.embedding-1": "level-set embedding holds with constant 2",
    "dyadic.embedding-2": "weighted embedding holds with the working constant",
    "dyadic.buckley-bounded": "flat-weight square sums stay bounded in depth",
    "dyadic.a-infinity-vs-a2": "exponential characteristic below the product one",
    "dyadic.weighted-mt-envelope": "weighted transform ascent hits sqrt([w]_A2) or stays under 2[w]_A2",
    "bellman.zigzag": "diagonal midpoint concavity of the majorant",
    "bellman.majorant": "the majorant dominates the power difference",
    # red at 4 of seeds 1-1,000 (0.4%) of a correct run: see README
    "bellman.hessian-identity": "analytic vs finite-difference quadratic form",
    "bellman.hessian-order": "finite differences converge at order two",
    "bellman.section-inequality": "slope-section expression stays nonpositive",
    "bellman.feasibility-transition": "linear majorants appear exactly at p*-1",
    "bellman.tau-quadrature": "angular average matches the Gamma closed form",
    "bellman.interp-sweep": "interpolated norm chain stays under 1.7 per unit",
    "bellman.power-hessian": "power candidate Hessian lower bound",
    "bellman.strip-determinant": "strip candidate matrix is degenerate",
    "bellman.strip-eigenvalue": "strip candidate matrix is negative semidefinite",
    "bellman.strip-obstacle": "strip candidate dominates the exponential",
    "planar.fft-roundtrip": "transform round trip at machine precision",
    "planar.ab-isometry": "mean-zero L2 isometry of the transform",
    "planar.ab-decomposition": "transform equals its three-term Riesz form",
    "planar.dbar-to-d": "the transform maps dbar-data to d-data",
    "planar.heat-identity": "time-integrated gradient form matches the operator",
    "planar.heat-identity-monotone": "the representation gap shrinks under refinement",
    "planar.ap-two-sided": "heat and disc characteristics stay comparable",
    # cannot fail on a finite curve of a correct run, since the ascent keeps
    # only improving steps; fails on a curve that is not finite
    "planar.ascent-monotone": "ascent never loses ground across iterations",
    "planar.ascent-ratio": "achieved lower bound for the operator norm",
    "laminate.mass-baricenter": "ray pair integrates to a centered unit mass",
    "laminate.closed-vs-quad": "power-test ray integrals match quadrature",
    "laminate.jensen": "Jensen inequality against the bi-concave battery",
    # no target when the smallest eta is above 2e-4, which happens only
    # outside the suite (`laminate ratio`, `laminate sweep --etas`)
    "laminate.ratio-limit": "ratio root approaches p-1 as the tail flattens",
    "laminate.ratio-monotone": "ratio sweep is monotone in the tail parameter",
    "laminate.reflection": "reflecting the measure swaps the two tests",
    "stoch.variance": "left-point sums average to zero",
    "stoch.riemann-gap": "left and right sums disagree by the quadratic variation",
    "stoch.isometry": "left-point sum's second moment equals its exact mean sum t dt",
    "stoch.product": "sin w and w integrals' product averages sum t e^(-t/2) dt",
    "stoch.terminal-order": "each rung's mean squared terminal gap matches its exact "
                            "Ito-isometry value within 3 skew-corrected sigma",
    "stoch.conformality": "transform rows stay orthogonal with equal norms",
    "stoch.subordination": "transform rows stay dominated pathwise",
    "stoch.conditioning": "bridges pinned at the bin centers match their scheme's exact mean",
    "stoch.plain-constant": "moment ratio under p*-1; loose, since the bound is exact "
                            "for the discrete sums but the random surfaces are far from extremal",
    "stoch.conformal-constant": "moment ratio under sqrt(p(p-1)/2); loose, since the bound is "
                                "exact for the discrete sums but the random surfaces are far "
                                "from extremal",
    "qc.beltrami": "sampled dilatation matches (K-1)/(K+1)",
    "qc.distortion-slope": "area distortion exponent equals 1/K",
    "qc.sobolev-boundary": "integrability threshold sits at 1 + k",
    "qc.weight-monotone": "Jacobian weight characteristic grows with p",
}


@dataclass
class CheckResult:
    check_id: str
    value: float
    target: float | None = None
    tolerance: float = 0.0
    detail: str = field(default="", kw_only=True)

    def __post_init__(self):
        if self.check_id not in CHECK_REGISTRY:
            raise KeyError(f"unregistered check id {self.check_id!r}")
        self.value = float(self.value)
        self.target = None if self.target is None else float(self.target)
        self.tolerance = float(self.tolerance)

    @property
    def passed(self) -> bool:
        if self.target is None:
            return not math.isnan(self.value)
        return self.value <= self.target + self.tolerance


@dataclass
class RunReport:
    config: dict
    entries: list = field(default_factory=list)
    wall_time: float = 0.0

    def extend(self, results):
        self.entries.extend(results)

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    @property
    def pass_pattern(self) -> list:
        return [(e.check_id, e.passed) for e in sorted(self.entries, key=lambda x: x.check_id)]

    def canonical_payload(self) -> dict:
        """Everything that must be byte-stable for a fixed (config, seed);
        wall time and version live outside."""
        return {
            "config": {k: self.config[k] for k in sorted(self.config)},
            "entries": [
                {**asdict(e), "passed": e.passed, "description": CHECK_REGISTRY[e.check_id]}
                for e in sorted(self.entries, key=lambda x: (x.check_id, x.detail))
            ],
        }

    def canonical_json(self) -> str:
        return json.dumps(self.canonical_payload(), sort_keys=True, allow_nan=True)

    def to_json(self) -> str:
        return json.dumps(
            {**self.canonical_payload(),
             "wall_time_s": self.wall_time, "version": __version__},
            sort_keys=True, indent=2, allow_nan=True)

    def to_csv(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        columns = [f.name for f in fields(CheckResult)]
        columns.insert(-1, "passed")  # before the free-text detail
        writer.writerow(columns)
        for e in sorted(self.entries, key=lambda x: (x.check_id, x.detail)):
            row = {**asdict(e), "passed": int(e.passed)}
            writer.writerow([v if isinstance(v, str) else repr(v)
                             for v in map(row.get, columns)])
        return out.getvalue()

