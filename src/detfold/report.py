"""Full-pipeline analysis report with deterministic flat and JSON output."""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import VARS_X, VARS_XU, field_name, format_terms
from .detrep import SymDetRep, reduce_rep
from .fourfold import couples_and_intersections, singular_locus_X
from .lattice import Ns2Report, ns2_gram
from .points import format_points


@dataclass
class AnalysisReport:
    rows: list  # (key, value) pairs in report order, shared by both output forms
    notes: list

    def flat_lines(self) -> list[str]:
        out = [f"{k} = {_flat(v)}" for k, v in self.rows]
        return out + [f"note = {note}" for note in self.notes]

    def to_json_dict(self) -> dict:
        out = {k: [str(p) for p in v] if isinstance(v, list) else v for k, v in self.rows}
        out["notes"] = list(self.notes)
        return out


def _flat(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, list):
        return format_points(v)
    return str(v)


def analyze(rep: SymDetRep, q: int | None = None) -> AnalysisReport:
    """Run the whole pipeline over the field of characteristic q (default:
    the rep's own)."""
    rep = reduce_rep(rep, rep.q if q is None else q)
    classification = rep.classification
    locus = singular_locus_X(rep)
    couples = couples_and_intersections(rep)
    m = len(classification.s_theta)
    ns2 = ns2_gram(m) if m else Ns2Report(m=0, class_count=1, gram=(), det=0, rank=0, rank_lower_bound=2)
    notes = list(classification.notes) + couples.notes
    if not classification.complete:
        notes.append("counts over this field are lower bounds; run a finite-field analysis for completeness")
    rows = [
        ("field", field_name(rep.q)),
        ("sextic", format_terms(rep.sextic_terms, VARS_X, rep.den**4)),
        ("d_cubic", format_terms(rep.d_terms, VARS_X, rep.den**3)),
        ("fourfold", format_terms(rep.fourfold_terms, VARS_XU, rep.den)),
        ("sing_c_count", len(classification.sing_c)),
        ("sing_c_complete", classification.complete),
        ("sing_c_unresolved", classification.unresolved),
        ("sing_c", classification.sing_c),
        ("s_theta_count", len(classification.s_theta)),
        ("s_theta", classification.s_theta),
        ("s_theta_tilde_count", len(classification.s_theta_tilde)),
        ("s_theta_tilde", classification.s_theta_tilde),
        ("s_theta_tilde_criterion", "sing(C) meet {d_cubic = 0}"),
        ("s_c_count", len(classification.s_c)),
        ("s_c", classification.s_c),
        ("s_c_certified", classification.s_c_certified),
        ("b_count", len(locus.base_points)),
        ("b_points", locus.base_points),
        ("b_complete", locus.base_complete),
        ("sing_x_count", len(locus.points)),
        ("sing_x", locus.points),
        ("smooth", locus.smooth),
        # constant: each point of s_c yields one cone vertex or
        # singular_locus_X raises, and base_locus rejects more than 3 points
        ("bounds_ok", True),
        ("all_double", locus.all_double),
        ("couples", len(couples.pairs)),
        # constant: split_rank2_fiber raises unless each couple meets in a line
        ("couples_within_ok", True),
        ("couples_cross_ok", couples.cross_ok),
        ("couples_needing_extension", sum(1 for p in couples.pairs if p.root is None)),
        ("ns2_m", ns2.m),
        ("ns2_class_count", ns2.class_count),
        ("ns2_det", ns2.det),
        ("ns2_rank", ns2.rank),
        ("ns2_rank_lower_bound", ns2.rank_lower_bound),
    ]
    return AnalysisReport(rows, notes)
