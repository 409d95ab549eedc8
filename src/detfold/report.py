"""Full-pipeline analysis report with deterministic flat and JSON output."""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .curves import analysis_context
from .detrep import SymDetRep
from .fourfold import couples_and_intersections, singular_locus_X
from .lattice import ns2_gram
from .points import format_points


@dataclass
class AnalysisReport:
    field_name: str
    sextic: str
    d_cubic: str
    fourfold: str
    sing_c: list
    sing_c_complete: bool
    sing_c_unresolved: int
    s_theta: list
    s_theta_tilde: list
    s_c: list
    s_c_certified: bool
    b_points: list
    b_complete: bool
    sing_x: list
    smooth: bool
    bounds_ok: bool
    all_double: bool
    couples_count: int
    couples_cross_ok: bool
    couples_ext_count: int
    ns2_m: int
    ns2_class_count: int
    ns2_det: int
    ns2_rank: int
    ns2_rank_lower_bound: int
    notes: list = dc_field(default_factory=list)

    def _rows(self) -> list[tuple[str, object]]:
        """(key, value) pairs in report order, shared by both output forms."""
        return [
            ("field", self.field_name),
            ("sextic", self.sextic),
            ("d_cubic", self.d_cubic),
            ("fourfold", self.fourfold),
            ("sing_c_count", len(self.sing_c)),
            ("sing_c_complete", self.sing_c_complete),
            ("sing_c_unresolved", self.sing_c_unresolved),
            ("sing_c", self.sing_c),
            ("s_theta_count", len(self.s_theta)),
            ("s_theta", self.s_theta),
            ("s_theta_tilde_count", len(self.s_theta_tilde)),
            ("s_theta_tilde", self.s_theta_tilde),
            ("s_theta_tilde_criterion", "sing(C) meet {d_cubic = 0}"),
            ("s_c_count", len(self.s_c)),
            ("s_c", self.s_c),
            ("s_c_certified", self.s_c_certified),
            ("b_count", len(self.b_points)),
            ("b_points", self.b_points),
            ("b_complete", self.b_complete),
            ("sing_x_count", len(self.sing_x)),
            ("sing_x", self.sing_x),
            ("smooth", self.smooth),
            ("bounds_ok", self.bounds_ok),
            ("all_double", self.all_double),
            ("couples", self.couples_count),
            # constant: split_rank2_fiber raises unless each couple meets in a line
            ("couples_within_ok", True),
            ("couples_cross_ok", self.couples_cross_ok),
            ("couples_needing_extension", self.couples_ext_count),
            ("ns2_m", self.ns2_m),
            ("ns2_class_count", self.ns2_class_count),
            ("ns2_det", self.ns2_det),
            ("ns2_rank", self.ns2_rank),
            ("ns2_rank_lower_bound", self.ns2_rank_lower_bound),
        ]

    def flat_lines(self) -> list[str]:
        out = [f"{k} = {_flat(v)}" for k, v in self._rows()]
        return out + [f"note = {note}" for note in self.notes]

    def to_json_dict(self) -> dict:
        out = {k: [str(p) for p in v] if isinstance(v, list) else v for k, v in self._rows()}
        out["notes"] = list(self.notes)
        return out


def _flat(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, list):
        return format_points(v)
    return str(v)


def analyze(rep: SymDetRep, field=None, components=None) -> AnalysisReport:
    """Run the whole pipeline over the requested field (default: the rep's own)."""
    ctx = analysis_context(rep, field, components)
    classification = ctx.classification
    locus = singular_locus_X(ctx)
    couples = couples_and_intersections(ctx)
    m = len(classification.s_theta)
    if m >= 1:
        ns2 = ns2_gram(m)
        ns2_vals = (ns2.m, ns2.class_count, ns2.det, ns2.rank, ns2.rank_lower_bound)
    else:
        ns2_vals = (0, 1, 0, 0, 2)
    notes = list(classification.notes) + couples.notes
    if not classification.complete:
        notes.append("counts over this field are lower bounds; run a finite-field analysis for completeness")
    return AnalysisReport(
        field_name=ctx.field.name,
        sextic=str(ctx.derived.sextic),
        d_cubic=str(ctx.derived.d_cubic),
        fourfold=str(ctx.derived.fourfold),
        sing_c=classification.sing_c,
        sing_c_complete=classification.complete,
        sing_c_unresolved=classification.unresolved,
        s_theta=classification.s_theta,
        s_theta_tilde=classification.s_theta_tilde,
        s_c=classification.s_c,
        s_c_certified=classification.s_c_certified,
        b_points=locus.base_points,
        b_complete=locus.base_complete,
        sing_x=locus.points,
        smooth=locus.smooth,
        bounds_ok=locus.bounds_ok,
        all_double=locus.all_double,
        couples_count=len(couples.pairs),
        couples_cross_ok=couples.cross_ok,
        couples_ext_count=sum(1 for p in couples.pairs if p.disc is not None),
        ns2_m=ns2_vals[0],
        ns2_class_count=ns2_vals[1],
        ns2_det=ns2_vals[2],
        ns2_rank=ns2_vals[3],
        ns2_rank_lower_bound=ns2_vals[4],
        notes=notes,
    )
