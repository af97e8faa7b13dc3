//! The 11 potential overlay scenarios (Fig. 9) and the six constraint-graph
//! edge kinds (Fig. 11) they map to.

use crate::color::Assignment;
use crate::cost::{Cost, CostTable};
use std::fmt;

/// One of the 11 potential overlay scenarios of Fig. 9.
///
/// Canonical geometries (A, B wire-fragment rectangles; gaps in tracks):
///
/// | Kind | Geometry |
/// |------|----------|
/// | `OneA`   | side-by-side parallel, gap 1, facing overlap ≥ 2 |
/// | `OneB`   | collinear tip-to-tip, gap 1 |
/// | `TwoA`   | side-by-side parallel, gap 2 |
/// | `TwoB`   | orthogonal tip-to-side, gap 1 (A is the tip pattern) |
/// | `TwoC`   | collinear tip-to-tip, gap 2 |
/// | `TwoD`   | orthogonal tip-to-side, gap 2 |
/// | `ThreeA` | diagonal parallel, offset (1, 1) |
/// | `ThreeB` | diagonal orthogonal, offset (1, 1) |
/// | `ThreeC` | diagonal orthogonal, offset (1, 2) (A is the tip pattern) |
/// | `ThreeD` | echelon parallel, axial offset 2, perpendicular offset 1 |
/// | `ThreeE` | echelon parallel, axial offset 1, perpendicular offset 2 |
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ScenarioKind {
    /// Type 1-a: hard different-color constraint.
    OneA,
    /// Type 1-b: hard same-color constraint (merge-and-cut).
    OneB,
    /// Type 2-a: prefer same color.
    TwoA,
    /// Type 2-b: at least one unit of side overlay regardless of coloring.
    TwoB,
    /// Type 2-c: never induces side overlay.
    TwoC,
    /// Type 2-d: never induces side overlay.
    TwoD,
    /// Type 3-a: prefer different colors.
    ThreeA,
    /// Type 3-b: prefer both second.
    ThreeB,
    /// Type 3-c: only the CS assignment is penalised.
    ThreeC,
    /// Type 3-d: avoid both-core.
    ThreeD,
    /// Type 3-e: never induces side overlay.
    ThreeE,
}

impl ScenarioKind {
    /// All 11 kinds in paper order.
    pub const ALL: [ScenarioKind; 11] = [
        ScenarioKind::OneA,
        ScenarioKind::OneB,
        ScenarioKind::TwoA,
        ScenarioKind::TwoB,
        ScenarioKind::TwoC,
        ScenarioKind::TwoD,
        ScenarioKind::ThreeA,
        ScenarioKind::ThreeB,
        ScenarioKind::ThreeC,
        ScenarioKind::ThreeD,
        ScenarioKind::ThreeE,
    ];

    /// The paper's name for the scenario (`"1-a"`, `"3-c"`, …).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ScenarioKind::OneA => "1-a",
            ScenarioKind::OneB => "1-b",
            ScenarioKind::TwoA => "2-a",
            ScenarioKind::TwoB => "2-b",
            ScenarioKind::TwoC => "2-c",
            ScenarioKind::TwoD => "2-d",
            ScenarioKind::ThreeA => "3-a",
            ScenarioKind::ThreeB => "3-b",
            ScenarioKind::ThreeC => "3-c",
            ScenarioKind::ThreeD => "3-d",
            ScenarioKind::ThreeE => "3-e",
        }
    }

    /// The canonical side-overlay cost table of the scenario, in `w_line`
    /// units, reconstructed from Figs. 24–34 (see DESIGN.md §3.2).
    ///
    /// Type 1-a is overlap-dependent ([`ScenarioKind::table_with_overlap`]);
    /// this method returns its canonical (overlap ≥ 2) form.
    #[must_use]
    pub fn table(self) -> CostTable {
        self.table_with_overlap(2)
    }

    /// The cost table given the facing-overlap length in cells (only
    /// type 1-a depends on it: a one-cell facing overlap produces a
    /// `w_line`-long, SADP-friendly overlay instead of a hard one).
    #[must_use]
    pub fn table_with_overlap(self, overlap_cells: i32) -> CostTable {
        let u = Cost::units;
        let uc = Cost::units_with_cut_risk;
        let h = Cost::HardOverlay;
        match self {
            ScenarioKind::OneA => {
                if overlap_cells <= 1 {
                    CostTable::new([u(1), u(0), u(0), u(1)])
                } else {
                    CostTable::new([h, u(0), u(0), h])
                }
            }
            ScenarioKind::OneB => CostTable::new([u(0), h, h, u(0)]),
            // 2-a CS/SC "may also induce cut conflicts" (Fig. 26); only
            // the 2-b CS combination is a guaranteed type-A conflict the
            // router must forbid (Fig. 15(a) / Fig. 27).
            ScenarioKind::TwoA => CostTable::new([u(0), u(2), u(2), u(0)]),
            ScenarioKind::TwoB => CostTable::new([u(1), uc(2), u(2), u(1)]),
            ScenarioKind::TwoC | ScenarioKind::TwoD | ScenarioKind::ThreeE => CostTable::zero(),
            ScenarioKind::ThreeA | ScenarioKind::ThreeD => CostTable::new([u(1), u(0), u(0), u(0)]),
            ScenarioKind::ThreeB => CostTable::new([u(1), u(1), u(1), u(0)]),
            ScenarioKind::ThreeC => CostTable::new([u(0), u(1), u(0), u(0)]),
        }
    }

    /// Whether the scenario constrains the coloring at all (types 2-c, 2-d
    /// and 3-e never induce side overlays and are not inserted into the
    /// overlay constraint graph).
    #[must_use]
    pub fn is_constraining(self) -> bool {
        !matches!(
            self,
            ScenarioKind::TwoC | ScenarioKind::TwoD | ScenarioKind::ThreeE
        )
    }

    /// The constraint-graph edge kind (Fig. 11) this scenario maps to.
    #[must_use]
    pub fn edge_kind(self) -> EdgeKind {
        match self {
            ScenarioKind::OneA => EdgeKind::HardDifferent,
            ScenarioKind::OneB => EdgeKind::HardSame,
            ScenarioKind::TwoA | ScenarioKind::TwoB => EdgeKind::PreferSame,
            ScenarioKind::ThreeA | ScenarioKind::ThreeD => EdgeKind::PreferDifferent,
            ScenarioKind::ThreeB => EdgeKind::BothSecond,
            ScenarioKind::ThreeC => EdgeKind::ForbidCs,
            ScenarioKind::TwoC | ScenarioKind::TwoD | ScenarioKind::ThreeE => EdgeKind::None,
        }
    }

    /// The optimal color rule, as printed in Table II.
    #[must_use]
    pub fn color_rule(self) -> &'static str {
        match self.edge_kind() {
            EdgeKind::HardDifferent => "different colors (hard)",
            EdgeKind::HardSame => "same color (hard)",
            EdgeKind::PreferSame => "same color",
            EdgeKind::PreferDifferent => "different colors",
            EdgeKind::BothSecond => "both second",
            EdgeKind::ForbidCs => "avoid CS",
            EdgeKind::None => "any",
        }
    }

    /// The assignments that achieve the minimum side overlay.
    #[must_use]
    pub fn optimal_assignments(self) -> Vec<Assignment> {
        let t = self.table();
        let best = Assignment::ALL
            .iter()
            .map(|&a| t.entry(a).weight())
            .min()
            .expect("four entries");
        Assignment::ALL
            .iter()
            .copied()
            .filter(|&a| t.entry(a).weight() == best)
            .collect()
    }
}

impl fmt::Display for ScenarioKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "type {}", self.name())
    }
}

/// The six edge kinds of the overlay constraint graph (Fig. 11), plus
/// `None` for non-constraining scenarios.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdgeKind {
    /// Fig. 11(a): the vertices must have different colors (hard).
    HardDifferent,
    /// Fig. 11(b): the vertices must have the same color (hard, via a dummy
    /// vertex).
    HardSame,
    /// Fig. 11(c): the vertices should have different colors (nonhard).
    PreferDifferent,
    /// Fig. 11(d): the vertices should have the same color (nonhard).
    PreferSame,
    /// Fig. 11(e): both vertices should be second patterns (nonhard).
    BothSecond,
    /// Fig. 11(f): only the CS assignment is discouraged (nonhard).
    ForbidCs,
    /// The scenario never induces overlay; no edge is inserted.
    None,
}

impl EdgeKind {
    /// Whether this is one of the two hard edge kinds.
    #[must_use]
    pub fn is_hard(self) -> bool {
        matches!(self, EdgeKind::HardDifferent | EdgeKind::HardSame)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hard_scenarios_have_parity() {
        assert_eq!(ScenarioKind::OneA.table().hard_parity(), Some(true));
        assert_eq!(ScenarioKind::OneB.table().hard_parity(), Some(false));
        for k in ScenarioKind::ALL {
            if !matches!(k, ScenarioKind::OneA | ScenarioKind::OneB) {
                assert_eq!(k.table().hard_parity(), None, "{k} should be nonhard");
            }
        }
    }

    #[test]
    fn non_constraining_types() {
        for k in [ScenarioKind::TwoC, ScenarioKind::TwoD, ScenarioKind::ThreeE] {
            assert!(!k.is_constraining());
            assert!(!k.table().is_constraining());
            assert_eq!(k.edge_kind(), EdgeKind::None);
        }
        for k in ScenarioKind::ALL {
            if k.is_constraining() {
                assert!(k.table().is_constraining(), "{k}");
            }
        }
    }

    #[test]
    fn one_a_overlap_refinement() {
        // A one-cell facing overlap is a w_line-long (SADP-friendly) overlay.
        let t1 = ScenarioKind::OneA.table_with_overlap(1);
        assert_eq!(t1.hard_parity(), None);
        assert_eq!(t1.entry(Assignment::CC).overlay_units(), Some(1));
        let t2 = ScenarioKind::OneA.table_with_overlap(2);
        assert!(t2.entry(Assignment::CC).is_forbidden());
    }

    #[test]
    fn optimal_assignments_match_rules() {
        assert_eq!(
            ScenarioKind::OneA.optimal_assignments(),
            vec![Assignment::CS, Assignment::SC]
        );
        assert_eq!(
            ScenarioKind::OneB.optimal_assignments(),
            vec![Assignment::CC, Assignment::SS]
        );
        assert_eq!(
            ScenarioKind::ThreeB.optimal_assignments(),
            vec![Assignment::SS]
        );
        assert_eq!(
            ScenarioKind::ThreeC.optimal_assignments(),
            vec![Assignment::CC, Assignment::SC, Assignment::SS]
        );
        // 2-b: one unit is unavoidable; same-color assignments are optimal.
        assert_eq!(
            ScenarioKind::TwoB.optimal_assignments(),
            vec![Assignment::CC, Assignment::SS]
        );
    }

    #[test]
    fn names_and_display() {
        assert_eq!(ScenarioKind::OneA.name(), "1-a");
        assert_eq!(ScenarioKind::ThreeE.name(), "3-e");
        assert_eq!(ScenarioKind::TwoB.to_string(), "type 2-b");
        let names: Vec<_> = ScenarioKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), 11);
    }

    #[test]
    fn table_ii_min_so_values() {
        // Table II: all scenarios except 2-b have min SO = 0.
        for k in ScenarioKind::ALL {
            let expect = if k == ScenarioKind::TwoB { 1 } else { 0 };
            assert_eq!(k.table().min_so(), Some(expect), "{k} min SO");
        }
    }
}
