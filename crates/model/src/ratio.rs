//! Approximation-ratio accounting.
//!
//! Every experiment in EXPERIMENTS.md reports the *achieved* objective
//! values of an algorithm against a reference (the optimum when the exact
//! solver can compute it, the Graham lower bounds otherwise) and against
//! the *guaranteed* ratios proven in the paper. This module bundles that
//! bookkeeping so benches, examples and tests report ratios identically.

use crate::numeric::approx_le;
use crate::objectives::{ObjectivePoint, TriObjectivePoint};

/// How the reference point was obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reference {
    /// Exact optimum per objective (each objective optimized separately).
    Optimum,
    /// Lower bounds (Graham bounds / critical path); achieved ratios are
    /// then *upper bounds* on the true approximation ratios.
    LowerBound,
}

/// Achieved-versus-guaranteed report for the bi-objective problem.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RatioReport {
    /// The point achieved by the algorithm.
    pub achieved: ObjectivePoint,
    /// The reference point (optimum or lower bound, per objective).
    pub reference: ObjectivePoint,
    /// How the reference was obtained.
    pub reference_kind: Reference,
    /// Achieved `Cmax / reference.cmax`.
    pub cmax_ratio: f64,
    /// Achieved `Mmax / reference.mmax`.
    pub mmax_ratio: f64,
    /// The guarantee proven in the paper, when applicable.
    pub guarantee: Option<(f64, f64)>,
}

impl RatioReport {
    /// Builds a report from an achieved point, a reference point and an
    /// optional proven guarantee.
    pub fn new(
        achieved: ObjectivePoint,
        reference: ObjectivePoint,
        reference_kind: Reference,
        guarantee: Option<(f64, f64)>,
    ) -> Self {
        let (cmax_ratio, mmax_ratio) = achieved.ratio_to(&reference);
        RatioReport {
            achieved,
            reference,
            reference_kind,
            cmax_ratio,
            mmax_ratio,
            guarantee,
        }
    }

    /// True when the achieved ratios respect the proven guarantee (always
    /// true when no guarantee is attached). When the reference is a lower
    /// bound this check is conservative: a violation is a genuine bug.
    pub fn within_guarantee(&self) -> bool {
        match self.guarantee {
            None => true,
            Some((gc, gm)) => approx_le(self.cmax_ratio, gc) && approx_le(self.mmax_ratio, gm),
        }
    }

    /// Margin between the guarantee and the achieved ratios,
    /// `(gc - cmax_ratio, gm - mmax_ratio)`; `None` when no guarantee.
    pub fn slack(&self) -> Option<(f64, f64)> {
        self.guarantee
            .map(|(gc, gm)| (gc - self.cmax_ratio, gm - self.mmax_ratio))
    }
}

impl std::fmt::Display for RatioReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "achieved {} vs reference {} -> ratios ({:.4}, {:.4})",
            self.achieved, self.reference, self.cmax_ratio, self.mmax_ratio
        )?;
        if let Some((gc, gm)) = self.guarantee {
            write!(f, " [guarantee ({gc:.4}, {gm:.4})]")?;
        }
        Ok(())
    }
}

/// Achieved-versus-guaranteed report for the tri-objective extension
/// (Section 5.2 of the paper).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TriRatioReport {
    /// The point achieved by the algorithm.
    pub achieved: TriObjectivePoint,
    /// The reference point (optimum or lower bound, per objective).
    pub reference: TriObjectivePoint,
    /// How the reference was obtained.
    pub reference_kind: Reference,
    /// Achieved ratios `(Cmax, Mmax, ΣCi)`.
    pub ratios: (f64, f64, f64),
    /// The guarantee of Corollary 4, when applicable.
    pub guarantee: Option<(f64, f64, f64)>,
}

impl TriRatioReport {
    /// Builds a tri-objective report.
    pub fn new(
        achieved: TriObjectivePoint,
        reference: TriObjectivePoint,
        reference_kind: Reference,
        guarantee: Option<(f64, f64, f64)>,
    ) -> Self {
        let ratios = achieved.ratio_to(&reference);
        TriRatioReport {
            achieved,
            reference,
            reference_kind,
            ratios,
            guarantee,
        }
    }

    /// True when the achieved ratios respect the proven guarantee.
    pub fn within_guarantee(&self) -> bool {
        match self.guarantee {
            None => true,
            Some((gc, gm, gs)) => {
                approx_le(self.ratios.0, gc)
                    && approx_le(self.ratios.1, gm)
                    && approx_le(self.ratios.2, gs)
            }
        }
    }
}

impl std::fmt::Display for TriRatioReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "achieved {} vs reference {} -> ratios ({:.4}, {:.4}, {:.4})",
            self.achieved, self.reference, self.ratios.0, self.ratios.1, self.ratios.2
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_are_achieved_over_reference() {
        let rep = RatioReport::new(
            ObjectivePoint::new(3.0, 4.0),
            ObjectivePoint::new(2.0, 2.0),
            Reference::Optimum,
            None,
        );
        assert_eq!(rep.cmax_ratio, 1.5);
        assert_eq!(rep.mmax_ratio, 2.0);
        assert!(rep.within_guarantee());
        assert!(rep.slack().is_none());
    }

    #[test]
    fn guarantee_violation_is_reported() {
        let rep = RatioReport::new(
            ObjectivePoint::new(3.0, 4.0),
            ObjectivePoint::new(1.0, 1.0),
            Reference::LowerBound,
            Some((2.0, 5.0)),
        );
        assert!(!rep.within_guarantee());
        let (sc, sm) = rep.slack().unwrap();
        assert!(sc < 0.0);
        assert!(sm > 0.0);
    }

    #[test]
    fn guarantee_respected_up_to_tolerance() {
        let rep = RatioReport::new(
            ObjectivePoint::new(2.0 + 1e-13, 1.0),
            ObjectivePoint::new(1.0, 1.0),
            Reference::Optimum,
            Some((2.0, 2.0)),
        );
        assert!(rep.within_guarantee());
    }

    #[test]
    fn tri_report_checks_all_three_objectives() {
        let rep = TriRatioReport::new(
            TriObjectivePoint::new(2.0, 3.0, 10.0),
            TriObjectivePoint::new(1.0, 1.0, 5.0),
            Reference::LowerBound,
            Some((2.5, 3.0, 2.0)),
        );
        assert_eq!(rep.ratios, (2.0, 3.0, 2.0));
        assert!(rep.within_guarantee());
        let bad = TriRatioReport::new(
            TriObjectivePoint::new(2.0, 3.5, 10.0),
            TriObjectivePoint::new(1.0, 1.0, 5.0),
            Reference::LowerBound,
            Some((2.5, 3.0, 2.0)),
        );
        assert!(!bad.within_guarantee());
    }

    #[test]
    fn display_mentions_guarantee_when_present() {
        let rep = RatioReport::new(
            ObjectivePoint::new(1.0, 1.0),
            ObjectivePoint::new(1.0, 1.0),
            Reference::Optimum,
            Some((1.5, 1.5)),
        );
        assert!(rep.to_string().contains("guarantee"));
    }
}
