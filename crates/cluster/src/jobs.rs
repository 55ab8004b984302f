//! Job/utilization classes and the fleet workload mix.
//!
//! Earlier revisions drew node power from per-class normal
//! distributions — distribution *fitting* rather than workload
//! *cloning*. A [`JobClass`] now names a concrete payload (an
//! access-group spec evaluated through the node's `fs2_core::Engine`),
//! the P-states the scheduler may run it at, and a duty-cycle band: the
//! fraction of the 60 s averaging window the payload actually executes,
//! with the remainder decaying to the node's idle floor. Every watt a
//! fleet sample reports traces back to the engine's payload→power
//! pipeline.

use rand::rngs::StdRng;
use rand::Rng;

/// A utilization class: a workload spec, the P-states it runs at, and
/// how much of the 60 s window it occupies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobClass {
    pub name: &'static str,
    /// Access-group spec (the Eq. 1 string) for the active phase,
    /// evaluated through the node engine.
    pub spec: &'static str,
    /// Duty-cycle band `[lo, hi)`: fraction of the window spent
    /// executing the payload; the rest idles at the node floor. One
    /// duty is drawn uniformly per 60 s sample.
    pub duty: (f64, f64),
    /// Indices into the SKU's P-state table the scheduler may select
    /// for this class; one slot of this list is drawn per sample, so a
    /// P-state listed twice is drawn twice as often.
    pub pstates: &'static [usize],
}

impl JobClass {
    /// Panics if the class cannot be sampled (empty duty band or
    /// P-state list, duty outside `[0, 1]`).
    pub fn validate(&self) {
        assert!(
            self.duty.0 < self.duty.1,
            "{}: duty band {:?} is empty",
            self.name,
            self.duty
        );
        assert!(
            (0.0..=1.0).contains(&self.duty.0) && self.duty.1 <= 1.0 + 1e-12,
            "{}: duty band {:?} outside [0, 1]",
            self.name,
            self.duty
        );
        assert!(!self.pstates.is_empty(), "{}: no P-states", self.name);
    }

    /// Draws one duty cycle from the band.
    pub fn draw_duty(&self, rng: &mut StdRng) -> f64 {
        rng.gen_range(self.duty.0..self.duty.1)
    }

    /// Draws one slot of [`JobClass::pstates`]; `pstates[slot]` is the
    /// P-state index into the SKU table. A one-P-state class consumes
    /// no draw.
    pub fn draw_pstate(&self, rng: &mut StdRng) -> usize {
        if self.pstates.len() == 1 {
            0
        } else {
            rng.gen_range(0..self.pstates.len())
        }
    }
}

/// A weighted mix of job classes — the fleet's duty profile.
#[derive(Debug, Clone)]
pub struct JobMix {
    /// `(class, fraction_of_node_hours)`.
    classes: Vec<(JobClass, f64)>,
    /// Total weight, hoisted out of the per-draw hot loop.
    total: f64,
}

impl JobMix {
    /// Builds a mix; weights need not sum to 1 but must be non-negative
    /// with a positive total.
    pub fn new(classes: Vec<(JobClass, f64)>) -> JobMix {
        assert!(!classes.is_empty(), "mix must have at least one class");
        for (class, w) in &classes {
            class.validate();
            assert!(*w >= 0.0, "{}: negative weight {w}", class.name);
        }
        let total: f64 = classes.iter().map(|(_, f)| f).sum();
        assert!(total > 0.0, "mix needs positive total weight");
        JobMix { classes, total }
    }

    /// The classes and their weights.
    pub fn classes(&self) -> &[(JobClass, f64)] {
        &self.classes
    }

    /// The Taurus Haswell-partition profile behind Fig. 1: a large
    /// idle/low-utilization share (the 50–100 W shoulder), moderate
    /// compute, and a thin full-power tail reaching 359.9 W. P-state
    /// indices refer to the Haswell SKU tables (0 = nominal, 2 = min).
    pub fn taurus_haswell() -> JobMix {
        JobMix::new(vec![
            (
                JobClass {
                    name: "idle",
                    spec: "REG:1",
                    duty: (0.0, 0.06),
                    pstates: &[2],
                },
                0.30,
            ),
            (
                JobClass {
                    name: "low",
                    spec: "REG:2,L1_L:1",
                    duty: (0.05, 0.35),
                    pstates: &[2],
                },
                0.25,
            ),
            (
                JobClass {
                    name: "medium",
                    spec: "REG:4,L1_2LS:2,L2_LS:1",
                    duty: (0.35, 0.75),
                    pstates: &[1, 2],
                },
                0.22,
            ),
            (
                JobClass {
                    name: "high",
                    spec: "REG:6,L1_2LS:3,L2_LS:1,L3_LS:1",
                    duty: (0.80, 1.0),
                    pstates: &[0, 1],
                },
                0.20,
            ),
            (
                JobClass {
                    name: "peak",
                    spec: "REG:8,L1_2LS:4,L2_LS:1,L3_LS:1,RAM_LS:1",
                    duty: (0.95, 1.0),
                    pstates: &[0],
                },
                0.03,
            ),
        ])
    }

    /// Validates that fractions form a distribution.
    pub fn total_fraction(&self) -> f64 {
        self.total
    }

    /// Draws the class index for one node-minute.
    pub fn pick_idx(&self, rng: &mut StdRng) -> usize {
        pick_weighted(
            self.classes.iter().map(|&(_, w)| w),
            rng.gen_range(0.0..self.total),
        )
    }
}

/// Maps a draw `x ∈ [0, total]` to an index of `weights` by the
/// subtract/compare chain: the first `i` with `x < w_i`, after the
/// weights before it are subtracted. Floating-point rounding can leave
/// `x` at or past the last positive weight; the fallthrough lands on
/// the last index that can actually occur, never on a zero weight.
/// Job-mix class picks and episode transitions both draw through it.
pub(crate) fn pick_weighted(weights: impl IntoIterator<Item = f64>, mut x: f64) -> usize {
    let mut last_weighted = 0;
    for (i, w) in weights.into_iter().enumerate() {
        if w > 0.0 {
            if x < w {
                return i;
            }
            last_weighted = i;
        }
        x -= w;
    }
    last_weighted
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn taurus_mix_is_normalized() {
        let mix = JobMix::taurus_haswell();
        assert!((mix.total_fraction() - 1.0).abs() < 1e-12);
        assert_eq!(mix.classes().len(), 5);
    }

    #[test]
    fn classes_are_engine_evaluable_specs() {
        // Every class spec must parse under the Eq. 1 grammar; the
        // fleet feeds them straight into the engine registry.
        for (class, _) in JobMix::taurus_haswell().classes() {
            assert!(
                fs2_core::parse_groups(class.spec).is_ok(),
                "{}: bad spec {}",
                class.name,
                class.spec
            );
            class.validate();
        }
    }

    #[test]
    fn class_frequencies_match_fractions() {
        let mix = JobMix::taurus_haswell();
        let mut rng = StdRng::seed_from_u64(2);
        let n = 100_000;
        let mut idle = 0u32;
        for _ in 0..n {
            if mix.classes()[mix.pick_idx(&mut rng)].0.name == "idle" {
                idle += 1;
            }
        }
        let frac = f64::from(idle) / f64::from(n);
        assert!((frac - 0.30).abs() < 0.01, "idle fraction {frac}");
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let mix = JobMix::taurus_haswell();
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            let ca = &mix.classes()[mix.pick_idx(&mut a)].0;
            let cb = &mix.classes()[mix.pick_idx(&mut b)].0;
            assert_eq!(ca.name, cb.name);
            assert_eq!(ca.draw_duty(&mut a), cb.draw_duty(&mut b));
            assert_eq!(ca.draw_pstate(&mut a), cb.draw_pstate(&mut b));
        }
    }

    #[test]
    fn duty_draws_stay_in_band() {
        let mix = JobMix::taurus_haswell();
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..20_000 {
            let class = &mix.classes()[mix.pick_idx(&mut rng)].0;
            let duty = class.draw_duty(&mut rng);
            assert!(
                (class.duty.0..class.duty.1).contains(&duty),
                "{}: duty {duty} outside {:?}",
                class.name,
                class.duty
            );
            let slot = class.draw_pstate(&mut rng);
            assert!(slot < class.pstates.len());
        }
    }

    #[test]
    fn zero_weight_trailing_class_is_never_picked() {
        // Regression: the old fallthrough returned `classes.last()`
        // unconditionally, so a rounding draw at x == total could hand
        // out a class with weight 0.0.
        let dummy = |name: &'static str| JobClass {
            name,
            spec: "REG:1",
            duty: (0.0, 0.1),
            pstates: &[0],
        };
        let mix = JobMix::new(vec![
            (dummy("a"), 0.1),
            (dummy("b"), 0.2),
            (dummy("disabled"), 0.0),
        ]);
        // Exact-total and past-total draws (what fp rounding produces)
        // must land on the last *weighted* class.
        let weights = || mix.classes().iter().map(|&(_, w)| w);
        assert_eq!(pick_weighted(weights(), mix.total_fraction()), 1);
        assert_eq!(pick_weighted(weights(), mix.total_fraction() + 1.0), 1);
        assert_eq!(pick_weighted(weights(), f64::INFINITY), 1);
        // And ordinary draws never produce it either.
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..50_000 {
            assert_ne!(mix.pick_idx(&mut rng), 2);
        }
    }

    #[test]
    fn zero_weight_middle_class_is_skipped() {
        let dummy = |name: &'static str| JobClass {
            name,
            spec: "REG:1",
            duty: (0.0, 0.1),
            pstates: &[0],
        };
        let mix = JobMix::new(vec![
            (dummy("a"), 0.5),
            (dummy("disabled"), 0.0),
            (dummy("c"), 0.5),
        ]);
        let mut rng = StdRng::seed_from_u64(4);
        let mut seen = [0u32; 3];
        for _ in 0..10_000 {
            seen[mix.pick_idx(&mut rng)] += 1;
        }
        assert_eq!(seen[1], 0);
        assert!(seen[0] > 4_000 && seen[2] > 4_000);
    }
}
