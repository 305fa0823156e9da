//! Deterministic fault injection for best-effort HTM.
//!
//! Real HTM aborts for reasons the workload never caused: timer
//! interrupts, TLB misses serviced by the kernel, page faults (paper
//! §2.1; §5.6 attributes a large share of zEC12/Haswell aborts to them).
//! The simulator's transactions otherwise only abort for *earned* reasons
//! — conflicts, capacity, restricted ops — so the GIL-fallback machinery
//! in the TLE runtime is never exercised by environmental noise.
//!
//! A [`FaultInjector`] closes that gap: seeded, deterministic, and hooked
//! into **both** `TxMemory` and `ReferenceTxMemory` at the same points
//! (every transactional data access), so the differential property test
//! remains valid with injection enabled. Per access it can:
//!
//! * inject [`AbortReason::Spurious`] with a timer-interrupt / TLB /
//!   page-fault cause (transient — retry may succeed);
//! * shrink the transaction's remaining read/write budgets mid-flight
//!   (modelling capacity lost to the interrupt handler's cache footprint),
//!   which converts into an overflow abort if the footprint already
//!   exceeds the shrunken budget;
//! * force a [`AbortReason::Restricted`] abort, as if the access turned
//!   out to require a restricted operation.
//!
//! A plan can also arm the test-only **dirty-read bug**
//! ([`FaultPlan::dirty_read`]) the schedule-space explorer uses to prove it
//! finds real serializability violations.
//!
//! Determinism contract: exactly **one** PRNG draw per `decide()` call,
//! and the two memory implementations call `decide()` at identical
//! points, so their injection streams stay in lockstep.

use crate::abort::SpuriousCause;

/// What the injector decided to do to the current access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Abort the transaction with `Spurious { cause }`.
    Spurious(SpuriousCause),
    /// Halve the transaction's remaining read/write budgets (floor 1).
    ShrinkBudgets,
    /// Abort the transaction as `Restricted`.
    ForceRestricted,
}

/// A seeded injection plan: per-access probabilities for each fault class.
/// Rates are probabilities in `[0, 1]`; a plan with all rates zero injects
/// nothing (and is the default everywhere — figure pipelines stay
/// byte-deterministic unless a caller opts in).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    pub seed: u64,
    /// Probability a transactional access dies spuriously.
    pub spurious_rate: f64,
    /// Probability the access halves the remaining budgets.
    pub shrink_rate: f64,
    /// Probability the access is treated as a restricted operation.
    pub restricted_rate: f64,
    /// Test-only serializability bug: reads skip the requester-wins doom
    /// of a remote speculative writer, so they observe speculative
    /// (possibly torn) state. Draws nothing, so it leaves the line memo
    /// on; only `TxMemory` models it. Never enabled outside the
    /// explorer's violation demos.
    pub dirty_read: bool,
}

impl FaultPlan {
    /// Plan injecting nothing.
    pub fn none() -> FaultPlan {
        FaultPlan {
            seed: 0,
            spurious_rate: 0.0,
            shrink_rate: 0.0,
            restricted_rate: 0.0,
            dirty_read: false,
        }
    }

    /// Pure spurious-abort plan — the knob the chaos sweep turns.
    pub fn spurious(seed: u64, rate: f64) -> FaultPlan {
        FaultPlan { seed, spurious_rate: rate, ..FaultPlan::none() }
    }

    /// True when some fault rate is above zero, so every transactional
    /// access must draw; otherwise the memories install no injector.
    pub fn draws(&self) -> bool {
        self.spurious_rate > 0.0 || self.shrink_rate > 0.0 || self.restricted_rate > 0.0
    }
}

/// xorshift64* (same generator as the overflow predictor's): tiny, fast,
/// and fully determined by the seed.
#[derive(Debug, Clone)]
struct XorShiftRng {
    state: u64,
}

impl XorShiftRng {
    fn seed_from_u64(seed: u64) -> Self {
        // Never allow the all-zero fixed point.
        XorShiftRng { state: seed | 1 }
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// Seeded fault source. One instance per memory; both memories in a
/// differential pair must be given injectors built from the same plan.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    rng: XorShiftRng,
    injected: u64,
}

impl FaultInjector {
    pub fn new(plan: FaultPlan) -> FaultInjector {
        FaultInjector { plan, rng: XorShiftRng::seed_from_u64(plan.seed), injected: 0 }
    }

    /// Total faults decided so far (all classes).
    pub fn injected(&self) -> u64 {
        self.injected
    }

    /// Decide the fate of one transactional access. Exactly one PRNG draw
    /// per call — the spurious cause is carved out of the same draw's low
    /// bits so both memories consume identical randomness.
    pub fn decide(&mut self) -> Option<Fault> {
        let draw = self.rng.next_u64();
        let u = (draw >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        let s = self.plan.spurious_rate;
        let k = s + self.plan.shrink_rate;
        let r = k + self.plan.restricted_rate;
        let fault = if u < s {
            Some(Fault::Spurious(match draw % 3 {
                0 => SpuriousCause::TimerInterrupt,
                1 => SpuriousCause::Tlb,
                _ => SpuriousCause::PageFault,
            }))
        } else if u < k {
            Some(Fault::ShrinkBudgets)
        } else if u < r {
            Some(Fault::ForceRestricted)
        } else {
            None
        };
        if fault.is_some() {
            self.injected += 1;
        }
        fault
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_rate_plan_never_fires() {
        let mut inj = FaultInjector::new(FaultPlan::none());
        for _ in 0..10_000 {
            assert_eq!(inj.decide(), None);
        }
        assert_eq!(inj.injected(), 0);
        assert!(!FaultPlan::none().draws());
    }

    #[test]
    fn full_rate_plan_always_fires_spurious() {
        let mut inj = FaultInjector::new(FaultPlan::spurious(42, 1.0));
        let mut causes = [0u32; 3];
        for _ in 0..3_000 {
            match inj.decide() {
                Some(Fault::Spurious(SpuriousCause::TimerInterrupt)) => causes[0] += 1,
                Some(Fault::Spurious(SpuriousCause::Tlb)) => causes[1] += 1,
                Some(Fault::Spurious(SpuriousCause::PageFault)) => causes[2] += 1,
                other => panic!("unexpected decision {other:?}"),
            }
        }
        assert_eq!(inj.injected(), 3_000);
        // All three causes occur.
        assert!(causes.iter().all(|&c| c > 0), "causes {causes:?}");
    }

    #[test]
    fn same_seed_same_stream() {
        let plan = FaultPlan {
            seed: 7,
            spurious_rate: 0.2,
            shrink_rate: 0.1,
            restricted_rate: 0.05,
            dirty_read: false,
        };
        let mut a = FaultInjector::new(plan);
        let mut b = FaultInjector::new(plan);
        for _ in 0..5_000 {
            assert_eq!(a.decide(), b.decide());
        }
        assert_eq!(a.injected(), b.injected());
        assert!(a.injected() > 0);
    }

    #[test]
    fn rates_partition_roughly() {
        let plan = FaultPlan {
            seed: 99,
            spurious_rate: 0.25,
            shrink_rate: 0.25,
            restricted_rate: 0.25,
            dirty_read: false,
        };
        let mut inj = FaultInjector::new(plan);
        let (mut sp, mut sh, mut rs, mut none) = (0u32, 0u32, 0u32, 0u32);
        let n = 20_000;
        for _ in 0..n {
            match inj.decide() {
                Some(Fault::Spurious(_)) => sp += 1,
                Some(Fault::ShrinkBudgets) => sh += 1,
                Some(Fault::ForceRestricted) => rs += 1,
                None => none += 1,
            }
        }
        for (label, c) in [("spurious", sp), ("shrink", sh), ("restricted", rs), ("none", none)] {
            let share = f64::from(c) / f64::from(n);
            assert!((share - 0.25).abs() < 0.03, "{label} share {share}");
        }
    }
}
