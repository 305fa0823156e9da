//! Runtime modes and tuning constants.

/// How transaction lengths are chosen (paper Fig. 3, lines 2–7).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LengthPolicy {
    /// `TRANSACTION_LENGTH` is a constant (the paper's HTM-1, HTM-16,
    /// HTM-256 configurations).
    Fixed(u32),
    /// Per-yield-point dynamic adjustment (the paper's HTM-dynamic).
    Dynamic,
}

/// The execution strategies the paper evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuntimeMode {
    /// Original CRuby: the Giant VM Lock plus a 250 ms timer thread that
    /// forces occasional yields (paper §3.2).
    Gil,
    /// GIL elision through HTM (paper §4).
    Htm { length: LengthPolicy },
    /// JRuby-like fine-grained locking: no GIL, but shared VM services
    /// (chiefly allocation) serialize through locks (paper §5.7 / Fig. 9).
    FineGrained,
    /// "Ideal VM": no VM-internal sharing at all — measures each
    /// application's inherent scalability, like the Java NPB baseline.
    Ideal,
}

impl RuntimeMode {
    pub fn is_htm(&self) -> bool {
        matches!(self, RuntimeMode::Htm { .. })
    }

    /// Display label used in reports ("GIL", "HTM-16", "HTM-dynamic", …).
    pub fn label(&self) -> String {
        match self {
            RuntimeMode::Gil => "GIL".into(),
            RuntimeMode::Htm { length: LengthPolicy::Fixed(n) } => format!("HTM-{n}"),
            RuntimeMode::Htm { length: LengthPolicy::Dynamic } => "HTM-dynamic".into(),
            RuntimeMode::FineGrained => "FineGrained".into(),
            RuntimeMode::Ideal => "Ideal".into(),
        }
    }
}

/// Which bytecodes are yield points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum YieldPolicy {
    /// CRuby's original points: loop back-edges + method/block exits.
    Original,
    /// The paper's §4.2 extension (default for HTM modes).
    Extended,
}

/// The retry/adjustment constants of paper §5.1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TleConstants {
    /// Retries of a transiently-aborted transaction before the GIL
    /// fallback (paper: 3).
    pub transient_retry_max: u32,
    /// Aborts caused by a held GIL tolerated before forcibly acquiring it
    /// (paper: 16 — "a thread should wait more patiently for the GIL").
    pub gil_retry_max: u32,
    /// Initial per-yield-point transaction length (paper: 255).
    pub initial_transaction_length: u32,
    /// Transactions per profiling window (paper: 300).
    pub profiling_period: u32,
    /// Aborts tolerated per window before shortening; machine-specific
    /// (paper: 3 on zEC12 = 1 %, 18 on the Xeon = 6 %).
    pub adjustment_threshold: u32,
    /// Geometric shrink factor (paper: 0.75).
    pub attenuation_rate: f64,
}

impl TleConstants {
    /// Paper defaults, with the machine-specific threshold taken from the
    /// profile.
    pub fn for_profile(profile: &machine_sim::MachineProfile) -> Self {
        TleConstants {
            transient_retry_max: 3,
            gil_retry_max: 16,
            initial_transaction_length: 255,
            profiling_period: 300,
            adjustment_threshold: profile.htm.adjustment_threshold,
            attenuation_rate: 0.75,
        }
    }
}

/// Livelock/starvation watchdog tuning (forward-progress guarantee #1).
///
/// The Fig. 1 retry budgets already bound each *attempt sequence*, but a
/// thread can still burn `tbegin + abort_penalty` over and over when every
/// transaction it starts dies (e.g. under heavy fault injection). The
/// watchdog counts consecutive aborted transactions *across* attempt
/// sequences and, past the threshold, escalates: the thread skips
/// speculation entirely for a cooldown of GIL tenures, doubling the
/// cooldown on every consecutive escalation so 100 % abort rates converge
/// to plain GIL throughput instead of paying per-attempt HTM overhead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchdogConstants {
    /// Consecutive aborts (no commit in between) before escalating;
    /// 0 disables the watchdog.
    pub escalation_threshold: u32,
    /// GIL tenures per escalation before speculation is retried.
    pub cooldown_base: u32,
    /// Cap on the exponentially-backed-off cooldown.
    pub cooldown_max: u32,
}

impl WatchdogConstants {
    /// Watchdog off — the seed repo's exact behaviour.
    pub fn disabled() -> Self {
        WatchdogConstants { escalation_threshold: 0, cooldown_base: 0, cooldown_max: 0 }
    }

    /// Defaults used by the chaos suite: escalate after 12 consecutive
    /// aborts, start with 8 GIL tenures, back off up to 512.
    pub fn enabled() -> Self {
        WatchdogConstants { escalation_threshold: 12, cooldown_base: 8, cooldown_max: 512 }
    }

    pub fn is_enabled(&self) -> bool {
        self.escalation_threshold > 0
    }
}

/// Full executor configuration.
#[derive(Debug, Clone)]
pub struct ExecConfig {
    pub mode: RuntimeMode,
    /// Yield-point set; `None` = mode default (Extended for HTM, Original
    /// for GIL; irrelevant for FineGrained/Ideal).
    pub yield_policy: Option<YieldPolicy>,
    pub tle: TleConstants,
    /// §4.4 #1: keep the running-thread pointer in TLS instead of a global
    /// (`false` reproduces "the most severe conflicts").
    pub tls_running_thread: bool,
    /// Hard safety cap on simulated cycles (0 = none).
    pub max_cycles: u64,
    /// Seed for the HTM predictor RNG (determinism).
    pub seed: u64,
    /// Capacity of the structured transaction-event trace ring buffer;
    /// 0 (the default) disables tracing entirely — no sink is installed
    /// and event sites in the HTM simulator reduce to a discriminant
    /// test.
    pub trace_capacity: usize,
    /// Fault-injection plan installed into the transactional memory at
    /// boot (`None` — the default — injects nothing and leaves the memory
    /// fast paths untouched).
    pub fault_plan: Option<htm_sim::FaultPlan>,
    /// Interval of the §5.6 timer-interrupt model in per-thread simulated
    /// cycles: each thread's in-flight transaction is spuriously aborted
    /// every `interrupt_interval` cycles of its own clock. 0 (the
    /// default) disables the model.
    pub interrupt_interval: u64,
    /// Livelock watchdog; disabled by default (seed-identical behaviour).
    pub watchdog: WatchdogConstants,
    /// Run-level forward-progress invariant: fail the run with
    /// [`crate::RunError::NoProgress`] when this many consecutive
    /// scheduler steps retire without a single committed instruction.
    /// 0 disables the check. The default bound is far beyond anything a
    /// healthy run approaches (the longest transactions escrow a few
    /// hundred instructions; the GIL timer forces handoffs every ~10⁵
    /// cycles), so it only trips on genuine livelock.
    pub progress_bound_steps: u64,
    /// Schedule-exploration path replayed by this run (`None` — the
    /// default — installs no controller and leaves every decision-point
    /// hook a no-op). An installed *empty* path also reproduces the
    /// natural schedule exactly; see `machine_sim::explore`.
    pub explore_path: Option<machine_sim::SchedPath>,
    /// Enable the exploration's interrupt-delivery decisions (kill an
    /// open transaction at a yield point or in the commit window). Off,
    /// those windows consume no path bytes.
    pub explore_interrupts: bool,
    /// When HTM transactions subscribe to the GIL word (DESIGN.md §15).
    /// `Eager` (the default) is the paper's Fig. 1; `Lazy` is observably
    /// unsafe by design; `LazyGuarded` models the hardware commit guard.
    pub subscription: crate::tle::SubscriptionPolicy,
}

impl ExecConfig {
    pub fn new(mode: RuntimeMode, profile: &machine_sim::MachineProfile) -> Self {
        ExecConfig {
            mode,
            yield_policy: None,
            tle: TleConstants::for_profile(profile),
            tls_running_thread: true,
            max_cycles: 0,
            seed: 0xA5A5_5A5A,
            trace_capacity: 0,
            fault_plan: None,
            interrupt_interval: 0,
            watchdog: WatchdogConstants::disabled(),
            progress_bound_steps: 5_000_000,
            explore_path: None,
            explore_interrupts: false,
            subscription: crate::tle::SubscriptionPolicy::Eager,
        }
    }

    /// Effective yield policy for this mode.
    pub fn effective_yield_policy(&self) -> YieldPolicy {
        self.yield_policy.unwrap_or(match self.mode {
            RuntimeMode::Gil => YieldPolicy::Original,
            RuntimeMode::Htm { .. } => YieldPolicy::Extended,
            // No GIL/transactions — yield points are irrelevant.
            RuntimeMode::FineGrained | RuntimeMode::Ideal => YieldPolicy::Original,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use machine_sim::MachineProfile;

    #[test]
    fn labels() {
        assert_eq!(RuntimeMode::Gil.label(), "GIL");
        assert_eq!(RuntimeMode::Htm { length: LengthPolicy::Fixed(16) }.label(), "HTM-16");
        assert_eq!(RuntimeMode::Htm { length: LengthPolicy::Dynamic }.label(), "HTM-dynamic");
    }

    #[test]
    fn constants_match_paper() {
        let z = TleConstants::for_profile(&MachineProfile::zec12());
        assert_eq!(z.transient_retry_max, 3);
        assert_eq!(z.gil_retry_max, 16);
        assert_eq!(z.initial_transaction_length, 255);
        assert_eq!(z.profiling_period, 300);
        assert_eq!(z.adjustment_threshold, 3);
        assert!((z.attenuation_rate - 0.75).abs() < 1e-12);
        let x = TleConstants::for_profile(&MachineProfile::xeon_e3_1275_v3());
        assert_eq!(x.adjustment_threshold, 18);
    }

    #[test]
    fn robustness_knobs_default_to_seed_behaviour() {
        let p = MachineProfile::generic(2);
        let cfg = ExecConfig::new(RuntimeMode::Gil, &p);
        assert!(cfg.fault_plan.is_none(), "no injection unless asked");
        assert_eq!(cfg.interrupt_interval, 0, "interrupt model off by default");
        assert!(!cfg.watchdog.is_enabled(), "watchdog off by default");
        assert!(cfg.progress_bound_steps > 0, "progress invariant on by default");
        assert!(cfg.explore_path.is_none(), "no exploration controller by default");
        assert!(!cfg.explore_interrupts);
        assert_eq!(
            cfg.subscription,
            crate::tle::SubscriptionPolicy::Eager,
            "eager GIL subscription (the paper's Fig. 1) is the default"
        );
        assert_eq!(crate::tle::SubscriptionPolicy::default().label(), "eager");
        assert!(WatchdogConstants::enabled().is_enabled());
    }

    #[test]
    fn default_yield_policies() {
        let p = MachineProfile::zec12();
        let gil = ExecConfig::new(RuntimeMode::Gil, &p);
        assert_eq!(gil.effective_yield_policy(), YieldPolicy::Original);
        let htm = ExecConfig::new(RuntimeMode::Htm { length: LengthPolicy::Dynamic }, &p);
        assert_eq!(htm.effective_yield_policy(), YieldPolicy::Extended);
        let mut ab = htm.clone();
        ab.yield_policy = Some(YieldPolicy::Original);
        assert_eq!(ab.effective_yield_policy(), YieldPolicy::Original);
    }
}
