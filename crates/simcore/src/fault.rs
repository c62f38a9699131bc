//! `simfault`: seeded, virtual-time fault injection.
//!
//! A [`FaultPlan`] is pure data: per-category injection probabilities
//! (packet loss/corruption/delay, disk errors/latency spikes, client
//! misbehaviour) plus optional burst [`FaultWindow`]s that scale every
//! probability inside a virtual-time interval. The plan travels on the
//! kernel configuration; each consumer builds a [`FaultInjector`] from
//! it and draws decisions at its own injection points.
//!
//! Determinism contract: the injector derives one independent
//! [`SimRng`] stream per category from `plan.seed`, and every draw
//! consumes a fixed number of variates from its own stream, so the
//! sequence of injected faults is a pure function of `(seed, plan,
//! injection-point call order)`. Two runs with the same seed and plan
//! are byte-identical; changing the seed perturbs only the injections,
//! never the rest of the simulation's randomness (which lives in other
//! streams).
//!
//! The injector never touches global state and emits no trace events
//! itself — the *call sites* (kernel receive path, disk submit path,
//! workload clients) emit `TraceEventKind::Fault*` so rctrace shows
//! exactly what was perturbed, attributed where the fault landed.

use crate::rng::SimRng;
use crate::time::Nanos;

/// A virtual-time interval during which all fault probabilities are
/// multiplied by `factor` — the building block for burst floods and
/// brown-outs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultWindow {
    /// Start of the window (inclusive).
    pub start: Nanos,
    /// End of the window (exclusive).
    pub end: Nanos,
    /// Probability multiplier while the window is active.
    pub factor: f64,
}

/// A deterministic fault schedule: seeded probabilities per category
/// plus burst windows. All probabilities default to zero (no faults);
/// an all-default plan is behaviourally inert.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    /// Seed from which every injector stream is derived.
    pub seed: u64,
    /// Per-packet probability of silent loss before the stack sees it.
    pub pkt_drop: f64,
    /// Per-packet probability of payload corruption.
    pub pkt_corrupt: f64,
    /// Per-packet probability of an in-flight delay (which also reorders
    /// the packet past later arrivals).
    pub pkt_delay: f64,
    /// Upper bound of the uniform per-packet delay.
    pub pkt_delay_max: Nanos,
    /// Per-request probability that a disk request fails with an I/O
    /// error (service time is still consumed and charged).
    pub disk_error: f64,
    /// Per-request probability of a latency spike.
    pub disk_spike: f64,
    /// Upper bound of the uniform disk latency spike.
    pub disk_spike_max: Nanos,
    /// Per-request probability that a client goes silent mid-request.
    pub client_abandon: f64,
    /// Per-request probability that a client sends a malformed request.
    pub client_malformed: f64,
    /// Per-request probability that a client transmits slowly.
    pub client_slow: f64,
    /// Upper bound of the uniform slow-client transmission delay.
    pub client_slow_max: Nanos,
    /// Burst windows multiplying every probability while active.
    pub windows: Vec<FaultWindow>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0xFA_0175,
            pkt_drop: 0.0,
            pkt_corrupt: 0.0,
            pkt_delay: 0.0,
            pkt_delay_max: Nanos::ZERO,
            disk_error: 0.0,
            disk_spike: 0.0,
            disk_spike_max: Nanos::ZERO,
            client_abandon: 0.0,
            client_malformed: 0.0,
            client_slow: 0.0,
            client_slow_max: Nanos::ZERO,
            windows: Vec::new(),
        }
    }
}

impl FaultPlan {
    /// A plan with every probability zero and the given seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// Sets the network fault probabilities.
    pub fn with_packet_faults(
        mut self,
        drop: f64,
        corrupt: f64,
        delay: f64,
        delay_max: Nanos,
    ) -> Self {
        self.pkt_drop = drop;
        self.pkt_corrupt = corrupt;
        self.pkt_delay = delay;
        self.pkt_delay_max = delay_max;
        self
    }

    /// Sets the disk fault probabilities.
    pub fn with_disk_faults(mut self, error: f64, spike: f64, spike_max: Nanos) -> Self {
        self.disk_error = error;
        self.disk_spike = spike;
        self.disk_spike_max = spike_max;
        self
    }

    /// Sets the client fault probabilities.
    pub fn with_client_faults(
        mut self,
        abandon: f64,
        malformed: f64,
        slow: f64,
        slow_max: Nanos,
    ) -> Self {
        self.client_abandon = abandon;
        self.client_malformed = malformed;
        self.client_slow = slow;
        self.client_slow_max = slow_max;
        self
    }

    /// Adds a burst window.
    pub fn with_window(mut self, start: Nanos, end: Nanos, factor: f64) -> Self {
        self.windows.push(FaultWindow { start, end, factor });
        self
    }

    /// The probability multiplier in effect at `now` (product of all
    /// active windows; 1.0 outside every window).
    pub fn factor_at(&self, now: Nanos) -> f64 {
        self.windows
            .iter()
            .filter(|w| w.start <= now && now < w.end)
            .map(|w| w.factor)
            .product()
    }

    fn net_enabled(&self) -> bool {
        self.pkt_drop > 0.0 || self.pkt_corrupt > 0.0 || self.pkt_delay > 0.0
    }

    fn disk_enabled(&self) -> bool {
        self.disk_error > 0.0 || self.disk_spike > 0.0
    }

    fn client_enabled(&self) -> bool {
        self.client_abandon > 0.0 || self.client_malformed > 0.0 || self.client_slow > 0.0
    }
}

/// A network fault decision for one inbound packet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NetFault {
    /// Lose the packet silently.
    Drop,
    /// Corrupt the payload (the packet still arrives).
    Corrupt,
    /// Deliver the packet after the extra delay.
    Delay(Nanos),
}

/// A disk fault decision for one request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DiskFault {
    /// The request fails with an I/O error after consuming (and
    /// charging) its full service time.
    Error,
    /// The request succeeds after the extra service time.
    Spike(Nanos),
}

/// A client fault decision for one request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ClientFault {
    /// The client goes silent (its request, if any, is never sent).
    Abandon,
    /// The client sends a syntactically invalid request.
    Malformed,
    /// The client's request transmission is delayed.
    Slow(Nanos),
}

/// Counts of faults actually injected, per category.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Packets silently lost.
    pub pkt_dropped: u64,
    /// Packets corrupted.
    pub pkt_corrupted: u64,
    /// Packets delayed.
    pub pkt_delayed: u64,
    /// Disk requests failed.
    pub disk_errors: u64,
    /// Disk requests spiked.
    pub disk_spikes: u64,
    /// Client abandons.
    pub client_abandons: u64,
    /// Malformed client requests.
    pub client_malformed: u64,
    /// Slowed client requests.
    pub client_slowed: u64,
}

impl FaultCounts {
    /// Total injections across every category.
    pub fn total(&self) -> u64 {
        self.pkt_dropped
            + self.pkt_corrupted
            + self.pkt_delayed
            + self.disk_errors
            + self.disk_spikes
            + self.client_abandons
            + self.client_malformed
            + self.client_slowed
    }
}

/// Draws fault decisions from a [`FaultPlan`] using one independent
/// seeded stream per category, so adding draws in one category never
/// perturbs another.
pub struct FaultInjector {
    plan: FaultPlan,
    net_rng: SimRng,
    disk_rng: SimRng,
    client_rng: SimRng,
    counts: FaultCounts,
}

impl FaultInjector {
    /// Builds an injector for `plan`. Streams are derived from
    /// `plan.seed` with fixed per-category tweaks.
    pub fn new(plan: &FaultPlan) -> Self {
        FaultInjector {
            plan: plan.clone(),
            net_rng: SimRng::seed_from(plan.seed ^ 0x6E65_7421),
            disk_rng: SimRng::seed_from(plan.seed ^ 0x6469_736B),
            client_rng: SimRng::seed_from(plan.seed ^ 0x636C_6E74),
            counts: FaultCounts::default(),
        }
    }

    /// The plan this injector draws from.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Counts of faults injected so far.
    pub fn counts(&self) -> FaultCounts {
        self.counts
    }

    /// Draws the network fault decision for a packet arriving at `now`.
    /// Consumes no randomness when every network probability is zero.
    pub fn net_fault(&mut self, now: Nanos) -> Option<NetFault> {
        if !self.plan.net_enabled() {
            return None;
        }
        let f = self.plan.factor_at(now);
        let x = self.net_rng.uniform_f64();
        let p_drop = (self.plan.pkt_drop * f).min(1.0);
        let p_corrupt = (self.plan.pkt_corrupt * f).min(1.0);
        let p_delay = (self.plan.pkt_delay * f).min(1.0);
        if x < p_drop {
            self.counts.pkt_dropped += 1;
            Some(NetFault::Drop)
        } else if x < p_drop + p_corrupt {
            self.counts.pkt_corrupted += 1;
            Some(NetFault::Corrupt)
        } else if x < p_drop + p_corrupt + p_delay {
            self.counts.pkt_delayed += 1;
            let d = self
                .net_rng
                .uniform_duration(Nanos::from_nanos(1), self.plan.pkt_delay_max);
            Some(NetFault::Delay(d))
        } else {
            None
        }
    }

    /// Draws the disk fault decision for a request submitted at `now`.
    pub fn disk_fault(&mut self, now: Nanos) -> Option<DiskFault> {
        if !self.plan.disk_enabled() {
            return None;
        }
        let f = self.plan.factor_at(now);
        let x = self.disk_rng.uniform_f64();
        let p_error = (self.plan.disk_error * f).min(1.0);
        let p_spike = (self.plan.disk_spike * f).min(1.0);
        if x < p_error {
            self.counts.disk_errors += 1;
            Some(DiskFault::Error)
        } else if x < p_error + p_spike {
            self.counts.disk_spikes += 1;
            let d = self
                .disk_rng
                .uniform_duration(Nanos::from_nanos(1), self.plan.disk_spike_max);
            Some(DiskFault::Spike(d))
        } else {
            None
        }
    }

    /// Draws the client fault decision for a request issued at `now`.
    pub fn client_fault(&mut self, now: Nanos) -> Option<ClientFault> {
        if !self.plan.client_enabled() {
            return None;
        }
        let f = self.plan.factor_at(now);
        let x = self.client_rng.uniform_f64();
        let p_abandon = (self.plan.client_abandon * f).min(1.0);
        let p_malformed = (self.plan.client_malformed * f).min(1.0);
        let p_slow = (self.plan.client_slow * f).min(1.0);
        if x < p_abandon {
            self.counts.client_abandons += 1;
            Some(ClientFault::Abandon)
        } else if x < p_abandon + p_malformed {
            self.counts.client_malformed += 1;
            Some(ClientFault::Malformed)
        } else if x < p_abandon + p_malformed + p_slow {
            self.counts.client_slowed += 1;
            let d = self
                .client_rng
                .uniform_duration(Nanos::from_nanos(1), self.plan.client_slow_max);
            Some(ClientFault::Slow(d))
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noisy_plan(seed: u64) -> FaultPlan {
        FaultPlan::new(seed)
            .with_packet_faults(0.1, 0.1, 0.1, Nanos::from_micros(100))
            .with_disk_faults(0.1, 0.1, Nanos::from_millis(1))
            .with_client_faults(0.1, 0.1, 0.1, Nanos::from_micros(500))
    }

    #[test]
    fn default_plan_injects_nothing_and_draws_nothing() {
        let mut inj = FaultInjector::new(&FaultPlan::default());
        for i in 0..1000 {
            let now = Nanos::from_micros(i);
            assert_eq!(inj.net_fault(now), None);
            assert_eq!(inj.disk_fault(now), None);
            assert_eq!(inj.client_fault(now), None);
        }
        assert_eq!(inj.counts().total(), 0);
    }

    #[test]
    fn same_seed_same_decisions() {
        let plan = noisy_plan(42);
        let mut a = FaultInjector::new(&plan);
        let mut b = FaultInjector::new(&plan);
        for i in 0..2000 {
            let now = Nanos::from_micros(i);
            assert_eq!(a.net_fault(now), b.net_fault(now));
            assert_eq!(a.disk_fault(now), b.disk_fault(now));
            assert_eq!(a.client_fault(now), b.client_fault(now));
        }
        assert_eq!(a.counts(), b.counts());
        assert!(a.counts().total() > 0, "10% probs must fire in 6000 draws");
    }

    #[test]
    fn different_seed_different_injection_sequence() {
        let mut a = FaultInjector::new(&noisy_plan(1));
        let mut b = FaultInjector::new(&noisy_plan(2));
        let mut differs = false;
        for i in 0..2000 {
            let now = Nanos::from_micros(i);
            if a.net_fault(now) != b.net_fault(now) {
                differs = true;
            }
        }
        assert!(differs, "distinct seeds must produce distinct sequences");
    }

    #[test]
    fn categories_use_independent_streams() {
        let plan = noisy_plan(7);
        // Interleaving disk draws must not change the net sequence.
        let mut pure = FaultInjector::new(&plan);
        let mut mixed = FaultInjector::new(&plan);
        for i in 0..500 {
            let now = Nanos::from_micros(i);
            let want = pure.net_fault(now);
            let _ = mixed.disk_fault(now);
            assert_eq!(mixed.net_fault(now), want);
        }
    }

    #[test]
    fn windows_scale_probabilities() {
        // Zero base probability, but a window multiplying by anything
        // still yields zero; a window on a nonzero base boosts it.
        let plan = FaultPlan::new(3)
            .with_packet_faults(0.01, 0.0, 0.0, Nanos::ZERO)
            .with_window(Nanos::from_millis(10), Nanos::from_millis(20), 100.0);
        assert_eq!(plan.factor_at(Nanos::from_millis(5)), 1.0);
        assert_eq!(plan.factor_at(Nanos::from_millis(15)), 100.0);
        assert_eq!(plan.factor_at(Nanos::from_millis(20)), 1.0);

        let mut inj = FaultInjector::new(&plan);
        let mut in_window = 0u64;
        let mut outside = 0u64;
        for i in 0..1000 {
            if inj.net_fault(Nanos::from_millis(15)).is_some() {
                in_window += 1;
            }
            let _ = i;
        }
        let mut inj2 = FaultInjector::new(&plan);
        for _ in 0..1000 {
            if inj2.net_fault(Nanos::from_millis(5)).is_some() {
                outside += 1;
            }
        }
        assert!(
            in_window > outside + 100,
            "window must amplify: {in_window} vs {outside}"
        );
    }

    #[test]
    fn delay_draws_bounded_by_max() {
        let plan = FaultPlan::new(9).with_packet_faults(0.0, 0.0, 1.0, Nanos::from_micros(50));
        let mut inj = FaultInjector::new(&plan);
        for i in 0..200 {
            match inj.net_fault(Nanos::from_micros(i)) {
                Some(NetFault::Delay(d)) => {
                    assert!(d >= Nanos::from_nanos(1) && d <= Nanos::from_micros(50));
                }
                other => panic!("p=1.0 must always delay, got {other:?}"),
            }
        }
    }
}
