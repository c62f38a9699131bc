//! Container attributes: scheduling parameters, resource limits, and
//! network QoS values (paper §4.1, §4.3, §4.4).

use simcore::Nanos;

use crate::error::{RcError, Result};

/// The scheduling parameters of a container (paper §4.3).
///
/// The prototype's multi-level scheduler supports two classes:
///
/// - **Fixed share**: the container (together with its children) is
///   guaranteed — and, when a [`CpuLimit`] is also set, restricted to — a
///   fraction of its parent's CPU allocation. Fixed-share containers may
///   have children.
/// - **Time shared**: the container competes with its siblings under
///   decay-usage scheduling at a numeric priority. A priority of zero means
///   "run only when nothing else wants the CPU" — the paper's SYN-flood
///   defense binds attacker traffic to such a container.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SchedPolicy {
    /// Decay-usage time sharing at the given numeric priority.
    ///
    /// Higher values mean more important. Priority 0 is special-cased by
    /// the schedulers as "starvable": it receives CPU only when no
    /// non-zero-priority work is runnable.
    TimeShared {
        /// Numeric priority; 0 = starvable background.
        priority: u32,
    },
    /// A guaranteed fraction of the parent's allocation.
    FixedShare {
        /// Guaranteed fraction in `(0, 1]` of the parent's CPU.
        share: f64,
    },
}

impl SchedPolicy {
    /// Returns the fixed share, if this is a fixed-share policy.
    pub fn share(&self) -> Option<f64> {
        match self {
            SchedPolicy::FixedShare { share } => Some(*share),
            SchedPolicy::TimeShared { .. } => None,
        }
    }

    /// Returns the numeric priority, if this is a time-shared policy.
    pub fn priority(&self) -> Option<u32> {
        match self {
            SchedPolicy::TimeShared { priority } => Some(*priority),
            SchedPolicy::FixedShare { .. } => None,
        }
    }

    /// Validates the policy parameters.
    pub fn validate(&self) -> Result<()> {
        match self {
            SchedPolicy::TimeShared { .. } => Ok(()),
            SchedPolicy::FixedShare { share } => {
                if *share > 0.0 && *share <= 1.0 {
                    Ok(())
                } else {
                    Err(RcError::InvalidShare)
                }
            }
        }
    }
}

impl Default for SchedPolicy {
    fn default() -> Self {
        SchedPolicy::TimeShared { priority: 10 }
    }
}

/// A restriction on total CPU consumption (paper §4.8: "limiting the total
/// CPU usage of the class").
///
/// Enforced by the multi-level scheduler as a token bucket: over any
/// `window`, the container subtree may consume at most `fraction × window`
/// of CPU time; when exhausted it is throttled until the bucket refills.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CpuLimit {
    /// Maximum CPU fraction in `(0, 1]`.
    pub fraction: f64,
    /// Averaging window over which the fraction is enforced.
    pub window: Nanos,
}

impl CpuLimit {
    /// Creates a limit of `fraction` of the CPU averaged over `window`.
    pub fn new(fraction: f64, window: Nanos) -> Self {
        CpuLimit { fraction, window }
    }

    /// Validates the limit parameters.
    pub fn validate(&self) -> Result<()> {
        if self.fraction > 0.0 && self.fraction <= 1.0 && !self.window.is_zero() {
            Ok(())
        } else {
            Err(RcError::InvalidLimit)
        }
    }
}

/// Network quality-of-service attributes (paper §4.1).
///
/// The simulated network subsystem uses `weight` to order protocol
/// processing between containers of equal scheduling priority, and
/// `sockbuf_limit` to cap socket-buffer memory charged to the container.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NetQos {
    /// Relative weight among equal-priority containers.
    pub weight: u32,
    /// Maximum socket-buffer bytes chargeable to this container.
    pub sockbuf_limit: Option<u64>,
}

impl Default for NetQos {
    fn default() -> Self {
        NetQos {
            weight: 1,
            sockbuf_limit: None,
        }
    }
}

/// The full attribute set of a container (paper §4.1, §4.6 "Container
/// attributes").
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Attributes {
    /// CPU scheduling parameters.
    pub policy: SchedPolicy,
    /// Optional hard restriction on CPU consumption.
    pub cpu_limit: Option<CpuLimit>,
    /// Optional limit on memory bytes charged to the container subtree.
    pub mem_limit: Option<u64>,
    /// Network QoS values.
    pub qos: NetQos,
    /// Optional per-request latency target. Deadline-aware CPU policies
    /// (`sched::EdfScheduler`) treat it as the relative deadline of work
    /// bound to this container's subtree; the rcspan SLO monitor uses the
    /// same value as the p99 objective, so one declared target drives
    /// both the policy and its verification.
    pub deadline: Option<Nanos>,
    /// Optional debug/billing label (the paper motivates accurate billing
    /// in §4.8).
    pub name: Option<String>,
}

impl Attributes {
    /// Creates time-shared attributes at the given priority.
    ///
    /// # Examples
    ///
    /// ```
    /// use rescon::{Attributes, SchedPolicy};
    ///
    /// let a = Attributes::time_shared(5);
    /// assert_eq!(a.policy, SchedPolicy::TimeShared { priority: 5 });
    /// ```
    pub fn time_shared(priority: u32) -> Self {
        Attributes {
            policy: SchedPolicy::TimeShared { priority },
            ..Attributes::default()
        }
    }

    /// Creates fixed-share attributes with the given guaranteed fraction.
    pub fn fixed_share(share: f64) -> Self {
        Attributes {
            policy: SchedPolicy::FixedShare { share },
            ..Attributes::default()
        }
    }

    /// Adds a CPU usage limit (builder style).
    pub fn with_cpu_limit(mut self, fraction: f64, window: Nanos) -> Self {
        self.cpu_limit = Some(CpuLimit::new(fraction, window));
        self
    }

    /// Adds a memory limit in bytes (builder style).
    pub fn with_mem_limit(mut self, bytes: u64) -> Self {
        self.mem_limit = Some(bytes);
        self
    }

    /// Sets the relative network transmit weight (builder style).
    ///
    /// A weight of zero is normalized to 1; the link scheduler divides
    /// bandwidth among competing containers in proportion to effective
    /// weights resolved over the hierarchy.
    pub fn with_net_weight(mut self, weight: u32) -> Self {
        self.qos.weight = weight.max(1);
        self
    }

    /// Caps the socket-buffer bytes chargeable to this container
    /// (builder style). With a finite-bandwidth link configured this is
    /// enforced as send backpressure.
    pub fn with_sockbuf_limit(mut self, bytes: u64) -> Self {
        self.qos.sockbuf_limit = Some(bytes);
        self
    }

    /// Declares a per-request latency target (builder style): the
    /// relative deadline deadline-aware CPU policies schedule against,
    /// and the objective SLO monitors verify.
    pub fn with_deadline(mut self, deadline: Nanos) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets a debug label (builder style).
    pub fn named(mut self, name: &str) -> Self {
        self.name = Some(name.to_string());
        self
    }

    /// Validates all attribute fields.
    pub fn validate(&self) -> Result<()> {
        self.policy.validate()?;
        if let Some(limit) = &self.cpu_limit {
            limit.validate()?;
        }
        if self.deadline == Some(Nanos::ZERO) {
            return Err(RcError::InvalidLimit);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_accessors() {
        assert_eq!(SchedPolicy::TimeShared { priority: 3 }.priority(), Some(3));
        assert_eq!(SchedPolicy::TimeShared { priority: 3 }.share(), None);
        assert_eq!(SchedPolicy::FixedShare { share: 0.5 }.share(), Some(0.5));
        assert_eq!(SchedPolicy::FixedShare { share: 0.5 }.priority(), None);
    }

    #[test]
    fn share_validation() {
        assert!(SchedPolicy::FixedShare { share: 0.0 }.validate().is_err());
        assert!(SchedPolicy::FixedShare { share: 1.5 }.validate().is_err());
        assert!(SchedPolicy::FixedShare { share: -0.1 }.validate().is_err());
        assert!(SchedPolicy::FixedShare { share: 1.0 }.validate().is_ok());
        assert!(SchedPolicy::FixedShare { share: 0.01 }.validate().is_ok());
    }

    #[test]
    fn limit_validation() {
        assert!(CpuLimit::new(0.3, Nanos::from_secs(1)).validate().is_ok());
        assert!(CpuLimit::new(0.0, Nanos::from_secs(1)).validate().is_err());
        assert!(CpuLimit::new(1.1, Nanos::from_secs(1)).validate().is_err());
        assert!(CpuLimit::new(0.3, Nanos::ZERO).validate().is_err());
    }

    #[test]
    fn builder_chain() {
        let a = Attributes::fixed_share(0.3)
            .with_cpu_limit(0.3, Nanos::from_secs(10))
            .with_mem_limit(1 << 20)
            .with_net_weight(3)
            .with_sockbuf_limit(64 << 10)
            .named("cgi-parent");
        assert!(a.validate().is_ok());
        assert_eq!(a.policy.share(), Some(0.3));
        assert_eq!(a.cpu_limit.unwrap().fraction, 0.3);
        assert_eq!(a.mem_limit, Some(1 << 20));
        assert_eq!(a.qos.weight, 3);
        assert_eq!(a.qos.sockbuf_limit, Some(64 << 10));
        assert_eq!(a.name.as_deref(), Some("cgi-parent"));
    }

    #[test]
    fn zero_net_weight_normalized() {
        assert_eq!(Attributes::time_shared(1).with_net_weight(0).qos.weight, 1);
    }

    #[test]
    fn attribute_validation_checks_all_fields() {
        let bad = Attributes::time_shared(1).with_cpu_limit(2.0, Nanos::from_secs(1));
        assert_eq!(bad.validate(), Err(RcError::InvalidLimit));
        let bad2 = Attributes::fixed_share(2.0);
        assert_eq!(bad2.validate(), Err(RcError::InvalidShare));
    }

    #[test]
    fn default_is_valid_timeshare() {
        let d = Attributes::default();
        assert!(d.validate().is_ok());
        assert!(matches!(d.policy, SchedPolicy::TimeShared { .. }));
    }
}
