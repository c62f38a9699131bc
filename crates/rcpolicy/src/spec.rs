//! Textual policy specs for CLIs and the A/B harness.
//!
//! A CPU *schedule* spec names an initial policy and zero or more mid-run
//! swaps: `"decay"`, `"edf"`, `"decay->edf@2s"`,
//! `"ml->stride@500ms->edf@4s"`. Durations accept `ns`, `us`, `ms`, and
//! `s` suffixes (a bare number means nanoseconds). A link spec is a
//! single qdisc name.

use simcore::Nanos;
use simnet::QdiscKind;

use crate::registry::CpuPolicyKind;

/// A CPU policy schedule: the boot policy plus timed mid-run swaps,
/// sorted by swap time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CpuSchedule {
    /// The policy the kernel boots with.
    pub initial: CpuPolicyKind,
    /// Mid-run swaps as (virtual time, policy to attach), sorted by time.
    pub swaps: Vec<(Nanos, CpuPolicyKind)>,
}

impl CpuSchedule {
    /// A short display label: policy names joined by `->`.
    pub fn label(&self) -> String {
        let mut s = self.initial.name().to_string();
        for (_, kind) in &self.swaps {
            s.push_str("->");
            s.push_str(kind.name());
        }
        s
    }
}

/// Parses a CPU policy name: `decay`, `ml` / `multilevel`, `stride`,
/// `lottery` / `lottery:SEED`, `edf`.
pub fn parse_cpu(s: &str) -> Option<CpuPolicyKind> {
    match s {
        "decay" | "decay-usage" => Some(CpuPolicyKind::DecayUsage),
        "ml" | "multilevel" | "multilevel-rc" => Some(CpuPolicyKind::MultiLevel),
        "stride" => Some(CpuPolicyKind::Stride),
        "lottery" => Some(CpuPolicyKind::Lottery(1)),
        "edf" => Some(CpuPolicyKind::Edf),
        _ => {
            let seed = s.strip_prefix("lottery:")?;
            Some(CpuPolicyKind::Lottery(seed.parse().ok()?))
        }
    }
}

/// Parses a link qdisc name: `fifo` or `wfq`.
pub fn parse_link(s: &str) -> Option<QdiscKind> {
    match s {
        "fifo" => Some(QdiscKind::Fifo),
        "wfq" => Some(QdiscKind::Wfq),
        _ => None,
    }
}

/// Parses a duration with an optional `ns`/`us`/`ms`/`s` suffix; a bare
/// number is nanoseconds. Fractions are not supported — use the next
/// finer unit.
pub fn parse_duration(s: &str) -> Option<Nanos> {
    let (digits, mul) = if let Some(d) = s.strip_suffix("ns") {
        (d, 1u64)
    } else if let Some(d) = s.strip_suffix("us") {
        (d, 1_000)
    } else if let Some(d) = s.strip_suffix("ms") {
        (d, 1_000_000)
    } else if let Some(d) = s.strip_suffix('s') {
        (d, 1_000_000_000)
    } else {
        (s, 1)
    };
    let n: u64 = digits.parse().ok()?;
    Some(Nanos::from_nanos(n.checked_mul(mul)?))
}

/// Parses a full CPU schedule spec: `POLICY(->POLICY@TIME)*`. Returns
/// `None` on any malformed segment, a swap without a time, or swap times
/// that do not strictly increase.
pub fn parse_cpu_schedule(s: &str) -> Option<CpuSchedule> {
    let mut parts = s.split("->");
    let initial = parse_cpu(parts.next()?)?;
    let mut swaps = Vec::new();
    let mut last = Nanos::ZERO;
    for part in parts {
        let (policy, time) = part.split_once('@')?;
        let kind = parse_cpu(policy)?;
        let at = parse_duration(time)?;
        if at <= last {
            return None;
        }
        last = at;
        swaps.push((at, kind));
    }
    Some(CpuSchedule { initial, swaps })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_names_parse() {
        assert_eq!(parse_cpu("decay"), Some(CpuPolicyKind::DecayUsage));
        assert_eq!(parse_cpu("ml"), Some(CpuPolicyKind::MultiLevel));
        assert_eq!(parse_cpu("stride"), Some(CpuPolicyKind::Stride));
        assert_eq!(parse_cpu("lottery"), Some(CpuPolicyKind::Lottery(1)));
        assert_eq!(parse_cpu("lottery:99"), Some(CpuPolicyKind::Lottery(99)));
        assert_eq!(parse_cpu("edf"), Some(CpuPolicyKind::Edf));
        assert_eq!(parse_cpu("cfs"), None);
        assert_eq!(parse_cpu("lottery:x"), None);
    }

    #[test]
    fn link_names_parse() {
        assert_eq!(parse_link("wfq"), Some(QdiscKind::Wfq));
        assert_eq!(parse_link("share"), None);
    }

    #[test]
    fn durations_parse_with_suffixes() {
        assert_eq!(parse_duration("2s"), Some(Nanos::from_secs(2)));
        assert_eq!(parse_duration("500ms"), Some(Nanos::from_millis(500)));
        assert_eq!(parse_duration("3us"), Some(Nanos::from_micros(3)));
        assert_eq!(parse_duration("7ns"), Some(Nanos::from_nanos(7)));
        assert_eq!(parse_duration("42"), Some(Nanos::from_nanos(42)));
        assert_eq!(parse_duration("1.5s"), None);
        assert_eq!(parse_duration(""), None);
    }

    #[test]
    fn schedules_parse_and_label() {
        let plain = parse_cpu_schedule("edf").unwrap();
        assert_eq!(plain.initial, CpuPolicyKind::Edf);
        assert!(plain.swaps.is_empty());
        assert_eq!(plain.label(), "edf");

        let sched = parse_cpu_schedule("decay->edf@2s").unwrap();
        assert_eq!(sched.initial, CpuPolicyKind::DecayUsage);
        assert_eq!(sched.swaps, vec![(Nanos::from_secs(2), CpuPolicyKind::Edf)]);
        assert_eq!(sched.label(), "decay-usage->edf");

        let multi = parse_cpu_schedule("ml->stride@500ms->edf@4s").unwrap();
        assert_eq!(multi.swaps.len(), 2);
    }

    #[test]
    fn malformed_schedules_rejected() {
        assert!(parse_cpu_schedule("decay->edf").is_none(), "missing time");
        assert!(parse_cpu_schedule("decay->edf@").is_none());
        assert!(parse_cpu_schedule("->edf@1s").is_none());
        assert!(
            parse_cpu_schedule("decay->edf@2s->stride@1s").is_none(),
            "times must increase"
        );
        assert!(parse_cpu_schedule("decay->edf@0s").is_none());
    }
}
