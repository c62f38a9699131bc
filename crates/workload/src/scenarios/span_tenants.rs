//! Two-tenant tail-latency attribution scenario for `rcspan`.
//!
//! A *paid* tenant (fixed share 0.7, transmit weight 3) serves small
//! mostly-cached documents; a *free* tenant (share 0.3, weight 1, a tight
//! kernel-memory limit) serves a large document sweep off the simulated
//! disk through a finite-bandwidth link, reserving per-request kernel
//! buffers that force cache reclaim — so its requests accumulate time in
//! every phase of the span taxonomy: SYN/accept queues, CPU, disk queue
//! and service, reclaim stalls, and the transmit queue and wire.
//!
//! The scenario registers one latency SLO per tenant with the `rctrace`
//! monitor: the paid tenant's objective is generous and met; the free
//! tenant's is deliberately far below what a saturated disk can deliver,
//! so the run *deterministically* flags SLO violations — the injected
//! signal the span tests and the `rcbench span` blame report
//! assert on.

use httpsim::stats::shared_stats;
use httpsim::{ClassSpec, EventDrivenServer, FileBacking, ServerConfig};
use rctrace::SloSpec;
use rescon::{Attributes, ContainerId};
use simcore::Nanos;
use simos::{Kernel, KernelConfig, MemParams, QdiscKind, SchedPolicyKind};

use super::{tenant_client, Window};
use crate::clients::ClientSpec;

/// Response sizes in KiB of [paid, free].
const RESPONSE_KIB: [u64; 2] = [4, 32];
/// Documents each tenant sweeps: the paid tenant's set fits the buffer
/// cache, the free tenant's defeats it.
const DOCS: [u32; 2] = [64, 4096];
/// Link bandwidth in Mbit/s.
const LINK_MBPS: u64 = 80;
/// Buffer-cache capacity in bytes.
const CACHE_BYTES: u64 = 2 * 1024 * 1024;
/// Kernel-memory limit of the free tenant's subtree.
const FREE_MEM_LIMIT: u64 = 512 * 1024;
/// Kernel buffers reserved per in-flight request.
const REQUEST_KMEM: u64 = 64 * 1024;
/// Kernel CPU per KiB of cache reclaimed (the modelled stall).
const RECLAIM_COST_PER_KIB: Nanos = Nanos::from_micros(2);

/// Parameters of the two-tenant span scenario.
#[derive(Clone, Debug)]
pub struct SpanTenantsParams {
    /// Closed-loop clients driving (paid, free).
    pub clients: (usize, usize),
    /// Latency SLOs: (paid p99 bound, free p99 bound). The free bound is
    /// the injected violation — set it below the disk's service floor.
    /// The same bounds double as the tenants' declared latency-target
    /// attributes, which the EDF CPU policy schedules against.
    pub slo_ms: (u64, u64),
    /// Simulated run length.
    pub secs: u64,
    /// Serve the paid tenant's documents from memory instead of disk.
    /// The A/B harness sets this so the paid tenant's tail is bounded by
    /// CPU scheduling (what a CPU policy can move) rather than by disk
    /// queueing behind the free tenant's sweep (what it cannot).
    pub paid_cached: bool,
    /// Per-request parse/render CPU of the paid tenant's server; `None`
    /// keeps the server default. The A/B harness raises this to model a
    /// dynamic-content tenant whose latency is CPU-scheduling-bound.
    pub paid_parse_cost: Option<Nanos>,
    /// CPU policy the kernel boots with; `None` keeps the config default.
    pub scheduler: Option<SchedPolicyKind>,
    /// Mid-run CPU policy swaps as (virtual time, policy), sorted by
    /// time. Empty keeps the run on the boot policy throughout.
    pub cpu_swaps: Vec<(Nanos, SchedPolicyKind)>,
}

impl Default for SpanTenantsParams {
    fn default() -> Self {
        SpanTenantsParams {
            clients: (6, 12),
            slo_ms: (400, 2),
            secs: 8,
            paid_cached: false,
            paid_parse_cost: None,
            scheduler: None,
            cpu_swaps: Vec::new(),
        }
    }
}

/// Result of the two-tenant span scenario.
#[derive(Clone, Debug)]
pub struct SpanTenantsResult {
    /// Windowed request throughput per tenant: [paid, free].
    pub throughputs: Vec<f64>,
    /// Mean response time per tenant in ms: [paid, free].
    pub latencies_ms: Vec<f64>,
    /// p99 response time per tenant in ms: [paid, free].
    pub p99_ms: Vec<f64>,
    /// Cache pages stolen during the run (non-zero: the free tenant paid
    /// reclaim stalls).
    pub reclaims: u64,
    /// Virtual end time of the run, in nanoseconds.
    pub end_ns: u64,
}

/// Tenant display names, in tenant order. The SLO registration resolves
/// them through [`rescon::ContainerTable::find_by_name`], exactly as an
/// operator's declarative config would.
pub const TENANT_NAMES: [&str; 2] = ["paid", "free"];

/// Runs the two-tenant span scenario. When an `rctrace` session is
/// active the per-tenant SLOs are registered with its online monitor;
/// span recording itself is the session's choice ([`rctrace::TraceConfig::spans`]).
pub fn run_span_tenants(params: SpanTenantsParams) -> SpanTenantsResult {
    let window = Window::new(params.secs);
    let end = window.end;

    let mut cfg = KernelConfig::resource_containers()
        .with_link(LINK_MBPS * 1_000_000, QdiscKind::Wfq)
        .with_mem(MemParams::new().with_reclaim_cost_per_kb(RECLAIM_COST_PER_KIB));
    cfg.disk.buffer_cache_bytes = CACHE_BYTES;
    if let Some(kind) = params.scheduler {
        cfg = cfg.with_scheduler(kind);
    }
    let mut k = Kernel::new(cfg);

    let shares = [0.7, 0.3];
    let weights = [3u32, 1u32];
    let slo_ms = [params.slo_ms.0, params.slo_ms.1];
    let tenants: Vec<ContainerId> = (0..2)
        .map(|g| {
            let mut attrs = Attributes::fixed_share(shares[g])
                .named(TENANT_NAMES[g])
                .with_net_weight(weights[g]);
            // Declare the SLO bound as the tenant's latency target: only
            // the EDF CPU policy reads it, so runs under other policies
            // are unaffected.
            if slo_ms[g] > 0 {
                attrs = attrs.with_deadline(Nanos::from_millis(slo_ms[g]));
            }
            if g == 1 {
                attrs = attrs.with_mem_limit(FREE_MEM_LIMIT);
            }
            k.containers.create(None, attrs).expect("tenant container")
        })
        .collect();

    for (g, &tenant) in tenants.iter().enumerate() {
        let mut cfg = ServerConfig {
            port: 8000 + g as u16,
            conn_parent: Some(tenant),
            container_per_connection: false,
            // One named class per tenant: its container (a child of the
            // tenant) is the principal every request's span and latency
            // record is attributed to, and the anchor the SLO monitor
            // resolves by name below.
            classes: vec![ClassSpec {
                name: format!("{}-web", TENANT_NAMES[g]),
                ..ClassSpec::default_class()
            }],
            response_bytes: RESPONSE_KIB[g] * 1024,
            files: if g == 0 && params.paid_cached {
                FileBacking::AlwaysCached
            } else {
                FileBacking::Disk {
                    file_base: (g as u64) << 32,
                }
            },
            request_kmem: REQUEST_KMEM,
            ..ServerConfig::default()
        };
        if g == 0 {
            if let Some(cost) = params.paid_parse_cost {
                cfg.parse_cost = cost;
            }
        }
        k.spawn_process(
            Box::new(EventDrivenServer::new(cfg, shared_stats())),
            &format!("tenant-httpd-{g}"),
            Some(tenant),
            Attributes::time_shared(10),
            None,
        );
    }

    let n_clients = [params.clients.0, params.clients.1];
    let specs: Vec<ClientSpec> = (0..tenants.len())
        .flat_map(|g| {
            (0..n_clients[g]).map(move |i| ClientSpec {
                doc: i as u32 * DOCS[g],
                ..tenant_client(g, i).cycling_docs(DOCS[g])
            })
        })
        .collect();
    let mut world = window.clients(&mut k, specs);

    // Let the servers boot (they create their class containers at first
    // schedule, before the first client timer at 10 us), then register
    // the declarative SLOs — resolved by class *name* against the live
    // hierarchy, exactly as an operator's config file would (the ids are
    // not knowable up front).
    k.run(&mut world, Nanos::from_micros(5));
    if rctrace::active() {
        let resolve = |k: &Kernel| {
            TENANT_NAMES
                .iter()
                .zip(slo_ms)
                .filter_map(|(&name, ms)| {
                    let id = k.containers.find_by_name(&format!("{name}-web"))?;
                    Some(SloSpec {
                        container: id.as_u64(),
                        label: name.to_string(),
                        quantile: 0.99,
                        threshold: Nanos::from_millis(ms),
                    })
                })
                .collect::<Vec<_>>()
        };
        let mut specs = resolve(&k);
        // Policies that strictly prioritize one tenant (EDF runs the
        // tighter-deadline server's boot to completion, and keeps
        // preempting the other whenever it wakes) create the second
        // class container well after 5 us; step forward until both
        // classes resolve. The default policy resolves both at 5 us, so
        // this loop never runs there and the default path is unchanged.
        let mut boot = 5u64;
        while specs.len() < TENANT_NAMES.len() && boot < 500 {
            boot += if boot < 10 { 1 } else { 10 };
            k.run(&mut world, Nanos::from_micros(boot));
            specs = resolve(&k);
        }
        assert_eq!(specs.len(), 2, "tenant web classes not found by name");
        rctrace::register_slos(specs);
    }
    // Segment the run at each requested swap point. With no swaps this
    // is the single `k.run(.., end)` the goldens were recorded against.
    for &(at, kind) in &params.cpu_swaps {
        let at = at.min(end);
        k.run(&mut world, at);
        k.set_cpu_policy(kind);
    }
    k.run(&mut world, end);

    let reclaims = k.mem_acct().map(|a| a.reclaims).unwrap_or(0);
    SpanTenantsResult {
        throughputs: (0..tenants.len())
            .map(|g| world.metrics.throughput(g))
            .collect(),
        latencies_ms: (0..tenants.len())
            .map(|g| world.metrics.mean_latency_ms(g))
            .collect(),
        p99_ms: (0..tenants.len())
            .map(|g| world.metrics.class(g).latency_ms.quantile(0.99))
            .collect(),
        reclaims,
        end_ns: end.as_nanos(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_tenants_make_progress_and_free_pays_reclaim() {
        let r = run_span_tenants(SpanTenantsParams {
            clients: (4, 8),
            secs: 4,
            ..SpanTenantsParams::default()
        });
        assert!(r.throughputs[0] > 0.0, "paid tenant starved: {r:?}");
        assert!(r.throughputs[1] > 0.0, "free tenant starved: {r:?}");
        assert!(r.reclaims > 0, "free tenant never hit reclaim: {r:?}");
        assert!(
            r.p99_ms[1] > r.p99_ms[0],
            "free tenant tail should dominate: {r:?}"
        );
    }

    #[test]
    fn mid_run_cpu_swap_keeps_both_tenants_running() {
        let r = run_span_tenants(SpanTenantsParams {
            clients: (4, 8),
            secs: 4,
            scheduler: Some(SchedPolicyKind::DecayUsage),
            cpu_swaps: vec![(Nanos::from_secs(2), SchedPolicyKind::Edf)],
            ..SpanTenantsParams::default()
        });
        assert!(r.throughputs[0] > 0.0, "paid tenant starved: {r:?}");
        assert!(r.throughputs[1] > 0.0, "free tenant starved: {r:?}");
    }
}
