//! Kernel-memory isolation between tenants (`simmem` tentpole).
//!
//! §4.4 of the paper counts the kernel memory consumed on behalf of an
//! activity as part of that activity's resource bill. This experiment
//! pits two tenants against each other under a memory-configured kernel:
//!
//! - the **guaranteed** tenant runs a disk-backed web server whose working
//!   set fits comfortably in the buffer cache, so at steady state it serves
//!   almost entirely from memory;
//! - the **hog** tenant runs a process that leaks pinned kernel memory
//!   (`kmem_reserve`) and streams files through the cache, but its tenant
//!   container carries a small `mem_limit`.
//!
//! With memory as a charged, limited resource, the hog's pressure is
//! self-inflicted: reclaim steals the *hog's own* cache pages (traced as
//! `Reclaim` charged to the hog's subtree), and when reclaim cannot cover
//! a pinned allocation the container-targeted OOM killer seizes the hog's
//! reservations and notifies it with `AppEvent::MemKill`. The guaranteed
//! tenant's cache pages are never touched, so its hit rate and tail
//! latency stay within a few percent of a solo run.

use std::cell::RefCell;
use std::rc::Rc;

use httpsim::stats::shared_stats;
use httpsim::{EventDrivenServer, FileBacking, ServerConfig};
use rescon::Attributes;
use sched::TaskId;
use simcore::Nanos;
use simdisk::DiskParams;
use simos::{AppEvent, AppHandler, Kernel, KernelConfig, MemParams, SysCtx};

use super::disk_tenants::{tenant_addr, TenantWorld, TENANT_SHIFT};
use crate::clients::{ClientSpec, HttpClients};

/// Parameters of the two-tenant memory experiment.
#[derive(Clone, Debug)]
pub struct MemhogTenantsParams {
    /// Fixed CPU/disk shares of (guaranteed, hog).
    pub shares: (f64, f64),
    /// `mem_limit` on the hog tenant's subtree, in bytes.
    pub hog_mem_limit: u64,
    /// Closed-loop clients driving the guaranteed tenant.
    pub g_clients: usize,
    /// Documents each guaranteed client sweeps (its private slice).
    pub g_docs: u32,
    /// Guaranteed-tenant file size in KiB (working set = clients × docs ×
    /// size, sized to fit the cache).
    pub g_file_kib: u64,
    /// Bytes of pinned kernel memory the hog leaks per period.
    pub hog_chunk: u64,
    /// Hog leak/read period in microseconds.
    pub hog_period_us: u64,
    /// Distinct files the hog streams through the cache.
    pub hog_files: u32,
    /// Hog file size in KiB.
    pub hog_file_kib: u64,
    /// Buffer-cache capacity in bytes.
    pub cache_bytes: u64,
    /// Simulated run length.
    pub secs: u64,
}

impl Default for MemhogTenantsParams {
    fn default() -> Self {
        MemhogTenantsParams {
            shares: (0.7, 0.3),
            hog_mem_limit: 256 * 1024,
            g_clients: 8,
            g_docs: 16,
            g_file_kib: 4,
            hog_chunk: 16 * 1024,
            hog_period_us: 2_000,
            hog_files: 128,
            hog_file_kib: 8,
            cache_bytes: 2 * 1024 * 1024,
            secs: 10,
        }
    }
}

/// Guaranteed-tenant measurements for one run.
#[derive(Clone, Debug, serde::Serialize)]
pub struct TenantSnapshot {
    /// Windowed request throughput in req/s.
    pub throughput: f64,
    /// Mean windowed response time in ms.
    pub mean_latency_ms: f64,
    /// 99th-percentile windowed response time in ms.
    pub p99_ms: f64,
    /// Buffer-cache hit rate of the tenant's file reads.
    pub cache_hit_rate: f64,
}

/// What the hog observed from its side of the memory war.
#[derive(Clone, Debug, Default, serde::Serialize)]
pub struct HogSnapshot {
    /// Successful `kmem_reserve` calls.
    pub reserve_ok: u64,
    /// Reservations refused with `SysError::NoMem`.
    pub nomem: u64,
    /// `AppEvent::MemKill` notifications received.
    pub kills: u64,
    /// File reads completed.
    pub reads: u64,
}

/// Kernel-side memory counters at the end of a run.
#[derive(Clone, Debug, serde::Serialize)]
pub struct MemCounters {
    /// Live charged kernel memory at end of run, in bytes.
    pub total_bytes: u64,
    /// Cache pages stolen from over-limit subtrees.
    pub reclaims: u64,
    /// Bytes those steals returned.
    pub reclaimed_bytes: u64,
    /// Container-targeted OOM kills.
    pub oom_kills: u64,
    /// Hard allocations refused even after reclaim and OOM.
    pub refusals: u64,
    /// `MemPressure` events (charges landing above the pressure fraction).
    pub pressure_events: u64,
}

/// Result of the memory-isolation experiment: the guaranteed tenant solo
/// vs. next to the hog, plus the hog's and the kernel's view of the fight.
#[derive(Clone, Debug, serde::Serialize)]
pub struct MemhogTenantsResult {
    /// Guaranteed tenant running alone (baseline).
    pub solo: TenantSnapshot,
    /// Guaranteed tenant sharing the kernel with the hog.
    pub shared: TenantSnapshot,
    /// Hog-side counters from the shared run.
    pub hog: HogSnapshot,
    /// Kernel memory counters from the shared run.
    pub mem: MemCounters,
}

#[derive(Debug, Default)]
struct MemHogStats {
    reserve_ok: u64,
    nomem: u64,
    kills: u64,
    reads: u64,
}

type SharedHogStats = Rc<RefCell<MemHogStats>>;

/// A tenant that leaks pinned kernel memory and streams files through the
/// buffer cache on a fixed period, shrugging off OOM kills and carrying on.
struct MemHog {
    chunk: u64,
    period: Nanos,
    files: u32,
    file_kib: u64,
    file_base: u64,
    next_file: u32,
    stats: SharedHogStats,
}

impl AppHandler for MemHog {
    fn on_event(&mut self, sys: &mut SysCtx<'_>, _thread: TaskId, event: AppEvent) {
        match event {
            AppEvent::Start => {
                let deadline = sys.now() + self.period;
                sys.sleep_until(deadline, 0);
            }
            AppEvent::Timer { .. } => {
                match sys.kmem_reserve(self.chunk) {
                    Ok(()) => self.stats.borrow_mut().reserve_ok += 1,
                    Err(_) => self.stats.borrow_mut().nomem += 1,
                }
                let file = self.file_base + self.next_file as u64;
                self.next_file = (self.next_file + 1) % self.files.max(1);
                sys.read_file(file, self.file_kib * 1024, 1, None);
                let deadline = sys.now() + self.period;
                sys.sleep_until(deadline, 0);
            }
            AppEvent::FileRead { .. } => {
                self.stats.borrow_mut().reads += 1;
            }
            AppEvent::MemKill { .. } => {
                // The kernel seized our reservations and reset our charge;
                // keep leaking — each round trip exercises reclaim → OOM.
                self.stats.borrow_mut().kills += 1;
            }
            _ => {}
        }
    }
}

struct RunOutcome {
    tenant: TenantSnapshot,
    hog: HogSnapshot,
    mem: MemCounters,
}

fn run_once(params: &MemhogTenantsParams, with_hog: bool) -> RunOutcome {
    let secs = params.secs.max(4);
    let end = Nanos::from_secs(secs);
    let warmup = Nanos::from_secs(2).min(end / 4);

    let mut cfg = KernelConfig::resource_containers()
        .with_disk(DiskParams::default())
        .with_mem(MemParams::new());
    cfg.disk.buffer_cache_bytes = params.cache_bytes;
    let mut k = Kernel::new(cfg);

    let guaranteed = k
        .containers
        .create(
            None,
            Attributes::fixed_share(params.shares.0).named("guaranteed"),
        )
        .expect("guaranteed tenant");

    let g_stats = shared_stats();
    let server_cfg = ServerConfig {
        port: 8000,
        conn_parent: Some(guaranteed),
        container_per_connection: false,
        response_bytes: params.g_file_kib * 1024,
        files: FileBacking::Disk { file_base: 0 },
        ..ServerConfig::default()
    };
    k.spawn_process(
        Box::new(EventDrivenServer::new(server_cfg, g_stats.clone())),
        "guaranteed-httpd",
        Some(guaranteed),
        Attributes::time_shared(10),
        None,
    );

    let hog_stats: SharedHogStats = Rc::new(RefCell::new(MemHogStats::default()));
    if with_hog {
        let hog = k
            .containers
            .create(
                None,
                Attributes::fixed_share(params.shares.1)
                    .with_mem_limit(params.hog_mem_limit)
                    .named("memhog"),
            )
            .expect("hog tenant");
        k.spawn_process(
            Box::new(MemHog {
                chunk: params.hog_chunk,
                period: Nanos::from_micros(params.hog_period_us.max(1)),
                files: params.hog_files,
                file_kib: params.hog_file_kib,
                file_base: 1 << 32,
                next_file: 0,
                stats: hog_stats.clone(),
            }),
            "memhog",
            Some(hog),
            Attributes::time_shared(10),
            None,
        );
    }

    // Guaranteed-tenant clients: each sweeps a private slice of the
    // document space, sized so the union fits the buffer cache.
    let specs: Vec<ClientSpec> = (0..params.g_clients)
        .map(|i| {
            let mut s = ClientSpec::staticloop(tenant_addr(0, i), 0)
                .cycling_docs(params.g_docs)
                .starting_at(Nanos::from_micros(10 + 7 * i as u64));
            s.doc = i as u32 * params.g_docs;
            s.port = 8000;
            s
        })
        .collect();
    let clients = HttpClients::new(specs, warmup, end);
    for i in 0..clients.len() {
        k.arm_world_timer(i as u64 * 4, Nanos::from_micros(10 + 7 * i as u64));
    }
    let mut world = TenantWorld {
        tenants: vec![clients],
    };
    // The single tenant owns timer-tag block 0 of the shared TenantWorld
    // routing (clients live in 10.100.x.x), so no extra relabeling needed.
    debug_assert_eq!(0u64 << TENANT_SHIFT, 0);

    k.run(&mut world, end);

    let stats = g_stats.borrow();
    let m = &world.tenants[0].metrics;
    let tenant = TenantSnapshot {
        throughput: m.throughput(0),
        mean_latency_ms: m.mean_latency_ms(0),
        p99_ms: m.class(0).latency_ms.quantile(0.99),
        cache_hit_rate: stats.cache_hit_rate(),
    };
    let acct = k.mem_acct().expect("memory-configured kernel");
    let mem = MemCounters {
        total_bytes: acct.total(),
        reclaims: acct.reclaims,
        reclaimed_bytes: acct.reclaimed_bytes,
        oom_kills: acct.oom_kills,
        refusals: acct.refusals,
        pressure_events: acct.pressure_events,
    };
    let h = hog_stats.borrow();
    RunOutcome {
        tenant,
        hog: HogSnapshot {
            reserve_ok: h.reserve_ok,
            nomem: h.nomem,
            kills: h.kills,
            reads: h.reads,
        },
        mem,
    }
}

/// Runs the guaranteed tenant solo, then next to the hog, and reports both.
pub fn run_memhog_tenants(params: MemhogTenantsParams) -> MemhogTenantsResult {
    let solo = run_once(&params, false);
    let shared = run_once(&params, true);
    MemhogTenantsResult {
        solo: solo.tenant,
        shared: shared.tenant,
        hog: shared.hog,
        mem: shared.mem,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reduced() -> MemhogTenantsResult {
        run_memhog_tenants(MemhogTenantsParams {
            secs: 6,
            ..MemhogTenantsParams::default()
        })
    }

    #[test]
    fn hog_is_reclaimed_and_oom_killed() {
        let r = reduced();
        assert!(r.mem.reclaims > 0, "no cache pages reclaimed: {r:?}");
        assert!(r.mem.oom_kills > 0, "no container-targeted OOM: {r:?}");
        assert_eq!(
            r.mem.oom_kills, r.hog.kills,
            "every OOM kill should land on the hog: {r:?}"
        );
        assert!(r.mem.pressure_events > 0, "no pressure events: {r:?}");
        assert!(
            r.hog.reserve_ok > 0,
            "hog never got a reservation in: {r:?}"
        );
    }

    #[test]
    fn guaranteed_tenant_unaffected_by_hog() {
        let r = reduced();
        assert!(
            r.solo.cache_hit_rate > 0.9,
            "solo baseline not cache-resident: {r:?}"
        );
        assert!(
            r.shared.cache_hit_rate >= 0.95 * r.solo.cache_hit_rate,
            "hit rate degraded beyond 5%: {r:?}"
        );
        assert!(
            r.shared.p99_ms <= 1.05 * r.solo.p99_ms.max(0.01),
            "p99 degraded beyond 5%: {r:?}"
        );
        assert!(
            r.shared.throughput >= 0.95 * r.solo.throughput,
            "throughput degraded beyond 5%: {r:?}"
        );
    }
}
