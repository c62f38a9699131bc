//! Host-time benchmark of the resource-containers simulator.
//!
//! Four seeded workloads are composed from the simulator crates' public
//! APIs ([`sim`]). A run derives [`SUB_SEEDS`] seeds from its seed and
//! either times rounds of episodes with tracing off (the end-to-end
//! metrics) or adds repeated traced and counting passes plus a scheduler
//! probe (the per-layer metrics, [`layers`]). Every pass of one workload
//! and seed steps the same slices and must reproduce the same digest of
//! simulated outputs. See `README.md` for the workloads, the metric
//! definitions and the measurement notes.

pub mod layers;
pub mod sim;

use std::fmt::Write as _;
use std::time::Instant;

use simcore::{Nanos, SimRng};

use crate::layers::{Spans, Tally};
use crate::sim::{Fnv, Instance, Requests};

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// §5.3 unmodified kernel, one event-driven server, 24 clients.
    HttpBaseline,
    /// RC kernel, container per connection, ~256 Figure 11 clients.
    ConnContainers,
    /// RC kernel, 4 CPUs, memory accounting, WFQ link, disk tenant.
    TenantsSmpIo,
    /// 8-node cluster, 4000 frontend-hosted clients thinking ~1 s.
    ClusterSparse,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::HttpBaseline,
        Workload::ConnContainers,
        Workload::TenantsSmpIo,
        Workload::ClusterSparse,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::HttpBaseline => "http_baseline",
            Workload::ConnContainers => "conn_containers",
            Workload::TenantsSmpIo => "tenants_smp_io",
            Workload::ClusterSparse => "cluster_sparse",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Simulated length of one episode and the number of equal slices it
    /// is stepped in. An episode takes roughly 0.4 host seconds on a
    /// 2-core x86-64 VM, so a 20 s run times six or seven per sub-seed.
    pub fn episode(self) -> Episode {
        let (ms, slices) = match self {
            Workload::HttpBaseline => (80_000, 80),
            Workload::ConnContainers => (600, 30),
            Workload::TenantsSmpIo => (800, 40),
            Workload::ClusterSparse => (2_000, 20),
        };
        Episode {
            length: Nanos::from_millis(ms),
            slices,
        }
    }
}

/// The simulated span every pass of a run steps, and its slicing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Episode {
    /// Simulated length.
    pub length: Nanos,
    /// Number of equal `step_until` / `World::run` slices.
    pub slices: u32,
}

impl Episode {
    /// End of slice `s` (1-based).
    fn boundary(self, s: u32) -> Nanos {
        Nanos::from_nanos((self.length.as_nanos() as u128 * s as u128 / self.slices as u128) as u64)
    }
}

/// What one invocation measures.
#[derive(Clone, Copy, Debug)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Seed from which every random input is drawn.
    pub seed: u64,
    /// Host seconds of timed episodes (at least one round runs).
    pub seconds: f64,
    /// `false`: end-to-end metrics; `true`: per-layer metrics.
    pub trace: bool,
    /// The episode every pass steps.
    pub episode: Episode,
}

/// One named metric.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Per-slice host time of the traced run: the slice and its child spans
/// as `(calls, ns)`.
#[derive(Clone, Copy, Debug)]
pub struct SliceSpans {
    /// Host ns of the `step_until` / `World::run` call.
    pub step_ns: u64,
    /// `AppHandler::on_event` spans inside it.
    pub httpsim: (u64, u64),
    /// `World` callback spans inside it.
    pub workload: (u64, u64),
}

/// Everything one invocation found.
#[derive(Debug, Default)]
pub struct Report {
    /// Every digest and invariant check passed.
    pub correct: bool,
    /// Client requests attempted in the timed episodes.
    pub attempted: u64,
    /// Requests abandoned (all of them when `correct` is false).
    pub failed: u64,
    /// Digest of the simulated outputs of one episode.
    pub digest: u64,
    /// End-to-end or per-layer metrics.
    pub metrics: Vec<Metric>,
    /// Per-slice spans of the traced run (empty without `trace`).
    pub slices: Vec<SliceSpans>,
    /// Failed checks, one line each.
    pub errors: Vec<String>,
}

impl Report {
    /// The value of a metric.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        s.push_str("}}");
        s
    }

    fn fail(&mut self, msg: String) {
        self.errors.push(msg);
    }
}

/// Median of `v` (sorted in place), the mean of the middle two when the
/// length is even; 0 when empty.
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    (v[(n - 1) / 2] + v[n / 2]) / 2.0
}

/// Seeds each run derives from `--seed` and steps in turn. One seed's
/// trajectory moves the host time of `conn_containers` and
/// `tenants_smp_io` by up to ±15% at the same simulated work, so a run
/// averages over several.
pub const SUB_SEEDS: usize = 8;

/// Trace-ring capacity of the counting pass; one slice must fit.
const RING: usize = 1 << 21;

/// The seeds of a run's episodes, drawn from `SimRng::seed_from(seed)`.
pub fn sub_seeds(seed: u64) -> [u64; SUB_SEEDS] {
    let mut rng = SimRng::seed_from(seed);
    std::array::from_fn(|_| rng.uniform_u64(0, u64::MAX))
}

/// The run's `sim_digest`: the digests of its sub-seed episodes, hashed
/// in order.
fn combine(digests: &[u64]) -> u64 {
    let mut h = Fnv::new();
    for &d in digests {
        h.u64(d);
    }
    h.0
}

/// One pass over an episode.
struct Pass {
    inst: Instance,
    step_s: f64,
}

impl Pass {
    fn digest_check(&self, name: &str, expect: u64, r: &mut Report) {
        let got = self.inst.digest();
        if got != expect {
            r.fail(format!(
                "{name} digest {got:016x} differs from the timed run's {expect:016x}"
            ));
        }
    }
}

/// Times one set-up of the episode for `seed`.
fn setup(o: &Options, seed: u64, spans: Option<&Spans>) -> (Instance, f64) {
    let t = Instant::now();
    let inst = Instance::setup(o.workload, seed, o.episode.length, spans);
    (inst, t.elapsed().as_secs_f64())
}

/// A pass with tracing off and no wrappers. Returns the pass, its set-up
/// time and the host seconds of each slice.
fn timed_pass(o: &Options, seed: u64) -> (Pass, f64, Vec<f64>) {
    let (mut inst, setup_s) = setup(o, seed, None);
    let mut slices = Vec::with_capacity(o.episode.slices as usize);
    let t = Instant::now();
    for s in 1..=o.episode.slices {
        let t0 = Instant::now();
        inst.step(o.episode.boundary(s));
        slices.push(t0.elapsed().as_secs_f64());
    }
    let pass = Pass {
        inst,
        step_s: t.elapsed().as_secs_f64(),
    };
    (pass, setup_s, slices)
}

/// A pass with every server and the clients inside timing wrappers.
/// Returns the pass, the per-slice spans, and the benchmark's own loop
/// time between slices in ns.
fn traced_pass(o: &Options, seed: u64) -> (Pass, Vec<SliceSpans>, u64) {
    let spans = Spans::default();
    let (mut inst, _) = setup(o, seed, Some(&spans));
    let mut log = Vec::with_capacity(o.episode.slices as usize);
    let mut loop_ns = 0u64;
    let outer = Instant::now();
    for s in 1..=o.episode.slices {
        let t0 = Instant::now();
        inst.step(o.episode.boundary(s));
        let t1 = Instant::now();
        log.push(SliceSpans {
            step_ns: (t1 - t0).as_nanos() as u64,
            httpsim: spans.httpsim.take(),
            workload: spans.workload.take(),
        });
        loop_ns += t1.elapsed().as_nanos() as u64;
    }
    let pass = Pass {
        inst,
        step_s: outer.elapsed().as_secs_f64(),
    };
    (pass, log, loop_ns)
}

/// A pass under `rctrace` sessions, one per slice (one per node and slice
/// in the cluster), whose trace rings are tallied and discarded after each
/// slice. Returns the pass, the tally and the peak live container count
/// of any one kernel.
fn counting_pass(o: &Options, seed: u64) -> (Pass, Tally, u64) {
    let cfg = rctrace::TraceConfig {
        ring_capacity: RING,
        ..rctrace::TraceConfig::default()
    };
    let (mut inst, _) = setup(o, seed, None);
    let mut tally = Tally::default();
    let mut peak = 0;
    let t = Instant::now();
    for s in 1..=o.episode.slices {
        let live: Vec<u64> = inst
            .kernels()
            .iter()
            .map(|k| k.containers.len() as u64)
            .collect();
        let until = o.episode.boundary(s);
        let sessions = match inst.cluster_mut() {
            Some(c) => {
                c.start_tracing(cfg);
                c.run(until);
                c.finish_tracing().into_iter().map(|(_, s)| s).collect()
            }
            None => {
                rctrace::start(cfg);
                inst.step(until);
                rctrace::finish().into_iter().collect::<Vec<_>>()
            }
        };
        for (session, live) in sessions.iter().zip(live) {
            peak = peak.max(tally.add(&session.trace, live));
        }
    }
    let pass = Pass {
        inst,
        step_s: t.elapsed().as_secs_f64(),
    };
    (pass, tally, peak)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

fn check(p: &Pass, name: &str, r: &mut Report) {
    if let Err(e) = p.inst.check() {
        r.fail(format!("{name}: {e}"));
    }
}

fn add_requests(r: &mut Report, q: Requests) {
    r.attempted += q.attempted;
    r.failed += q.abandoned;
}

/// Runs one invocation. Never panics on its own account; a panic inside
/// the simulator propagates to the caller.
pub fn run(o: &Options) -> Report {
    let mut r = if o.trace {
        run_layers(o)
    } else {
        run_end_to_end(o)
    };
    r.correct = r.errors.is_empty();
    if !r.correct {
        r.failed = r.attempted;
    }
    r
}

/// Rounds of one timed episode per sub-seed until `seconds` have passed,
/// then one counting pass that must reproduce the first sub-seed's digest.
fn run_end_to_end(o: &Options) -> Report {
    let seeds = sub_seeds(o.seed);
    let mut r = Report::default();
    // The episodes of one sub-seed set up and step identical work, so
    // `setups[k]` holds the fastest set-up of seed `k` and `slices[k][s]`
    // the samples of slice `s` of seed `k`.
    let mut setups = [f64::INFINITY; SUB_SEEDS];
    let mut slices = vec![vec![Vec::new(); o.episode.slices as usize]; SUB_SEEDS];
    let mut digests = [0; SUB_SEEDS];
    let mut events = 0;
    let mut episodes = 0;
    let started = Instant::now();
    loop {
        let k = episodes % SUB_SEEDS;
        let (p, setup_s, times) = timed_pass(o, seeds[k]);
        check(&p, "timed run", &mut r);
        let digest = p.inst.digest();
        if episodes < SUB_SEEDS {
            digests[k] = digest;
            events += p.inst.events();
        } else if digest != digests[k] {
            r.fail(format!(
                "episode digest {digest:016x} differs from its seed's first episode's {:016x}",
                digests[k]
            ));
        }
        episodes += 1;
        add_requests(&mut r, p.inst.requests());
        setups[k] = setups[k].min(setup_s);
        for (samples, t) in slices[k].iter_mut().zip(times) {
            samples.push(t);
        }
        eprintln!(
            "episode {episodes} (seed {k}): set-up {setup_s:.9} s, stepping {:.4} s",
            p.step_s
        );
        if episodes % SUB_SEEDS == 0 && started.elapsed().as_secs_f64() >= o.seconds {
            break;
        }
    }
    r.digest = combine(&digests);
    let rss = peak_rss_mib();
    let (counted, _, _) = counting_pass(o, seeds[0]);
    counted.digest_check("counting pass", digests[0], &mut r);
    // Host seconds of one round of episodes, uncontended: contention can
    // only slow identical work, so the fastest sample of each slice (and
    // of each set-up) is the one nearest the program's own cost
    // (README.md, "Measurement notes").
    let round_s: f64 = slices
        .iter()
        .flatten()
        .map(|samples| samples.iter().copied().fold(f64::INFINITY, f64::min))
        .sum();
    let m = |name, value, unit| Metric { name, value, unit };
    let sim_s = SUB_SEEDS as f64 * o.episode.length.as_secs_f64();
    r.metrics = vec![
        m("sim_s_per_s", sim_s / round_s, "s/s"),
        m("events_per_s", events as f64 / round_s, "1/s"),
        m(
            "setup_s",
            setups.iter().sum::<f64>() / SUB_SEEDS as f64,
            "s",
        ),
        m("peak_rss_mib", rss, "MiB"),
    ];
    r
}

/// One timed episode per sub-seed (their digests form `sim_digest`), then
/// rounds of one timed, one traced and one counting pass of the first
/// sub-seed until `seconds` have passed, and the scheduler probe. Each
/// kind of pass is represented by its fastest episode, as in the
/// end-to-end run; the first episodes of a process run cold.
fn run_layers(o: &Options) -> Report {
    let started = Instant::now();
    let seeds = sub_seeds(o.seed);
    let mut r = Report::default();
    let mut digests = [0; SUB_SEEDS];
    for (k, &seed) in seeds.iter().enumerate() {
        let (p, _, _) = timed_pass(o, seed);
        check(&p, "timed run", &mut r);
        digests[k] = p.inst.digest();
        add_requests(&mut r, p.inst.requests());
    }
    r.digest = combine(&digests);

    let mut timed_s = f64::INFINITY;
    let mut fastest_traced: Option<(Pass, Vec<SliceSpans>, u64)> = None;
    let mut fastest_counted: Option<(Pass, Tally, u64)> = None;
    loop {
        let (timed, _, _) = timed_pass(o, seeds[0]);
        timed.digest_check("timed run", digests[0], &mut r);
        timed_s = timed_s.min(timed.step_s);
        let traced = traced_pass(o, seeds[0]);
        let traced_s = traced.0.step_s;
        check(&traced.0, "traced run", &mut r);
        traced.0.digest_check("traced run", digests[0], &mut r);
        if fastest_traced
            .as_ref()
            .is_none_or(|f| traced_s < f.0.step_s)
        {
            fastest_traced = Some(traced);
        }
        let counted = counting_pass(o, seeds[0]);
        let counted_s = counted.0.step_s;
        check(&counted.0, "counting pass", &mut r);
        counted.0.digest_check("counting pass", digests[0], &mut r);
        if fastest_counted
            .as_ref()
            .is_none_or(|f| counted_s < f.0.step_s)
        {
            fastest_counted = Some(counted);
        }
        eprintln!(
            "stepping (s): timed {:.4}, traced {traced_s:.4}, counting {counted_s:.4}",
            timed.step_s
        );
        if started.elapsed().as_secs_f64() >= o.seconds {
            break;
        }
    }
    let (traced, log, loop_ns) = fastest_traced.expect("at least one round");
    let (counted, tally, live_peak) = fastest_counted.expect("at least one round");
    if tally.dropped > 0 {
        r.fail(format!("trace ring evicted {} events", tally.dropped));
    }

    let sum = |f: fn(&SliceSpans) -> (u64, u64)| {
        log.iter()
            .map(f)
            .fold((0u64, 0u64), |a, b| (a.0 + b.0, a.1 + b.1))
    };
    // Self time is a span minus its children, so the self times plus the
    // benchmark's own time add up to the traced stepping time by
    // construction. The wrappers' clock reads are moved from the layers
    // they fall in to the benchmark's own time.
    let step_ns: u64 = log.iter().map(|s| s.step_ns).sum();
    let (upcalls, app_ns) = sum(|s| s.httpsim);
    let (callbacks, world_ns) = sum(|s| s.workload);
    let (inside, outside) = layers::wrapper_ns();
    let app_ns = (app_ns as f64 - upcalls as f64 * inside).max(0.0);
    let world_ns = (world_ns as f64 - callbacks as f64 * inside).max(0.0);
    let wrapped = step_ns as f64 - app_ns - world_ns;
    let self_ns = (wrapped - (upcalls + callbacks) as f64 * outside).max(0.0);
    let bench_ns = loop_ns as f64 + wrapped - self_ns;

    let inst = &counted.inst;
    let events = inst.events();
    let per_event = |n: u64| n as f64 / events.max(1) as f64;
    let per_call = |x: f64, n: u64| x / n.max(1) as f64;
    let kernels = inst.kernels();
    let total = |f: &dyn Fn(&simos::Kernel) -> u64| kernels.iter().map(|k| f(k)).sum::<u64>();
    let (self_kernel, self_cluster) = if inst.cluster().is_some() {
        (0.0, self_ns)
    } else {
        (self_ns, 0.0)
    };
    let (hits, misses) = kernels.iter().fold((0, 0), |(h, m), k| {
        let (kh, km, _, _) = k.disk_cache.stats();
        (h + kh, m + km)
    });
    let link_busy = total(&|k| k.link_totals().0.as_nanos());
    let link_time = total(&|k| {
        if k.cfg.net.link.is_some() {
            k.clock().as_nanos()
        } else {
            0
        }
    });
    let mem = |f: fn(&simos::MemAccountant) -> u64| total(&|k| k.mem_acct().map_or(0, f));
    let (lane_pkts, forwarded, unroutable) = inst.cluster().map_or((0, 0, 0), |c| {
        let fe = simcluster::FRONTEND;
        let lanes = (0..c.len() as u32)
            .flat_map(|n| {
                let n = simcluster::NodeId(n);
                [c.lane(n, fe), c.lane(fe, n)]
            })
            .flatten()
            .map(|l| l.pkts)
            .sum();
        (
            lanes,
            c.frontend.stats.forwarded,
            c.frontend.stats.unroutable,
        )
    });
    let pick_ns = layers::probe_pick_ns(o.workload, live_peak);
    let failed_frac = if r.errors.is_empty() {
        per_call(r.failed as f64, r.attempted)
    } else {
        1.0
    };

    let m = |name, value, unit| Metric { name, value, unit };
    r.metrics = vec![
        m("simos.self_s", self_kernel * 1e-9, "s"),
        m("simos.ns_per_event", per_call(self_kernel, events), "ns"),
        m("sched.pick_ns", pick_ns, "ns"),
        m("httpsim.self_s", app_ns * 1e-9, "s"),
        m("httpsim.ns_per_upcall", per_call(app_ns, upcalls), "ns"),
        m("workload.self_s", world_ns * 1e-9, "s"),
        m(
            "workload.ns_per_callback",
            per_call(world_ns, callbacks),
            "ns",
        ),
        m("simcluster.self_s", self_cluster * 1e-9, "s"),
        m(
            "simcluster.ns_per_event",
            per_call(self_cluster, events),
            "ns",
        ),
        m("bench.self_s", bench_ns * 1e-9, "s"),
        m("bench.wrapper_overhead_x", traced.step_s / timed_s, "x"),
        m("rctrace.overhead_x", counted.step_s / timed_s, "x"),
        m("rctrace.dropped", tally.dropped as f64, "count"),
        m("simcore.events", events as f64, "count"),
        m("sched.picks_per_event", per_event(tally.picks), "ratio"),
        m(
            "sched.ctx_per_event",
            per_event(total(&|k| k.stats().ctx_switches)),
            "ratio",
        ),
        m(
            "sched.migrations",
            total(&|k| k.stats().migrations) as f64,
            "count",
        ),
        m("rescon.live_containers_peak", live_peak as f64, "count"),
        m(
            "rescon.charges_per_event",
            per_event(tally.charges),
            "ratio",
        ),
        m(
            "simnet.pkts_per_event",
            per_event(total(&|k| k.stats().pkts_in + k.stats().pkts_out)),
            "ratio",
        ),
        m(
            "simnet.early_drops",
            total(&|k| k.stats().early_drops) as f64,
            "count",
        ),
        m(
            "simnet.link_busy_frac",
            per_call(link_busy as f64, link_time),
            "ratio",
        ),
        m(
            "simdisk.reqs",
            total(&|k| k.disk.completed()) as f64,
            "count",
        ),
        m(
            "simdisk.cache_hit_ratio",
            per_call(hits as f64, hits + misses),
            "ratio",
        ),
        m(
            "simos.upcalls_per_event",
            per_event(total(&|k| k.stats().upcalls)),
            "ratio",
        ),
        m(
            "simos.syscalls_per_event",
            per_event(tally.syscalls),
            "ratio",
        ),
        m("simos.reclaims", mem(|a| a.reclaims) as f64, "count"),
        m("simos.oom_kills", mem(|a| a.oom_kills) as f64, "count"),
        m("simcluster.lane_pkts", lane_pkts as f64, "count"),
        m("simcluster.forwarded", forwarded as f64, "count"),
        m("simcluster.unroutable", unroutable as f64, "count"),
        m("failed_frac", failed_frac, "ratio"),
    ];
    r.slices = log;
    r
}
