//! The eight workloads: what set-up builds and what one pass runs.
//!
//! Every workload generates its own relations from the run's seed
//! (`gamma_bench::Workload` hard-codes one), builds and loads its machines
//! once in set-up, and re-uses them across passes: `run_join` clears the
//! buffer pools and frees its result files, so a re-used machine returns
//! the same simulated response as a fresh one (`paper-grid` at the default
//! seed reproduces `joinabprime`'s twelve values). One *pass* runs the
//! workload's fixed grid once and checks every join against
//! [`gamma_wisconsin::oracle_join`].
//!
//! Each call into a layer goes through [`Tracer::span`], which records a
//! span in the traced run and is a plain call otherwise.

use std::hint::black_box;
use std::sync::Arc;

use gamma_core::query::replay_phases;
use gamma_core::{
    run_join_with_phases, Algorithm, ExecConfig, JoinReport, JoinSite, JoinSpec, Machine,
    MachineConfig, OverflowPolicy, PhaseRecord, WorkerPool,
};
use gamma_des::{Counts, SimTime};
use gamma_sched::{engine, explain, Arrivals, EngineConfig, QueryPlan, ServeConfig};
use gamma_wisconsin::{
    join_abprime, load_hashed, oracle_join, OracleExpect, WisconsinGen, WisconsinRow,
};

use crate::span::Tracer;

/// Which workload a run measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    PaperGrid,
    HashMem,
    HashSpill,
    SortMerge,
    SkewOverflow,
    Observed,
    Serve,
    Pool2,
}

impl Kind {
    /// Parse a workload name from `BENCHMARK.json`.
    pub fn parse(name: &str) -> Option<Kind> {
        Some(match name {
            "paper-grid" => Kind::PaperGrid,
            "hash-mem" => Kind::HashMem,
            "hash-spill" => Kind::HashSpill,
            "sort-merge" => Kind::SortMerge,
            "skew-overflow" => Kind::SkewOverflow,
            "observed" => Kind::Observed,
            "serve" => Kind::Serve,
            "pool2" => Kind::Pool2,
            _ => return None,
        })
    }

    /// Full-scale `(outer, inner)` cardinalities.
    fn cardinalities(self) -> (usize, usize) {
        match self {
            Kind::SkewOverflow => (10_000, 1_000),
            // The BENCH_serve.json scale: many tiny joins.
            Kind::Serve => (4_000, 400),
            _ => (100_000, 10_000),
        }
    }
}

/// Queries `gamma_sched::serve` physically executes per `serve` pass.
pub const SERVED_QUERIES: u32 = 100;
/// Cloned plans per `engine::run` (20 samples beyond p99).
pub const ENGINE_QUERIES: u32 = 2_000;
/// Offered loads of the timed engine runs, as shares of `1/D_max`.
pub const ENGINE_LOADS: [f64; 3] = [0.5, 0.7, 0.9];
/// Offered load of the physically served stream.
pub const SERVE_LOAD: f64 = 0.7;
/// Admission budget as a multiple of one query's peak page footprint
/// (`gamma_bench::serve::DEFAULT_BUDGET_MULTIPLIER`).
pub const BUDGET_MULTIPLIER: usize = 3;

/// One join of a workload's grid.
pub struct Point {
    /// `algorithm attr rRATIO site` for messages and the trace file.
    pub label: String,
    /// Index into [`Setup::machines`].
    pub machine: usize,
    pub spec: JoinSpec,
    pub expect: OracleExpect,
}

/// Everything set-up builds.
pub struct Setup {
    pub kind: Kind,
    pub seed: u64,
    /// Outer relation (`A`).
    pub outer: Vec<WisconsinRow>,
    /// Inner relation (`Bprime`, a sample of `A`).
    pub inner: Vec<WisconsinRow>,
    /// `[local 8]` or `[local 8, remote 8+8]`, loaded, serial executor.
    pub machines: Vec<Machine>,
    pub points: Vec<Point>,
    /// `pool2` only: the 2-lane pool its pooled passes run on.
    pub pool: Option<Arc<WorkerPool>>,
}

impl Setup {
    /// `|R| + |S|` of one join.
    pub fn tuples_per_join(&self) -> u64 {
        (self.outer.len() + self.inner.len()) as u64
    }
}

fn scaled(n: usize, scale: f64) -> usize {
    ((n as f64 * scale).round() as usize).max(8)
}

/// Generate, build, load and compute oracle expectations for `kind`.
pub fn build(kind: Kind, seed: u64, scale: f64, tr: &mut Tracer) -> Setup {
    let (outer_n, inner_n) = kind.cardinalities();
    let (outer_n, inner_n) = (scaled(outer_n, scale), scaled(inner_n, scale));
    let (outer, inner) = tr.span("wisconsin.gen", |_| {
        let gen = WisconsinGen::new(seed);
        let outer = match kind {
            // Table 3-style sharp skew: sd = n/500 overloads single
            // split-table entries (`gamma_bench::skew`'s "sharp" level).
            Kind::SkewOverflow => gen.relation_nu(outer_n, 0, outer_n as f64 / 500.0),
            _ => gen.relation(outer_n, 0),
        };
        let inner = gen.sample(&outer, inner_n, 1);
        (outer, inner)
    });

    let remote = matches!(kind, Kind::HashMem | Kind::Pool2);
    let mut configs = vec![MachineConfig::local_8()];
    if remote {
        configs.push(MachineConfig::remote_8_plus_8());
    }
    let mut machines = Vec::new();
    let mut rels = Vec::new();
    for cfg in configs {
        let (machine, ids) = tr.span("wisconsin.load", |_| {
            let mut m = Machine::new(cfg).with_exec(ExecConfig::serial());
            let a = load_hashed(&mut m, "A", &outer, "unique1");
            let b = load_hashed(&mut m, "Bprime", &inner, "unique1");
            (m, (a, b))
        });
        machines.push(machine);
        rels.push(ids);
    }

    // (algorithm, join attribute, memory ratio, machine, robust knobs)
    use Algorithm::{GraceHash, HybridHash, SimpleHash, SortMerge};
    let grid: Vec<(Algorithm, &str, f64, usize, bool)> = match kind {
        Kind::PaperGrid => [SortMerge, SimpleHash, GraceHash, HybridHash]
            .into_iter()
            .flat_map(|a| [1.0, 0.5, 0.2].map(|r| (a, "unique1", r, 0, false)))
            .collect(),
        Kind::HashMem => vec![
            (HybridHash, "unique2", 1.0, 0, false),
            (HybridHash, "unique2", 1.0, 1, false),
        ],
        Kind::HashSpill => vec![
            (GraceHash, "unique1", 0.1, 0, false),
            (HybridHash, "unique1", 0.2, 0, false),
            (SimpleHash, "unique1", 0.2, 0, false),
        ],
        Kind::SortMerge => vec![
            (SortMerge, "unique1", 1.0, 0, false),
            (SortMerge, "unique1", 0.2, 0, false),
        ],
        Kind::SkewOverflow => vec![
            (HybridHash, "normal", 0.5, 0, false),
            (HybridHash, "normal", 0.5, 0, true),
        ],
        Kind::Observed => vec![
            (HybridHash, "unique2", 1.0, 0, false),
            (GraceHash, "unique1", 0.2, 0, false),
        ],
        Kind::Serve => vec![(HybridHash, "unique2", 1.0, 0, false)],
        Kind::Pool2 => vec![
            (HybridHash, "unique2", 1.0, 0, false),
            (HybridHash, "unique2", 1.0, 1, false),
            (SortMerge, "unique1", 1.0, 0, false),
        ],
    };

    let mut expects: Vec<(&str, OracleExpect)> = Vec::new();
    let mut points = Vec::new();
    for (alg, attr, ratio, machine, robust) in grid {
        let expect = match expects.iter().find(|(a, _)| *a == attr) {
            Some((_, e)) => *e,
            None => {
                let e = tr.span("wisconsin.oracle", |_| {
                    oracle_join(&inner, &outer, attr, attr, None, None)
                });
                expects.push((attr, e));
                e
            }
        };
        let (a, b) = rels[machine];
        let inner_bytes = machines[machine].relation(b).data_bytes;
        // ceil keeps 1/N ratios mapping to exactly N buckets
        // (`SweepBuilder::prepare` does the same).
        let memory = (inner_bytes as f64 * ratio).ceil().max(1.0) as u64;
        let mut spec = join_abprime(alg, b, a, attr, attr, memory);
        if machine == 1 {
            spec.site = JoinSite::Remote;
        }
        if kind == Kind::SkewOverflow {
            spec.overflow_policy = OverflowPolicy::Optimistic;
            spec.skew_refinement = robust;
            spec.dynamic_spill = robust;
        }
        points.push(Point {
            label: format!(
                "{} {attr} r{ratio} {}{}",
                alg.name(),
                if machine == 1 { "remote" } else { "local" },
                if robust { " robust" } else { "" }
            ),
            machine,
            spec,
            expect,
        });
    }

    Setup {
        kind,
        seed,
        outer,
        inner,
        machines,
        points,
        pool: (kind == Kind::Pool2).then(|| Arc::new(WorkerPool::new(2))),
    }
}

/// Exact work counters of one pass: ledger totals over its physically
/// executed joins. Equal from pass to pass, and between serial and pooled
/// passes, or the run is marked incorrect.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Ledger {
    pub counts: Counts,
    pub ring_bytes: u64,
    pub cpu_us: u64,
    pub disk_us: u64,
    pub net_us: u64,
    pub disk_wait_us: u64,
    pub net_wait_us: u64,
    pub peak_pool_pages: u64,
    pub buckets: u64,
    pub overflow_passes: u64,
    pub bnl_fallbacks: u64,
    pub requests: u64,
    /// Σ disk-node CPU utilisation in parts per million (integer, so the
    /// ledger stays comparable with `==`).
    pub disk_node_cpu_util_ppm: u64,
    pub joins: u64,
    /// `(response µs, result checksum)` per join, in grid order.
    pub results: Vec<(u64, u64)>,
}

/// Device requests logged by a join's phases.
fn requests_in_phases(phases: &[PhaseRecord]) -> u64 {
    phases
        .iter()
        .flat_map(|p| &p.ledgers)
        .map(|u| (u.reqs.disk.len() + u.reqs.net.len()) as u64)
        .sum()
}

/// Device requests a plan replays (the same logs, as the engine sees them).
fn requests_in_plan(plan: &QueryPlan) -> u64 {
    plan.phases
        .iter()
        .flat_map(|p| &p.nodes)
        .map(|n| (n.disk.len() + n.net.len()) as u64)
        .sum()
}

impl Ledger {
    /// Σ simulated solo response of the physically executed joins, µs.
    pub fn virt_us(&self) -> u64 {
        self.results.iter().map(|(us, _)| us).sum()
    }

    fn absorb(&mut self, report: &JoinReport, requests: u64, machine: &Machine) {
        let t = &report.total;
        self.counts += t.counts;
        self.ring_bytes += t.ring_bytes;
        self.cpu_us += t.cpu.as_us();
        self.disk_us += t.disk.as_us();
        self.net_us += t.net.as_us();
        self.disk_wait_us += t.disk_wait.as_us();
        self.net_wait_us += t.net_wait.as_us();
        let peak = machine.pool_peaks().into_iter().max().unwrap_or(0) as u64;
        self.peak_pool_pages = self.peak_pool_pages.max(peak);
        self.buckets += report.buckets as u64;
        self.overflow_passes += u64::from(report.overflow_passes);
        self.bnl_fallbacks += u64::from(report.bnl_fallback);
        self.requests += requests;
        self.disk_node_cpu_util_ppm += (report.disk_node_cpu_utilization * 1e6).round() as u64;
        self.joins += 1;
        self.results
            .push((report.response.as_us(), report.result_checksum));
    }
}

/// What one pass did.
#[derive(Debug, Clone, Default)]
pub struct PassOut {
    /// Operations attempted: joins physically executed, plus engine
    /// queries on `serve`.
    pub attempted: u64,
    /// Of those, how many were wrong: result ≠ oracle, an instance that
    /// diverged from its template, a failed reconciliation, a replay that
    /// did not reproduce the response, an engine query that never finished.
    pub failed: u64,
    pub ledger: Ledger,
    /// Sizes only the `observed` pass produces.
    pub observed: Observed,
}

/// Observer output sizes of one `observed` pass.
#[derive(Debug, Clone, Default)]
pub struct Observed {
    pub trace_events: u64,
    /// Not part of [`PassOut::same_work`]: trace events carry WiSS file
    /// ids, which grow as a re-used machine creates temporary files, so
    /// the export grows by a few digits from pass to pass.
    pub trace_export_bytes: u64,
    pub metrics_series: u64,
}

impl PassOut {
    /// Whether two passes did exactly the same work with the same results:
    /// every pass of a run must, on either executor.
    pub fn same_work(&self, o: &PassOut) -> bool {
        (self.attempted, self.failed) == (o.attempted, o.failed)
            && self.ledger == o.ledger
            && (self.observed.trace_events, self.observed.metrics_series)
                == (o.observed.trace_events, o.observed.metrics_series)
    }

    fn check(&mut self, ok: bool, what: &str, label: &str) {
        if !ok {
            self.failed += 1;
            eprintln!("FAILED {label}: {what}");
        }
    }

    fn record(&mut self, point: &Point, report: &JoinReport, requests: u64, machine: &Machine) {
        self.attempted += 1;
        self.check(
            report.result_tuples == point.expect.tuples
                && report.result_checksum == point.expect.checksum,
            "result differs from the oracle join",
            &point.label,
        );
        self.ledger.absorb(report, requests, machine);
    }
}

/// Run one join and re-time its phases: the two calls every join workload
/// makes. `des.replay` re-calls [`replay_phases`] on the returned phases —
/// the only way to time the ledger replay from outside `run_join`.
fn join_and_replay(tr: &mut Tracer, machine: &mut Machine, point: &Point, out: &mut PassOut) {
    let (report, phases) = tr.span("core.run_join", |_| {
        run_join_with_phases(machine, &point.spec)
    });
    let replayed = tr.span("des.replay", |_| replay_phases(machine, &phases).0);
    out.check(
        replayed == report.response,
        "replay_phases did not reproduce the response",
        &point.label,
    );
    out.record(point, &report, requests_in_phases(&phases), machine);
}

/// One pass of a plain join grid on the machines' current executor.
pub fn join_pass(setup: &mut Setup, tr: &mut Tracer) -> PassOut {
    let mut out = PassOut::default();
    for point in &setup.points {
        let machine = &mut setup.machines[point.machine];
        join_and_replay(tr, machine, point, &mut out);
    }
    out
}

/// Which observers an observed join installs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sinks {
    None,
    Trace,
    Metrics,
    Both,
}

/// Run `point` with `sinks` installed and taken again around the join.
pub fn observed_join(
    tr: &mut Tracer,
    machine: &mut Machine,
    point: &Point,
    sinks: Sinks,
) -> (
    JoinReport,
    Vec<PhaseRecord>,
    Option<gamma_trace::TraceSink>,
    Option<gamma_metrics::Registry>,
) {
    let (trace, metrics) = (
        matches!(sinks, Sinks::Trace | Sinks::Both),
        matches!(sinks, Sinks::Metrics | Sinks::Both),
    );
    tr.span("observers.install", |_| {
        if trace {
            gamma_trace::install(gamma_trace::TraceSink::default());
        }
        if metrics {
            gamma_metrics::install(gamma_metrics::Registry::new());
        }
    });
    let (report, phases) = tr.span("core.run_join", |_| {
        run_join_with_phases(machine, &point.spec)
    });
    let (sink, registry) = tr.span("observers.take", |_| {
        (
            trace.then(|| gamma_trace::take().expect("sink installed above")),
            metrics.then(|| gamma_metrics::take().expect("registry installed above")),
        )
    });
    (report, phases, sink, registry)
}

/// One `observed` pass: each join runs with the trace sink and the metrics
/// registry installed, then every export, the ledger reconciliation and a
/// solo flight profile run on what was captured.
pub fn observed_pass(setup: &mut Setup, tr: &mut Tracer) -> PassOut {
    let mut out = PassOut::default();
    for point in &setup.points {
        let machine = &mut setup.machines[point.machine];
        let (report, phases, sink, registry) = observed_join(tr, machine, point, Sinks::Both);
        let (sink, registry) = (sink.expect("both sinks"), registry.expect("both sinks"));

        let exported = tr.span("trace.export", |_| {
            let perfetto = gamma_trace::perfetto::to_json(&sink);
            let summary = gamma_trace::summary::critical_path(&sink);
            black_box(perfetto.len() + summary.len())
        });
        out.observed.trace_events += sink.len() as u64;
        out.observed.trace_export_bytes += exported as u64;
        out.check(
            sink.response_us() == report.response.as_us(),
            "trace clock differs from the report",
            &point.label,
        );

        tr.span("metrics.export", |_| {
            let json = gamma_metrics::json::render(&registry);
            let prom = gamma_metrics::prometheus::render(&registry);
            black_box(json.len() + prom.len())
        });
        out.observed.metrics_series += registry.len() as u64;
        let errs = tr.span("metrics.reconcile", |_| {
            gamma_bench::metrics::reconcile(&registry, &report)
        });
        out.check(errs.is_empty(), "metrics do not reconcile", &point.label);

        // The `gamma_bench::prof` solo profile, from the same public
        // pieces (its own entry point is tied to the fixed-seed workload).
        let (response, profile) = tr.span("prof.profile", |_| {
            let peaks = machine.pool_peaks();
            let bw = machine.cfg.cost.ring.bandwidth_bytes_per_sec;
            let plan = QueryPlan::from_phases(&phases, peaks, report.response, bw);
            let cfg = EngineConfig {
                nodes: machine.nodes(),
                pool_budget_pages: plan.max_peak_pages(),
                backlog_window: None,
            };
            let (outcome, profile) = engine::run_recorded(
                vec![plan],
                &[SimTime::ZERO],
                &cfg,
                Some(gamma_prof::DEFAULT_TICK_US),
            );
            (
                outcome.queries[0].response(),
                profile.expect("recorder attached"),
            )
        });
        out.check(
            response == Some(report.response),
            "unloaded engine replay differs from the solo response",
            &point.label,
        );
        tr.span("prof.export", |_| {
            black_box(gamma_prof::export::render_json(&profile, &[]).len())
        });

        // After the sinks are gone: a replay under an installed registry
        // would mirror the ledgers twice and break the reconciliation.
        let replayed = tr.span("des.replay", |_| replay_phases(machine, &phases).0);
        out.check(
            replayed == report.response,
            "replay_phases did not reproduce the response",
            &point.label,
        );
        out.record(point, &report, requests_in_phases(&phases), machine);
    }
    out
}

/// Arrival-stream case for the `k`-th stream of a run: derived from the
/// run's seed, so another seed offers another Poisson sample.
pub fn arrival_case(seed: u64, k: u64) -> u64 {
    seed.wrapping_mul(64).wrapping_add(k)
}

/// Mean inter-arrival time offering `load × bound_qps`.
pub fn interarrival(bound_qps: f64, load: f64) -> SimTime {
    SimTime::from_us((1e6 / (bound_qps * load)).round().max(1.0) as u64)
}

/// Engine configuration the serve workload and its sweep share.
pub fn engine_config(machine: &Machine, plan: &QueryPlan) -> EngineConfig {
    EngineConfig {
        nodes: machine.nodes(),
        pool_budget_pages: plan.max_peak_pages() * BUDGET_MULTIPLIER,
        backlog_window: None,
    }
}

/// One `serve` pass. Open loop: Poisson arrivals on the virtual clock,
/// each response timed from its scheduled arrival; the arrival times are
/// computed up front, so the generator is never late.
pub fn serve_pass(setup: &mut Setup, tr: &mut Tracer) -> PassOut {
    let mut out = PassOut::default();
    let seed = setup.seed;
    let point = &setup.points[0];
    let machine = &mut setup.machines[point.machine];

    // The template profile any serve experiment starts from.
    let (plan, report) = tr.span("sched.extract", |_| {
        gamma_sched::extract(machine, &point.spec)
    });
    let requests = requests_in_plan(&plan);
    out.record(point, &report, requests, machine);
    let bound_qps = 1.0 / report.demand.bottleneck();
    let cfg = engine_config(machine, &plan);

    let served = tr.span("sched.serve_exec", |_| {
        gamma_sched::serve(
            machine,
            &point.spec,
            &ServeConfig {
                name: "benchmark-serve".into(),
                case: arrival_case(seed, 0),
                mean_interarrival: interarrival(bound_qps, SERVE_LOAD),
                queries: SERVED_QUERIES,
                pool_budget_pages: cfg.pool_budget_pages,
                backlog_window: None,
            },
        )
    });
    for r in &served.reports {
        out.record(point, r, requests, machine);
    }
    out.check(
        served.outcome.completed() == SERVED_QUERIES as usize,
        "served queries left unfinished",
        &point.label,
    );

    for (k, load) in ENGINE_LOADS.into_iter().enumerate() {
        let outcome = tr.span("sched.engine", |_| {
            let arrivals = Arrivals::new(
                "benchmark-engine",
                arrival_case(seed, 1 + k as u64),
                interarrival(bound_qps, load),
            )
            .take_times(ENGINE_QUERIES);
            engine::run(vec![plan.clone(); ENGINE_QUERIES as usize], &arrivals, &cfg)
        });
        out.attempted += u64::from(ENGINE_QUERIES);
        out.failed += (ENGINE_QUERIES as usize - outcome.completed()) as u64;
    }

    tr.span("sched.explain", |_| {
        black_box(explain::render(&served.outcome, served.solo.response).len())
    });
    out
}

/// One pass of `setup`'s workload on the serial executor.
pub fn pass(setup: &mut Setup, tr: &mut Tracer) -> PassOut {
    match setup.kind {
        Kind::Observed => observed_pass(setup, tr),
        Kind::Serve => serve_pass(setup, tr),
        _ => join_pass(setup, tr),
    }
}

/// `pool2`: the same grid with every machine on the 2-lane pool. The
/// caller compares the result with a serial pass.
pub fn pooled_pass(setup: &mut Setup, tr: &mut Tracer) -> PassOut {
    let pool = Arc::clone(setup.pool.as_ref().expect("pool2 set-up owns a pool"));
    for m in &mut setup.machines {
        m.exec = ExecConfig::pooled(Arc::clone(&pool));
    }
    let out = join_pass(setup, tr);
    for m in &mut setup.machines {
        m.exec = ExecConfig::serial();
    }
    out
}
