//! Workload setup and memory-ratio sweeps.

use gamma_core::query::{Algorithm, JoinSite, JoinSpec, OverflowPolicy};
use gamma_core::{
    run_join, ExecConfig, JoinReport, Machine, MachineConfig, RelationId, WorkerPool,
};
use gamma_wisconsin::{
    join_abprime, load_hashed, load_range, oracle_join, OracleExpect, WisconsinGen, WisconsinRow,
};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::sync::Mutex;
/// How the relations are declustered at load time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadStyle {
    /// Hashed on `unique1` (the paper's default).
    HashedUnique1,
    /// Range-partitioned on the join attributes (the §4.4 skew loading).
    RangeOnJoinAttrs,
}

/// The benchmark workload: the 100,000-tuple `A` and the 10,000-tuple
/// `Bprime` sampled from it, at a configurable scale.
pub struct Workload {
    /// Generated `A` rows.
    pub a_rows: Vec<WisconsinRow>,
    /// Generated `Bprime` rows (random sample of `A`).
    pub bprime_rows: Vec<WisconsinRow>,
    /// Memoized oracle expectations per join-attribute pair — a sweep
    /// validates every point against the same expected result, so the
    /// oracle join runs once per workload instead of once per point.
    /// Keyed the same in every process, so a sweep allocates alike run to
    /// run.
    oracle_cache: Mutex<HashMap<(String, String), OracleExpect, BuildHasherDefault<DefaultHasher>>>,
}

impl Workload {
    /// The paper's full-size workload.
    pub fn full() -> Self {
        Self::scaled(100_000, 10_000)
    }

    /// The full-size workload scaled by `scale`: |A| = 100,000 · scale and
    /// |Bprime| = 10,000 · scale, rounded (the `joinabprime` document's
    /// `scale` field).
    pub fn at_scale(scale: f64) -> Self {
        Self::scaled(
            (100_000f64 * scale).round() as usize,
            (10_000f64 * scale).round() as usize,
        )
    }

    /// A scaled workload (tests use small ones; figures use the full one).
    pub fn scaled(a: usize, bprime: usize) -> Self {
        let gen = WisconsinGen::new(1989);
        let a_rows = gen.relation(a, 0);
        let bprime_rows = gen.sample(&a_rows, bprime, 1);
        Workload {
            a_rows,
            bprime_rows,
            oracle_cache: Mutex::new(HashMap::default()),
        }
    }

    /// A scaled workload whose `normal` attribute is drawn at an explicit
    /// standard deviation (Table 3-style nonuniform data; small `sd` means
    /// sharper skew). Identical to [`Workload::scaled`] when `sd` equals
    /// the generator's scaled default.
    pub fn scaled_nu(a: usize, bprime: usize, sd: f64) -> Self {
        let gen = WisconsinGen::new(1989);
        let a_rows = gen.relation_nu(a, 0, sd);
        let bprime_rows = gen.sample(&a_rows, bprime, 1);
        Workload {
            a_rows,
            bprime_rows,
            oracle_cache: Mutex::new(HashMap::default()),
        }
    }

    /// Oracle expectation for a join on the given attributes (memoized).
    pub fn expect(&self, inner_attr: &str, outer_attr: &str) -> OracleExpect {
        let key = (inner_attr.to_string(), outer_attr.to_string());
        if let Some(e) = self.oracle_cache.lock().unwrap().get(&key) {
            return *e;
        }
        let e = oracle_join(
            &self.bprime_rows,
            &self.a_rows,
            inner_attr,
            outer_attr,
            None,
            None,
        );
        self.oracle_cache.lock().unwrap().insert(key, e);
        e
    }

    /// Build a machine and load the workload.
    pub fn machine(
        &self,
        remote_nodes: bool,
        style: LoadStyle,
        inner_attr: &str,
        outer_attr: &str,
    ) -> (Machine, RelationId, RelationId) {
        let cfg = if remote_nodes {
            MachineConfig::remote_8_plus_8()
        } else {
            MachineConfig::local_8()
        };
        self.machine_with(cfg, style, inner_attr, outer_attr)
    }

    /// Build a machine from an explicit configuration (ablations tweak the
    /// cost model before loading — the buffer pools snapshot the disk
    /// model at build time).
    pub fn machine_with(
        &self,
        cfg: MachineConfig,
        style: LoadStyle,
        inner_attr: &str,
        outer_attr: &str,
    ) -> (Machine, RelationId, RelationId) {
        let mut machine = Machine::new(cfg);
        let (a, bprime) = match style {
            LoadStyle::HashedUnique1 => (
                load_hashed(&mut machine, "A", &self.a_rows, "unique1"),
                load_hashed(&mut machine, "Bprime", &self.bprime_rows, "unique1"),
            ),
            LoadStyle::RangeOnJoinAttrs => (
                load_range(&mut machine, "A", &self.a_rows, outer_attr),
                load_range(&mut machine, "Bprime", &self.bprime_rows, inner_attr),
            ),
        };
        (machine, a, bprime)
    }
}

/// One measured point of an experiment.
#[derive(Debug, Clone)]
pub struct ExperimentPoint {
    /// Algorithm.
    pub algorithm: String,
    /// Memory ratio (`memory / |inner|`).
    pub ratio: f64,
    /// Response time in seconds.
    pub seconds: f64,
    /// Full report for drill-down.
    pub report: JoinReport,
}

/// The process-wide bench dispatch pool: the engine's shared default pool
/// when `GAMMA_POOL` is set, `None` (serial dispatch) otherwise.
pub fn bench_pool() -> Option<&'static WorkerPool> {
    gamma_core::exec::pool::default_pool().map(|p| p.as_ref())
}

/// Fan independent bench tasks out on `pool`, gathering results in
/// submission order; runs inline when `pool` is `None`, has no dedicated
/// workers, or there is at most one item. Every task builds its own
/// machine, so results are byte-identical to a sequential run.
pub fn pooled_map_on<T, R>(
    pool: Option<&WorkerPool>,
    what: &'static str,
    items: Vec<T>,
    f: impl Fn(T) -> R + Sync,
) -> Vec<R>
where
    T: Send,
    R: Send,
{
    match pool {
        Some(p) if p.workers() > 0 && items.len() > 1 => p.run_ordered(what, items, |_, t| f(t)),
        _ => items.into_iter().map(f).collect(),
    }
}

/// [`pooled_map_on`] over the process-wide [`bench_pool`].
pub fn pooled_map<T, R>(what: &'static str, items: Vec<T>, f: impl Fn(T) -> R + Sync) -> Vec<R>
where
    T: Send,
    R: Send,
{
    pooled_map_on(bench_pool(), what, items, f)
}

/// Declarative sweep runner.
pub struct SweepBuilder<'a> {
    workload: &'a Workload,
    inner_attr: String,
    outer_attr: String,
    site: JoinSite,
    filter: bool,
    filter_bucket_forming: bool,
    bucket_tuning: bool,
    policy: OverflowPolicy,
    style: LoadStyle,
    extra_buckets: usize,
    slow_disk: u64,
    exec: ExecConfig,
    robust: bool,
}

impl<'a> SweepBuilder<'a> {
    /// A sweep over the workload, joining on `unique1` (HPJA) by default.
    pub fn new(workload: &'a Workload) -> Self {
        SweepBuilder {
            workload,
            inner_attr: "unique1".into(),
            outer_attr: "unique1".into(),
            site: JoinSite::Local,
            filter: false,
            filter_bucket_forming: false,
            bucket_tuning: false,
            policy: OverflowPolicy::Pessimistic,
            style: LoadStyle::HashedUnique1,
            extra_buckets: 0,
            slow_disk: 1,
            exec: ExecConfig::auto(),
            robust: false,
        }
    }

    /// Run the robust overflow policy: skew-aware split-table refinement
    /// plus dynamic spill/restore with localized overflow joins (the two
    /// `JoinSpec` knobs are only ever set together).
    pub fn robust(mut self) -> Self {
        self.robust = true;
        self
    }

    /// Pin the executor every measured machine runs on (default:
    /// [`ExecConfig::auto`] — the shared pool when `GAMMA_POOL` is set,
    /// serial otherwise). The same configuration's pool also dispatches
    /// the sweep's independent points.
    pub fn exec(mut self, exec: ExecConfig) -> Self {
        self.exec = exec;
        self
    }

    /// Multiply every disk service time by `factor` (convoy ablation:
    /// drives volume utilisation past the paper's operating point).
    pub fn slow_disk(mut self, factor: u64) -> Self {
        self.slow_disk = factor.max(1);
        self
    }

    /// Join on the given attributes (non-HPJA: `unique2`; skew: `normal`).
    pub fn on(mut self, inner_attr: &str, outer_attr: &str) -> Self {
        self.inner_attr = inner_attr.into();
        self.outer_attr = outer_attr.into();
        self
    }

    /// Run joins on the diskless processors.
    pub fn remote(mut self) -> Self {
        self.site = JoinSite::Remote;
        self
    }

    /// Run joins on every processor, disks and diskless together (§4.3's
    /// half-way configuration).
    pub fn mixed(mut self) -> Self {
        self.site = JoinSite::Mixed;
        self
    }

    /// Enable bit-vector filters.
    pub fn filtered(mut self, on: bool) -> Self {
        self.filter = on;
        self
    }

    /// Also filter the Grace/Hybrid bucket-forming phases (the paper's
    /// proposed §4.2/§5 extension). Implies filtering on.
    pub fn filter_bucket_forming(mut self) -> Self {
        self.filter = true;
        self.filter_bucket_forming = true;
        self
    }

    /// Enable Grace bucket tuning \[KITS83\] (many small buckets combined by
    /// measured size at join time).
    pub fn bucket_tuning(mut self) -> Self {
        self.bucket_tuning = true;
        self
    }

    /// Choose the overflow policy (Figure 7).
    pub fn policy(mut self, p: OverflowPolicy) -> Self {
        self.policy = p;
        self
    }

    /// Range-partition the relations on the join attributes (§4.4).
    pub fn range_loaded(mut self) -> Self {
        self.style = LoadStyle::RangeOnJoinAttrs;
        self
    }

    /// Add buckets beyond the computed count (§4.4 Grace trick).
    pub fn extra_buckets(mut self, n: usize) -> Self {
        self.extra_buckets = n;
        self
    }

    /// Build the loaded machine and the join spec for one point. Loading
    /// is not part of the measured query, so callers that trace (see
    /// `crate::tracing`) install their sink between `prepare` and
    /// `measure`.
    pub(crate) fn prepare(&self, algorithm: Algorithm, ratio: f64) -> (Machine, JoinSpec) {
        let remote = matches!(self.site, JoinSite::Remote | JoinSite::Mixed);
        let mut cfg = if remote {
            MachineConfig::remote_8_plus_8()
        } else {
            MachineConfig::local_8()
        };
        let d = &mut cfg.cost.disk;
        d.seq_read_us *= self.slow_disk;
        d.rand_read_us *= self.slow_disk;
        d.seq_write_us *= self.slow_disk;
        d.rand_write_us *= self.slow_disk;
        let (mut machine, a, bprime) =
            self.workload
                .machine_with(cfg, self.style, &self.inner_attr, &self.outer_attr);
        machine.exec = self.exec.clone();
        let inner_bytes = machine.relation(bprime).data_bytes;
        // ceil keeps 1/N ratios mapping to exactly N buckets despite
        // floating-point truncation.
        let memory = ((inner_bytes as f64) * ratio).ceil().max(1.0) as u64;
        let mut spec: JoinSpec = join_abprime(
            algorithm,
            bprime,
            a,
            &self.inner_attr,
            &self.outer_attr,
            memory,
        );
        spec.site = if algorithm == Algorithm::SortMerge {
            JoinSite::Local // sort-merge cannot use diskless nodes (§3.1)
        } else {
            self.site
        };
        spec.bit_filter = self.filter;
        spec.filter_bucket_forming = self.filter_bucket_forming;
        spec.bucket_tuning = self.bucket_tuning;
        spec.overflow_policy = self.policy;
        spec.extra_buckets = self.extra_buckets;
        spec.skew_refinement = self.robust;
        spec.dynamic_spill = self.robust;
        (machine, spec)
    }

    /// Execute and validate one prepared point.
    pub(crate) fn measure(
        &self,
        machine: &mut Machine,
        spec: &JoinSpec,
        algorithm: Algorithm,
        ratio: f64,
    ) -> ExperimentPoint {
        let report = run_join(machine, spec);
        let expect = self.workload.expect(&self.inner_attr, &self.outer_attr);
        assert_eq!(
            report.result_tuples,
            expect.tuples,
            "{} at ratio {ratio}: wrong cardinality",
            algorithm.name()
        );
        assert_eq!(
            report.result_checksum,
            expect.checksum,
            "{} at ratio {ratio}: wrong result contents",
            algorithm.name()
        );
        ExperimentPoint {
            algorithm: algorithm.name().into(),
            ratio,
            seconds: report.seconds(),
            report,
        }
    }

    /// Run one algorithm at one memory ratio.
    pub fn run_one(&self, algorithm: Algorithm, ratio: f64) -> ExperimentPoint {
        let (mut machine, spec) = self.prepare(algorithm, ratio);
        self.measure(&mut machine, &spec, algorithm, ratio)
    }

    /// Run several algorithms across several ratios. When the builder's
    /// [`ExecConfig`] carries a pool with dedicated workers, the
    /// independent points are dispatched onto it and gathered in
    /// submission order — each builds its own machine, so virtual times
    /// are bit-identical to a sequential run.
    pub fn run(&self, algorithms: &[Algorithm], ratios: &[f64]) -> Vec<ExperimentPoint> {
        let points: Vec<(Algorithm, f64)> = algorithms
            .iter()
            .flat_map(|&a| ratios.iter().map(move |&r| (a, r)))
            .collect();
        self.run_points(points)
    }

    fn run_points(&self, points: Vec<(Algorithm, f64)>) -> Vec<ExperimentPoint> {
        pooled_map_on(
            self.exec.pool.as_deref(),
            "sweep point",
            points,
            |(alg, r)| self.run_one(alg, r),
        )
    }
}

/// The paper's canonical sweep ratios: integral bucket counts 1..=10 for
/// Grace/Hybrid (1/N), which the other algorithms share for comparability.
pub fn paper_ratios() -> Vec<f64> {
    (1..=10).map(|n| 1.0 / n as f64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_sweep_validates_and_orders() {
        let w = Workload::scaled(2_000, 200);
        let pts = SweepBuilder::new(&w).run(&[Algorithm::HybridHash], &[1.0, 0.5]);
        assert_eq!(pts.len(), 2);
        for p in &pts {
            assert_eq!(p.report.result_tuples, 200);
            assert!(p.seconds > 0.0);
        }
        assert!(
            pts[1].seconds > pts[0].seconds,
            "hybrid must slow down when memory halves"
        );
    }

    #[test]
    fn paper_ratios_shape() {
        let r = paper_ratios();
        assert_eq!(r.len(), 10);
        assert_eq!(r[0], 1.0);
        assert!((r[9] - 0.1).abs() < 1e-12);
    }
}
