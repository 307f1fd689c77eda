//! Public query interface: specify a join, run it, get a timed report.
//!
//! [`run_join`] resolves a [`JoinSpec`] against the machine (join sites,
//! bucket count via the memory ratio and the Appendix A bucket analyzer,
//! per-site memory), dispatches the algorithm driver — which executes the
//! join for real and returns per-phase ledgers — and then *replays* the
//! phase sequence through the `gamma-des` event queue: the scheduler
//! dispatches each phase's operator-start messages serially, the phase
//! runs in parallel under the overlapped-resource model, and the response
//! time is when the last completion event fires.

use gamma_des::{Sim, SimTime, Usage};

use crate::algorithms::common::{RangePred, Resolved};
use crate::algorithms::{grace, hybrid, simple, sort_merge};
use crate::machine::{Machine, RelationId};
use crate::report::{JoinReport, PhaseSummary};
use crate::split::bucket_analyzer;
use crate::tuple::Attr;

/// Which of the four parallel join algorithms to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// Parallel sort-merge (§3.1).
    SortMerge,
    /// Simple hash-join (§3.2).
    SimpleHash,
    /// Grace hash-join (§3.3).
    GraceHash,
    /// Hybrid hash-join (§3.4).
    HybridHash,
}

impl Algorithm {
    /// All four, in the paper's presentation order.
    pub const ALL: [Algorithm; 4] = [
        Algorithm::SortMerge,
        Algorithm::SimpleHash,
        Algorithm::GraceHash,
        Algorithm::HybridHash,
    ];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::SortMerge => "sort-merge",
            Algorithm::SimpleHash => "simple",
            Algorithm::GraceHash => "grace",
            Algorithm::HybridHash => "hybrid",
        }
    }
}

/// Where join processes run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinSite {
    /// On the processors with disks (the paper's "local" configuration).
    Local,
    /// On the diskless processors (the paper's "remote" configuration).
    Remote,
    /// On every processor, with and without disks — the configuration §4.3
    /// mentions measuring "almost always 1/2 way between that of the
    /// 'local' and 'remote' configurations". This is also the shape that
    /// triggers the Appendix A split-table pathology (J ≠ D), which the
    /// bucket analyzer repairs by adding buckets.
    Mixed,
}

/// How Grace/Hybrid pick the bucket count at non-integral memory ratios
/// (the Figure 7 trade-off).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverflowPolicy {
    /// Always run with enough buckets that no hash table can overflow
    /// (`N = ceil(|R| / M)`).
    Pessimistic,
    /// Run with `N = floor(|R| / M)` buckets and count on the Simple-hash
    /// overflow mechanism to absorb the excess.
    Optimistic,
}

/// A join request.
#[derive(Debug, Clone)]
pub struct JoinSpec {
    /// Algorithm to execute.
    pub algorithm: Algorithm,
    /// Inner (building, smaller) relation.
    pub inner: RelationId,
    /// Outer (probing, larger) relation.
    pub outer: RelationId,
    /// Join attribute of the inner relation.
    pub inner_attr: Attr,
    /// Join attribute of the outer relation.
    pub outer_attr: Attr,
    /// Aggregate memory available across the joining processors, in bytes
    /// (the paper's x-axis is `memory / |inner|`).
    pub memory_bytes: u64,
    /// Local or remote join processing.
    pub site: JoinSite,
    /// Use bit-vector filters.
    pub bit_filter: bool,
    /// Also filter during Grace/Hybrid bucket-forming (the §4.2/§5
    /// extension; requires `bit_filter`).
    pub filter_bucket_forming: bool,
    /// Grace bucket tuning \[KITS83\], which §3.3 notes Gamma had not
    /// implemented: partition into many small buckets, then combine them
    /// at join time by their *measured* sizes so each join round fills
    /// memory. Robust to skewed bucket sizes.
    pub bucket_tuning: bool,
    /// Bucket policy at non-integral ratios.
    pub overflow_policy: OverflowPolicy,
    /// Buckets added on top of the computed count (the §4.4 "one additional
    /// bucket" Grace experiment). Ignored by Simple/Sort-Merge.
    pub extra_buckets: usize,
    /// Bypass bucket computation entirely (harness use).
    pub buckets_override: Option<usize>,
    /// Optional selection on the inner relation.
    pub inner_pred: Option<RangePred>,
    /// Optional selection on the outer relation.
    pub outer_pred: Option<RangePred>,
    /// Skew-aware split-table refinement: sample the inner relation's hash
    /// distribution while it is partitioned, split overloaded split-table
    /// entries across sites, and re-broadcast the refined table before any
    /// tuple moves. Off by default (the paper's static split tables).
    pub skew_refinement: bool,
    /// Robust dynamic overflow handling: restore spilled build tuples into
    /// hash-table slack once the build settles, and join residual spill
    /// partitions locally at their home nodes instead of re-spraying every
    /// overflow through a full extra pass. Off by default (the paper's
    /// all-or-nothing Simple-hash overflow machinery).
    pub dynamic_spill: bool,
}

impl JoinSpec {
    /// A spec with the paper's defaults: local joins, no filter,
    /// pessimistic buckets, no predicates.
    pub fn new(
        algorithm: Algorithm,
        inner: RelationId,
        outer: RelationId,
        inner_attr: Attr,
        outer_attr: Attr,
        memory_bytes: u64,
    ) -> Self {
        JoinSpec {
            algorithm,
            inner,
            outer,
            inner_attr,
            outer_attr,
            memory_bytes,
            site: JoinSite::Local,
            bit_filter: false,
            filter_bucket_forming: false,
            bucket_tuning: false,
            overflow_policy: OverflowPolicy::Pessimistic,
            extra_buckets: 0,
            buckets_override: None,
            inner_pred: None,
            outer_pred: None,
            skew_refinement: false,
            dynamic_spill: false,
        }
    }

    /// Builder: run at the given site.
    pub fn at(mut self, site: JoinSite) -> Self {
        self.site = site;
        self
    }

    /// Builder: toggle bit filtering.
    pub fn with_filter(mut self, on: bool) -> Self {
        self.bit_filter = on;
        self
    }

    /// Builder: set the overflow policy.
    pub fn with_policy(mut self, p: OverflowPolicy) -> Self {
        self.overflow_policy = p;
        self
    }
}

/// Compute the Grace/Hybrid bucket count for a memory budget: the memory
/// ratio, capped at one bucket per `page_bytes` page of the inner relation.
/// A bucket that cannot fill one page of R buys nothing, and every bucket
/// costs an open page at each writer — uncapped, a starved budget asks for
/// one bucket per few bytes and the writers' pages exhaust the host.
pub fn bucket_count(
    spec: &JoinSpec,
    inner_bytes: u64,
    page_bytes: usize,
    disk_nodes: usize,
    join_nodes: usize,
) -> usize {
    if let Some(n) = spec.buckets_override {
        return n.max(1);
    }
    let m = spec.memory_bytes.max(1);
    let by_ratio = match spec.overflow_policy {
        OverflowPolicy::Pessimistic => inner_bytes.div_ceil(m),
        OverflowPolicy::Optimistic => inner_bytes / m,
    };
    let inner_pages = inner_bytes.div_ceil(page_bytes as u64);
    let base = by_ratio.min(inner_pages).max(1) as usize + spec.extra_buckets;
    bucket_analyzer(
        spec.algorithm == Algorithm::GraceHash,
        disk_nodes,
        join_nodes,
        base,
    )
}

/// Replay a driver's phase sequence through the DES: the scheduler's
/// serialized dispatch overhead precedes each phase, the phase body runs
/// in parallel under the overlapped-resource model, and the response time
/// is the final completion event.
pub fn replay_phases(
    machine: &Machine,
    phases: &[crate::report::PhaseRecord],
) -> (SimTime, Vec<PhaseSummary>) {
    let bw = machine.cfg.cost.ring.bandwidth_bytes_per_sec;
    let model = machine.cfg.cost.timing;
    let mut sim: Sim<Vec<(usize, SimTime)>> = Sim::new(Vec::new());
    let mut t = SimTime::ZERO;
    let mut summaries = Vec::with_capacity(phases.len());
    for (i, ph) in phases.iter().enumerate() {
        t += ph.sched_overhead;
        let timing = ph.timing(bw, model);
        gamma_trace::with(|s| s.phase_replayed_next(t.as_us(), timing.duration.as_us()));
        // Mirror each node's now-final ledger into the registry as
        // per-phase `ledger_*` counters and device-request histograms
        // (these are what the reconciliation self-check compares against
        // the report totals), plus per-device utilisation and mean queue
        // depth now that replay has fixed the phase duration. Utilisation
        // can't exceed 100% (busy time never exceeds the phase duration);
        // queue depth is Little's-law mean in milli-requests
        // (Σ wait / duration). Replay is the earliest point where ledgers
        // are final: some drivers charge the result store's last page
        // flush to an already-sealed phase.
        gamma_metrics::with(|reg| {
            let dur = timing.duration.as_us();
            let phase = i as u32;
            for (n, u) in ph.ledgers.iter().enumerate() {
                if u.total_demand() == SimTime::ZERO && u.counts == gamma_des::Counts::ZERO {
                    continue;
                }
                let node = n as u16;
                u.meter_device_requests(reg, node, phase);
                let mut put = |metric: &'static str, v: u64| {
                    if v > 0 {
                        reg.counter_add_at(metric, phase, node, "", v);
                    }
                };
                put("ledger_cpu_us", u.cpu.as_us());
                put("ledger_disk_us", u.disk.as_us());
                put("ledger_net_us", u.net.as_us());
                put("ledger_disk_wait_us", u.disk_wait.as_us());
                put("ledger_net_wait_us", u.net_wait.as_us());
                put("ledger_ring_bytes", u.ring_bytes);
                let c = &u.counts;
                put("ledger_pages_read", c.pages_read);
                put("ledger_pages_written", c.pages_written);
                put("ledger_packets_sent", c.packets_sent);
                put("ledger_packets_recv", c.packets_recv);
                put("ledger_msgs_shortcircuit", c.msgs_shortcircuit);
                put("ledger_tuples_in", c.tuples_in);
                put("ledger_tuples_out", c.tuples_out);
                put("ledger_hash_inserts", c.hash_inserts);
                put("ledger_hash_probes", c.hash_probes);
                put("ledger_comparisons", c.comparisons);
                put("ledger_filter_drops", c.filter_drops);
                put("ledger_control_msgs", c.control_msgs);
                put("ledger_overflow_evictions", c.overflow_evictions);
                put("ledger_pages_spilled", c.pages_spilled);
                put("ledger_pages_restored", c.pages_restored);
                if dur > 0 && u.total_demand() > SimTime::ZERO {
                    reg.gauge_max_at("cpu_util_pct", phase, node, "", u.cpu.as_us() * 100 / dur);
                    reg.gauge_max_at("disk_util_pct", phase, node, "", u.disk.as_us() * 100 / dur);
                    reg.gauge_max_at("net_util_pct", phase, node, "", u.net.as_us() * 100 / dur);
                    reg.gauge_max_at(
                        "disk_queue_depth_milli",
                        phase,
                        node,
                        "",
                        u.disk_wait.as_us() * 1000 / dur,
                    );
                    reg.gauge_max_at(
                        "net_queue_depth_milli",
                        phase,
                        node,
                        "",
                        u.net_wait.as_us() * 1000 / dur,
                    );
                }
            }
        });
        t += timing.duration;
        sim.schedule_at(t, move |s| s.state.push((i, s.now())));
        summaries.push(PhaseSummary {
            name: ph.name.clone(),
            sched_overhead: ph.sched_overhead,
            duration: timing.duration,
            total: ph.total(),
            critical_node: timing.critical_node,
            disk_wait: timing.disk_wait,
            net_wait: timing.net_wait,
        });
    }
    let response = sim.run_until_idle();
    assert_eq!(sim.state.len(), phases.len(), "replay lost a phase");
    (response, summaries)
}

/// Execute a join and produce its timed report.
///
/// # Panics
/// Panics if the spec asks for remote sort-merge (unsupported, as in the
/// paper), remote joins on a machine without diskless nodes, or dropped
/// relations.
pub fn run_join(machine: &mut Machine, spec: &JoinSpec) -> JoinReport {
    let mut sink = None;
    run_join_inner(machine, spec, None, &mut sink).0
}

/// Execute a join and also return the raw per-phase records alongside the
/// report. The gamma-sched engine uses these to re-time the same physical
/// work under cross-query device contention: the ledgers carry each node's
/// request logs (issue offsets + service times), which is exactly what the
/// shared FIFO servers need.
pub fn run_join_with_phases(
    machine: &mut Machine,
    spec: &JoinSpec,
) -> (JoinReport, Vec<crate::report::PhaseRecord>) {
    let mut sink = None;
    run_join_inner(machine, spec, None, &mut sink)
}

/// Execute a join and register its result as a stored relation named
/// `name`, returning the new relation id alongside the report, so the
/// result can be scanned, joined again or dropped like a base relation.
pub fn run_join_materialized(
    machine: &mut Machine,
    spec: &JoinSpec,
    name: &str,
) -> (RelationId, JoinReport) {
    let mut materialized = None;
    let (report, _) = run_join_inner(machine, spec, Some(name), &mut materialized);
    (materialized.expect("materialization requested"), report)
}

fn run_join_inner(
    machine: &mut Machine,
    spec: &JoinSpec,
    materialize_as: Option<&str>,
    materialized: &mut Option<RelationId>,
) -> (JoinReport, Vec<crate::report::PhaseRecord>) {
    let join_nodes = match spec.site {
        JoinSite::Local => machine.disk_nodes(),
        JoinSite::Remote => {
            assert!(
                spec.algorithm != Algorithm::SortMerge,
                "our sort-merge implementation cannot utilize diskless processors (paper §3.1)"
            );
            let n = machine.diskless_nodes();
            assert!(
                !n.is_empty(),
                "remote join on a machine without diskless nodes"
            );
            n
        }
        JoinSite::Mixed => {
            assert!(
                spec.algorithm != Algorithm::SortMerge,
                "our sort-merge implementation cannot utilize diskless processors (paper §3.1)"
            );
            let mut n = machine.disk_nodes();
            n.extend(machine.diskless_nodes());
            n
        }
    };

    let inner = machine.relation(spec.inner);
    let outer = machine.relation(spec.outer);
    let inner_bytes = inner.data_bytes;
    let r_tuple_bytes = inner.schema.tuple_bytes() as u64;
    let r_fragments = inner.fragments.clone();
    let s_fragments = outer.fragments.clone();

    let mut buckets = match spec.algorithm {
        Algorithm::GraceHash | Algorithm::HybridHash => {
            let page_bytes = machine.cfg.cost.disk.page_bytes;
            let disk_nodes = machine.cfg.disk_nodes;
            bucket_count(spec, inner_bytes, page_bytes, disk_nodes, join_nodes.len())
        }
        _ => 1,
    };
    // Bucket tuning partitions into many small buckets ("the number of
    // buckets N is chosen to be very large", §3.3) and combines them by
    // measured size at join time.
    let tuning = spec.bucket_tuning && spec.algorithm == Algorithm::GraceHash;
    if tuning {
        buckets = crate::split::bucket_analyzer(
            true,
            machine.cfg.disk_nodes,
            join_nodes.len(),
            buckets * 4,
        );
    }

    // Per-site memory: hash-table bytes per join process, or sort/merge
    // space per disk node for sort-merge. The operators allocate headroom
    // above the optimizer's estimate (hash-distribution variance and
    // per-entry overhead), so integral-ratio runs never overflow (§4).
    // Widened and saturated: `memory_bytes` may be "unbounded" (`u64::MAX`),
    // and a wrapped product would be a table of a few bytes.
    let headroom = 100 + machine.cfg.cost.table_headroom_pct;
    let with_headroom = spec.memory_bytes as u128 * headroom as u128 / 100;
    let capacity_per_site = u64::try_from(with_headroom / join_nodes.len() as u128)
        .unwrap_or(u64::MAX)
        .max(1);
    let filter_bits = spec
        .bit_filter
        .then(|| machine.cfg.cost.filter_bits_per_site(join_nodes.len()));

    let rz = Resolved {
        join_nodes,
        buckets,
        capacity_per_site,
        r_fragments,
        s_fragments,
        r_attr: spec.inner_attr,
        s_attr: spec.outer_attr,
        r_tuple_bytes,
        filter_bits,
        filter_bucket_forming: spec.bit_filter && spec.filter_bucket_forming,
        bucket_tuning: tuning,
        r_pred: spec.inner_pred,
        s_pred: spec.outer_pred,
        skew_refinement: spec.skew_refinement,
        dynamic_spill: spec.dynamic_spill,
    };

    machine.clear_pools();
    let out = match spec.algorithm {
        Algorithm::SortMerge => sort_merge::run(machine, &rz),
        Algorithm::SimpleHash => simple::run(machine, &rz),
        Algorithm::GraceHash => grace::run(machine, &rz),
        Algorithm::HybridHash => hybrid::run(machine, &rz),
    };
    debug_assert!(machine.fabric.is_drained(), "driver left unflushed packets");
    debug_assert!(
        machine.exchange.is_drained(),
        "driver left undelivered exchange messages"
    );

    let (response, summaries) = replay_phases(machine, &out.phases);

    // ---- utilisation + totals ----
    let nodes = machine.nodes();
    let mut per_node_cpu = vec![SimTime::ZERO; nodes];
    let mut total = Usage::ZERO;
    for ph in &out.phases {
        for (n, u) in ph.ledgers.iter().enumerate() {
            per_node_cpu[n] += u.cpu;
            total += u.clone();
        }
    }
    let util = |ns: &[usize]| -> f64 {
        if ns.is_empty() || response == SimTime::ZERO {
            return 0.0;
        }
        let sum: f64 = ns.iter().map(|&n| per_node_cpu[n].as_secs()).sum();
        sum / ns.len() as f64 / response.as_secs()
    };
    let disk_util = util(&machine.disk_nodes());
    let join_util = match spec.site {
        JoinSite::Local => disk_util,
        JoinSite::Remote | JoinSite::Mixed => {
            let d = machine.diskless_nodes();
            if d.is_empty() {
                disk_util
            } else {
                util(&d)
            }
        }
    };

    if let Some(name) = materialize_as {
        let schema = machine
            .relation(spec.inner)
            .schema
            .join(&machine.relation(spec.outer).schema);
        let id = machine.register_relation(
            name,
            schema,
            crate::machine::Declustering::RoundRobin,
            out.result.files.clone(),
        );
        *materialized = Some(id);
    } else {
        // Free the result files (the harness reruns thousands of joins;
        // tests validate through cardinality + checksum).
        for (n, f) in out.result.files.iter().enumerate() {
            crate::exec::delete_file(machine, n, *f);
        }
    }

    let demand = crate::throughput::DemandProfile::from_phases(machine, &out.phases, response);
    let report = JoinReport {
        algorithm: spec.algorithm.name().to_string(),
        response,
        phases: summaries,
        result_tuples: out.result.tuples,
        result_checksum: out.result.checksum,
        buckets: out.buckets,
        overflow_passes: out.overflow_passes,
        bnl_fallback: out.bnl_fallback,
        disk_node_cpu_utilization: disk_util,
        join_node_cpu_utilization: join_util,
        total,
        demand,
    };
    (report, out.phases)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_count_tracks_memory_ratio() {
        let spec = |mem: u64| {
            JoinSpec::new(
                Algorithm::HybridHash,
                0,
                1,
                Attr { offset: 0 },
                Attr { offset: 0 },
                mem,
            )
        };
        // The BENCH_joinabprime.json grid (10K tuples * 208B, 8 KB pages,
        // ratios 1.0 / 0.5 / 0.2): the page cap is 254 buckets away.
        let r = 2_080_000u64;
        assert_eq!(bucket_count(&spec(r), r, 8192, 8, 8), 1);
        assert_eq!(bucket_count(&spec(r / 2), r, 8192, 8, 8), 2);
        assert_eq!(bucket_count(&spec(r / 5), r, 8192, 8, 8), 5);
        assert_eq!(bucket_count(&spec(r / 10), r, 8192, 8, 8), 10);
    }

    #[test]
    fn bucket_count_is_capped_at_one_bucket_per_inner_page() {
        let hybrid = |mem: u64| {
            JoinSpec::new(
                Algorithm::HybridHash,
                0,
                1,
                Attr { offset: 0 },
                Attr { offset: 0 },
                mem,
            )
        };
        // ROADMAP item 4's crash: 10 000 x 32 B at one byte of memory asked
        // for 320 000 buckets, each an open 8 KB page at each of 8 writers.
        let (r, page) = (320_000u64, 8192usize);
        let pages = r.div_ceil(page as u64) as usize;
        assert_eq!(pages, 40);
        for algorithm in [Algorithm::HybridHash, Algorithm::GraceHash] {
            for policy in [OverflowPolicy::Pessimistic, OverflowPolicy::Optimistic] {
                let count = |mem: u64| {
                    let mut s = hybrid(mem);
                    s.algorithm = algorithm;
                    s.overflow_policy = policy;
                    bucket_count(&s, r, page, 8, 8)
                };
                assert_eq!(count(1), pages, "one byte: capped");
                let floor = (policy == OverflowPolicy::Optimistic) as usize;
                assert_eq!(count(page as u64), pages - floor, "one page: the ratio");
                assert_eq!(count(r / 10), 10, "inner/10: the memory ratio");
                assert_eq!(count(r), 1, "inner: one bucket");
            }
        }
        // The analyzer still adjusts on top of the capped request, and the
        // explicit knobs are not capped.
        assert!(bucket_count(&hybrid(1), r, page, 8, 16) >= pages);
        let mut s = hybrid(1);
        s.extra_buckets = 2;
        assert_eq!(bucket_count(&s, r, page, 8, 8), pages + 2);
        s.buckets_override = Some(100);
        assert_eq!(bucket_count(&s, r, page, 8, 8), 100);
    }

    #[test]
    fn optimistic_policy_uses_floor() {
        let r = 1_000u64;
        let mut s = JoinSpec::new(
            Algorithm::HybridHash,
            0,
            1,
            Attr { offset: 0 },
            Attr { offset: 0 },
            700,
        );
        s.overflow_policy = OverflowPolicy::Optimistic;
        assert_eq!(
            bucket_count(&s, r, 100, 8, 8),
            1,
            "0.7 ratio optimistic -> 1 bucket"
        );
        s.overflow_policy = OverflowPolicy::Pessimistic;
        assert_eq!(
            bucket_count(&s, r, 100, 8, 8),
            2,
            "0.7 ratio pessimistic -> 2 buckets"
        );
    }

    #[test]
    fn override_and_extra_buckets() {
        let r = 1_000u64;
        let mut s = JoinSpec::new(
            Algorithm::GraceHash,
            0,
            1,
            Attr { offset: 0 },
            Attr { offset: 0 },
            250,
        );
        assert_eq!(bucket_count(&s, r, 100, 8, 8), 4);
        s.extra_buckets = 1;
        assert_eq!(bucket_count(&s, r, 100, 8, 8), 5);
        s.buckets_override = Some(2);
        assert_eq!(bucket_count(&s, r, 100, 8, 8), 2);
    }

    #[test]
    fn algorithm_names() {
        assert_eq!(Algorithm::ALL.len(), 4);
        assert_eq!(Algorithm::HybridHash.name(), "hybrid");
    }
}
