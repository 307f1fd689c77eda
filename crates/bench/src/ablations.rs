//! Ablation studies over the design choices the paper calls out.
//!
//! Every ablation measures its sweep points through [`pooled_map`]: with
//! a worker pool active the independent points run concurrently, results
//! gather in submission order, and all rendering happens after the
//! gather — so the report is byte-identical to the serial run. The
//! `ablations` binary prints [`render`]; `results/ablations.txt` is every
//! study, gated by `regress`.

use std::fmt::Write;

use gamma_core::cost::CostModel;
use gamma_core::query::Algorithm;
use gamma_core::{run_join, Machine, MachineConfig};
use gamma_des::TimingModel;
use gamma_wisconsin::{join_abprime, load_hashed, WisconsinGen, WisconsinRow};

use crate::sweep::{pooled_map, SweepBuilder, Workload};

/// Render the wanted studies (`filter_size`, `clearing`, `speedup`,
/// `multiuser`, `headroom`, `bucket_filter`, `tuning`, `convoy`) in that
/// order.
pub fn render(want: impl Fn(&str) -> bool) -> String {
    let mut out = String::new();
    let gen = WisconsinGen::new(1989);
    let a_rows = gen.relation(100_000, 0);
    let b_rows = gen.sample(&a_rows, 10_000, 1);

    if want("filter_size") {
        filter_size(&mut out, &a_rows, &b_rows);
    }
    if want("clearing") {
        clearing_pct(&mut out, &a_rows, &b_rows);
    }
    if want("speedup") {
        speedup(&mut out, &a_rows, &b_rows);
    }
    if want("multiuser") {
        multiuser(&mut out);
    }
    if want("headroom") {
        headroom(&mut out, &a_rows, &b_rows);
    }
    if want("bucket_filter") {
        bucket_forming_filters(&mut out);
    }
    if want("tuning") {
        bucket_tuning(&mut out);
    }
    if want("convoy") {
        convoy(&mut out);
    }
    out
}

/// Convoy effects: the queued timing model vs the legacy flat `max()`
/// bound as one knob — disk service time — drives the volumes toward
/// saturation. At the paper's operating point the two models agree to a
/// few percent (the joins are CPU-bound); past ~80 % disk utilisation the
/// flat bound keeps reporting `max(cpu, Σ service)` while the queues make
/// every burst of requests pay its serialisation.
fn convoy(out: &mut String) {
    out.push_str("\n== Ablation: convoy effects on a loaded volume (Grace, ratio 0.5) ==\n");
    let _ = writeln!(
        out,
        "{:<10} {:>10} {:>12} {:>12} {:>11} {:>12}",
        "disk slow", "disk util", "legacy(s)", "queued(s)", "divergence", "disk wait(s)"
    );
    let w = Workload::full();
    let rows = pooled_map("convoy point", vec![1u64, 2, 4, 6, 8], |slow| {
        let run = |model| {
            SweepBuilder::new(&w)
                .timing(model)
                .slow_disk(slow)
                .run_one(Algorithm::GraceHash, 0.5)
        };
        (slow, run(TimingModel::Legacy), run(TimingModel::Queued))
    });
    for (slow, legacy, queued) in rows {
        // Nominal load: aggregate disk service over the flat-bound
        // response across the 8 volumes.
        let util = legacy.report.total.disk.as_secs() / (legacy.seconds * 8.0);
        let _ = writeln!(
            out,
            "{:<10} {:>9.0}% {:>12.2} {:>12.2} {:>10.1}% {:>12.2}",
            format!("{slow}x"),
            util * 100.0,
            legacy.seconds,
            queued.seconds,
            (queued.seconds / legacy.seconds - 1.0) * 100.0,
            queued.report.total.disk_wait.as_secs(),
        );
    }
    out.push_str(concat!(
        "(The flat bound charges a loaded arm like an idle one, so queued\n",
        " waits grow monotonically with load — `disk wait` is total time\n",
        " requests sat in queues. The *relative* divergence peaks while the\n",
        " flat bound is still CPU-set (bursty writes hide entirely) and\n",
        " narrows once the disk term itself dominates the max().)\n",
    ));
}

/// Grace bucket tuning \[KITS83\], which §3.3 notes Gamma had not
/// implemented. For well-estimated uniform workloads the paper is right
/// that "the pessimistic choice is the best choice since extra buckets
/// are inexpensive" — tuning buys little. Its value is *robustness*: when
/// the optimizer's size estimate is wrong (here: it believes the inner
/// relation is 4x smaller than it is), the fixed plan overflows while the
/// tuned plan regroups by measured size and doesn't.
fn bucket_tuning(out: &mut String) {
    out.push_str("\n== Ablation: Grace bucket tuning under optimizer misestimates ==\n");
    let _ = writeln!(
        out,
        "{:<34} {:>12} {:>8} {:>8}",
        "plan", "response(s)", "rounds", "ovfl"
    );
    let gen = WisconsinGen::new(1989);
    let a_rows = gen.relation(100_000, 0);
    let b_rows = gen.sample(&a_rows, 10_000, 1);
    let cases = vec![
        ("fixed buckets (misestimated 4x)", false),
        ("bucket tuning (measured sizes)", true),
    ];
    let rows = pooled_map("tuning point", cases, |(label, tuned)| {
        let mut machine = Machine::new(MachineConfig::local_8());
        let a = load_hashed(&mut machine, "A", &a_rows, "unique1");
        let b = load_hashed(&mut machine, "Bprime", &b_rows, "unique1");
        let memory = machine.relation(b).data_bytes / 4; // true need: 4 buckets
        let mut spec = join_abprime(Algorithm::GraceHash, b, a, "unique1", "unique1", memory);
        // The optimizer believes |R| is 4x smaller: it plans ONE bucket.
        spec.buckets_override = Some(1);
        spec.bucket_tuning = tuned;
        let r = run_join(&mut machine, &spec);
        (label, r.seconds(), r.buckets, r.overflow_passes)
    });
    for (label, secs, rounds, ovfl) in rows {
        let _ = writeln!(
            out,
            "{:<34} {:>12.2} {:>8} {:>8}",
            label, secs, rounds, ovfl
        );
    }
    out.push_str(concat!(
        "(With tuning the 4 small buckets formed from the misestimated plan\n",
        " are regrouped by their measured sizes, so no join round overflows.)\n",
    ));
}

/// The improvement §4.2/§5 propose: "applying filtering techniques to the
/// bucket-forming phases of the Grace and Hybrid join algorithms would
/// significantly increase the performance of these algorithms."
fn bucket_forming_filters(out: &mut String) {
    out.push_str("\n== Ablation: filtering the bucket-forming phases (ratio 0.17) ==\n");
    let _ = writeln!(
        out,
        "{:<8} {:>12} {:>16} {:>18} {:>10}",
        "alg", "no filter", "join-phase only", "+ bucket-forming", "pageIOs"
    );
    let w = Workload::scaled(100_000, 10_000);
    let rows = pooled_map(
        "bucket-filter point",
        vec![Algorithm::GraceHash, Algorithm::HybridHash],
        |alg| {
            let plain = SweepBuilder::new(&w).run_one(alg, 0.17);
            let joinf = SweepBuilder::new(&w).filtered(true).run_one(alg, 0.17);
            let formf = SweepBuilder::new(&w)
                .filter_bucket_forming()
                .run_one(alg, 0.17);
            (plain, joinf, formf)
        },
    );
    for (plain, joinf, formf) in rows {
        let _ = writeln!(
            out,
            "{:<8} {:>11.2}s {:>15.2}s {:>17.2}s {:>10}",
            plain.algorithm,
            plain.seconds,
            joinf.seconds,
            formf.seconds,
            formf.report.page_ios(),
        );
    }
    out.push_str(concat!(
        "(Per-bucket filters built while R is bucket-formed kill non-joining\n",
        " S tuples before they are spooled — the disk I/O filtering could\n",
        " never save in the paper's implementation.)\n",
    ));
}

fn run_with_cost(
    cost: CostModel,
    a_rows: &[WisconsinRow],
    b_rows: &[WisconsinRow],
    alg: Algorithm,
    ratio: f64,
    filter: bool,
) -> gamma_core::JoinReport {
    let cfg = MachineConfig {
        disk_nodes: 8,
        diskless_nodes: 0,
        cost,
    };
    let mut machine = Machine::new(cfg);
    let a = load_hashed(&mut machine, "A", a_rows, "unique1");
    let b = load_hashed(&mut machine, "Bprime", b_rows, "unique1");
    let memory = (machine.relation(b).data_bytes as f64 * ratio).ceil() as u64;
    let mut spec = join_abprime(alg, b, a, "unique1", "unique1", memory);
    spec.bit_filter = filter;
    run_join(&mut machine, &spec)
}

/// §4.2 says "obviously using a larger bit filter would further improve the
/// performance of each of these join algorithms" — quantify it.
fn filter_size(out: &mut String, a_rows: &[WisconsinRow], b_rows: &[WisconsinRow]) {
    out.push_str("\n== Ablation: bit-filter size (Hybrid & Sort-merge, ratio 1.0) ==\n");
    let _ = writeln!(
        out,
        "{:<12} {:>10} {:>12} {:>12}",
        "filter", "bits/site", "hybrid(s)", "sortmerge(s)"
    );
    let rows = pooled_map(
        "filter-size point",
        vec![0u64, 1024, 2048, 8192, 32768],
        |packet_bytes| {
            let mut cost = CostModel::gamma_1989();
            let filter = packet_bytes > 0;
            if filter {
                cost.filter_packet_bytes = packet_bytes;
            }
            let bits = if filter {
                cost.filter_bits_per_site(8)
            } else {
                0
            };
            let h = run_with_cost(
                cost.clone(),
                a_rows,
                b_rows,
                Algorithm::HybridHash,
                1.0,
                filter,
            );
            let s = run_with_cost(cost, a_rows, b_rows, Algorithm::SortMerge, 1.0, filter);
            (packet_bytes, filter, bits, h.seconds(), s.seconds())
        },
    );
    for (packet_bytes, filter, bits, h_secs, s_secs) in rows {
        let _ = writeln!(
            out,
            "{:<12} {:>10} {:>12.2} {:>12.2}",
            if filter {
                format!("{packet_bytes}B")
            } else {
                "off".into()
            },
            bits,
            h_secs,
            s_secs
        );
    }
    out.push_str(concat!(
        "(The paper's single 2 KB packet is nearly saturated at one bucket;\n",
        " growing the filter keeps paying until all non-joining tuples die.)\n",
    ));
}

/// The 10% clearing heuristic of §4.1: how sensitive is Simple hash to the
/// fraction cleared per overflow?
fn clearing_pct(out: &mut String, a_rows: &[WisconsinRow], b_rows: &[WisconsinRow]) {
    out.push_str("\n== Ablation: overflow clearing fraction (Simple, ratio 0.5) ==\n");
    let _ = writeln!(
        out,
        "{:<8} {:>12} {:>8} {:>12}",
        "clear%", "response(s)", "passes", "evictions"
    );
    let rows = pooled_map("clearing point", vec![5u64, 10, 20, 35, 50], |pct| {
        let mut cost = CostModel::gamma_1989();
        cost.overflow_clear_pct = pct;
        let r = run_with_cost(cost, a_rows, b_rows, Algorithm::SimpleHash, 0.5, false);
        (
            pct,
            r.seconds(),
            r.overflow_passes,
            r.total.counts.overflow_evictions,
        )
    });
    for (pct, secs, passes, evictions) in rows {
        let _ = writeln!(
            out,
            "{:<8} {:>12.2} {:>8} {:>12}",
            pct, secs, passes, evictions
        );
    }
    out.push_str(concat!(
        "(Clearing little risks repeated clearings; clearing a lot spools\n",
        " tuples that would have fit. The paper picked 10%.)\n",
    ));
}

/// Speedup: fixed problem, growing machine (a DeWitt88-style study the
/// simulator makes free).
fn speedup(out: &mut String, a_rows: &[WisconsinRow], b_rows: &[WisconsinRow]) {
    out.push_str("\n== Ablation: speedup of Hybrid joinABprime (ratio 0.5) ==\n");
    let _ = writeln!(out, "{:<8} {:>12} {:>9}", "disks", "response(s)", "speedup");
    let rows = pooled_map("speedup point", vec![1usize, 2, 4, 8, 16, 32], |disks| {
        let cfg = MachineConfig {
            disk_nodes: disks,
            diskless_nodes: 0,
            cost: CostModel::gamma_1989(),
        };
        let mut machine = Machine::new(cfg);
        let a = load_hashed(&mut machine, "A", a_rows, "unique1");
        let b = load_hashed(&mut machine, "Bprime", b_rows, "unique1");
        let memory = machine.relation(b).data_bytes / 2;
        let spec = join_abprime(Algorithm::HybridHash, b, a, "unique1", "unique1", memory);
        (disks, run_join(&mut machine, &spec).seconds())
    });
    let base = rows[0].1;
    for (disks, secs) in rows {
        let _ = writeln!(out, "{:<8} {:>12.2} {:>8.2}x", disks, secs, base / secs);
    }
    out.push_str(concat!(
        "(Near-linear until per-node work shrinks toward the fixed\n",
        " scheduling overheads — the classic shared-nothing story.)\n",
    ));
}

/// §5: "offloading joins to remote processors may permit higher throughput
/// by reducing the load at the processors with disks." Estimate the
/// multiuser throughput bound from disk-node busy time: with every query
/// needing the disk nodes, steady-state throughput is capped by
/// 1 / (disk-node busy seconds per query).
fn multiuser(out: &mut String) {
    out.push_str("\n== Ablation: multiuser throughput bound, non-HPJA Hybrid (ratio 1.0) ==\n");
    let _ = writeln!(
        out,
        "{:<8} {:>12} {:>12} {:>18}",
        "config", "response(s)", "Dmax(s)", "max queries/hour"
    );
    let w = Workload::scaled(100_000, 10_000);
    let cases = vec![("local", false), ("remote", true)];
    let rows = pooled_map("multiuser point", cases, |(label, remote)| {
        let b = if remote {
            SweepBuilder::new(&w).on("unique2", "unique2").remote()
        } else {
            SweepBuilder::new(&w).on("unique2", "unique2")
        };
        (label, b.run_one(Algorithm::HybridHash, 1.0))
    });
    for (label, p) in rows {
        // Operational analysis over the measured per-node demands: the
        // bottleneck law caps throughput at 1 / D_max.
        let x = p.report.demand.throughput_bound(u32::MAX, 0.0);
        let _ = writeln!(
            out,
            "{:<8} {:>12.2} {:>12.2} {:>18.0}",
            label,
            p.seconds,
            p.report.demand.bottleneck(),
            x * 3600.0
        );
    }
    out.push_str(concat!(
        "(The remote configuration shrinks the disk nodes' per-query demand\n",
        " — the bottleneck D_max — so the operational bound 1/D_max admits\n",
        " ~70% more concurrent queries: §5's conjecture, quantified.)\n",
    ));
}

/// How much slack the join operators allocate over the optimizer's per-site
/// estimate decides when integral-ratio runs stop overflowing.
fn headroom(out: &mut String, a_rows: &[WisconsinRow], b_rows: &[WisconsinRow]) {
    out.push_str("\n== Ablation: hash-table headroom (Hybrid, ratio 0.125 = 8 buckets) ==\n");
    let _ = writeln!(
        out,
        "{:<10} {:>12} {:>8}",
        "headroom", "response(s)", "passes"
    );
    let rows = pooled_map("headroom point", vec![0u64, 10, 20, 35, 50], |pct| {
        let mut cost = CostModel::gamma_1989();
        cost.table_headroom_pct = pct;
        let r = run_with_cost(cost, a_rows, b_rows, Algorithm::HybridHash, 0.125, false);
        (pct, r.seconds(), r.overflow_passes)
    });
    for (pct, secs, passes) in rows {
        let _ = writeln!(
            out,
            "{:<10} {:>12.2} {:>8}",
            format!("{pct}%"),
            secs,
            passes
        );
    }
    out.push_str(concat!(
        "(Too little slack and hash-distribution variance forces overflow\n",
        " passes the paper's runs never saw; 35% absorbs the variance.)\n",
    ));
}
