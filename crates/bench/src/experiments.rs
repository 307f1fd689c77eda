//! One function per paper table/figure.
//!
//! Each returns the measured series; [`render`] lays the wanted ones out
//! as TSV blocks whose rows mirror what the paper plots, each sweep
//! followed by an ASCII chart. The `figures` binary prints it, and
//! `results/figures_full.txt` — every figure and table at full scale,
//! gated by `regress` — is what `EXPERIMENTS.md` sets against the paper's
//! qualitative claims.

use std::fmt::Write;

use gamma_core::query::{Algorithm, OverflowPolicy};

use crate::plot;
use crate::sweep::{paper_ratios, pooled_map, ExperimentPoint, SweepBuilder, Workload};

/// One series as a block: a `== title ==` line, a header and one row per
/// point.
fn render_series(title: &str, pts: &[ExperimentPoint]) -> String {
    let mut out = format!("\n== {title} ==\n");
    let _ = writeln!(
        out,
        "{:<12} {:>7} {:>10} {:>8} {:>10} {:>10} {:>9}",
        "algorithm", "ratio", "seconds", "buckets", "pageIOs", "packets", "ovfl"
    );
    for p in pts {
        let _ = writeln!(
            out,
            "{:<12} {:>7.3} {:>10.2} {:>8} {:>10} {:>10} {:>9}",
            p.algorithm,
            p.ratio,
            p.seconds,
            p.report.buckets,
            p.report.page_ios(),
            p.report.packets(),
            p.report.overflow_passes,
        );
    }
    out
}

/// A figure: its name on the `figures` command line, its title, its
/// sweep, and whether an ASCII chart follows the block.
type Figure = (
    &'static str,
    &'static str,
    fn(&Workload) -> Vec<ExperimentPoint>,
    bool,
);

/// Figures 5–16 in report order.
const FIGURES: [Figure; 12] = [
    ("fig05", "Figure 5: HPJA joins, local", fig05, true),
    ("fig06", "Figure 6: non-HPJA joins, local", fig06, true),
    (
        "fig07",
        "Figure 7: Hybrid overflow vs extra bucket",
        fig07,
        true,
    ),
    (
        "fig08",
        "Figure 8: HPJA joins with bit filters",
        fig08,
        false,
    ),
    (
        "fig09",
        "Figure 9: non-HPJA joins with bit filters",
        fig09,
        false,
    ),
    (
        "fig10",
        "Figure 10: Hybrid filter effect",
        |w| fig10_13(w, Algorithm::HybridHash),
        false,
    ),
    (
        "fig11",
        "Figure 11: Simple filter effect",
        |w| fig10_13(w, Algorithm::SimpleHash),
        false,
    ),
    (
        "fig12",
        "Figure 12: Grace filter effect",
        |w| fig10_13(w, Algorithm::GraceHash),
        false,
    ),
    (
        "fig13",
        "Figure 13: Sort-merge filter effect",
        |w| fig10_13(w, Algorithm::SortMerge),
        false,
    ),
    (
        "fig14",
        "Figure 14: remote joins, HPJA vs non-HPJA",
        fig14,
        false,
    ),
    ("fig15", "Figure 15: local vs remote, HPJA", fig15, false),
    (
        "fig16",
        "Figure 16: local vs remote, non-HPJA",
        fig16,
        false,
    ),
];

/// Render the wanted figures (`fig05` … `fig16`) and `table3` (which
/// brings Table 4 with it) over `w`, in report order.
pub fn render(w: &Workload, want: impl Fn(&str) -> bool) -> String {
    let mut out = String::new();
    for (name, title, sweep, chart) in FIGURES {
        if want(name) {
            let pts = sweep(w);
            out += &render_series(title, &pts);
            if chart {
                let _ = writeln!(out, "{}", plot::render(&pts, 64, 18));
            }
        }
    }
    if want("table3") {
        let t3 = table3(w);
        out += &render_series("Table 3: non-uniform join attribute values", &t3);
        out += "\n== Table 4: % improvement from bit filters ==\n";
        for (name, impr) in table4(&t3) {
            let _ = writeln!(out, "{name:<28} {impr:>6.1}%");
        }
    }
    out
}

/// Figure 5: HPJA joins, local configuration, no filters.
pub fn fig05(w: &Workload) -> Vec<ExperimentPoint> {
    SweepBuilder::new(w).run(&Algorithm::ALL, &paper_ratios())
}

/// Figure 6: non-HPJA joins (join on `unique2`), local, no filters.
pub fn fig06(w: &Workload) -> Vec<ExperimentPoint> {
    SweepBuilder::new(w)
        .on("unique2", "unique2")
        .run(&Algorithm::ALL, &paper_ratios())
}

/// Figure 7: Hybrid between ratios 0.5 and 1.0 — optimistic (overflow)
/// vs pessimistic (two buckets) vs the optimal endpoints.
pub fn fig07(w: &Workload) -> Vec<ExperimentPoint> {
    let ratios = [0.5, 0.6, 0.7, 0.8, 0.9, 1.0];
    let cases: Vec<(OverflowPolicy, &str, f64)> = [
        (OverflowPolicy::Optimistic, "hybrid-overflow"),
        (OverflowPolicy::Pessimistic, "hybrid-2bucket"),
    ]
    .into_iter()
    .flat_map(|(policy, label)| ratios.into_iter().map(move |r| (policy, label, r)))
    .collect();
    pooled_map("fig07 point", cases, |(policy, label, r)| {
        let mut p = SweepBuilder::new(w)
            .policy(policy)
            .run_one(Algorithm::HybridHash, r);
        p.algorithm = label.into();
        p
    })
}

/// Figure 8: HPJA joins with bit filters, local.
pub fn fig08(w: &Workload) -> Vec<ExperimentPoint> {
    SweepBuilder::new(w)
        .filtered(true)
        .run(&Algorithm::ALL, &paper_ratios())
}

/// Figure 9: non-HPJA joins with bit filters, local.
pub fn fig09(w: &Workload) -> Vec<ExperimentPoint> {
    SweepBuilder::new(w)
        .on("unique2", "unique2")
        .filtered(true)
        .run(&Algorithm::ALL, &paper_ratios())
}

/// Figures 10-13: per-algorithm filter on/off comparison (HPJA, local).
pub fn fig10_13(w: &Workload, algorithm: Algorithm) -> Vec<ExperimentPoint> {
    let cases: Vec<(bool, &str, f64)> = [(false, "nofilter"), (true, "filter")]
        .into_iter()
        .flat_map(|(f, label)| paper_ratios().into_iter().map(move |r| (f, label, r)))
        .collect();
    pooled_map("fig10-13 point", cases, |(f, label, r)| {
        let mut p = SweepBuilder::new(w).filtered(f).run_one(algorithm, r);
        p.algorithm = format!("{}-{}", algorithm.name(), label);
        p
    })
}

/// Figure 14: remote configuration, HPJA vs non-HPJA (hash joins only).
pub fn fig14(w: &Workload) -> Vec<ExperimentPoint> {
    let algs = [
        Algorithm::SimpleHash,
        Algorithm::GraceHash,
        Algorithm::HybridHash,
    ];
    let cases: Vec<(&str, &str, Algorithm, f64)> = [("unique1", "hpja"), ("unique2", "nonhpja")]
        .into_iter()
        .flat_map(|(attr, label)| {
            algs.into_iter().flat_map(move |alg| {
                paper_ratios()
                    .into_iter()
                    .map(move |r| (attr, label, alg, r))
            })
        })
        .collect();
    pooled_map("fig14 point", cases, |(attr, label, alg, r)| {
        let mut p = SweepBuilder::new(w).on(attr, attr).remote().run_one(alg, r);
        p.algorithm = format!("{}-{}", alg.name(), label);
        p
    })
}

/// Figure 15: local vs remote, HPJA.
pub fn fig15(w: &Workload) -> Vec<ExperimentPoint> {
    local_vs_remote(w, "unique1")
}

/// Figure 16: local vs remote, non-HPJA.
pub fn fig16(w: &Workload) -> Vec<ExperimentPoint> {
    local_vs_remote(w, "unique2")
}

fn local_vs_remote(w: &Workload, attr: &str) -> Vec<ExperimentPoint> {
    let algs = [
        Algorithm::SimpleHash,
        Algorithm::GraceHash,
        Algorithm::HybridHash,
    ];
    let cases: Vec<(bool, Algorithm, f64)> = [false, true]
        .into_iter()
        .flat_map(|remote| {
            algs.into_iter()
                .flat_map(move |alg| paper_ratios().into_iter().map(move |r| (remote, alg, r)))
        })
        .collect();
    pooled_map("local-vs-remote point", cases, |(remote, alg, r)| {
        let b = if remote {
            SweepBuilder::new(w).on(attr, attr).remote()
        } else {
            SweepBuilder::new(w).on(attr, attr)
        };
        let mut p = b.run_one(alg, r);
        p.algorithm = format!("{}-{}", alg.name(), if remote { "remote" } else { "local" });
        p
    })
}

/// Table 3: skewed join-attribute distributions (UU / NU / UN) at 100 %
/// and 17 % memory, relations range-partitioned on the join attributes,
/// with and without bit filters.
pub fn table3(w: &Workload) -> Vec<ExperimentPoint> {
    let combos: [(&str, &str, &str); 3] = [
        ("unique1", "unique1", "UU"),
        ("normal", "unique1", "NU"),
        ("unique1", "normal", "UN"),
    ];
    let mut cases: Vec<(&str, &str, &str, bool, f64, &str, Algorithm)> = Vec::new();
    for (inner, outer, tag) in combos {
        for filter in [false, true] {
            for (ratio, mtag) in [(1.0, "100%"), (0.17, "17%")] {
                for alg in Algorithm::ALL {
                    cases.push((inner, outer, tag, filter, ratio, mtag, alg));
                }
            }
        }
    }
    pooled_map(
        "table3 point",
        cases,
        |(inner, outer, tag, filter, ratio, mtag, alg)| {
            let mut b = SweepBuilder::new(w)
                .on(inner, outer)
                .range_loaded()
                .filtered(filter);
            // The paper ran Grace with one extra bucket for NU so no
            // bucket would overflow.
            if alg == Algorithm::GraceHash && inner == "normal" {
                b = b.extra_buckets(1);
            }
            let mut p = b.run_one(alg, ratio);
            p.algorithm = format!(
                "{}-{}-{}-{}",
                alg.name(),
                tag,
                mtag,
                if filter { "filter" } else { "nofilter" }
            );
            p
        },
    )
}

/// Table 4 is derived from Table 3: percentage improvement from filtering.
pub fn table4(t3: &[ExperimentPoint]) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for p in t3 {
        if let Some(base_name) = p.algorithm.strip_suffix("-nofilter") {
            let with = t3
                .iter()
                .find(|q| q.algorithm == format!("{base_name}-filter") && q.ratio == p.ratio);
            if let Some(withf) = with {
                let impr = 100.0 * (p.seconds - withf.seconds) / p.seconds;
                out.push((format!("{base_name}@{}", p.ratio), impr));
            }
        }
    }
    out
}
