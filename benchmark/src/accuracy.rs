//! Simulator accuracy: the bit-filter improvement of Table 4.
//!
//! The sixteen Table 4 percentages EXPERIMENTS.md quotes are the
//! repository's only numeric reference from the paper, so the distance to
//! them is its accuracy metric. This is `gamma_bench::experiments::table3`
//! restricted to the cells Table 4 needs (UU/NU/UN at 100 % memory and UU
//! at 17 %, four algorithms, filter off and on), over the run's own seeded
//! relations. Un-timed; `paper-grid`'s traced run only.

use gamma_core::{run_join, Algorithm, ExecConfig, Machine, MachineConfig};
use gamma_wisconsin::{join_abprime, load_range, oracle_join, WisconsinRow};

/// `(inner attr, outer attr, memory ratio, [sort-merge, simple, grace,
/// hybrid] % improvement in the paper)`.
const TABLE4: [(&str, &str, f64, [f64; 4]); 4] = [
    ("unique1", "unique1", 1.0, [39.5, 28.5, 5.7, 28.4]),
    ("normal", "unique1", 1.0, [55.7, 47.1, 10.0, 47.6]),
    ("unique1", "normal", 1.0, [39.5, 26.4, 5.8, 26.5]),
    ("unique1", "unique1", 0.17, [40.7, 33.5, 10.4, 14.2]),
];

/// Outcome of the accuracy pass.
pub struct Accuracy {
    /// Mean absolute error against the paper, percentage points.
    pub mae_pp: f64,
    pub attempted: u64,
    pub failed: u64,
}

/// Run the Table 4 cells over `inner ⋈ outer`.
pub fn table4(inner: &[WisconsinRow], outer: &[WisconsinRow]) -> Accuracy {
    let mut acc = Accuracy {
        mae_pp: 0.0,
        attempted: 0,
        failed: 0,
    };
    let mut abs_err = 0.0;
    for (inner_attr, outer_attr, ratio, paper) in TABLE4 {
        // §4.4 loading: range-partitioned on the join attributes.
        let mut m = Machine::new(MachineConfig::local_8()).with_exec(ExecConfig::serial());
        let a = load_range(&mut m, "A", outer, outer_attr);
        let b = load_range(&mut m, "Bprime", inner, inner_attr);
        let expect = oracle_join(inner, outer, inner_attr, outer_attr, None, None);
        let memory = (m.relation(b).data_bytes as f64 * ratio).ceil().max(1.0) as u64;
        for (alg, paper_pct) in Algorithm::ALL.into_iter().zip(paper) {
            let seconds = [false, true].map(|filter| {
                let mut spec = join_abprime(alg, b, a, inner_attr, outer_attr, memory);
                spec.bit_filter = filter;
                // The paper ran Grace with one extra bucket for NU so no
                // bucket would overflow.
                if alg == Algorithm::GraceHash && inner_attr == "normal" {
                    spec.extra_buckets = 1;
                }
                let report = run_join(&mut m, &spec);
                acc.attempted += 1;
                if report.result_tuples != expect.tuples
                    || report.result_checksum != expect.checksum
                {
                    acc.failed += 1;
                    eprintln!(
                        "FAILED table4 {} {inner_attr}/{outer_attr} r{ratio}",
                        alg.name()
                    );
                }
                report.seconds()
            });
            let improvement = 100.0 * (seconds[0] - seconds[1]) / seconds[0];
            abs_err += (improvement - paper_pct).abs();
        }
    }
    acc.mae_pp = abs_err / (TABLE4.len() * 4) as f64;
    acc
}
