//! Edge cases and failure-injection: machine shapes, degenerate inputs
//! and adversarial data the figures never exercise.

use gamma_core::cost::CostModel;
use gamma_core::machine::{Declustering, MachineConfig};
use gamma_core::query::{Algorithm, JoinSite, JoinSpec};
use gamma_core::tuple::{Field, Schema};
use gamma_core::{run_join, Machine};

fn small_schema() -> Schema {
    Schema::new(vec![Field::Int("k".into()), Field::Str("pad".into(), 28)])
}

fn mk(schema: &Schema, k: u32) -> Vec<u8> {
    let mut t = vec![0u8; schema.tuple_bytes()];
    schema.int_attr("k").put(&mut t, k);
    t
}

fn load(machine: &mut Machine, name: &str, keys: &[u32]) -> gamma_core::RelationId {
    let s = small_schema();
    let attr = s.int_attr("k");
    machine.load_relation(
        name,
        s.clone(),
        Declustering::Hashed { attr },
        keys.iter().map(|&k| mk(&s, k)).collect::<Vec<_>>(),
    )
}

fn join(machine: &mut Machine, alg: Algorithm, r: usize, s: usize, mem: u64) -> u64 {
    let schema = small_schema();
    let attr = schema.int_attr("k");
    let spec = JoinSpec::new(alg, r, s, attr, attr, mem);
    run_join(machine, &spec).result_tuples
}

/// Empty inner, empty outer, both empty — all algorithms.
#[test]
fn empty_relations() {
    for alg in Algorithm::ALL {
        let mut m = Machine::new(MachineConfig::local_8());
        let empty = load(&mut m, "e", &[]);
        let full = load(&mut m, "f", &(0..100).collect::<Vec<_>>());
        assert_eq!(
            join(&mut m, alg, empty, full, 1024),
            0,
            "{} e⋈f",
            alg.name()
        );
        assert_eq!(
            join(&mut m, alg, full, empty, 1024),
            0,
            "{} f⋈e",
            alg.name()
        );
        assert_eq!(
            join(&mut m, alg, empty, empty, 1024),
            0,
            "{} e⋈e",
            alg.name()
        );
    }
}

/// A single-tuple inner against a single-tuple outer.
#[test]
fn singleton_relations() {
    for alg in Algorithm::ALL {
        let mut m = Machine::new(MachineConfig::local_8());
        let a = load(&mut m, "a", &[7]);
        let b = load(&mut m, "b", &[7]);
        let c = load(&mut m, "c", &[8]);
        assert_eq!(join(&mut m, alg, a, b, 64), 1, "{}", alg.name());
        assert_eq!(join(&mut m, alg, a, c, 64), 0, "{}", alg.name());
    }
}

/// A one-disk-node "machine" still runs every algorithm correctly.
#[test]
fn single_node_machine() {
    let cfg = MachineConfig {
        disk_nodes: 1,
        diskless_nodes: 0,
        cost: CostModel::gamma_1989(),
    };
    for alg in Algorithm::ALL {
        let mut m = Machine::new(cfg.clone());
        let r = load(&mut m, "r", &(0..50).collect::<Vec<_>>());
        let s = load(&mut m, "s", &(0..200).map(|k| k % 50).collect::<Vec<_>>());
        assert_eq!(join(&mut m, alg, r, s, 512), 200, "{}", alg.name());
    }
}

/// Asymmetric machines (3 disks + 5 diskless) exercise the bucket analyzer
/// on every remote join.
#[test]
fn asymmetric_machine_remote_joins() {
    let cfg = MachineConfig {
        disk_nodes: 3,
        diskless_nodes: 5,
        cost: CostModel::gamma_1989(),
    };
    for alg in [
        Algorithm::SimpleHash,
        Algorithm::GraceHash,
        Algorithm::HybridHash,
    ] {
        let mut m = Machine::new(cfg.clone());
        let r = load(&mut m, "r", &(0..300).collect::<Vec<_>>());
        let s = load(&mut m, "s", &(0..900).map(|k| k % 300).collect::<Vec<_>>());
        let schema = small_schema();
        let attr = schema.int_attr("k");
        let mut spec = JoinSpec::new(alg, r, s, attr, attr, 2_000);
        spec.site = JoinSite::Remote;
        let report = run_join(&mut m, &spec);
        assert_eq!(report.result_tuples, 900, "{}", alg.name());
    }
}

/// Every inner tuple carries the same key and the outer matches it: a
/// cross-product-like hot key that defeats hash partitioning entirely.
#[test]
fn single_hot_key_cross_product() {
    for alg in Algorithm::ALL {
        let mut m = Machine::new(MachineConfig::local_8());
        let r = load(&mut m, "r", &vec![42u32; 60]);
        let s = load(&mut m, "s", &[42u32; 40]);
        // Memory far below the hot key's footprint: hash joins must fall
        // back (BNL) and sort-merge must back up over duplicates.
        let got = join(&mut m, alg, r, s, 1_500);
        assert_eq!(got, 60 * 40, "{}", alg.name());
    }
}

/// Keys at the extremes of the u32 domain.
#[test]
fn extreme_key_values() {
    for alg in Algorithm::ALL {
        let mut m = Machine::new(MachineConfig::local_8());
        let keys = [0u32, 1, u32::MAX, u32::MAX - 1, 0x8000_0000];
        let r = load(&mut m, "r", &keys);
        let s = load(&mut m, "s", &keys);
        assert_eq!(
            join(&mut m, alg, r, s, 64),
            keys.len() as u64,
            "{}",
            alg.name()
        );
    }
}

/// Inner larger than outer (the paper always joins small ⋈ large; the
/// engine must still be correct if a caller gets it backwards).
#[test]
fn inner_larger_than_outer() {
    for alg in Algorithm::ALL {
        let mut m = Machine::new(MachineConfig::local_8());
        let big = load(&mut m, "big", &(0..500).collect::<Vec<_>>());
        let small = load(&mut m, "small", &(0..50).collect::<Vec<_>>());
        assert_eq!(join(&mut m, alg, big, small, 2_000), 50, "{}", alg.name());
    }
}

/// Non-standard page sizes end to end.
#[test]
fn alternate_page_sizes() {
    for page in [2048usize, 4096, 32768] {
        let mut cost = CostModel::gamma_1989();
        cost.disk.page_bytes = page;
        let cfg = MachineConfig {
            disk_nodes: 4,
            diskless_nodes: 0,
            cost,
        };
        for alg in Algorithm::ALL {
            let mut m = Machine::new(cfg.clone());
            let r = load(&mut m, "r", &(0..100).collect::<Vec<_>>());
            let s = load(&mut m, "s", &(0..400).map(|k| k % 100).collect::<Vec<_>>());
            assert_eq!(
                join(&mut m, alg, r, s, 1_000),
                400,
                "{} page={page}",
                alg.name()
            );
        }
    }
}

/// Memory of a single byte: the most extreme pressure representable. The
/// bucket count stays bounded by the inner relation's pages (here one),
/// not its 1 280 bytes — each bucket is an open page at every writer.
#[test]
fn one_byte_of_join_memory() {
    for alg in Algorithm::ALL {
        let mut m = Machine::new(MachineConfig::local_8());
        let r = load(&mut m, "r", &(0..40).collect::<Vec<_>>());
        let s = load(&mut m, "s", &(0..80).map(|k| k % 40).collect::<Vec<_>>());
        let attr = small_schema().int_attr("k");
        let report = run_join(&mut m, &JoinSpec::new(alg, r, s, attr, attr, 1));
        assert_eq!(report.result_tuples, 80, "{}", alg.name());
        assert_eq!(report.buckets, 1, "{}", alg.name());
    }
}

/// "Unbounded" join memory is a legal grant: `u64::MAX`, and the smallest
/// value whose product with the 135 % table headroom used to wrap `u64` (to
/// 29 — a one-byte table per site and a block-nested-loops fallback). Every
/// hash join, Grace with bucket tuning too, joins in memory and equals the
/// oracle; the tables reserve by their bucket arrays, not by the grant.
#[test]
fn unbounded_join_memory() {
    use gamma_wisconsin::{load_hashed, oracle_join, WisconsinGen};

    let gen = WisconsinGen::new(1989);
    let a_rows = gen.relation(2_000, 0);
    let b_rows = gen.relation(400, 7);
    let expect = oracle_join(&b_rows, &a_rows, "unique1", "unique1", None, None);
    let attr = WisconsinGen::schema().int_attr("unique1");
    let wraps = 136_642_548_694_144_827u64;
    assert_eq!(wraps.wrapping_mul(135), 29);
    for alg in [
        Algorithm::SimpleHash,
        Algorithm::GraceHash,
        Algorithm::HybridHash,
    ] {
        for memory in [u64::MAX, wraps] {
            for tuning in [false, alg == Algorithm::GraceHash] {
                let mut m = Machine::new(MachineConfig::local_8());
                let a = load_hashed(&mut m, "A", &a_rows, "unique1");
                let b = load_hashed(&mut m, "B", &b_rows, "unique1");
                let mut spec = JoinSpec::new(alg, b, a, attr, attr, memory);
                spec.bucket_tuning = tuning;
                let report = run_join(&mut m, &spec);
                let what = format!("{} at {memory} B, tuning {tuning}", alg.name());
                assert_eq!(report.result_tuples, expect.tuples, "{what}");
                assert_eq!(report.result_checksum, expect.checksum, "{what}");
                assert_eq!(report.overflow_passes, 0, "{what}");
                assert!(!report.bnl_fallback, "{what}");
            }
        }
    }
}

/// Remote sort-merge is rejected loudly (paper §3.1: the implementation
/// cannot utilize diskless processors).
#[test]
#[should_panic(expected = "cannot utilize diskless processors")]
fn remote_sort_merge_panics() {
    let mut m = Machine::new(MachineConfig::remote_8_plus_8());
    let r = load(&mut m, "r", &[1]);
    let s = load(&mut m, "s", &[1]);
    let schema = small_schema();
    let attr = schema.int_attr("k");
    let mut spec = JoinSpec::new(Algorithm::SortMerge, r, s, attr, attr, 64);
    spec.site = JoinSite::Remote;
    run_join(&mut m, &spec);
}

/// Remote joins without diskless nodes are rejected loudly.
#[test]
#[should_panic(expected = "without diskless nodes")]
fn remote_join_needs_diskless_nodes() {
    let mut m = Machine::new(MachineConfig::local_8());
    let r = load(&mut m, "r", &[1]);
    let s = load(&mut m, "s", &[1]);
    let schema = small_schema();
    let attr = schema.int_attr("k");
    let mut spec = JoinSpec::new(Algorithm::HybridHash, r, s, attr, attr, 64);
    spec.site = JoinSite::Remote;
    run_join(&mut m, &spec);
}

/// Bit filters stay exact under every edge shape above.
#[test]
fn filters_on_edge_shapes() {
    for alg in Algorithm::ALL {
        let mut m = Machine::new(MachineConfig::local_8());
        let r = load(&mut m, "r", &[9u32; 30]);
        let s = load(&mut m, "s", &(0..60).map(|k| k % 3 * 9).collect::<Vec<_>>());
        let schema = small_schema();
        let attr = schema.int_attr("k");
        let mut spec = JoinSpec::new(alg, r, s, attr, attr, 256);
        spec.bit_filter = true;
        let report = run_join(&mut m, &spec);
        // s values are 0, 9, 18; only 9 matches, 20 outer tuples carry it.
        assert_eq!(report.result_tuples, 30 * 20, "{}", alg.name());
    }
}

/// A Simple hash-join starved far below its inner relation needs more
/// respray passes than the resolve loop will run (each pass admits only a
/// few tuples per site). That is a legal input, not a runaway: reaching the
/// pass cap joins what is left by block-nested-loops, under either overflow
/// policy, and the result is exact. (These four inputs used to panic with
/// "overflow recursion ran away".)
#[test]
fn starved_simple_hash_hits_the_pass_cap_and_stays_exact() {
    let schema = small_schema();
    let attr = schema.int_attr("k");
    for (n, memories) in [(2_000u32, [512u64, 1_024]), (10_000, [2_048, 4_096])] {
        let keys: Vec<u32> = (0..n).collect();
        let mut m = Machine::new(MachineConfig::local_8());
        let r = load(&mut m, "r", &keys);
        let s = load(&mut m, "s", &keys);
        let in_memory = run_join(
            &mut m,
            &JoinSpec::new(Algorithm::SimpleHash, r, s, attr, attr, 1 << 24),
        );
        assert_eq!(in_memory.result_tuples, n as u64);
        assert_eq!(in_memory.overflow_passes, 0);
        for memory in memories {
            for robust in [false, true] {
                let mut spec = JoinSpec::new(Algorithm::SimpleHash, r, s, attr, attr, memory);
                spec.skew_refinement = robust;
                spec.dynamic_spill = robust;
                let report = run_join(&mut m, &spec);
                let what = format!("{n} x {n} at {memory} B, robust {robust}");
                assert_eq!(report.result_tuples, n as u64, "{what}");
                assert_eq!(report.result_checksum, in_memory.result_checksum, "{what}");
                assert!(report.bnl_fallback, "{what}: the cap exit is the BNL exit");
                assert_eq!(report.overflow_passes, 63, "{what}");
            }
        }
    }
}
