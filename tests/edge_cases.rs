//! Edge cases and failure-injection: machine shapes, degenerate inputs
//! and adversarial data the figures never exercise.

use gamma_core::cost::CostModel;
use gamma_core::machine::{Declustering, MachineConfig};
use gamma_core::query::{Algorithm, JoinSite, JoinSpec};
use gamma_core::tuple::{Field, Schema};
use gamma_core::{run_join, Machine};
use gamma_des::Counts;

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
/// policy, and the result is exact. (These inputs used to panic with
/// "overflow recursion ran away".) No committed artifact reaches that exit,
/// so each case also pins its response and its total counts; the remote
/// row has diskless join nodes deal their results to the disk nodes'
/// stores.
#[test]
fn starved_simple_hash_hits_the_pass_cap_and_stays_exact() {
    let schema = small_schema();
    let attr = schema.int_attr("k");
    let mut pins = PINNED_BNL.iter();
    for (site, n, memories) in [
        (JoinSite::Local, 2_000u32, &[512u64, 1_024][..]),
        (JoinSite::Local, 10_000, &[2_048, 4_096]),
        (JoinSite::Remote, 2_000, &[512]),
    ] {
        let keys: Vec<u32> = (0..n).collect();
        let mut m = Machine::new(match site {
            JoinSite::Remote => MachineConfig::remote_8_plus_8(),
            _ => MachineConfig::local_8(),
        });
        let r = load(&mut m, "r", &keys);
        let s = load(&mut m, "s", &keys);
        let mut spec = JoinSpec::new(Algorithm::SimpleHash, r, s, attr, attr, 1 << 24);
        spec.site = site;
        let in_memory = run_join(&mut m, &spec);
        assert_eq!(in_memory.result_tuples, n as u64);
        assert_eq!(in_memory.overflow_passes, 0);
        for &memory in memories {
            for robust in [false, true] {
                spec.memory_bytes = memory;
                spec.skew_refinement = robust;
                spec.dynamic_spill = robust;
                let report = run_join(&mut m, &spec);
                let what = format!("{site:?} {n} x {n} at {memory} B, robust {robust}");
                assert_eq!(report.result_tuples, n as u64, "{what}");
                assert_eq!(report.result_checksum, in_memory.result_checksum, "{what}");
                assert!(report.bnl_fallback, "{what}: the cap exit is the BNL exit");
                assert_eq!(report.overflow_passes, 63, "{what}");
                let &(response, counts) = pins.next().expect("a pin per case");
                assert_eq!(report.response.as_us(), response, "{what}");
                assert_eq!(report.total.counts, counts, "{what}");
            }
        }
    }
}

/// The block-nested-loops cases above, in order: `(response µs, total
/// counts)`, the counts in [`Counts`] field order.
#[rustfmt::skip]
const PINNED_BNL: [(u64, Counts); 10] = [
    pin(149883310, [32, 1300, 7377, 8409, 3402, 110447, 2000, 105741, 706, 736, 0, 1032, 4604, 0, 0]),
    pin(151044130, [32, 1338, 7378, 8418, 3542, 111962, 2000, 107249, 713, 743, 0, 1040, 4662, 10, 1]),
    pin(102638020, [32, 1149, 8415, 9447, 2938, 77385, 2000, 71557, 1828, 2154, 0, 1032, 6779, 0, 0]),
    pin(102266290, [32, 1174, 8429, 9469, 3049, 77402, 2000, 71546, 1856, 2186, 0, 1040, 6834, 10, 1]),
    pin(814424700, [96, 5386, 21043, 22075, 12163, 568184, 10000, 545127, 3057, 4145, 0, 1032, 19450, 0, 0]),
    pin(815822060, [96, 5510, 20971, 22011, 12749, 575447, 10000, 552351, 3096, 4190, 0, 1040, 19787, 42, 0]),
    pin(443046270, [96, 4050, 17744, 18776, 9158, 425765, 10000, 397951, 7814, 11418, 0, 1032, 31605, 0, 0]),
    pin(437614460, [96, 4111, 17487, 18527, 9618, 426294, 10000, 398324, 7970, 11684, 0, 1040, 31854, 41, 1]),
    pin(138582390, [32, 1300, 10904, 11936, 547, 110447, 2000, 105741, 706, 736, 0, 1032, 4604, 0, 0]),
    pin(139792880, [32, 1338, 10903, 11943, 687, 111962, 2000, 107249, 713, 743, 0, 1040, 4662, 10, 1]),
];

const fn pin(response_us: u64, c: [u64; 15]) -> (u64, Counts) {
    let counts = Counts {
        pages_read: c[0],
        pages_written: c[1],
        packets_sent: c[2],
        packets_recv: c[3],
        msgs_shortcircuit: c[4],
        tuples_in: c[5],
        tuples_out: c[6],
        hash_inserts: c[7],
        hash_probes: c[8],
        comparisons: c[9],
        filter_drops: c[10],
        control_msgs: c[11],
        overflow_evictions: c[12],
        pages_spilled: c[13],
        pages_restored: c[14],
    };
    (response_us, counts)
}

/// Each join process deals its results round-robin to the disk nodes'
/// stores, starting at its own node, and restarts that rotation in every
/// pass. So a join of several passes stores a fixed number of results at
/// each disk node, and the response its store writes add up to is fixed
/// too. Grace at r0.2 runs one pass per bucket (and resprays a bucket that
/// overflows); optimistic Hybrid at r0.5 on skewed keys overflows and
/// resprays. Both results are materialized, and each case pins its
/// per-node fragment sizes and its response.
#[test]
fn multi_pass_joins_place_their_results_exactly() {
    use gamma_core::query::run_join_materialized;
    use gamma_core::query::OverflowPolicy::{Optimistic, Pessimistic};
    let schema = small_schema();
    let attr = schema.int_attr("k");
    let uniform: Vec<u32> = (0..2_000).collect();
    // A fifth of the inner keys share 40 values: their sites overflow.
    let skewed: Vec<u32> = (0..2_000)
        .map(|i| if i % 5 == 0 { i % 40 } else { i })
        .collect();
    let outer: Vec<u32> = (0..4_000).map(|i| i % 2_000).collect();
    let cases = [
        (Algorithm::GraceHash, Pessimistic, &uniform, 0.2),
        (Algorithm::HybridHash, Optimistic, &skewed, 0.5),
    ];
    for ((alg, policy, inner, ratio), pin) in cases.into_iter().zip(PINNED_PLACEMENT) {
        let mut m = Machine::new(MachineConfig::local_8());
        let r = load(&mut m, "r", inner);
        let s = load(&mut m, "s", &outer);
        let memory = (m.relation(r).data_bytes as f64 * ratio) as u64;
        let mut spec = JoinSpec::new(alg, r, s, attr, attr, memory);
        spec.overflow_policy = policy;
        let (id, report) = run_join_materialized(&mut m, &spec, "result");
        let what = format!("{} r{ratio}", alg.name());
        assert_eq!(report.result_tuples, 4_000, "{what}");
        assert!(!report.bnl_fallback, "{what}");
        let rel = m.relation(id);
        let placed: Vec<usize> = m
            .disk_nodes()
            .into_iter()
            .map(|n| m.nodes[n].vol().file_records(rel.fragments[n]))
            .collect();
        let got = (
            report.buckets,
            report.overflow_passes,
            placed,
            report.response.as_us(),
        );
        assert_eq!(got, (pin.0, pin.1, pin.2.to_vec(), pin.3), "{what}");
    }
}

/// The cases above, in order: `(buckets, overflow passes, result tuples
/// stored at each disk node, response µs)`.
#[rustfmt::skip]
const PINNED_PLACEMENT: [(usize, u32, [usize; 8], u64); 2] = [
    (5, 4, [501, 502, 500, 501, 499, 498, 500, 499], 9940830),
    (2, 2, [502, 501, 502, 499, 496, 498, 500, 502], 6665290),
];

/// 64-bit FNV-1a of `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Sort-merge reads each sorted run's pages in the order the merge join
/// reaches them: it opens R's run, takes R's first record, then opens S's
/// and takes S's first, and each run reads the page of the record after
/// the one it hands out. With 600-byte inner tuples on 1 KB pages every R
/// record has a run page of its own, so the merge join's disk request log
/// — and each phase's whole ledger with it, hashed here — pins that order,
/// which the response time alone does not. Pinned at unbounded memory and
/// at 8 KB (several merge passes per node).
#[test]
fn sort_merge_reads_run_pages_in_merge_order() {
    let mut cost = CostModel::gamma_1989();
    cost.disk.page_bytes = 1024;
    let cfg = MachineConfig {
        disk_nodes: 4,
        diskless_nodes: 0,
        cost,
    };
    let schema = |width: usize| {
        Schema::new(vec![
            Field::Int("k".into()),
            Field::Str("pad".into(), width - 4),
        ])
    };
    let (r_schema, s_schema) = (schema(600), schema(40));
    let (r_attr, s_attr) = (r_schema.int_attr("k"), s_schema.int_attr("k"));
    let tuples = |schema: &Schema, keys: Vec<u32>| -> Vec<Vec<u8>> {
        keys.into_iter()
            .map(|k| {
                let mut t = vec![0u8; schema.tuple_bytes()];
                schema.int_attr("k").put(&mut t, k);
                t
            })
            .collect()
    };
    for (memory, pin) in [1u64 << 40, 8_192].into_iter().zip(PINNED_SORT_MERGE) {
        let mut m = Machine::new(cfg.clone());
        let r = m.load_relation(
            "r",
            r_schema.clone(),
            Declustering::Hashed { attr: r_attr },
            tuples(&r_schema, (0..200).collect()),
        );
        let s = m.load_relation(
            "s",
            s_schema.clone(),
            Declustering::Hashed { attr: s_attr },
            tuples(&s_schema, (0..8_000).map(|k| k % 250).collect()),
        );
        let spec = JoinSpec::new(Algorithm::SortMerge, r, s, r_attr, s_attr, memory);
        let report = run_join(&mut m, &spec);
        let phases: Vec<(&str, u64)> = report
            .phases
            .iter()
            .map(|p| (p.name.as_str(), fnv1a(format!("{:?}", p.total).as_bytes())))
            .collect();
        let got = (report.response.as_us(), report.result_tuples, phases);
        assert_eq!(got, (pin.0, pin.1, pin.2.to_vec()), "{memory} B");
    }
}

/// Each phase's name and the FNV-1a of its total ledger's `Debug` text.
type PhaseDigests = [(&'static str, u64); 5];

/// The cases above, in order: `(response µs, result tuples, phases)`.
#[rustfmt::skip]
const PINNED_SORT_MERGE: [(u64, u64, PhaseDigests); 2] = [
    (37323310, 6400, [("partition R", 0xabe7_1709_7b62_b577), ("sort R", 0xb631_c9e4_41df_3f01), ("partition S", 0x794f_1eb1_f368_2542), ("sort S", 0xf297_ede2_865c_40b6), ("merge join", 0x4b0c_6d60_0734_f216)]),
    (52522010, 6400, [("partition R", 0xabe7_1709_7b62_b577), ("sort R", 0x0587_6f8d_3951_d1f1), ("partition S", 0x794f_1eb1_f368_2542), ("sort S", 0x103b_679c_2d02_af94), ("merge join", 0x4b0c_6d60_0734_f216)]),
];
