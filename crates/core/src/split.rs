//! Split tables and the optimizer bucket analyzer (Appendix A).
//!
//! Split tables are Gamma's data-partitioning mechanism. A producing
//! process applies the randomizing hash to the join attribute, takes it
//! `mod` the number of entries and routes the tuple to the entry's
//! destination. Three kinds appear in the paper:
//!
//! * the **loading split table** — `D` entries, one per disk node — used
//!   when a relation is declustered at load time with the `hashed` policy;
//! * the **joining split table** — `J` entries, one per join process;
//! * the **partitioning split table** — used by Grace and Hybrid during
//!   bucket-forming. Grace: `N·D` entries laid out bucket-major (all the
//!   disk nodes of bucket 1, then bucket 2, …). Hybrid: `J + D·(N−1)`
//!   entries — bucket 1 routes straight to the join processes, the
//!   remaining buckets to disk, in the same bucket-major layout.
//!
//! Because loading used `h(key) mod D` and the bucket-major layout makes
//! entry `i` of a Grace table map to node `i mod D`, an HPJA join routes
//! every tuple back to its own node — the short-circuiting the paper
//! measures. The same layout gives the pathological distributions of
//! Appendix A Tables 3/4 when `J ≠ D`, which the **bucket analyzer**
//! detects and repairs by adding buckets.

use crate::machine::NodeId;

/// One entry of a partitioning split table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitEntry {
    /// Destination processor.
    pub node: NodeId,
    /// 1-based bucket this entry belongs to.
    pub bucket: usize,
}

/// Where a routed tuple should go.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// Deliver to join process `site` (its index in the join-site list),
    /// which runs at `node` — bucket 1 of Hybrid.
    Join { node: NodeId, site: usize },
    /// Append to the fragment of `bucket` stored at disk node `node`.
    Spool { node: NodeId, bucket: usize },
}

/// A joining split table: one entry per join process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoiningSplitTable {
    /// Destination join processors, in entry order.
    pub dests: Vec<NodeId>,
}

impl JoiningSplitTable {
    /// Build from the join processor list.
    pub fn new(dests: Vec<NodeId>) -> Self {
        assert!(!dests.is_empty(), "joining split table cannot be empty");
        JoiningSplitTable { dests }
    }

    /// Number of entries.
    pub fn entries(&self) -> usize {
        self.dests.len()
    }

    /// Index of the join site for hash value `h` (this is also the site's
    /// position in the join-site list, used for per-site state).
    #[inline]
    pub fn site_index(&self, h: u64) -> usize {
        (h % self.dests.len() as u64) as usize
    }

    /// Destination node for hash value `h`.
    #[inline]
    pub fn route(&self, h: u64) -> NodeId {
        self.dests[self.site_index(h)]
    }
}

/// Configuration for skew-aware split-table refinement.
///
/// An entry is **hot** when its sampled tuple count exceeds
/// `overload_pct` percent of the mean per-entry count; refinement expands
/// the table `expand`-fold so each hot residue class splits into `expand`
/// sub-ranges that are spread round-robin across the table's destinations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RefineCfg {
    /// Hot threshold as a percentage of the mean per-entry load (200 =
    /// twice the mean).
    pub overload_pct: u64,
    /// Sub-ranges each hot entry is split into (the refined table has
    /// `entries × expand` entries).
    pub expand: usize,
}

impl Default for RefineCfg {
    fn default() -> Self {
        RefineCfg {
            overload_pct: 200,
            expand: 8,
        }
    }
}

/// A partitioning split table (Grace or Hybrid layout).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitioningSplitTable {
    entries: Vec<SplitEntry>,
    /// For each entry, `Some(site)` when the entry routes to bucket 1's
    /// join process `site` rather than to disk (Hybrid); `None` for spool
    /// entries (all of Grace).
    join_sites: Vec<Option<u32>>,
}

impl PartitioningSplitTable {
    /// Grace layout: `buckets × disk_nodes` entries, bucket-major.
    pub fn grace(disk_nodes: &[NodeId], buckets: usize) -> Self {
        assert!(buckets >= 1 && !disk_nodes.is_empty());
        let mut entries = Vec::with_capacity(buckets * disk_nodes.len());
        for b in 1..=buckets {
            for &node in disk_nodes {
                entries.push(SplitEntry { node, bucket: b });
            }
        }
        let join_sites = vec![None; entries.len()];
        PartitioningSplitTable {
            entries,
            join_sites,
        }
    }

    /// Hybrid layout: `join_nodes` entries for bucket 1 (destined for the
    /// join processes) followed by `disk_nodes × (buckets − 1)` bucket-major
    /// spool entries. At one bucket nothing spools and the table *is* the
    /// joining split table, `h mod J` — the form Simple hash, every
    /// Grace/Hybrid bucket join and every overflow respray route through
    /// (`disk_nodes` may then be empty).
    pub fn hybrid(join_nodes: &[NodeId], disk_nodes: &[NodeId], buckets: usize) -> Self {
        assert!(buckets >= 1 && !join_nodes.is_empty());
        assert!(buckets == 1 || !disk_nodes.is_empty());
        let mut entries = Vec::with_capacity(join_nodes.len() + disk_nodes.len() * (buckets - 1));
        let mut join_sites = Vec::with_capacity(entries.capacity());
        for (i, &node) in join_nodes.iter().enumerate() {
            entries.push(SplitEntry { node, bucket: 1 });
            join_sites.push(Some(i as u32));
        }
        for b in 2..=buckets {
            for &node in disk_nodes {
                entries.push(SplitEntry { node, bucket: b });
                join_sites.push(None);
            }
        }
        PartitioningSplitTable {
            entries,
            join_sites,
        }
    }

    /// Number of entries (determines the mod base and the table's size in
    /// control messages).
    pub fn entries(&self) -> usize {
        self.entries.len()
    }

    /// Number of buckets the table partitions into.
    pub fn buckets(&self) -> usize {
        self.entries.iter().map(|e| e.bucket).max().unwrap_or(1)
    }

    /// Route hash value `h`.
    #[inline]
    pub fn route(&self, h: u64) -> Route {
        let idx = (h % self.entries.len() as u64) as usize;
        let e = self.entries[idx];
        match self.join_sites[idx] {
            Some(site) => Route::Join {
                node: e.node,
                site: site as usize,
            },
            None => Route::Spool {
                node: e.node,
                bucket: e.bucket,
            },
        }
    }

    /// Raw entries (tests, display).
    pub fn raw(&self) -> &[SplitEntry] {
        &self.entries
    }

    /// Per-entry join-site assignments parallel to [`raw`](Self::raw)
    /// (`Some(site)` for bucket-1 join entries, `None` for spool entries).
    pub fn raw_join_sites(&self) -> &[Option<u32>] {
        &self.join_sites
    }

    /// Skew-aware refinement: given a per-entry tuple-count histogram
    /// sampled during bucket-forming, split every hot residue class across
    /// the table's other destinations.
    ///
    /// The refined table has `entries × expand` entries; entry `j` covers
    /// the hash residues `h ≡ j (mod entries × expand)`, all of which
    /// belong to base residue class `j mod entries` — so non-hot classes
    /// keep their base destination bit-for-bit, while each hot class's
    /// `expand` sub-ranges are dealt round-robin across the base table's
    /// destination pool (join entries over the join-site pool, spool
    /// entries over the bucket-major spool pool). Tuples with equal keys
    /// still share a residue, so co-location of matches — the property
    /// partitioned hash join needs — is preserved by construction.
    ///
    /// Returns `None` when no entry is hot (the common, uniform case), so
    /// callers can skip the re-broadcast.
    pub fn refine(&self, hist: &[u64], cfg: &RefineCfg) -> Option<PartitioningSplitTable> {
        let e = self.entries.len();
        assert_eq!(hist.len(), e, "histogram must have one cell per entry");
        if cfg.expand < 2 {
            return None;
        }
        let total: u64 = hist.iter().sum();
        if total == 0 {
            return None;
        }
        // hot ⇔ count > mean × overload_pct / 100, in exact integer math:
        // count · E · 100 > total · overload_pct.
        let hot: Vec<bool> = hist
            .iter()
            .map(|&c| {
                (c as u128) * (e as u128) * 100 > (total as u128) * (cfg.overload_pct as u128)
            })
            .collect();
        if !hot.iter().any(|&h| h) {
            return None;
        }
        let join_pool: Vec<(NodeId, u32)> = self
            .entries
            .iter()
            .zip(&self.join_sites)
            .filter_map(|(en, js)| js.map(|s| (en.node, s)))
            .collect();
        let spool_pool: Vec<(NodeId, usize)> = self
            .entries
            .iter()
            .zip(&self.join_sites)
            .filter(|(_, js)| js.is_none())
            .map(|(en, _)| (en.node, en.bucket))
            .collect();
        let m = e * cfg.expand;
        let mut entries = Vec::with_capacity(m);
        let mut join_sites = Vec::with_capacity(m);
        let (mut rr_join, mut rr_spool) = (0usize, 0usize);
        for j in 0..m {
            let c = j % e;
            if !hot[c] {
                entries.push(self.entries[c]);
                join_sites.push(self.join_sites[c]);
            } else if self.join_sites[c].is_some() {
                let (node, site) = join_pool[rr_join % join_pool.len()];
                rr_join += 1;
                entries.push(SplitEntry { node, bucket: 1 });
                join_sites.push(Some(site));
            } else {
                let (node, bucket) = spool_pool[rr_spool % spool_pool.len()];
                rr_spool += 1;
                entries.push(SplitEntry { node, bucket });
                join_sites.push(None);
            }
        }
        Some(PartitioningSplitTable {
            entries,
            join_sites,
        })
    }
}

/// The Appendix A bucket analyzer, transcribed from the paper's C code.
///
/// Starting from `min_buckets`, increase the bucket count until splitting a
/// bucket's fragments `mod join_nodes` can reach every join node. With the
/// Grace layout, bucket fragments live at entry indices `b·D..(b+1)·D`, so
/// the reachability condition depends on `total_entries mod join_nodes`.
///
/// Returns the number of buckets to use.
pub fn bucket_analyzer(
    grace: bool,
    numdisks: usize,
    join_nodes: usize,
    min_buckets: usize,
) -> usize {
    assert!(numdisks > 0 && join_nodes > 0 && min_buckets >= 1);
    let mut numbuckets = min_buckets;
    loop {
        let total_split_entries = if grace {
            numbuckets * numdisks
        } else {
            join_nodes + (numbuckets - 1) * numdisks
        };

        // No problem can occur with one bucket and no more disks than
        // joining nodes (everything is joined in place).
        if numbuckets == 1 && numdisks <= join_nodes {
            return numbuckets;
        }

        let mut i = 1;
        while i <= total_split_entries {
            if (total_split_entries * i) % join_nodes == 0 {
                break;
            }
            i += 1;
        }

        if i * numdisks >= join_nodes {
            return numbuckets;
        }
        numbuckets += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grace_layout_matches_appendix_table_1() {
        // Three-bucket Grace join, two disk nodes (paper's Appendix A
        // Table 1): entries alternate node 1, node 2 within each bucket.
        let t = PartitioningSplitTable::grace(&[1, 2], 3);
        let want = [(1, 1), (2, 1), (1, 2), (2, 2), (1, 3), (2, 3)];
        assert_eq!(t.entries(), 6);
        for (i, &(node, bucket)) in want.iter().enumerate() {
            assert_eq!(t.raw()[i], SplitEntry { node, bucket });
        }
        assert_eq!(t.buckets(), 3);
    }

    #[test]
    fn hybrid_layout_matches_appendix_table_2() {
        // Three-bucket Hybrid join, disks {1,2}, diskless join nodes {3,4}.
        let t = PartitioningSplitTable::hybrid(&[3, 4], &[1, 2], 3);
        let want = [(3, 1), (4, 1), (1, 2), (2, 2), (1, 3), (2, 3)];
        assert_eq!(t.entries(), 6);
        for (i, &(node, bucket)) in want.iter().enumerate() {
            assert_eq!(t.raw()[i], SplitEntry { node, bucket });
        }
    }

    #[test]
    fn routing_follows_mod_indexing() {
        let t = PartitioningSplitTable::grace(&[10, 11, 12, 13], 3);
        // Section 4.1 Table 1: value 5 -> entry 5 -> bucket 2, disk index 1.
        match t.route(5) {
            Route::Spool { node, bucket } => {
                assert_eq!(node, 11);
                assert_eq!(bucket, 2);
            }
            _ => panic!("grace tables never route to join"),
        }
        // Value 12 wraps: 12 mod 12 = 0 -> bucket 1, first disk.
        match t.route(12) {
            Route::Spool { node, bucket } => {
                assert_eq!(node, 10);
                assert_eq!(bucket, 1);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn hybrid_bucket1_routes_to_join() {
        let t = PartitioningSplitTable::hybrid(&[3, 4], &[1, 2], 3);
        match t.route(0) {
            Route::Join { node, site } => assert_eq!((node, site), (3, 0)),
            _ => panic!("entry 0 is bucket 1"),
        }
        assert_eq!(t.route(1), Route::Join { node: 4, site: 1 });
        match t.route(2) {
            Route::Spool { node, bucket } => {
                assert_eq!((node, bucket), (1, 2));
            }
            _ => panic!("entry 2 spools"),
        }
    }

    #[test]
    fn hpja_shortcircuit_law_local_grace() {
        // Tuples stored at disk node d satisfy h mod D == d_index. With the
        // bucket-major layout, the partitioning table must route them back
        // to the same node, for every bucket count.
        let disks: Vec<NodeId> = (0..8).collect();
        for buckets in 1..12 {
            let t = PartitioningSplitTable::grace(&disks, buckets);
            for h in 0..10_000u64 {
                let home = (h % 8) as usize;
                match t.route(h) {
                    Route::Spool { node, .. } => assert_eq!(node, home),
                    _ => unreachable!(),
                }
            }
        }
    }

    #[test]
    fn grace_bucket_join_becomes_hpja() {
        // After bucket-forming, fragment i of every bucket lives at disk i
        // and re-splitting with mod J (J == D, local joins) maps it back to
        // node i — the paper's §4.1 "non-HPJA joins become HPJA" argument.
        let disks: Vec<NodeId> = (0..4).collect();
        let part = PartitioningSplitTable::grace(&disks, 3);
        let join = JoiningSplitTable::new(disks.clone());
        for h in 0..10_000u64 {
            if let Route::Spool { node, .. } = part.route(h) {
                assert_eq!(join.route(h), node);
            }
        }
    }

    #[test]
    fn hybrid_at_one_bucket_is_the_joining_split_table() {
        // The family's bare pass routes through Hybrid's table at N = 1:
        // J join entries, nothing spooled, `h mod J` — with or without a
        // disk-node list, which a table that spools nothing never reads.
        let joins: Vec<NodeId> = vec![5, 6, 7];
        let t = PartitioningSplitTable::hybrid(&joins, &[], 1);
        assert_eq!(t, PartitioningSplitTable::hybrid(&joins, &[0, 1], 1));
        assert_eq!((t.entries(), t.buckets()), (3, 1));
        let j = JoiningSplitTable::new(joins);
        for h in 0..1_000u64 {
            let (node, site) = (j.route(h), j.site_index(h));
            assert_eq!(t.route(h), Route::Join { node, site });
        }
    }

    #[test]
    fn joining_split_table_mod_routing() {
        let j = JoiningSplitTable::new(vec![5, 6, 7]);
        assert_eq!(j.route(0), 5);
        assert_eq!(j.route(1), 6);
        assert_eq!(j.route(2), 7);
        assert_eq!(j.route(3), 5);
        assert_eq!(j.site_index(10), 1);
    }

    #[test]
    fn bucket_analyzer_matches_paper_example() {
        // Appendix A worked example: Hybrid, 2 disk nodes, 4 join nodes,
        // starting at 3 buckets -> the analyzer settles on 4.
        assert_eq!(bucket_analyzer(false, 2, 4, 3), 4);
    }

    #[test]
    fn bucket_analyzer_leaves_symmetric_configs_alone() {
        // Local joins with J == D never need repair.
        for n in 1..10 {
            assert_eq!(bucket_analyzer(true, 8, 8, n), n);
            assert_eq!(bucket_analyzer(false, 8, 8, n), n);
        }
        // Remote with J == D is fine too.
        assert_eq!(bucket_analyzer(false, 8, 8, 5), 5);
    }

    #[test]
    fn bucket_analyzer_single_bucket_fast_path() {
        assert_eq!(bucket_analyzer(false, 2, 4, 1), 1);
        assert_eq!(bucket_analyzer(true, 4, 8, 1), 1);
    }

    /// Join nodes reachable when re-splitting each spooled bucket with the
    /// joining split table, keyed by bucket.
    fn per_bucket_coverage(
        part: &PartitioningSplitTable,
        jt: &JoiningSplitTable,
    ) -> std::collections::BTreeMap<usize, std::collections::HashSet<NodeId>> {
        let mut cov: std::collections::BTreeMap<usize, std::collections::HashSet<NodeId>> =
            Default::default();
        for h in 0..100_000u64 {
            if let Route::Spool { bucket, .. } = part.route(h) {
                cov.entry(bucket).or_default().insert(jt.route(h));
            }
        }
        cov
    }

    #[test]
    fn analyzer_result_actually_reaches_all_join_nodes() {
        // Semantic check of Appendix A Tables 3/4: with 3 buckets (total 8
        // entries, 4 join nodes) every spooled bucket can reach only half
        // the join sites; with the analyzer's 4 buckets (total 10 entries)
        // each bucket reaches all of them.
        let disks: Vec<NodeId> = vec![0, 1];
        let joins: Vec<NodeId> = vec![0, 1, 2, 3];
        let jt = JoiningSplitTable::new(joins.clone());

        let bad = PartitioningSplitTable::hybrid(&joins, &disks, 3);
        for (bucket, reached) in per_bucket_coverage(&bad, &jt) {
            assert!(
                reached.len() < joins.len(),
                "bucket {bucket} should be starved with 3 buckets, reached {reached:?}"
            );
        }

        let n = bucket_analyzer(false, 2, 4, 3);
        assert_eq!(n, 4);
        let good = PartitioningSplitTable::hybrid(&joins, &disks, n);
        for (bucket, reached) in per_bucket_coverage(&good, &jt) {
            assert_eq!(
                reached.len(),
                joins.len(),
                "bucket {bucket} must reach every join node with {n} buckets"
            );
        }
    }

    #[test]
    fn refine_returns_none_when_uniform() {
        let t = PartitioningSplitTable::hybrid(&[3, 4], &[1, 2], 3);
        let hist = vec![100u64; t.entries()];
        assert_eq!(t.refine(&hist, &RefineCfg::default()), None);
        assert_eq!(
            t.refine(&vec![0u64; t.entries()], &RefineCfg::default()),
            None
        );
    }

    #[test]
    fn refine_splits_a_hot_join_entry_across_all_sites() {
        let joins: Vec<NodeId> = vec![8, 9, 10, 11];
        let t = PartitioningSplitTable::hybrid(&joins, &[0, 1], 1);
        // Entry 2 holds 10× the mean load.
        let hist = vec![100, 100, 4000, 100];
        let r = t
            .refine(&hist, &RefineCfg::default())
            .expect("entry 2 is hot");
        assert_eq!(r.entries(), t.entries() * 8);
        let mut reached = std::collections::HashSet::new();
        for j in (0..r.entries()).filter(|j| j % t.entries() == 2) {
            // Every sub-slot of the hot class must stay a join entry…
            let h = j as u64;
            match r.route(h) {
                Route::Join { node, site } => {
                    assert!(joins.contains(&node));
                    assert_eq!(node, joins[site]);
                    reached.insert(node);
                }
                _ => panic!("hot join class must stay in bucket 1"),
            }
        }
        // …and the eight sub-slots are spread over all four sites.
        assert_eq!(reached.len(), joins.len());
    }

    #[test]
    fn refine_preserves_cold_entries_bit_for_bit() {
        let t = PartitioningSplitTable::hybrid(&[3, 4], &[1, 2], 3);
        let hist = vec![10, 10, 10, 900, 10, 10];
        let r = t.refine(&hist, &RefineCfg::default()).unwrap();
        for h in 0..10_000u64 {
            let c = (h % t.entries() as u64) as usize;
            if c != 3 {
                assert_eq!(r.route(h), t.route(h), "cold class {c} must not move");
            }
        }
    }

    #[test]
    fn refine_spreads_a_hot_spool_entry_over_nodes_and_buckets() {
        let disks: Vec<NodeId> = vec![0, 1, 2, 3];
        let t = PartitioningSplitTable::grace(&disks, 3);
        let mut hist = vec![50u64; t.entries()];
        hist[5] = 5000;
        let r = t.refine(&hist, &RefineCfg::default()).unwrap();
        let mut nodes = std::collections::HashSet::new();
        let mut buckets = std::collections::HashSet::new();
        for j in (0..r.entries()).filter(|j| j % t.entries() == 5) {
            match r.route(j as u64) {
                Route::Spool { node, bucket } => {
                    nodes.insert(node);
                    buckets.insert(bucket);
                }
                _ => panic!("grace tables never route to join"),
            }
        }
        assert!(nodes.len() > 1, "hot range must span multiple nodes");
        assert!(buckets.len() > 1, "hot range must span multiple buckets");
    }

    #[test]
    fn refine_is_deterministic() {
        let t = PartitioningSplitTable::hybrid(&[3, 4, 5], &[0, 1], 4);
        let hist: Vec<u64> = (0..t.entries() as u64).map(|i| 1 + i * i * 7).collect();
        let a = t.refine(&hist, &RefineCfg::default());
        let b = t.refine(&hist, &RefineCfg::default());
        assert_eq!(a, b);
        assert!(a.is_some());
    }
}
