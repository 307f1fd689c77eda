//! Machine configuration, per-node state and relation catalog.
//!
//! A [`Machine`] is one Gamma configuration: `disk_nodes` processors with
//! attached volumes (always the first node ids) plus `diskless_nodes`
//! processors used only for join computation, all connected by the token
//! ring. Each processor owns its local state as a [`NodeState`] — volume,
//! buffer pool — so the executor can hand disjoint `&mut NodeState` to
//! per-node workers. Inter-node tuple traffic travels through the machine's
//! [`Exchange`] as explicit messages, which is also where every packet is
//! charged; scheduler control messages (operator starts, split-table and
//! bit-filter broadcasts) are charged by `exec::control`. Relations are
//! horizontally declustered across the disk nodes at load time by one of
//! the paper's strategies (round-robin, hashed, range). A join's result is
//! written by the store operators of its consumer side
//! ([`crate::exec::hash`]) and can be registered here like any relation.

use std::sync::Arc;

use gamma_des::{RequestLog, Usage};
use gamma_net::Exchange;
use gamma_wiss::{BufferPool, FileId, HeapWriter, Volume};

pub use crate::checksum::multiset_checksum;
use crate::cost::CostModel;
use crate::exec::ExecConfig;
use crate::hash::{hash_u32, JOIN_SEED};
use crate::query::JoinSpec;
use crate::report::PhaseRecord;
use crate::tuple::{Attr, Schema};

/// Processor identifier (0-based; disk nodes come first).
pub type NodeId = usize;
/// Catalog identifier of a stored relation.
pub type RelationId = usize;
/// One per-node ledger vector for a phase.
pub type Ledgers = Vec<Usage>;

/// Shape of the machine.
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// Processors with attached disks (store all relations; execute scans).
    pub disk_nodes: usize,
    /// Diskless processors available for join computation.
    pub diskless_nodes: usize,
    /// Cost model.
    pub cost: CostModel,
}

impl MachineConfig {
    /// The paper's default: 8 disk nodes, no diskless join nodes ("local").
    pub fn local_8() -> Self {
        MachineConfig {
            disk_nodes: 8,
            diskless_nodes: 0,
            cost: CostModel::gamma_1989(),
        }
    }

    /// The paper's "remote" configuration: 8 disk + 8 diskless nodes.
    pub fn remote_8_plus_8() -> Self {
        MachineConfig {
            disk_nodes: 8,
            diskless_nodes: 8,
            cost: CostModel::gamma_1989(),
        }
    }
}

/// How a relation's tuples were assigned to disk nodes at load time.
#[derive(Debug, Clone)]
pub enum Declustering {
    /// Tuples dealt to nodes in rotation.
    RoundRobin,
    /// `h(attr) mod D` — the strategy that enables HPJA short-circuiting.
    Hashed {
        /// Partitioning attribute.
        attr: Attr,
    },
    /// Range partitioning by `attr` with `D-1` ascending cut points; node
    /// `i` stores values in `[cuts[i-1], cuts[i])`. Used by §4.4 to keep
    /// scans balanced under skew.
    Range {
        /// Partitioning attribute.
        attr: Attr,
        /// Ascending cut points (length `D-1`).
        cuts: Vec<u32>,
    },
}

impl Declustering {
    /// Destination disk node for a tuple.
    pub fn place(&self, tuple: &[u8], disk_nodes: usize, seq: u64) -> NodeId {
        match self {
            Declustering::RoundRobin => (seq % disk_nodes as u64) as NodeId,
            Declustering::Hashed { attr } => {
                (hash_u32(JOIN_SEED, attr.get(tuple)) % disk_nodes as u64) as NodeId
            }
            Declustering::Range { attr, cuts } => {
                let v = attr.get(tuple);
                cuts.partition_point(|&c| c <= v)
            }
        }
    }
}

/// A horizontally declustered stored relation.
#[derive(Debug, Clone)]
pub struct StoredRelation {
    /// Human-readable name.
    pub name: String,
    /// Tuple layout.
    pub schema: Schema,
    /// One heap-file fragment per disk node (indexed by disk node id).
    pub fragments: Vec<FileId>,
    /// Declustering strategy used at load.
    pub declustering: Declustering,
    /// Total tuples.
    pub tuples: u64,
    /// Total data bytes (tuples × width) — the "size of the relation" used
    /// for memory ratios.
    pub data_bytes: u64,
}

/// Everything one processor owns locally: its disk volume and buffer pool
/// (disk nodes only). The executor hands each per-node worker a disjoint
/// `&mut NodeState` together with the node's phase ledger slot, so no
/// worker can reach across to another node's disk — cross-node traffic
/// must go through the [`Exchange`].
pub struct NodeState {
    /// This processor's id.
    pub id: NodeId,
    /// Attached volume (`None` for diskless nodes).
    pub volume: Option<Volume>,
    /// Buffer pool in front of the volume (`None` for diskless nodes).
    pub pool: Option<BufferPool>,
}

impl NodeState {
    /// Volume + pool together, for WiSS calls that need both mutably.
    /// Panics on diskless nodes.
    pub fn vp(&mut self) -> (&mut Volume, &mut BufferPool) {
        (
            self.volume.as_mut().expect("disk node"),
            self.pool.as_mut().expect("disk node"),
        )
    }

    /// This node's volume; panics on diskless nodes.
    pub fn vol(&self) -> &Volume {
        self.volume.as_ref().expect("disk node")
    }

    /// This node's volume, mutably; panics on diskless nodes.
    pub fn vol_mut(&mut self) -> &mut Volume {
        self.volume.as_mut().expect("disk node")
    }
}

/// One simulated Gamma machine.
pub struct Machine {
    /// Configuration.
    pub cfg: MachineConfig,
    /// Per-node local state (volume, pool), indexed by node id.
    pub nodes: Vec<NodeState>,
    /// The interconnect: every inter-node tuple travels here as an explicit
    /// message between per-node mailboxes, and every packet is charged
    /// here.
    pub exchange: Exchange,
    /// Which executor runs this machine's steps: the serial reference
    /// path, or a persistent worker pool reused across waves, phases and
    /// queries. Per-machine state — there is no process-global switch.
    pub exec: ExecConfig,
    /// `0..cfg.disk_nodes`, shared with every join step that runs on the
    /// disk nodes.
    disk_ids: Arc<[NodeId]>,
    /// `cfg.disk_nodes..nodes()`, likewise for the diskless nodes.
    diskless_ids: Arc<[NodeId]>,
    relations: Vec<Option<StoredRelation>>,
    /// Request-log lengths of the last [`REMEMBERED_JOINS`] distinct joins
    /// run here, least recently run first: what [`Machine::ledgers`]
    /// reserves.
    log_lengths: Vec<LogLengths>,
    /// The running join's remembered lengths and the number of ledger
    /// sets it has opened; `None` outside a join.
    running: Option<(LogLengths, usize)>,
}

/// Distinct joins a machine remembers request-log lengths for. The
/// benchmark's largest grid runs twelve joins on one machine.
const REMEMBERED_JOINS: usize = 16;

/// The `[disk, net]` request-log lengths of each (phase, node) ledger of
/// one join, phase-major.
struct LogLengths {
    spec: JoinSpec,
    lengths: Vec<[usize; 2]>,
}

impl Machine {
    /// Build a machine.
    pub fn new(cfg: MachineConfig) -> Self {
        assert!(cfg.disk_nodes > 0, "a machine needs disk nodes");
        let total = cfg.disk_nodes + cfg.diskless_nodes;
        let nodes = (0..total)
            .map(|n| NodeState {
                id: n,
                volume: (n < cfg.disk_nodes).then(Volume::new),
                pool: (n < cfg.disk_nodes).then(|| {
                    let mut p = BufferPool::new(cfg.cost.disk, cfg.cost.pool_frames);
                    p.set_node(n as u16);
                    p
                }),
            })
            .collect();
        let exchange = Exchange::new(cfg.cost.ring.clone(), total);
        Machine {
            disk_ids: (0..cfg.disk_nodes).collect(),
            diskless_ids: (cfg.disk_nodes..total).collect(),
            cfg,
            nodes,
            exchange,
            exec: ExecConfig::auto(),
            relations: Vec::new(),
            log_lengths: Vec::new(),
            running: None,
        }
    }

    /// Replace the executor configuration (builder-style), e.g.
    /// `Machine::new(cfg).with_exec(ExecConfig::serial())` for the serial
    /// reference run of a byte-identity comparison.
    pub fn with_exec(mut self, exec: ExecConfig) -> Self {
        self.exec = exec;
        self
    }

    /// Total processor count.
    pub fn nodes(&self) -> usize {
        self.cfg.disk_nodes + self.cfg.diskless_nodes
    }

    /// Ids of the processors with disks, ascending. A clone of one list
    /// the machine keeps, so a join algorithm can hold it across steps
    /// that borrow the machine mutably without copying it.
    pub fn disk_ids(&self) -> Arc<[NodeId]> {
        Arc::clone(&self.disk_ids)
    }

    /// Ids of the diskless processors, ascending; shared as
    /// [`Machine::disk_ids`] is.
    pub fn diskless_ids(&self) -> Arc<[NodeId]> {
        Arc::clone(&self.diskless_ids)
    }

    /// Ids of the processors with disks, as an owned vector.
    pub fn disk_nodes(&self) -> Vec<NodeId> {
        self.disk_ids.to_vec()
    }

    /// Fresh zeroed ledgers, one per node. Inside a join, the k-th set
    /// opened since its entry — its k-th phase — reserves each node's
    /// request logs at the lengths the k-th phase's logs reached when this
    /// machine last ran the same join spec, so a join run again sizes each
    /// log once. The lengths only size storage: no charge, count or
    /// request order depends on them.
    pub fn ledgers(&mut self) -> Ledgers {
        let n = self.nodes();
        let Some((known, opened)) = self.running.as_mut() else {
            return vec![Usage::ZERO; n];
        };
        let lengths = known.lengths.get(*opened * n..).unwrap_or(&[]);
        *opened += 1;
        (0..n)
            .map(|i| {
                let [disk, net] = lengths.get(i).copied().unwrap_or_default();
                Usage {
                    reqs: RequestLog {
                        disk: Vec::with_capacity(disk),
                        net: Vec::with_capacity(net),
                    },
                    ..Usage::ZERO
                }
            })
            .collect()
    }

    /// Start a join: its ledger sets reserve the lengths remembered for
    /// `spec`, if any (see [`Machine::ledgers`]).
    pub(crate) fn begin_join(&mut self, spec: &JoinSpec) {
        let known = match self.log_lengths.iter().position(|l| l.spec == *spec) {
            Some(i) => self.log_lengths.remove(i),
            None => LogLengths {
                spec: spec.clone(),
                lengths: Vec::new(),
            },
        };
        self.running = Some((known, 0));
    }

    /// Remember how long each (phase, node) request log of the finished
    /// join grew, for the next run of its spec; forget the least recently
    /// run join beyond [`REMEMBERED_JOINS`].
    pub(crate) fn end_join(&mut self, phases: &[PhaseRecord]) {
        let Some((mut known, _)) = self.running.take() else {
            return;
        };
        known.lengths.clear();
        known.lengths.extend(
            phases
                .iter()
                .flat_map(|p| &p.ledgers)
                .map(|u| [u.reqs.disk.len(), u.reqs.net.len()]),
        );
        self.log_lengths.push(known);
        if self.log_lengths.len() > REMEMBERED_JOINS {
            self.log_lengths.remove(0);
        }
    }

    /// Cold-start every buffer pool (between experiments).
    pub fn clear_pools(&mut self) {
        for n in self.nodes.iter_mut() {
            if let Some(p) = n.pool.as_mut() {
                p.clear();
            }
        }
    }

    /// Per-node buffer-pool peak page counts since the last
    /// [`Machine::clear_pools`] (0 for diskless nodes). `run_join` clears
    /// pools at entry, so after a query this is its per-node footprint —
    /// what the scheduler's admission control budgets against.
    pub fn pool_peaks(&self) -> Vec<usize> {
        self.nodes
            .iter()
            .map(|n| n.pool.as_ref().map_or(0, |p| p.peak_pages()))
            .collect()
    }

    /// Load a relation, placing each tuple per `declustering`. Loading is
    /// not part of any measured query, so no ledger is charged; the tuples
    /// do however land in real page files that later scans pay to read.
    pub fn load_relation<I>(
        &mut self,
        name: &str,
        schema: Schema,
        declustering: Declustering,
        tuples: I,
    ) -> RelationId
    where
        I: IntoIterator,
        I::Item: AsRef<[u8]>,
    {
        let d = self.cfg.disk_nodes;
        let page_bytes = self.cfg.cost.disk.page_bytes;
        let mut scratch = Usage::ZERO; // load-time I/O is not measured
        let mut writers: Vec<HeapWriter> = (0..d)
            .map(|n| HeapWriter::create(self.nodes[n].vol_mut(), page_bytes))
            .collect();
        let mut count = 0u64;
        let mut bytes = 0u64;
        for t in tuples {
            let t = t.as_ref();
            let node = declustering.place(t, d, count);
            assert!(node < d, "declustering routed to nonexistent node {node}");
            let (vol, pool) = self.nodes[node].vp();
            writers[node].push(vol, pool, &mut scratch, t);
            bytes += t.len() as u64;
            count += 1;
        }
        let fragments: Vec<FileId> = writers
            .into_iter()
            .enumerate()
            .map(|(n, w)| {
                let (vol, pool) = self.nodes[n].vp();
                w.finish(vol, pool, &mut scratch)
            })
            .collect();
        self.relations.push(Some(StoredRelation {
            name: name.to_string(),
            schema,
            fragments,
            declustering,
            tuples: count,
            data_bytes: bytes,
        }));
        self.clear_pools();
        self.relations.len() - 1
    }

    /// Register files produced by an operator (store nodes) as a new
    /// stored relation — how `SELECT ... INTO` results and materialized
    /// operator outputs enter the catalog.
    pub fn register_relation(
        &mut self,
        name: &str,
        schema: Schema,
        declustering: Declustering,
        fragments: Vec<FileId>,
    ) -> RelationId {
        assert_eq!(
            fragments.len(),
            self.cfg.disk_nodes,
            "one fragment per disk node"
        );
        let mut tuples = 0u64;
        let mut bytes = 0u64;
        for (n, &f) in fragments.iter().enumerate() {
            let vol = self.nodes[n].vol();
            tuples += vol.file_records(f) as u64;
            for p in 0..vol.file_pages(f) {
                bytes += vol
                    .page(f, p)
                    .records()
                    .map(|r| r.len() as u64)
                    .sum::<u64>();
            }
        }
        self.relations.push(Some(StoredRelation {
            name: name.to_string(),
            schema,
            fragments,
            declustering,
            tuples,
            data_bytes: bytes,
        }));
        self.relations.len() - 1
    }

    /// Look up a relation.
    pub fn relation(&self, id: RelationId) -> &StoredRelation {
        self.relations[id]
            .as_ref()
            .unwrap_or_else(|| panic!("relation {id} was dropped"))
    }

    /// Drop a relation and free its fragments.
    pub fn drop_relation(&mut self, id: RelationId) {
        let rel = self.relations[id]
            .take()
            .unwrap_or_else(|| panic!("relation {id} already dropped"));
        for (n, f) in rel.fragments.iter().enumerate() {
            let (vol, pool) = self.nodes[n].vp();
            vol.delete_file(*f);
            pool.evict_file(*f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::Field;

    fn schema() -> Schema {
        Schema::new(vec![Field::Int("k".into()), Field::Str("pad".into(), 28)])
    }

    fn mk_tuple(schema: &Schema, k: u32) -> Vec<u8> {
        let mut t = vec![0u8; schema.tuple_bytes()];
        schema.int_attr("k").put(&mut t, k);
        t
    }

    #[test]
    fn machine_shape() {
        let m = Machine::new(MachineConfig::remote_8_plus_8());
        assert_eq!(m.nodes(), 16);
        assert_eq!(m.disk_nodes(), (0..8).collect::<Vec<_>>());
        assert_eq!(*m.diskless_ids(), (8..16).collect::<Vec<_>>());
        assert_eq!(*m.disk_ids(), *m.disk_nodes());
        assert!(m.nodes[0].volume.is_some());
        assert!(m.nodes[8].volume.is_none());
        assert_eq!(m.nodes[5].id, 5);
    }

    #[test]
    fn hashed_load_places_by_join_hash() {
        let mut m = Machine::new(MachineConfig::local_8());
        let s = schema();
        let attr = s.int_attr("k");
        let tuples: Vec<Vec<u8>> = (0..800).map(|k| mk_tuple(&s, k)).collect();
        let id = m.load_relation("t", s.clone(), Declustering::Hashed { attr }, tuples);
        let rel = m.relation(id);
        assert_eq!(rel.tuples, 800);
        assert_eq!(rel.data_bytes, 800 * 32);
        // Every stored tuple must be on its hash-home node.
        for n in 0..8 {
            let vol = m.nodes[n].vol();
            let f = rel.fragments[n];
            for page_idx in 0..vol.file_pages(f) {
                for rec in vol.page(f, page_idx).records() {
                    let k = attr.get(rec);
                    assert_eq!((hash_u32(JOIN_SEED, k) % 8) as usize, n);
                }
            }
        }
    }

    #[test]
    fn round_robin_load_balances_exactly() {
        let mut m = Machine::new(MachineConfig::local_8());
        let s = schema();
        let tuples: Vec<Vec<u8>> = (0..800).map(|k| mk_tuple(&s, k)).collect();
        let id = m.load_relation("t", s, Declustering::RoundRobin, tuples);
        let rel = m.relation(id);
        for n in 0..8 {
            assert_eq!(m.nodes[n].vol().file_records(rel.fragments[n]), 100);
        }
    }

    #[test]
    fn range_load_respects_cuts() {
        let mut m = Machine::new(MachineConfig::local_8());
        let s = schema();
        let attr = s.int_attr("k");
        let cuts = vec![100, 200, 300, 400, 500, 600, 700];
        let tuples: Vec<Vec<u8>> = (0..800).map(|k| mk_tuple(&s, k)).collect();
        let id = m.load_relation("t", s, Declustering::Range { attr, cuts }, tuples);
        let rel = m.relation(id);
        for n in 0..8 {
            assert_eq!(
                m.nodes[n].vol().file_records(rel.fragments[n]),
                100,
                "node {n}"
            );
        }
    }

    #[test]
    fn drop_relation_frees_files() {
        let mut m = Machine::new(MachineConfig::local_8());
        let s = schema();
        let tuples: Vec<Vec<u8>> = (0..80).map(|k| mk_tuple(&s, k)).collect();
        let id = m.load_relation("t", s, Declustering::RoundRobin, tuples);
        let f0 = m.relation(id).fragments[0];
        m.drop_relation(id);
        assert!(!m.nodes[0].vol().exists(f0));
    }

    #[test]
    #[should_panic(expected = "was dropped")]
    fn using_dropped_relation_panics() {
        let mut m = Machine::new(MachineConfig::local_8());
        let s = schema();
        let id = m.load_relation("t", s, Declustering::RoundRobin, Vec::<Vec<u8>>::new());
        m.drop_relation(id);
        m.relation(id);
    }

    #[test]
    fn ledgers_match_node_count() {
        let mut m = Machine::new(MachineConfig::remote_8_plus_8());
        assert_eq!(m.ledgers().len(), 16);
    }

    #[test]
    fn remembers_log_lengths_of_the_last_joins_by_spec() {
        use crate::query::Algorithm;
        use gamma_des::SimTime;
        let mut m = Machine::new(MachineConfig::local_8());
        let spec = |memory| {
            JoinSpec::new(
                Algorithm::HybridHash,
                0,
                1,
                Attr { offset: 0 },
                Attr { offset: 0 },
                memory,
            )
        };
        // Join `j` logs `j + 1` disk requests at node 3 in its one phase.
        for j in 0..=REMEMBERED_JOINS {
            m.begin_join(&spec(j as u64));
            let mut ledgers = m.ledgers();
            for _ in 0..=j {
                ledgers[3].disk(SimTime::from_us(1));
            }
            m.end_join(&[PhaseRecord::new("p", ledgers, SimTime::ZERO)]);
        }
        let reserved = |m: &mut Machine| {
            m.ledgers()
                .iter()
                .map(|u| u.reqs.disk.capacity())
                .collect::<Vec<_>>()
        };
        assert_eq!(reserved(&mut m), [0; 8], "outside a join");
        m.begin_join(&spec(0));
        assert_eq!(
            reserved(&mut m),
            [0; 8],
            "the least recently run join is forgotten"
        );
        m.end_join(&[]);
        m.begin_join(&spec(5));
        assert_eq!(reserved(&mut m), [0, 0, 0, 6, 0, 0, 0, 0]);
        assert_eq!(
            reserved(&mut m),
            [0; 8],
            "a phase the last run did not reach"
        );
    }
}
