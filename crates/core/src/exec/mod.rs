//! # Per-node executor and shared stage library
//!
//! Every driver phase is a sequence of **steps**. A step gives each
//! participating node's operator instance exclusive access to that node's
//! local state — volume, buffer pool, phase ledger, exchange endpoints —
//! and runs them all to completion before the next step starts:
//!
//! * a *producer* step scans local fragments and sends tuples through the
//!   [`Exchange`](gamma_net::Exchange) (split-table routing, spooling,
//!   result traffic),
//! * an *absorb* step drains each node's inbox and applies the delivered
//!   messages (hash-table inserts/probes, spool stores, result stores).
//!
//! [`run_step`] is the only way into the exchange: nothing else in the
//! engine routes it, takes an inbox or reaches an outbox, so every tuple
//! is sent by one node step and stored by a later absorb step.
//!
//! Because a worker only ever touches its own node's state and its own
//! outbox, the steps of one wave are independent: each step dispatches
//! the per-node closures onto the machine's persistent [`pool`] (workers
//! spawned once, reused across waves, phases and queries) and joins them
//! at the step boundary. Determinism is preserved by construction —
//!
//! * virtual-time charges accumulate into per-node ledgers that only the
//!   node's own worker writes; phase totals are sums, independent of
//!   scheduling,
//! * the exchange routes sealed packets source-major, so consumers drain
//!   identical message sequences regardless of producer interleaving,
//! * trace events emitted by a worker are captured in a thread-local sink
//!   and re-emitted into the main sink in node order at the join point,
//!   reproducing the serial emission order byte for byte.
//!
//! The node is the only parallel grain: one participant's closure runs on
//! one thread from start to finish, so its tuples are scanned, routed and
//! applied in the same order — by the same code — whichever executor runs.
//!
//! Which executor runs is a per-machine [`ExecConfig`] — there is no
//! process-global switch, so tests comparing serial and pooled runs in
//! one process cannot cross-talk.
//!
//! The stage library lives in the submodules: [`scan`] (fragment scans),
//! [`hash`] (the build/probe/spool consumer state of the hash joins; the
//! producers that feed it are [`crate::algorithms::family`]),
//! [`control`] (scheduler dispatch and filter broadcast accounting).

pub mod control;
pub mod hash;
pub mod pool;
pub mod scan;

use std::sync::Arc;

use gamma_des::Usage;
use gamma_net::{Drained, Inbox, Outbox};
use gamma_wiss::{FileId, HeapWriter};

use crate::batch::{Rec, TupleBatch};
use crate::cost::CostModel;
use crate::machine::{Ledgers, Machine, NodeId, NodeState};

/// Per-run executor configuration, carried by each
/// [`Machine`].
#[derive(Clone, Default)]
pub struct ExecConfig {
    /// Worker pool running each step's participants. `None` — or a pool
    /// with zero dedicated workers (size 1) — is the serial reference
    /// executor.
    pub pool: Option<Arc<pool::WorkerPool>>,
}

impl ExecConfig {
    /// The serial reference executor: no pool, no threads.
    pub fn serial() -> Self {
        ExecConfig { pool: None }
    }

    /// Run on `pool` (size 1 degenerates to the serial path).
    pub fn pooled(pool: Arc<pool::WorkerPool>) -> Self {
        ExecConfig { pool: Some(pool) }
    }

    /// The process default, selected by the `GAMMA_POOL` environment
    /// variable: serial when unset, the shared `GAMMA_POOL`-lane pool
    /// otherwise (see [`pool::default_pool`]; resolved once per process).
    pub fn auto() -> Self {
        ExecConfig {
            pool: pool::default_pool().cloned(),
        }
    }

    /// Concurrent lanes this configuration runs steps on (1 = serial).
    pub fn lanes(&self) -> usize {
        self.pool.as_ref().map_or(1, |p| p.size())
    }
}

/// Everything one node's operator instance may touch during a step.
pub struct StepCtx<'a> {
    /// The node this worker runs on.
    pub node: NodeId,
    /// Cost model (shared, read-only).
    pub cost: &'a CostModel,
    /// The node's local state (volume, buffer pool).
    pub state: &'a mut NodeState,
    /// The node's ledger slot for the current phase.
    pub ledger: &'a mut Usage,
    outbox: &'a mut Outbox,
    inbox: Inbox,
}

impl StepCtx<'_> {
    /// Charge CPU microseconds to this node's ledger.
    #[inline]
    pub fn charge(&mut self, us: u64) {
        self.cost.charge(self.ledger, us);
    }

    /// Send one tuple to `dst` on stream `tag` through this node's outbox.
    /// The payload is copied into the stream's arena: the call for bytes
    /// with no shared owner (a hash-table eviction, a forwarded message).
    #[inline]
    pub fn send(&mut self, dst: NodeId, tag: u32, payload: &[u8]) {
        self.outbox.send(self.ledger, dst, tag, payload);
    }

    /// Send one record of a [`TupleBatch`] by reference: charged exactly
    /// as [`StepCtx::send`] of its bytes, to a local or a ring destination
    /// alike, but a page-backed record travels as a handle to its page and
    /// is not copied. The call for every scanned record.
    #[inline]
    pub fn send_rec(&mut self, dst: NodeId, tag: u32, rec: Rec<'_>) {
        self.send_parts(dst, tag, rec, Rec::default());
    }

    /// Send the tuple `a ‖ b` as two parts, each by reference when it lies
    /// on a shared image ([`gamma_net::Outbox::send_parts`]): a composed
    /// join result, never assembled before the store writes it.
    #[inline]
    pub fn send_parts(&mut self, dst: NodeId, tag: u32, a: Rec<'_>, b: Rec<'_>) {
        self.outbox.send_parts(self.ledger, dst, tag, a, b);
    }

    /// Drain every message delivered to this node before the step started,
    /// charging the receive side of each remote packet. The returned batch
    /// shares the delivered tables; iterate it for borrowed
    /// [`gamma_net::Msg`] views while `self` stays mutable, and let it go
    /// before the step ends so the tables are reused.
    pub fn drain(&mut self) -> Drained {
        self.inbox.drain(self.ledger)
    }

    /// Read every record of a local heap file as one page-backed
    /// [`TupleBatch`] through this node's buffer pool, charging page reads.
    pub fn read_batch(&mut self, file: FileId) -> TupleBatch {
        let (vol, pool) = self.state.vp();
        read_file_batch(vol, pool, self.ledger, file)
    }

    /// End-of-step bookkeeping: the operator must have drained its inbox,
    /// and partially filled outgoing packets are sealed so the next step's
    /// routing delivers them. Hands back the inbox, what it drained
    /// already released for the next node's step to allocate.
    fn finish(mut self) -> Inbox {
        assert!(
            self.inbox.is_empty(),
            "node {} finished a step with undrained messages",
            self.node
        );
        self.outbox.seal(self.ledger);
        self.inbox.release();
        self.inbox
    }
}

/// Split `slice` into disjoint `&mut` element references at the given
/// strictly ascending indices.
fn disjoint_muts<'a, T>(mut slice: &'a mut [T], idxs: &[usize]) -> Vec<&'a mut T> {
    let mut out = Vec::with_capacity(idxs.len());
    let mut consumed = 0usize;
    for &i in idxs {
        debug_assert!(i >= consumed, "indices must be strictly ascending");
        let (_, rest) = slice.split_at_mut(i - consumed);
        let (item, rest) = rest.split_first_mut().expect("index in bounds");
        out.push(item);
        slice = rest;
        consumed = i + 1;
    }
    out
}

/// One worker's inputs for a step.
struct Bundle<'a, S> {
    node: NodeId,
    state: &'a mut NodeState,
    ledger: &'a mut Usage,
    outbox: &'a mut Outbox,
    inbox: Inbox,
    step_state: &'a mut S,
}

/// Run one step: deliver routed packets, then run `f` once per
/// participant with exclusive access to that node's state, ledger and
/// exchange endpoints; the drained inboxes go back to the exchange, whose
/// streams fill their tables again. `participants` must be strictly
/// ascending; `states` supplies one per-node operator state per
/// participant, and the per-node return values come back in participant
/// order. `stage` names the step in worker panic reports.
///
/// Serially the participants run in ascending node order; when the
/// machine's [`ExecConfig`] carries a pool with dedicated workers, each
/// participant's closure is dispatched onto the pool and the step joins
/// them all before returning — producing byte-identical ledgers, counts
/// and trace output.
pub fn run_step<S, R, F>(
    machine: &mut Machine,
    ledgers: &mut Ledgers,
    stage: &'static str,
    participants: &[NodeId],
    states: &mut [S],
    f: F,
) -> Vec<R>
where
    S: Send,
    R: Send,
    F: Fn(&mut StepCtx<'_>, &mut S) -> R + Sync,
{
    assert_eq!(
        states.len(),
        participants.len(),
        "one state per participant"
    );
    debug_assert!(participants.windows(2).all(|w| w[0] < w[1]));
    machine.exchange.route();
    let Machine {
        cfg,
        nodes,
        exchange,
        exec,
        ..
    } = machine;
    let cost = &cfg.cost;
    let pool: Option<&pool::WorkerPool> = exec.pool.as_deref().filter(|p| p.workers() > 0);
    let inboxes: Vec<Inbox> = participants
        .iter()
        .map(|&n| exchange.take_inbox(n))
        .collect();
    let node_refs = disjoint_muts(nodes.as_mut_slice(), participants);
    let outbox_refs = disjoint_muts(exchange.outboxes_mut(), participants);
    let ledger_refs = disjoint_muts(ledgers.as_mut_slice(), participants);
    let bundles: Vec<Bundle<'_, S>> = participants
        .iter()
        .zip(node_refs)
        .zip(outbox_refs)
        .zip(ledger_refs)
        .zip(inboxes)
        .zip(states.iter_mut())
        .map(
            |(((((&node, state), outbox), ledger), inbox), step_state)| Bundle {
                node,
                state,
                ledger,
                outbox,
                inbox,
                step_state,
            },
        )
        .collect();
    let outs = match pool {
        Some(pool) if bundles.len() > 1 => run_bundles_pooled(pool, cost, stage, bundles, &f),
        _ => bundles
            .into_iter()
            .map(|b| run_bundle(cost, b, &f))
            .collect(),
    };
    let mut results = Vec::with_capacity(outs.len());
    for (r, inbox) in outs {
        exchange.return_inbox(inbox);
        results.push(r);
    }
    results
}

fn run_bundle<S, R>(
    cost: &CostModel,
    b: Bundle<'_, S>,
    f: &(impl Fn(&mut StepCtx<'_>, &mut S) -> R + Sync),
) -> (R, Inbox) {
    let mut ctx = StepCtx {
        node: b.node,
        cost,
        state: b.state,
        ledger: b.ledger,
        outbox: b.outbox,
        inbox: b.inbox,
    };
    let r = f(&mut ctx, b.step_state);
    (r, ctx.finish())
}

fn run_bundles_pooled<S, R>(
    pool: &pool::WorkerPool,
    cost: &CostModel,
    stage: &'static str,
    bundles: Vec<Bundle<'_, S>>,
    f: &(impl Fn(&mut StepCtx<'_>, &mut S) -> R + Sync),
) -> Vec<(R, Inbox)>
where
    S: Send,
    R: Send,
{
    let tracing = gamma_trace::is_active();
    // Workers record metrics into private registries attributed to the
    // main thread's current phase; the join point merges them. Every
    // merge op is commutative (counter add / gauge max / histogram add),
    // so the merged registry is identical to serial emission.
    let metering = gamma_metrics::current_phase();
    let participant_nodes: Vec<NodeId> = bundles.iter().map(|b| b.node).collect();
    let outs = pool.try_run_ordered(bundles, |_, b| {
        // The thread running this bundle may be a pool worker or the
        // submitting thread itself (the owner helps drain its batch), so
        // save whatever sink was installed, collect this bundle's events
        // privately, and restore on the way out — even across a panic, so
        // an unwinding bundle cannot leak its private sink into the
        // owner's thread-local slot. The join point below replays events
        // in participant order, reproducing serial emission byte for
        // byte.
        let prev_sink = if tracing {
            gamma_trace::install(gamma_trace::TraceSink::unbounded())
        } else {
            None
        };
        let prev_registry = match metering {
            Some(phase) => gamma_metrics::install(gamma_metrics::Registry::at_phase(phase)),
            None => None,
        };
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_bundle(cost, b, f)));
        let events: Vec<(u16, u64, gamma_trace::EventKind)> = if tracing {
            let own = gamma_trace::take()
                .map(|s| s.events().map(|e| (e.node, e.offset_us, e.kind)).collect())
                .unwrap_or_default();
            if let Some(prev) = prev_sink {
                gamma_trace::install(prev);
            }
            own
        } else {
            Vec::new()
        };
        let registry = if metering.is_some() {
            let own = gamma_metrics::take();
            if let Some(prev) = prev_registry {
                gamma_metrics::install(prev);
            }
            own
        } else {
            None
        };
        match r {
            Ok(v) => (v, events, registry),
            // Re-raise into the pool's catch with thread-locals restored;
            // the join point below adds stage/node context.
            Err(payload) => std::panic::resume_unwind(payload),
        }
    });
    let outs = match outs {
        Ok(outs) => outs,
        Err(panics) => {
            let first = &panics[0];
            panic!(
                "step `{stage}` panicked at node {}: {}",
                participant_nodes[first.index],
                pool::panic_message(first.payload.as_ref())
            );
        }
    };
    let mut results = Vec::with_capacity(outs.len());
    for (r, events, registry) in outs {
        for (node, offset_us, kind) in events {
            gamma_trace::emit(node, offset_us, kind);
        }
        if let Some(worker) = registry {
            gamma_metrics::with(|reg| reg.merge(worker));
        }
        results.push(r);
    }
    results
}

/// Scan a heap file into a page-backed [`TupleBatch`] — one handle per
/// page and that page's slot ranges, no record copied — charging each
/// page read as the scan enters the page ([`StepCtx::read_batch`]).
fn read_file_batch(
    vol: &gamma_wiss::Volume,
    pool: &mut gamma_wiss::BufferPool,
    usage: &mut Usage,
    file: FileId,
) -> TupleBatch {
    let mut batch = TupleBatch::with_capacity(vol.file_records(file), 0);
    for idx in 0..vol.file_pages(file) {
        pool.charge_read(file, idx, usage);
        batch.push_page(vol.page(file, idx));
    }
    batch
}

/// Delete a temporary file at `node` and evict its cached pages.
pub fn delete_file(machine: &mut Machine, node: NodeId, file: FileId) {
    let (vol, pool) = machine.nodes[node].vp();
    vol.delete_file(file);
    pool.evict_file(file);
}

/// Create-and-close an empty heap file at `node` (the empty half of an
/// overflow pair).
pub fn empty_file(machine: &mut Machine, ledgers: &mut Ledgers, node: NodeId) -> FileId {
    let page = machine.cfg.cost.disk.page_bytes;
    let w = HeapWriter::create(machine.nodes[node].vol_mut(), page);
    let (vol, pool) = machine.nodes[node].vp();
    w.finish(vol, pool, &mut ledgers[node])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineConfig;

    #[test]
    fn disjoint_muts_picks_the_right_elements() {
        let mut v = vec![10, 20, 30, 40, 50];
        let picked = disjoint_muts(v.as_mut_slice(), &[0, 2, 4]);
        assert_eq!(picked.iter().map(|r| **r).collect::<Vec<_>>(), [10, 30, 50]);
        for r in picked {
            *r += 1;
        }
        assert_eq!(v, vec![11, 20, 31, 40, 51]);
    }

    #[test]
    fn run_step_delivers_messages_across_steps() {
        let mut m = Machine::new(MachineConfig::local_8());
        let mut ledgers = m.ledgers();
        let participants: Vec<NodeId> = (0..8).collect();
        // Step 1: every node sends one tuple to node (n+1) % 8.
        let mut unit = vec![(); 8];
        run_step(
            &mut m,
            &mut ledgers,
            "send",
            &participants,
            &mut unit,
            |ctx, _| {
                let dst = (ctx.node + 1) % 8;
                ctx.send(dst, 7, &[ctx.node as u8; 64]);
            },
        );
        assert!(!m.exchange.is_drained());
        // Step 2: every node drains exactly one message from its neighbour.
        let got = run_step(
            &mut m,
            &mut ledgers,
            "drain",
            &participants,
            &mut unit,
            |ctx, _| {
                let drained = ctx.drain();
                assert_eq!(drained.len(), 1);
                let msg = drained.iter().next().unwrap();
                (msg.src, msg.payload[0])
            },
        );
        for (n, &(src, byte)) in got.iter().enumerate() {
            assert_eq!(src, (n + 8 - 1) % 8);
            assert_eq!(byte as usize, src);
        }
        assert!(m.exchange.is_drained());
    }

    #[test]
    fn records_sent_by_reference_outlive_their_file() {
        // Between the producer's step and the consumer's, the scanned file
        // is deleted and evicted; every message still reads the bytes that
        // were sent, local or across the ring.
        let mut m = Machine::new(MachineConfig::local_8());
        let mut ledgers = m.ledgers();
        let page = m.cfg.cost.disk.page_bytes;
        let mut w = HeapWriter::create(m.nodes[0].vol_mut(), page);
        let sent: Vec<[u8; 208]> = (0..100u8).map(|i| [i; 208]).collect();
        let (vol, pool) = m.nodes[0].vp();
        for rec in &sent {
            w.push(vol, pool, &mut ledgers[0], rec);
        }
        let file = w.finish(vol, pool, &mut ledgers[0]);
        run_step(&mut m, &mut ledgers, "send", &[0], &mut [()], |ctx, _| {
            let batch = ctx.read_batch(file);
            for (i, rec) in batch.recs().enumerate() {
                ctx.send_rec(i % 2, 7, rec);
            }
        });
        delete_file(&mut m, 0, file);
        let got = run_step(
            &mut m,
            &mut ledgers,
            "drain",
            &[0, 1],
            &mut [(); 2],
            |ctx, _| {
                let drained = ctx.drain();
                let payloads: Vec<Vec<u8>> = drained.iter().map(|m| m.payload.to_vec()).collect();
                payloads
            },
        );
        for (n, payloads) in got.iter().enumerate() {
            let want = sent.iter().skip(n).step_by(2);
            assert!(payloads.iter().map(Vec::as_slice).eq(want.map(|r| &r[..])));
        }
        assert!(m.exchange.is_drained());
    }

    #[test]
    fn a_fragment_of_more_than_32768_pages_reads_into_one_batch() {
        let mut m = Machine::new(MachineConfig::local_8());
        let mut ledgers = m.ledgers();
        let (vol, pool) = m.nodes[0].vp();
        let mut w = HeapWriter::create(vol, 64);
        // A 56-byte record fills a 64-byte page.
        for i in 0..32_769u32 {
            let mut rec = [0u8; 56];
            rec[..4].copy_from_slice(&i.to_le_bytes());
            w.push(vol, pool, &mut ledgers[0], &rec);
        }
        let file = w.finish(vol, pool, &mut ledgers[0]);
        assert_eq!(m.nodes[0].vol().file_pages(file), 32_769);
        run_step(&mut m, &mut ledgers, "read", &[0], &mut [()], |ctx, _| {
            let batch = ctx.read_batch(file);
            assert_eq!(batch.len(), 32_769);
            for (i, rec) in batch.iter().enumerate() {
                assert_eq!(rec[..4], (i as u32).to_le_bytes(), "record {i}");
            }
        });
    }

    #[test]
    #[should_panic(expected = "undrained")]
    fn undrained_step_is_detected() {
        let mut m = Machine::new(MachineConfig::local_8());
        let mut ledgers = m.ledgers();
        let participants: Vec<NodeId> = (0..8).collect();
        let mut unit = vec![(); 8];
        run_step(
            &mut m,
            &mut ledgers,
            "send",
            &participants,
            &mut unit,
            |ctx, _| {
                ctx.send((ctx.node + 1) % 8, 7, &[0u8; 2048]);
            },
        );
        // Nobody drains: the next step must notice.
        run_step(
            &mut m,
            &mut ledgers,
            "noop",
            &participants,
            &mut unit,
            |_, _| (),
        );
    }
}
