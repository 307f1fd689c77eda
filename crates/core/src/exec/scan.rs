//! The `Scan` stage: read a stored fragment, apply an optional selection.
//!
//! Every producer of the four join drivers — build, probe and partition —
//! funnels through [`scan_fragment`], so scan cost accounting (page reads,
//! per-tuple CPU, the `scan` trace span) lives in exactly one place.
//!
//! Selections are chunk-parallel: predicate evaluation is pure per record,
//! so the keep mask is precomputed on the machine's worker pool
//! ([`StepCtx::par_map_batch`]) while page-read and per-tuple charges replay
//! sequentially in record order — the scan's ledger, counts and trace
//! bytes never depend on the pool size.

use gamma_wiss::FileId;

use crate::algorithms::common::RangePred;
use crate::batch::TupleBatch;
use crate::exec::StepCtx;

/// Scan one stored fragment from a step worker: charges page reads and
/// per-tuple scan CPU, applies the optional selection, and returns the
/// surviving records as one page-backed [`TupleBatch`] (no record is
/// copied; a dropped record leaves the range table and nothing else).
pub fn scan_fragment(ctx: &mut StepCtx<'_>, file: FileId, pred: Option<RangePred>) -> TupleBatch {
    let node = ctx.node;
    gamma_trace::emit(
        node as u16,
        ctx.ledger.total_demand().as_us(),
        gamma_trace::EventKind::SpanBegin { name: "scan" },
    );
    let mut batch = ctx.read_batch(file);
    // Pure per-record work, chunked; effects replayed in record order below.
    let keep: Option<Vec<bool>> = pred.map(|p| ctx.par_map_batch(&batch, |rec| p.eval(rec)));
    let scanned = batch.len() as u64;
    for _ in 0..batch.len() {
        ctx.charge(ctx.cost.scan_tuple_us);
        ctx.ledger.counts.tuples_in += 1;
    }
    if let Some(mask) = keep {
        batch.retain_indices(|k| mask[k]);
    }
    if scanned > 0 {
        gamma_metrics::counter_add("op_tuples_in", node as u16, "scan", scanned);
    }
    gamma_trace::emit(
        node as u16,
        ctx.ledger.total_demand().as_us(),
        gamma_trace::EventKind::SpanEnd { name: "scan" },
    );
    batch
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::run_step;
    use crate::machine::{Declustering, Machine, MachineConfig};
    use crate::tuple::{Field, Schema};

    #[test]
    fn scan_fragment_applies_selection_and_charges() {
        let mut m = Machine::new(MachineConfig::local_8());
        let s = Schema::new(vec![Field::Int("k".into()), Field::Str("p".into(), 28)]);
        let attr = s.int_attr("k");
        let tuples: Vec<Vec<u8>> = (0..400u32)
            .map(|k| {
                let mut t = vec![0u8; 32];
                attr.put(&mut t, k);
                t
            })
            .collect();
        let id = m.load_relation("t", s, Declustering::RoundRobin, tuples);
        let f0 = m.relation(id).fragments[0];
        let mut ledgers = m.ledgers();
        let pred = RangePred {
            attr,
            lo: 0,
            hi: 99,
        };
        let got = run_step(&mut m, &mut ledgers, "scan", &[0], &mut [()], |ctx, _| {
            scan_fragment(ctx, f0, Some(pred))
        })
        .pop()
        .unwrap();
        // Node 0 holds k ∈ {0, 8, 16, ...}; of its 50 tuples, those < 100
        // are 0..96 step 8 = 13 tuples.
        assert_eq!(got.len(), 13);
        assert_eq!(ledgers[0].counts.tuples_in, 50);
        assert!(ledgers[0].counts.pages_read > 0);
        assert!(ledgers[0].cpu > gamma_des::SimTime::ZERO);
    }
}
