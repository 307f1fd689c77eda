//! Multiuser throughput bounds — §5's conjecture made quantitative.
//!
//! The paper closes: *"when the 'remote' configuration is used, CPU
//! utilization at the processors with disks drops… Thus, in a multiuser
//! environment, offloading joins to remote processors may permit higher
//! throughput by reducing the load at the processors with disks."*
//!
//! This module applies classical operational analysis (the bottleneck law
//! and asymptotic bounds of Denning & Buzen) to a measured
//! [`crate::JoinReport`]: every phase's per-node busy times define each
//! processor's service demand per query, the largest demand is the
//! bottleneck, and the asymptotic bound gives the achievable throughput
//! as the number of concurrent queries grows. The engine measures one
//! query at a time; this law extrapolates to the multiuser regime the
//! authors left to future work.

use gamma_des::SimTime;

use crate::machine::Machine;
use crate::report::PhaseRecord;

/// Per-query service demands, one entry per processor, in seconds.
#[derive(Debug, Clone)]
pub struct DemandProfile {
    /// Busy seconds each node contributes to one query (CPU, disk and NI
    /// demands folded with the engine's overlap model).
    pub per_node_busy: Vec<f64>,
    /// Serialized scheduler seconds per query.
    pub scheduler: f64,
    /// Single-user response time, seconds.
    pub response: f64,
}

impl DemandProfile {
    /// Extract demands from a run's phase records.
    pub fn from_phases(machine: &Machine, phases: &[PhaseRecord], response: SimTime) -> Self {
        let mut per_node_busy = vec![0.0f64; machine.nodes()];
        let mut scheduler = 0.0f64;
        for ph in phases {
            scheduler += ph.sched_overhead.as_secs();
            for (n, u) in ph.ledgers.iter().enumerate() {
                per_node_busy[n] += u.busy_time().as_secs();
            }
        }
        DemandProfile {
            per_node_busy,
            scheduler,
            response: response.as_secs(),
        }
    }

    /// The bottleneck service demand `D_max`, seconds per query.
    pub fn bottleneck(&self) -> f64 {
        self.per_node_busy
            .iter()
            .copied()
            .chain(std::iter::once(self.scheduler))
            .fold(0.0, f64::max)
    }

    /// Sum of all service demands `D`, seconds of work per query.
    pub fn total_demand(&self) -> f64 {
        self.per_node_busy.iter().sum::<f64>() + self.scheduler
    }

    /// Asymptotic throughput bound: `X(N) <= min(N / (D + Z), 1 / D_max)`
    /// queries/second with `N` concurrent clients and think time `Z`.
    pub fn throughput_bound(&self, clients: u32, think_seconds: f64) -> f64 {
        let d = self.total_demand();
        let dmax = self.bottleneck();
        if dmax <= 0.0 {
            return 0.0;
        }
        (clients as f64 / (d + think_seconds)).min(1.0 / dmax)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gamma_des::Usage;

    fn profile(busy: &[f64]) -> DemandProfile {
        DemandProfile {
            per_node_busy: busy.to_vec(),
            scheduler: 0.1,
            response: busy.iter().copied().fold(0.0, f64::max),
        }
    }

    #[test]
    fn bottleneck_and_total() {
        let p = profile(&[2.0, 5.0, 3.0]);
        assert_eq!(p.bottleneck(), 5.0);
        assert!((p.total_demand() - 10.1).abs() < 1e-9);
    }

    #[test]
    fn throughput_saturates_at_bottleneck() {
        let p = profile(&[2.0, 5.0, 3.0]);
        // One client: limited by the full demand cycle.
        let x1 = p.throughput_bound(1, 0.0);
        assert!((x1 - 1.0 / 10.1).abs() < 1e-9);
        // Many clients: limited by the bottleneck node.
        let x100 = p.throughput_bound(100, 0.0);
        assert!((x100 - 0.2).abs() < 1e-9);
        // Monotone non-decreasing in clients.
        assert!(p.throughput_bound(2, 0.0) >= x1);
    }

    #[test]
    fn from_phases_folds_ledgers() {
        use crate::machine::MachineConfig;
        let machine = Machine::new(MachineConfig::local_8());
        let mut a = Usage::ZERO;
        a.cpu(SimTime::from_secs(2));
        let mut b = Usage::ZERO;
        b.disk(SimTime::from_secs(3));
        let mut ledgers = machine.ledgers();
        ledgers[0] = a;
        ledgers[1] = b;
        let ph = PhaseRecord::new("x", ledgers, SimTime::from_ms(500));
        let p = DemandProfile::from_phases(&machine, &[ph], SimTime::from_secs(3));
        assert!((p.per_node_busy[0] - 2.0).abs() < 1e-9);
        assert!((p.per_node_busy[1] - 3.0).abs() < 1e-9);
        assert!((p.scheduler - 0.5).abs() < 1e-9);
        assert_eq!(p.bottleneck(), 3.0);
    }

    #[test]
    fn zero_demand_is_handled() {
        let p = profile(&[]);
        // Only scheduler demand remains.
        assert!((p.bottleneck() - 0.1).abs() < 1e-9);
        let empty = DemandProfile {
            per_node_busy: vec![],
            scheduler: 0.0,
            response: 0.0,
        };
        assert_eq!(empty.throughput_bound(10, 1.0), 0.0);
    }
}
