//! Per-node buffer pool and I/O charging.
//!
//! Every disk access in the engine is charged through a [`BufferPool`]:
//! a hit costs nothing (the page is already in a frame), a miss charges the
//! disk service time from [`DiskConfig`], classified as sequential or random
//! by the volume's head-position tracker. Writes are write-through (the
//! write is always charged) and leave the page resident.
//!
//! WiSS's one-page readahead is *not* modelled as an explicit prefetch
//! event: the engine's per-node timing model (`max(cpu, disk, net)`) already
//! overlaps a scan's disk time with its CPU time, which is exactly what
//! readahead bought on the real machine.

use std::collections::{HashMap, VecDeque};

use gamma_des::{SimTime, Usage};

use crate::disk::{DiskConfig, FileId, HeadPos};

/// Touches [`BufferPool`] keeps per frame before it drops the superseded
/// ones.
const TOUCHES_PER_FRAME: usize = 4;

/// LRU buffer pool for one node's volume.
#[derive(Debug, Clone)]
pub struct BufferPool {
    cfg: DiskConfig,
    capacity: usize,
    /// frame key -> LRU stamp
    frames: HashMap<(FileId, usize), u64>,
    /// `(stamp, key)` of the touches since the last compaction, oldest
    /// first. An entry is current while its stamp is still its frame's, so
    /// the first current one is the least recently used frame; the others
    /// are skipped as they come up.
    touches: VecDeque<(u64, (FileId, usize))>,
    stamp: u64,
    head: HeadPos,
    hits: u64,
    misses: u64,
    /// High-water mark of resident frames since the last [`clear`]
    /// (always on — the scheduler's admission control budgets against it,
    /// metrics or not).
    ///
    /// [`clear`]: BufferPool::clear
    peak: usize,
    /// Owning node, for trace attribution (set by the machine at build).
    node: u16,
}

impl BufferPool {
    /// A pool of `capacity` frames using disk model `cfg`.
    ///
    /// # Panics
    /// Panics on a zero-capacity pool.
    pub fn new(cfg: DiskConfig, capacity: usize) -> Self {
        assert!(capacity > 0, "buffer pool needs at least one frame");
        BufferPool {
            cfg,
            capacity,
            frames: HashMap::with_capacity(capacity),
            touches: VecDeque::new(),
            stamp: 0,
            head: HeadPos::default(),
            hits: 0,
            misses: 0,
            peak: 0,
            node: 0,
        }
    }

    /// Tag this pool with its owning node so trace events attribute I/O
    /// to the right track. Pools default to node 0.
    pub fn set_node(&mut self, node: u16) {
        self.node = node;
    }

    /// (hits, misses) since creation.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Most frames ever resident at once since the last [`BufferPool::clear`].
    pub fn peak_pages(&self) -> usize {
        self.peak
    }

    fn touch(&mut self, key: (FileId, usize)) {
        self.stamp += 1;
        let stamp = self.stamp;
        if self.frames.len() >= self.capacity && !self.frames.contains_key(&key) {
            // Evict the least recently used frame.
            while let Some((s, victim)) = self.touches.pop_front() {
                if self.frames.get(&victim) == Some(&s) {
                    self.frames.remove(&victim);
                    gamma_metrics::counter_add("pool_evictions", self.node, "pool", 1);
                    break;
                }
            }
        }
        self.frames.insert(key, stamp);
        self.touches.push_back((stamp, key));
        if self.touches.len() > TOUCHES_PER_FRAME * self.capacity {
            let frames = &self.frames;
            self.touches.retain(|(s, k)| frames.get(k) == Some(s));
        }
        self.peak = self.peak.max(self.frames.len());
        gamma_metrics::gauge_max(
            "pool_peak_pages",
            self.node,
            "pool",
            self.frames.len() as u64,
        );
    }

    /// Charge a read of (`file`, `page`). Returns true on a pool hit.
    pub fn charge_read(&mut self, file: FileId, page: usize, usage: &mut Usage) -> bool {
        let key = (file, page);
        if self.frames.contains_key(&key) {
            self.hits += 1;
            gamma_metrics::counter_add("pool_hits", self.node, "pool", 1);
            self.touch(key);
            return true;
        }
        self.misses += 1;
        gamma_metrics::counter_add("pool_misses", self.node, "pool", 1);
        let seq = self.head.access(file, page);
        let us = if seq {
            self.cfg.seq_read_us
        } else {
            self.cfg.rand_read_us
        };
        usage.disk(SimTime::from_us(us));
        usage.counts.pages_read += 1;
        gamma_metrics::counter_add("pages_read", self.node, "pool", 1);
        gamma_trace::emit(
            self.node,
            usage.total_demand().as_us(),
            gamma_trace::EventKind::DiskRead {
                file: file as u32,
                page: page as u32,
            },
        );
        self.touch(key);
        false
    }

    /// Charge a write of (`file`, `page`). Write-through: always charged.
    pub fn charge_write(&mut self, file: FileId, page: usize, usage: &mut Usage) {
        let seq = self.head.access(file, page);
        let us = if seq {
            self.cfg.seq_write_us
        } else {
            self.cfg.rand_write_us
        };
        usage.disk(SimTime::from_us(us));
        usage.counts.pages_written += 1;
        gamma_metrics::counter_add("pages_written", self.node, "pool", 1);
        gamma_trace::emit(
            self.node,
            usage.total_demand().as_us(),
            gamma_trace::EventKind::DiskWrite {
                file: file as u32,
                page: page as u32,
            },
        );
        self.touch((file, page));
    }

    /// Drop any frames belonging to `file` (called on file deletion).
    pub fn evict_file(&mut self, file: FileId) {
        self.frames.retain(|(f, _), _| *f != file);
    }

    /// Drop every frame (e.g. between experiments to cold-start caches)
    /// and reset the peak high-water mark.
    pub fn clear(&mut self) {
        self.frames.clear();
        self.touches.clear();
        self.head = HeadPos::default();
        self.peak = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(frames: usize) -> BufferPool {
        BufferPool::new(DiskConfig::fujitsu_8inch(), frames)
    }

    #[test]
    fn sequential_reads_cost_less_than_random() {
        let mut p = pool(100);
        let mut seq = Usage::ZERO;
        for i in 0..10 {
            p.charge_read(1, i, &mut seq);
        }
        let mut p2 = pool(100);
        let mut rnd = Usage::ZERO;
        for i in 0..10 {
            p2.charge_read(1, i * 7, &mut rnd);
        }
        assert!(seq.disk < rnd.disk);
        assert_eq!(seq.counts.pages_read, 10);
        assert_eq!(rnd.counts.pages_read, 10);
    }

    #[test]
    fn pool_hit_is_free() {
        let mut p = pool(10);
        let mut u = Usage::ZERO;
        p.charge_read(1, 0, &mut u);
        let after_miss = u.disk;
        assert!(p.charge_read(1, 0, &mut u), "second read hits");
        assert!(p.charge_read(1, 0, &mut u));
        assert_eq!(u.disk, after_miss, "hits charge nothing");
        assert_eq!(u.counts.pages_read, 1);
        assert_eq!(p.stats(), (2, 1));
    }

    #[test]
    fn lru_eviction() {
        let mut p = pool(2);
        let mut u = Usage::ZERO;
        p.charge_read(1, 0, &mut u); // frames: {(1,0)}
        p.charge_read(1, 1, &mut u); // frames: {(1,0),(1,1)}
        p.charge_read(1, 0, &mut u); // hit, (1,0) most recent
        p.charge_read(1, 2, &mut u); // evicts (1,1)
        assert!(p.charge_read(1, 0, &mut u), "(1,0) survived");
        assert!(!p.charge_read(1, 1, &mut u), "(1,1) was evicted");
    }

    #[test]
    fn writes_are_write_through_and_cached() {
        let mut p = pool(10);
        let mut u = Usage::ZERO;
        p.charge_write(3, 0, &mut u);
        assert_eq!(u.counts.pages_written, 1);
        assert!(u.disk > SimTime::ZERO);
        let before = u.disk;
        assert!(p.charge_read(3, 0, &mut u), "written page is resident");
        assert_eq!(u.disk, before);
    }

    #[test]
    fn evict_file_clears_only_that_file() {
        let mut p = pool(10);
        let mut u = Usage::ZERO;
        p.charge_read(1, 0, &mut u);
        p.charge_read(2, 0, &mut u);
        p.evict_file(1);
        assert!(!p.charge_read(1, 0, &mut u));
        assert!(p.charge_read(2, 0, &mut u));
    }

    #[test]
    fn clear_resets_everything() {
        let mut p = pool(10);
        let mut u = Usage::ZERO;
        p.charge_read(1, 0, &mut u);
        p.clear();
        assert!(!p.charge_read(1, 0, &mut u), "cold after clear");
    }

    #[test]
    fn peak_tracks_high_water_and_resets_on_clear() {
        let mut p = pool(3);
        let mut u = Usage::ZERO;
        assert_eq!(p.peak_pages(), 0);
        for i in 0..5 {
            p.charge_read(1, i, &mut u);
        }
        assert_eq!(p.peak_pages(), 3, "capped at capacity by eviction");
        p.clear();
        assert_eq!(p.peak_pages(), 0);
        p.charge_read(1, 0, &mut u);
        assert_eq!(p.peak_pages(), 1);
    }

    /// The pool as it was, finding its victim by scanning every frame: the
    /// reference the touch queue must agree with, call for call.
    struct LinearScan {
        cfg: DiskConfig,
        capacity: usize,
        frames: HashMap<(FileId, usize), u64>,
        stamp: u64,
        head: HeadPos,
        hits: u64,
        misses: u64,
        peak: usize,
    }

    impl LinearScan {
        fn new(capacity: usize) -> Self {
            LinearScan {
                cfg: DiskConfig::fujitsu_8inch(),
                capacity,
                frames: HashMap::new(),
                stamp: 0,
                head: HeadPos::default(),
                hits: 0,
                misses: 0,
                peak: 0,
            }
        }

        fn touch(&mut self, key: (FileId, usize)) {
            self.stamp += 1;
            if self.frames.len() >= self.capacity && !self.frames.contains_key(&key) {
                let (&victim, _) = self.frames.iter().min_by_key(|(_, &s)| s).expect("full");
                self.frames.remove(&victim);
            }
            self.frames.insert(key, self.stamp);
            self.peak = self.peak.max(self.frames.len());
        }

        fn read(&mut self, file: FileId, page: usize, usage: &mut Usage) -> bool {
            if self.frames.contains_key(&(file, page)) {
                self.hits += 1;
                self.touch((file, page));
                return true;
            }
            self.misses += 1;
            let us = match self.head.access(file, page) {
                true => self.cfg.seq_read_us,
                false => self.cfg.rand_read_us,
            };
            usage.disk(SimTime::from_us(us));
            usage.counts.pages_read += 1;
            self.touch((file, page));
            false
        }

        fn write(&mut self, file: FileId, page: usize, usage: &mut Usage) {
            let us = match self.head.access(file, page) {
                true => self.cfg.seq_write_us,
                false => self.cfg.rand_write_us,
            };
            usage.disk(SimTime::from_us(us));
            usage.counts.pages_written += 1;
            self.touch((file, page));
        }
    }

    #[test]
    fn touch_queue_evicts_what_a_linear_scan_evicts() {
        use rand::{Rng, SeedableRng, StdRng};
        for capacity in 1..=8 {
            for seed in 0..12u64 {
                let mut rng = StdRng::seed_from_u64(seed << 4 | capacity as u64);
                let (mut p, mut want) = (pool(capacity), LinearScan::new(capacity));
                let (mut u, mut want_u) = (Usage::ZERO, Usage::ZERO);
                for step in 0..2_000 {
                    let (file, page) = (rng.gen_range(0..3u64), rng.gen_range(0..12usize));
                    let at = format!("capacity {capacity} seed {seed} step {step}");
                    match rng.gen_range(0..100u32) {
                        0..=59 => assert_eq!(
                            p.charge_read(file, page, &mut u),
                            want.read(file, page, &mut want_u),
                            "{at}: hit or miss"
                        ),
                        60..=94 => {
                            p.charge_write(file, page, &mut u);
                            want.write(file, page, &mut want_u);
                        }
                        95..=98 => {
                            p.evict_file(file);
                            want.frames.retain(|(f, _), _| *f != file);
                        }
                        _ => {
                            p.clear();
                            want.frames.clear();
                            (want.head, want.peak) = (HeadPos::default(), 0);
                        }
                    }
                    assert_eq!(p.stats(), (want.hits, want.misses), "{at}");
                    assert_eq!(p.peak_pages(), want.peak, "{at}");
                    assert!(p.touches.len() <= TOUCHES_PER_FRAME * capacity, "{at}");
                }
                assert_eq!(u, want_u, "capacity {capacity} seed {seed}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one frame")]
    fn zero_capacity_rejected() {
        pool(0);
    }
}
