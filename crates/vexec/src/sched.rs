//! Schedulers: interleaving policies for the VM.
//!
//! Like Valgrind, the VM is single-threaded and serialises guest threads
//! (§3.3: "the virtual machine in itself is single-threaded"); the scheduler
//! decides which runnable thread advances next. Different policies reproduce
//! different interleavings, which is exactly the schedule-dependence the
//! paper discusses in §4.3 (false negatives under one order, detections
//! under another).
//!
//! All schedulers are deterministic given their construction parameters, so
//! every run is exactly reproducible.

use crate::event::ThreadId;

/// SplitMix64: the small, fast, deterministic PRNG shared by the seeded
/// schedulers and the fault injector. Every consumer owns its own instance,
/// so streams never interleave and runs stay exactly reproducible.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Uniform pick in `0..n` (`n == 0` yields 0 without a draw). Equal
    /// to `next_u64() % n`; the small counts the schedulers and fault
    /// picks see (runnable threads, waiters) divide by a constant, which
    /// compiles to a multiply instead of a 64-bit division.
    #[inline]
    pub fn pick(&mut self, n: u64) -> u64 {
        if n == 0 {
            return 0;
        }
        let x = self.next_u64();
        match n {
            1 => 0,
            2 => x % 2,
            3 => x % 3,
            4 => x % 4,
            5 => x % 5,
            6 => x % 6,
            7 => x % 7,
            8 => x % 8,
            _ => x % n,
        }
    }

    /// Bernoulli draw with probability `permille / 1000`. A zero rate does
    /// not consume a draw, so disabled fault channels are free.
    pub fn chance(&mut self, permille: u32) -> bool {
        permille > 0 && self.next_u64() % 1000 < permille as u64
    }
}

/// Scheduling policy. `pick` returns an index into `runnable`, which is
/// always non-empty and sorted by thread id.
pub trait Scheduler {
    fn pick(&mut self, runnable: &[ThreadId], slot: u64) -> usize;
    fn name(&self) -> &'static str {
        "scheduler"
    }
}

/// Rotate through runnable threads, giving a fine-grained interleaving —
/// each thread advances by one observable event at a time.
#[derive(Debug, Default, Clone)]
pub struct RoundRobin {
    counter: u64,
    /// Strength-reduction cache: `runnable.len()` and the index returned
    /// by the previous `pick`. While the runnable set keeps the same
    /// length, `counter % len` advances by exactly one position per call,
    /// so the next index is `(last_idx + 1) % len` — a compare instead of
    /// a 64-bit division in the per-slot hot path. Any length change
    /// falls back to the division, so the pick sequence is identical.
    last_len: usize,
    last_idx: usize,
}

impl RoundRobin {
    pub fn new() -> Self {
        Self::default()
    }
}

impl Scheduler for RoundRobin {
    fn pick(&mut self, runnable: &[ThreadId], _slot: u64) -> usize {
        let len = runnable.len();
        let idx = if len == self.last_len {
            let next = self.last_idx + 1;
            if next >= len {
                0
            } else {
                next
            }
        } else {
            (self.counter % len as u64) as usize
        };
        self.counter += 1;
        self.last_len = len;
        self.last_idx = idx;
        idx
    }
    fn name(&self) -> &'static str {
        "round-robin"
    }
}

/// Seeded pseudo-random interleaving (SplitMix64). Useful for fuzzing the
/// schedule space; repeated runs with different seeds emulate the paper's
/// "repeated tests with different test data (resulting in different
/// interleavings)".
#[derive(Debug, Clone)]
pub struct SeededRandom {
    rng: SplitMix64,
}

impl SeededRandom {
    pub fn new(seed: u64) -> Self {
        SeededRandom { rng: SplitMix64::new(seed.wrapping_add(0x9E3779B97F4A7C15)) }
    }
}

impl Scheduler for SeededRandom {
    fn pick(&mut self, runnable: &[ThreadId], _slot: u64) -> usize {
        self.rng.pick(runnable.len() as u64) as usize
    }
    fn name(&self) -> &'static str {
        "seeded-random"
    }
}

/// Strict priority: always run the runnable thread that appears earliest in
/// `order`; threads not listed come after all listed ones, ordered by id.
/// This forces coarse-grained schedules like "thread A runs to completion
/// before thread B starts" — the tool for the §4.3 false-negative
/// experiment.
#[derive(Debug, Clone)]
pub struct PriorityOrder {
    order: Vec<ThreadId>,
}

impl PriorityOrder {
    pub fn new(order: Vec<ThreadId>) -> Self {
        PriorityOrder { order }
    }

    fn rank(&self, tid: ThreadId) -> (usize, u32) {
        match self.order.iter().position(|&t| t == tid) {
            Some(p) => (p, tid.0),
            None => (self.order.len(), tid.0),
        }
    }
}

impl Scheduler for PriorityOrder {
    fn pick(&mut self, runnable: &[ThreadId], _slot: u64) -> usize {
        let mut best = 0;
        for i in 1..runnable.len() {
            if self.rank(runnable[i]) < self.rank(runnable[best]) {
                best = i;
            }
        }
        best
    }
    fn name(&self) -> &'static str {
        "priority-order"
    }
}

/// Run each thread for a burst of `quantum` slots before rotating — a
/// coarser interleaving than [`RoundRobin`], closer to a real OS scheduler
/// with time slices.
#[derive(Debug, Clone)]
pub struct Quantum {
    quantum: u64,
    counter: u64,
}

impl Quantum {
    pub fn new(quantum: u64) -> Self {
        Quantum { quantum: quantum.max(1), counter: 0 }
    }
}

impl Scheduler for Quantum {
    fn pick(&mut self, runnable: &[ThreadId], _slot: u64) -> usize {
        let idx = ((self.counter / self.quantum) % runnable.len() as u64) as usize;
        self.counter += 1;
        idx
    }
    fn name(&self) -> &'static str {
        "quantum"
    }
}

/// PCT — probabilistic concurrency testing (Burckhardt et al.): each
/// thread gets a random priority; at `depth - 1` pre-chosen step indices
/// the running thread's priority drops below everyone else's. For a bug of
/// depth `d`, PCT exposes it with probability ≥ 1/(n·k^(d-1)) per run —
/// much better than uniform random for ordering bugs like the §4.3
/// false-negative schedule.
#[derive(Debug, Clone)]
pub struct Pct {
    rng: SplitMix64,
    /// Priority per thread id (higher runs first); lazily assigned.
    priorities: Vec<u64>,
    /// Remaining step indices at which to deprioritise the runner.
    change_points: Vec<u64>,
    next_low: u64,
}

impl Pct {
    /// `depth` is the bug depth to target (>= 1); `max_steps` bounds the
    /// step indices the change points are drawn from.
    pub fn new(seed: u64, depth: u32, max_steps: u64) -> Self {
        let mut p = Pct {
            rng: SplitMix64::new(seed.wrapping_add(0x9E3779B97F4A7C15)),
            priorities: Vec::new(),
            change_points: Vec::new(),
            next_low: 0,
        };
        let k = max_steps.max(1);
        for _ in 1..depth.max(1) {
            let cp = p.rng.next_u64() % k;
            p.change_points.push(cp);
        }
        p.change_points.sort_unstable();
        p
    }

    fn priority(&mut self, tid: ThreadId) -> u64 {
        let idx = tid.index();
        while self.priorities.len() <= idx {
            // Random high priorities; low band reserved for change points.
            let v = (self.rng.next_u64() % u64::MAX / 2).max(1 << 32);
            self.priorities.push(v);
        }
        self.priorities[idx]
    }
}

impl Scheduler for Pct {
    fn pick(&mut self, runnable: &[ThreadId], slot: u64) -> usize {
        // Highest priority runs.
        let mut best = 0;
        let mut best_pri = self.priority(runnable[0]);
        for (i, &t) in runnable.iter().enumerate().skip(1) {
            let p = self.priority(t);
            if p > best_pri {
                best = i;
                best_pri = p;
            }
        }
        // Change point: demote the chosen thread below everything.
        if self.change_points.first().is_some_and(|&cp| slot >= cp) {
            self.change_points.remove(0);
            let tid = runnable[best];
            self.next_low += 1;
            let low = self.next_low; // strictly increasing, all below 2^32
            self.priorities[tid.index()] = low;
            // Re-pick with the demotion applied.
            let mut b2 = 0;
            let mut p2 = self.priority(runnable[0]);
            for (i, &t) in runnable.iter().enumerate().skip(1) {
                let p = self.priority(t);
                if p > p2 {
                    b2 = i;
                    p2 = p;
                }
            }
            return b2;
        }
        best
    }

    fn name(&self) -> &'static str {
        "pct"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tids(ids: &[u32]) -> Vec<ThreadId> {
        ids.iter().map(|&i| ThreadId(i)).collect()
    }

    #[test]
    fn pick_equals_modulo_of_the_next_draw() {
        for seed in [0u64, 1, 0xC0FFEE, u64::MAX] {
            let mut fast = SplitMix64::new(seed);
            let mut slow = SplitMix64::new(seed);
            for round in 0..50 {
                for n in 0..=64u64 {
                    if n == 0 {
                        // No draw is consumed: the streams stay aligned.
                        assert_eq!(fast.pick(0), 0);
                        continue;
                    }
                    assert_eq!(
                        fast.pick(n),
                        slow.next_u64() % n,
                        "seed {seed} n {n} round {round}"
                    );
                }
            }
        }
    }

    #[test]
    fn splitmix_is_deterministic_and_chance_respects_bounds() {
        let mut a = SplitMix64::new(99);
        let mut b = SplitMix64::new(99);
        let va: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        assert_eq!(va, vb);

        let mut r = SplitMix64::new(1);
        assert!(!r.chance(0), "zero rate never fires");
        let hits = (0..1000).filter(|_| r.chance(1000)).count();
        assert_eq!(hits, 1000, "full rate always fires");
        assert_eq!(r.pick(0), 0);
        for _ in 0..100 {
            assert!(r.pick(3) < 3);
        }
    }

    #[test]
    fn round_robin_rotates() {
        let mut s = RoundRobin::new();
        let r = tids(&[0, 1, 2]);
        let picks: Vec<usize> = (0..6).map(|i| s.pick(&r, i)).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn seeded_random_is_deterministic() {
        let r = tids(&[0, 1, 2, 3]);
        let mut a = SeededRandom::new(42);
        let mut b = SeededRandom::new(42);
        let pa: Vec<usize> = (0..32).map(|i| a.pick(&r, i)).collect();
        let pb: Vec<usize> = (0..32).map(|i| b.pick(&r, i)).collect();
        assert_eq!(pa, pb);
        let mut c = SeededRandom::new(43);
        let pc: Vec<usize> = (0..32).map(|i| c.pick(&r, i)).collect();
        assert_ne!(pa, pc, "different seeds should give different schedules");
    }

    #[test]
    fn seeded_random_stays_in_bounds() {
        let mut s = SeededRandom::new(7);
        for n in 1..5usize {
            let r = tids(&(0..n as u32).collect::<Vec<_>>());
            for i in 0..100 {
                assert!(s.pick(&r, i) < n);
            }
        }
    }

    #[test]
    fn priority_order_prefers_listed_threads() {
        let mut s = PriorityOrder::new(tids(&[2, 1]));
        let r = tids(&[0, 1, 2]);
        // 2 outranks 1 outranks 0 (unlisted come last).
        assert_eq!(r[s.pick(&r, 0)], ThreadId(2));
        let r2 = tids(&[0, 1]);
        assert_eq!(r2[s.pick(&r2, 0)], ThreadId(1));
        let r3 = tids(&[0]);
        assert_eq!(r3[s.pick(&r3, 0)], ThreadId(0));
    }

    #[test]
    fn quantum_runs_bursts() {
        let mut s = Quantum::new(3);
        let r = tids(&[0, 1]);
        let picks: Vec<usize> = (0..8).map(|i| s.pick(&r, i)).collect();
        assert_eq!(picks, vec![0, 0, 0, 1, 1, 1, 0, 0]);
    }

    #[test]
    fn pct_is_deterministic_and_in_bounds() {
        let r = tids(&[0, 1, 2]);
        let run = |seed| {
            let mut s = Pct::new(seed, 3, 50);
            (0..50).map(|i| s.pick(&r, i)).collect::<Vec<_>>()
        };
        assert_eq!(run(5), run(5));
        for &p in &run(5) {
            assert!(p < 3);
        }
    }

    #[test]
    fn pct_without_change_points_is_strict_priority() {
        // depth 1 → no change points → the same thread runs while runnable.
        let r = tids(&[0, 1, 2]);
        let mut s = Pct::new(9, 1, 100);
        let first = s.pick(&r, 0);
        for i in 1..20 {
            assert_eq!(s.pick(&r, i), first);
        }
    }

    #[test]
    fn pct_change_point_demotes_runner() {
        let r = tids(&[0, 1]);
        // depth 2, change point somewhere in the first steps.
        let mut s = Pct::new(3, 2, 4);
        let picks: Vec<usize> = (0..10).map(|i| s.pick(&r, i)).collect();
        // After the change point the OTHER thread must run.
        assert!(
            picks.windows(2).any(|w| w[0] != w[1]),
            "a demotion must switch threads: {picks:?}"
        );
    }
}
