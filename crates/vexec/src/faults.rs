//! Deterministic fault injection: the chaos layer of §3.3.
//!
//! The paper validated its tracer against a long-lived, *faulty* SIP proxy
//! under SIPp load; this module lets us do the same to our own detectors
//! without a real network. A seeded [`FaultPlan`] drives a [`FaultInjector`]
//! that the VM consults at well-defined points:
//!
//! * **Spurious condvar wakeups** — POSIX permits `pthread_cond_wait` to
//!   return without a matching signal; we unpark a waiter at random.
//! * **Lock acquisition failures** — models `trylock`/timed-lock timeouts:
//!   the acquire fails even though the lock is free and the thread retries.
//! * **Allocation failures** — `new` returns null; the guest's (usually
//!   missing) error path runs.
//! * **Abrupt thread death** — a thread dies mid-critical-section, leaking
//!   every lock it holds and every block it allocated.
//!
//! All decisions come from a private [`SplitMix64`] stream seeded by the
//! plan, so a run is exactly reproducible given `(program, scheduler,
//! options, plan)` — the repo-wide determinism invariant extended to chaos.

use crate::sched::SplitMix64;

/// The injectable fault classes (the taxonomy of DESIGN §7).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    SpuriousWakeup,
    LockFail,
    AllocFail,
    ThreadKill,
}

impl FaultKind {
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::SpuriousWakeup => "spurious-wakeup",
            FaultKind::LockFail => "lock-fail",
            FaultKind::AllocFail => "alloc-fail",
            FaultKind::ThreadKill => "thread-kill",
        }
    }
}

/// A seeded fault schedule: per-mille rates for each fault class.
///
/// Rates are in `0..=1000` (probability per opportunity). `max_kills`
/// bounds thread deaths so chaos runs keep enough threads alive to be
/// interesting; kills never target the main thread.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    pub seed: u64,
    pub wakeup_permille: u32,
    pub lockfail_permille: u32,
    pub allocfail_permille: u32,
    pub kill_permille: u32,
    pub max_kills: u32,
}

impl FaultPlan {
    /// All channels off. Attaching this plan still exercises the hook path
    /// (the "enabled-but-no-op" configuration the overhead bench measures).
    pub fn disabled() -> Self {
        FaultPlan {
            seed: 0,
            wakeup_permille: 0,
            lockfail_permille: 0,
            allocfail_permille: 0,
            kill_permille: 0,
            max_kills: 0,
        }
    }

    /// Derive a plan from a sweep seed. Rates are kept low enough that
    /// lock-retry livelock cannot outrun the VM's fuel budget, so every
    /// derived plan terminates with a structured [`crate::vm::Termination`].
    pub fn from_seed(seed: u64) -> Self {
        let mut r = SplitMix64::new(seed ^ 0x000F_A017_5EED);
        let wakeup_permille = (r.next_u64() % 26) as u32;
        let lockfail_permille = (r.next_u64() % 26) as u32;
        let allocfail_permille = (r.next_u64() % 11) as u32;
        // The kill knobs are sampled jointly: a rate without a cap (or a
        // cap without a rate) is a dead knob that silently disarms the
        // kill path, so the sampler never produces one — a sampled plan
        // with `kill_permille > 0` always has `max_kills > 0`.
        let kill_permille = (r.next_u64() % 6) as u32;
        let max_kills = if kill_permille == 0 { 0 } else { 1 + (r.next_u64() % 2) as u32 };
        FaultPlan {
            seed,
            wakeup_permille,
            lockfail_permille,
            allocfail_permille,
            kill_permille,
            max_kills,
        }
    }

    /// Canonical form of the kill knobs: `kill_permille` and `max_kills`
    /// arm and disarm together. If either is zero the pair can never fire
    /// — a rate with no cap, or a cap with no rate — so both are zeroed,
    /// keeping `Debug` output and downstream accounting honest about the
    /// kill path being dead.
    pub fn normalized(mut self) -> Self {
        if self.kill_permille == 0 || self.max_kills == 0 {
            self.kill_permille = 0;
            self.max_kills = 0;
        }
        self
    }

    /// True if no channel can ever fire. The kill channel is dead when
    /// *either* knob is zero (see [`Self::normalized`]), not only when
    /// both are.
    pub fn is_noop(&self) -> bool {
        self.wakeup_permille == 0
            && self.lockfail_permille == 0
            && self.allocfail_permille == 0
            && (self.kill_permille == 0 || self.max_kills == 0)
    }

    /// Parse a CLI spec like
    /// `seed=0xC0FFEE,wakeup=10,lockfail=5,allocfail=2,kill=1,max-kills=2`.
    /// Unspecified rates default to 0; rates are clamped to `0..=1000`.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::disabled();
        let mut kill_rate_set = false;
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("fault spec entry `{part}` is not key=value"))?;
            let key = key.trim();
            let value = value.trim();
            match key {
                "seed" => plan.seed = parse_u64(value)?,
                "wakeup" => plan.wakeup_permille = parse_rate(value)?,
                "lockfail" => plan.lockfail_permille = parse_rate(value)?,
                "allocfail" => plan.allocfail_permille = parse_rate(value)?,
                "kill" => {
                    plan.kill_permille = parse_rate(value)?;
                    kill_rate_set = true;
                }
                "max-kills" | "maxkills" => {
                    plan.max_kills = parse_u64(value)? as u32;
                }
                other => {
                    return Err(format!(
                        "unknown fault spec key `{other}` \
                         (expected seed|wakeup|lockfail|allocfail|kill|max-kills)"
                    ));
                }
            }
        }
        // `kill=N` without an explicit cap means "kill at most one thread".
        if kill_rate_set && plan.kill_permille > 0 && plan.max_kills == 0 {
            plan.max_kills = 1;
        }
        Ok(plan.normalized())
    }
}

/// Parse a decimal or `0x`-prefixed hex u64 (seeds like `0xC0FFEE`).
pub fn parse_u64(s: &str) -> Result<u64, String> {
    let s = s.trim();
    let parsed = if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(&hex.replace('_', ""), 16)
    } else {
        s.replace('_', "").parse()
    };
    parsed.map_err(|_| format!("`{s}` is not a valid number"))
}

fn parse_rate(s: &str) -> Result<u32, String> {
    let v = parse_u64(s)?;
    if v > 1000 {
        return Err(format!("rate `{s}` out of range (permille, 0..=1000)"));
    }
    Ok(v as u32)
}

/// Counters for faults actually injected during a run, plus what the last
/// thread kill left behind (the "locks leaked, memory unreleased" evidence).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    pub spurious_wakeups: u64,
    pub lock_failures: u64,
    pub alloc_failures: u64,
    pub kills: u64,
    /// Locks still held by killed threads.
    pub leaked_locks: u64,
    /// Heap bytes allocated by killed threads and never freed.
    pub leaked_bytes: u64,
}

impl FaultStats {
    pub fn total(&self) -> u64 {
        self.spurious_wakeups + self.lock_failures + self.alloc_failures + self.kills
    }
}

/// The runtime half: owns the RNG stream and the injected-fault counters.
#[derive(Clone, Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    rng: SplitMix64,
    pub stats: FaultStats,
}

impl FaultInjector {
    pub fn new(plan: FaultPlan) -> Self {
        FaultInjector { plan, rng: SplitMix64::new(plan.seed), stats: FaultStats::default() }
    }

    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Should this lock acquisition spuriously fail (timed-lock timeout)?
    pub fn should_fail_lock(&mut self) -> bool {
        let fire = self.rng.chance(self.plan.lockfail_permille);
        if fire {
            self.stats.lock_failures += 1;
        }
        fire
    }

    /// Should this allocation return null?
    pub fn should_fail_alloc(&mut self) -> bool {
        let fire = self.rng.chance(self.plan.allocfail_permille);
        if fire {
            self.stats.alloc_failures += 1;
        }
        fire
    }

    /// Should a condvar waiter wake without a signal this slot?
    pub fn should_spurious_wakeup(&mut self) -> bool {
        let fire = self.rng.chance(self.plan.wakeup_permille);
        if fire {
            self.stats.spurious_wakeups += 1;
        }
        fire
    }

    /// Should the scheduled thread die abruptly this slot? Respects
    /// `max_kills`; the caller is responsible for sparing the main thread.
    pub fn should_kill(&mut self) -> bool {
        if self.stats.kills >= self.plan.max_kills as u64 {
            return false;
        }
        let fire = self.rng.chance(self.plan.kill_permille);
        if fire {
            self.stats.kills += 1;
        }
        fire
    }

    /// True while a pre-slot channel (spurious wakeup, thread kill) can
    /// still fire. Otherwise consulting them draws nothing, so the VM
    /// skips its pre-slot hook without changing any run.
    pub fn pre_slot_armed(&self) -> bool {
        self.plan.wakeup_permille > 0
            || (self.plan.kill_permille > 0 && self.stats.kills < u64::from(self.plan.max_kills))
    }

    /// Deterministic pick among `n` candidates (e.g. which waiter wakes).
    pub fn pick(&mut self, n: usize) -> usize {
        self.rng.pick(n as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_full_spec() {
        let p =
            FaultPlan::parse("seed=0xC0FFEE,wakeup=10,lockfail=5,allocfail=2,kill=1,max-kills=2")
                .unwrap();
        assert_eq!(p.seed, 0xC0FFEE);
        assert_eq!(p.wakeup_permille, 10);
        assert_eq!(p.lockfail_permille, 5);
        assert_eq!(p.allocfail_permille, 2);
        assert_eq!(p.kill_permille, 1);
        assert_eq!(p.max_kills, 2);
        assert!(!p.is_noop());
    }

    #[test]
    fn parse_kill_without_cap_defaults_to_one() {
        let p = FaultPlan::parse("kill=5").unwrap();
        assert_eq!(p.max_kills, 1);
    }

    #[test]
    fn parse_rejects_bad_input() {
        assert!(FaultPlan::parse("frobnicate=1").is_err());
        assert!(FaultPlan::parse("wakeup").is_err());
        assert!(FaultPlan::parse("wakeup=1001").is_err());
        assert!(FaultPlan::parse("seed=zzz").is_err());
    }

    #[test]
    fn parse_empty_spec_is_noop() {
        let p = FaultPlan::parse("").unwrap();
        assert!(p.is_noop());
        assert_eq!(p, FaultPlan::disabled());
    }

    #[test]
    fn from_seed_is_deterministic_and_bounded() {
        for seed in 0..64u64 {
            let a = FaultPlan::from_seed(seed);
            let b = FaultPlan::from_seed(seed);
            assert_eq!(a, b);
            assert!(a.wakeup_permille <= 25);
            assert!(a.lockfail_permille <= 25);
            assert!(a.allocfail_permille <= 10);
            assert!(a.kill_permille <= 5);
            assert!(a.max_kills <= 2);
        }
        assert_ne!(FaultPlan::from_seed(1), FaultPlan::from_seed(2));
    }

    #[test]
    fn sampled_kill_knobs_are_coherent() {
        // The dead-knob bug: independent sampling used to produce
        // `kill_permille > 0` with `max_kills == 0` (silently disarmed)
        // and vice versa. The sampler must never emit either shape.
        let mut armed = 0;
        for seed in 0..512u64 {
            let p = FaultPlan::from_seed(seed);
            assert_eq!(
                p.kill_permille == 0,
                p.max_kills == 0,
                "seed {seed}: incoherent kill knobs {p:?}"
            );
            assert_eq!(p, p.normalized(), "sampled plans are already canonical");
            if p.kill_permille > 0 {
                armed += 1;
            }
        }
        // The sweep still exercises both armed and disarmed kill paths.
        assert!(armed > 0 && armed < 512, "{armed}/512 armed");
    }

    #[test]
    fn normalized_zeroes_dead_kill_knobs() {
        let rate_no_cap =
            FaultPlan { seed: 1, kill_permille: 5, max_kills: 0, ..FaultPlan::disabled() };
        let n = rate_no_cap.normalized();
        assert_eq!((n.kill_permille, n.max_kills), (0, 0));
        let cap_no_rate =
            FaultPlan { seed: 1, kill_permille: 0, max_kills: 3, ..FaultPlan::disabled() };
        let n = cap_no_rate.normalized();
        assert_eq!((n.kill_permille, n.max_kills), (0, 0));
        let armed = FaultPlan { seed: 1, kill_permille: 5, max_kills: 3, ..FaultPlan::disabled() };
        assert_eq!(armed.normalized(), armed);
    }

    #[test]
    fn parse_normalizes_dead_kill_cap() {
        // A cap without a rate parses, but comes back canonicalized.
        let p = FaultPlan::parse("max-kills=4").unwrap();
        assert_eq!((p.kill_permille, p.max_kills), (0, 0));
        assert!(p.is_noop());
    }

    #[test]
    fn injector_streams_are_reproducible() {
        let plan = FaultPlan::from_seed(7);
        let mut a = FaultInjector::new(plan);
        let mut b = FaultInjector::new(plan);
        let da: Vec<bool> = (0..256).map(|_| a.should_fail_lock()).collect();
        let db: Vec<bool> = (0..256).map(|_| b.should_fail_lock()).collect();
        assert_eq!(da, db);
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn max_kills_is_respected() {
        let plan =
            FaultPlan { seed: 3, kill_permille: 1000, max_kills: 2, ..FaultPlan::disabled() };
        let mut inj = FaultInjector::new(plan);
        let kills = (0..100).filter(|_| inj.should_kill()).count();
        assert_eq!(kills, 2);
        assert_eq!(inj.stats.kills, 2);
    }

    #[test]
    fn disabled_plan_never_fires() {
        let mut inj = FaultInjector::new(FaultPlan::disabled());
        for _ in 0..100 {
            assert!(!inj.should_fail_lock());
            assert!(!inj.should_fail_alloc());
            assert!(!inj.should_spurious_wakeup());
            assert!(!inj.should_kill());
        }
        assert_eq!(inj.stats.total(), 0);
    }

    #[test]
    fn parse_u64_accepts_hex_and_underscores() {
        assert_eq!(parse_u64("0xC0FFEE").unwrap(), 0xC0FFEE);
        assert_eq!(parse_u64("1_000").unwrap(), 1000);
        assert!(parse_u64("").is_err());
    }
}
