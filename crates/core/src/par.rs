//! The workspace's one deterministic worker pool.
//!
//! Workers on a scoped thread pool claim indices `0..n` from a shared
//! counter and run a pure per-index job; results land in index order. So
//! any sequential fold over the output is bit-identical to running
//! `(0..n).map(f)` inline, whatever the thread timing — which is exactly
//! what `jobs <= 1` does. Explore sweeps, trace epoch decoding and the
//! CLI's chaos/soak fan-out all run through here.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Run `f(i)` for every `i` in `0..n` on up to `jobs` workers; results in
/// index order.
pub fn map_indexed<T: Send>(jobs: usize, n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    map_until(jobs, n, || false, f)
        .into_iter()
        .map(|v| v.expect("without a stop check every index is claimed"))
        .collect()
}

/// [`map_indexed`] with a stop check consulted before each claim: once
/// `stop()` returns true no further index starts, and unclaimed indices
/// are `None`. Claimed jobs always finish, and the counter hands indices
/// out in order, so the claimed set is always a prefix of `0..n`.
pub fn map_until<T: Send>(
    jobs: usize,
    n: usize,
    stop: impl Fn() -> bool + Sync,
    f: impl Fn(usize) -> T + Sync,
) -> Vec<Option<T>> {
    let mut out: Vec<Option<T>> = Vec::new();
    out.resize_with(n, || None);
    if jobs <= 1 || n <= 1 {
        for (i, slot) in out.iter_mut().enumerate() {
            if stop() {
                break;
            }
            *slot = Some(f(i));
        }
        return out;
    }
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..jobs.min(n))
            .map(|_| {
                let (next, stop, f) = (&next, &stop, &f);
                s.spawn(move || {
                    let mut local = Vec::new();
                    while !stop() {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        local.push((i, f(i)));
                    }
                    local
                })
            })
            .collect();
        for h in handles {
            for (i, v) in h.join().expect("worker panicked") {
                out[i] = Some(v);
            }
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn results_are_in_index_order_for_any_job_count() {
        let want: Vec<u64> = (0..97).map(|i| (i as u64) * 7 + 1).collect();
        for jobs in [0, 1, 2, 3, 8, 200] {
            assert_eq!(map_indexed(jobs, 97, |i| (i as u64) * 7 + 1), want, "jobs {jobs}");
        }
        assert!(map_indexed(4, 0, |i| i).is_empty());
    }

    #[test]
    fn stop_check_halts_claims_and_claimed_jobs_finish() {
        for jobs in [1, 4] {
            let done = AtomicU64::new(0);
            let out = map_until(
                jobs,
                100,
                || done.load(Ordering::Relaxed) >= 10,
                |i| {
                    done.fetch_add(1, Ordering::Relaxed);
                    i
                },
            );
            let claimed = out.iter().filter(|v| v.is_some()).count();
            assert!((10..10 + jobs).contains(&claimed), "jobs {jobs}: {claimed} claimed");
            for (i, v) in out.iter().enumerate() {
                assert_eq!(*v, (i < claimed).then_some(i), "jobs {jobs}: claims form a prefix");
            }
        }
    }
}
