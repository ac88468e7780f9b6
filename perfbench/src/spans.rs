//! Outside-in spans for the traced run.
//!
//! Spans are recorded from the benchmark's own code around calls into a
//! layer's public functions; nothing inside the program is instrumented.
//! The one place a layer is entered from inside another is the VM's
//! per-event [`Tool`] callback, which is how the VM hands events to the
//! filter and the detector engines. [`SampledTool`] wraps a tool and times
//! a seeded random sample of about one in 128 of those callbacks, which
//! gives the filter's and the engine's self time without timing every
//! event. The VM's own self time is not taken from the traced run at all:
//! the workloads time the same run with a null tool apart from it. No
//! layer's self time is a remainder of the traced span, so the residual
//! against the untraced run is time the layers do not explain.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use vexec::vm::{GuestError, VmView};
use vexec::{Event, Tool};

use crate::stats::median;

/// Gaps between sampled callbacks are drawn uniformly from
/// `1..=2 * MEAN_GAP`.
const MEAN_GAP: u64 = 64;

/// A [`Tool`] wrapper that times a random sample of the callbacks it
/// forwards and estimates their total time.
///
/// Each sampled callback is, by a coin flip, either timed, or preceded by
/// an empty span at the same point of the VM's loop and then forwarded
/// untimed. The empty spans measure what timing costs there (clock reads,
/// pipeline stalls) in the host's state at that moment; their mean is
/// subtracted from the timed callbacks' mean.
pub struct SampledTool<T> {
    pub inner: T,
    rng: u64,
    /// Callbacks left until the next sampled one.
    countdown: u64,
    calls: u64,
    timed: u64,
    timed_ns: f64,
    empty: u64,
    empty_ns: f64,
    /// `on_finish` and `on_guest_fault` run once per run; timed exactly.
    exact_ns: f64,
}

impl<T: Tool> SampledTool<T> {
    pub fn new(inner: T, seed: u64) -> Self {
        SampledTool {
            inner,
            rng: seed | 1,
            countdown: 1,
            calls: 0,
            timed: 0,
            timed_ns: 0.0,
            empty: 0,
            empty_ns: 0.0,
            exact_ns: 0.0,
        }
    }

    /// Estimated nanoseconds spent inside the wrapped tool.
    pub fn estimate_ns(&self) -> f64 {
        let mean = |ns: f64, n: u64| if n == 0 { 0.0 } else { ns / n as f64 };
        let per_call = mean(self.timed_ns, self.timed) - mean(self.empty_ns, self.empty);
        self.exact_ns + per_call * self.calls as f64
    }
}

impl<T: Tool> Tool for SampledTool<T> {
    #[inline]
    fn on_event(&mut self, ev: &Event, vm: &VmView<'_>) {
        self.calls += 1;
        self.countdown -= 1;
        if self.countdown == 0 {
            // A random gap, so the sample cannot lock onto a loop in the
            // guest (xorshift64).
            self.rng ^= self.rng << 13;
            self.rng ^= self.rng >> 7;
            self.rng ^= self.rng << 17;
            self.countdown = 1 + self.rng % (2 * MEAN_GAP);
            if self.rng >> 63 == 0 {
                let t = Instant::now();
                self.inner.on_event(ev, vm);
                self.timed_ns += t.elapsed().as_nanos() as f64;
                self.timed += 1;
            } else {
                let t = Instant::now();
                self.empty_ns += t.elapsed().as_nanos() as f64;
                self.empty += 1;
                self.inner.on_event(ev, vm);
            }
        } else {
            self.inner.on_event(ev, vm);
        }
    }

    fn on_guest_fault(&mut self, err: &GuestError, vm: &VmView<'_>) {
        let t = Instant::now();
        self.inner.on_guest_fault(err, vm);
        self.exact_ns += t.elapsed().as_nanos() as f64;
    }

    fn on_finish(&mut self, vm: &VmView<'_>) {
        let t = Instant::now();
        self.inner.on_finish(vm);
        self.exact_ns += t.elapsed().as_nanos() as f64;
    }
}

/// Self time per layer over a set of traced operations, beside the
/// untraced and traced times of the same operations.
#[derive(Debug, Default)]
pub struct SelfTimes {
    pub layers: BTreeMap<String, f64>,
    pub ops: u64,
    pub untraced_ns: f64,
    pub traced_ns: f64,
    /// Summed self time when the previous operation was recorded.
    sum_at_last_op: f64,
    /// Per operation, in percent of its untraced time: untraced minus
    /// summed self time, and traced minus untraced.
    residuals: Vec<f64>,
    overheads: Vec<f64>,
}

impl SelfTimes {
    pub fn add(&mut self, layer: &str, ns: f64) {
        *self.layers.entry(layer.to_string()).or_insert(0.0) += ns;
    }

    pub fn add_dur(&mut self, layer: &str, d: Duration) {
        self.add(layer, d.as_nanos() as f64);
    }

    /// Record one operation: the untraced op time and the traced op's
    /// root span. The self times added since the previous call belong to
    /// this operation.
    pub fn op(&mut self, untraced: Duration, traced: Duration) {
        let (u, t) = (untraced.as_nanos() as f64, traced.as_nanos() as f64);
        let sum = self.self_sum_ns();
        let op_sum = sum - self.sum_at_last_op;
        self.sum_at_last_op = sum;
        self.ops += 1;
        self.untraced_ns += u;
        self.traced_ns += t;
        if u > 0.0 {
            self.residuals.push(100.0 * (u - op_sum) / u);
            self.overheads.push(100.0 * (t - u) / u);
        }
    }

    fn per_op_ms(&self, ns: f64) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            ns / self.ops as f64 / 1e6
        }
    }

    /// Mean untraced op time, in milliseconds.
    pub fn untraced_mean_ms(&self) -> f64 {
        self.per_op_ms(self.untraced_ns)
    }

    pub fn self_sum_ns(&self) -> f64 {
        self.layers.values().sum()
    }

    /// Print the per-layer self-time table and add the summary metrics:
    /// mean untraced, traced and summed self time per op, and, as the
    /// median over ops of each op's share of its own untraced time, the
    /// residual (untraced minus summed self time) and the tracing
    /// overhead (traced minus untraced). Per-op shares compare the three
    /// runs of one round, which ran within a second of each other; a
    /// round that straddles a change in the host's speed is an outlier
    /// the median ignores, where a ratio of totals would not.
    pub fn report(&self, workload: &str, residual_bound_pct: f64, out: &mut crate::stats::Outcome) {
        let untraced = self.per_op_ms(self.untraced_ns);
        let traced = self.per_op_ms(self.traced_ns);
        let sum = self.per_op_ms(self.self_sum_ns());
        println!("self time per op on {workload} over {} traced op(s):", self.ops);
        for (layer, ns) in &self.layers {
            let share = if self.traced_ns > 0.0 { 100.0 * ns / self.traced_ns } else { 0.0 };
            println!(
                "  self {layer:<28} {:>10.4} ms  {share:>5.1}% of traced",
                self.per_op_ms(*ns)
            );
        }
        let residual = median(&self.residuals);
        out.metric("ledger.untraced_ms", untraced, "ms");
        out.metric("ledger.traced_ms", traced, "ms");
        out.metric("ledger.self_sum_ms", sum, "ms");
        out.metric("ledger.residual_pct", residual, "%");
        out.metric("ledger.tracing_overhead_pct", median(&self.overheads), "%");
        out.check(if self.ops > 0 && residual.abs() <= residual_bound_pct {
            Ok(())
        } else {
            Err(format!(
                "{workload}: self times leave a {residual:.1}% residual over {} op(s), \
                 over the stated {residual_bound_pct}%",
                self.ops
            ))
        });
    }
}
