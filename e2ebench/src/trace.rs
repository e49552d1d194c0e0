//! Outside-in tracing of the `nn` layer: a [`Model`] wrapper that times
//! every call the simulator makes into a model, installed by wrapping the
//! scenario's [`ModelFactory`].
//!
//! The wrapper only observes. Every trait method, the defaulted ones
//! included, forwards to the wrapped model, so a traced run computes
//! exactly what an untraced run computes (the tests check the digests).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dagfl_core::ModelFactory;
use dagfl_nn::{EvalScratch, Evaluation, Model, NnError, SgdConfig};
use dagfl_tensor::{MatmulBackendKind, Matrix};
use rand::rngs::StdRng;

/// Call count and summed busy time of one kind of model call.
///
/// Rounds mode trains one client per thread, so busy time is summed
/// over threads and can exceed wall time.
#[derive(Debug, Default)]
pub struct Span {
    calls: AtomicU64,
    busy_ns: AtomicU64,
}

impl Span {
    fn record(&self, elapsed: Duration) {
        // Statistics only: nothing else is published through them.
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.busy_ns
            .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Completed calls.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Summed time inside the calls, in seconds.
    pub fn busy_s(&self) -> f64 {
        self.busy_ns.load(Ordering::Relaxed) as f64 * 1e-9
    }
}

/// Buckets per doubling of a [`Histogram`]: quantiles are exact to
/// within 2^(1/32) - 1, about 2.2%.
const SUB_BUCKETS: f64 = 32.0;
/// Doublings covered above 1 ns (2^40 ns is about 18 minutes).
const DOUBLINGS: usize = 40;

/// A lock-free log-bucketed histogram of durations.
#[derive(Debug)]
pub struct Histogram {
    buckets: Vec<AtomicU64>,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            buckets: (0..DOUBLINGS * SUB_BUCKETS as usize)
                .map(|_| AtomicU64::new(0))
                .collect(),
        }
    }
}

impl Histogram {
    fn record(&self, elapsed: Duration) {
        let ns = elapsed.as_nanos().max(1) as f64;
        let bucket = ((ns.log2() * SUB_BUCKETS) as usize).min(self.buckets.len() - 1);
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// The `q`-quantile (0 < q <= 1) in microseconds, as the geometric
    /// middle of its bucket; `0.0` when nothing was recorded.
    pub fn quantile_us(&self, q: f64) -> f64 {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0;
        for (bucket, count) in counts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return 2f64.powf((bucket as f64 + 0.5) / SUB_BUCKETS) * 1e-3;
            }
        }
        unreachable!("rank never exceeds the total count")
    }
}

/// Everything the traced models record, shared by all of a run's models.
#[derive(Debug, Default)]
pub struct NnTrace {
    /// `train_batch`: one SGD step (forward and backward).
    pub train_batch: Span,
    /// Per-call `train_batch` durations.
    pub train_batch_hist: Histogram,
    /// `evaluate_flat_params` calls answered on the zero-copy path.
    pub eval_flat: Span,
    /// `evaluate_flat_params` calls the model declined, which make the
    /// evaluator load the parameters and evaluate instead.
    pub eval_flat_fallbacks: AtomicU64,
    /// `evaluate` and `evaluate_with_scratch`.
    pub evaluate: Span,
    /// `set_parameters`.
    pub set_parameters: Span,
    /// `parameters`: the copy made when a model is published.
    pub parameters: Span,
}

/// Wraps every model `factory` builds in a [`TracedModel`] reporting to
/// `trace`.
pub fn traced_factory(factory: ModelFactory, trace: Arc<NnTrace>) -> ModelFactory {
    Arc::new(move |rng: &mut StdRng| {
        Box::new(TracedModel {
            inner: factory(rng),
            trace: Arc::clone(&trace),
        })
    })
}

/// A model that forwards every call to the wrapped one and times those
/// the simulator makes (all but `loss_and_gradient` and `predict`).
pub struct TracedModel {
    inner: Box<dyn Model>,
    trace: Arc<NnTrace>,
}

fn timed<T>(span: &Span, f: impl FnOnce() -> T) -> T {
    let started = Instant::now();
    let out = f();
    span.record(started.elapsed());
    out
}

impl Model for TracedModel {
    fn num_parameters(&self) -> usize {
        self.inner.num_parameters()
    }

    fn parameters(&self) -> Vec<f32> {
        timed(&self.trace.parameters, || self.inner.parameters())
    }

    fn set_parameters(&mut self, params: &[f32]) -> Result<(), NnError> {
        timed(&self.trace.set_parameters, || {
            self.inner.set_parameters(params)
        })
    }

    fn train_batch(&mut self, x: &Matrix, y: &[usize], opt: &SgdConfig) -> Result<f32, NnError> {
        let started = Instant::now();
        let out = self.inner.train_batch(x, y, opt);
        let elapsed = started.elapsed();
        self.trace.train_batch.record(elapsed);
        self.trace.train_batch_hist.record(elapsed);
        out
    }

    fn loss_and_gradient(&mut self, x: &Matrix, y: &[usize]) -> Result<(f32, Vec<f32>), NnError> {
        self.inner.loss_and_gradient(x, y)
    }

    fn evaluate(&self, x: &Matrix, y: &[usize]) -> Result<Evaluation, NnError> {
        timed(&self.trace.evaluate, || self.inner.evaluate(x, y))
    }

    fn evaluate_with_scratch(
        &self,
        x: &Matrix,
        y: &[usize],
        scratch: &mut EvalScratch,
    ) -> Result<Evaluation, NnError> {
        timed(&self.trace.evaluate, || {
            self.inner.evaluate_with_scratch(x, y, scratch)
        })
    }

    fn evaluate_flat_params(
        &self,
        params: &[f32],
        x: &Matrix,
        y: &[usize],
        scratch: &mut EvalScratch,
    ) -> Option<Result<Evaluation, NnError>> {
        let started = Instant::now();
        let out = self.inner.evaluate_flat_params(params, x, y, scratch);
        match out {
            Some(_) => self.trace.eval_flat.record(started.elapsed()),
            None => {
                self.trace
                    .eval_flat_fallbacks
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
        out
    }

    fn set_matmul_backend(&mut self, backend: MatmulBackendKind) {
        self.inner.set_matmul_backend(backend);
    }

    fn predict(&self, x: &Matrix) -> Result<Vec<usize>, NnError> {
        self.inner.predict(x)
    }

    fn boxed_clone(&self) -> Box<dyn Model> {
        Box::new(TracedModel {
            inner: self.inner.boxed_clone(),
            trace: Arc::clone(&self.trace),
        })
    }
}
