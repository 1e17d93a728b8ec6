//! Training, evaluation, threshold tuning and checkpointing for PIC models.
//!
//! Training is data-parallel: each minibatch is sharded contiguously across
//! [`TrainConfig::threads`] scoped worker threads, every graph's gradient
//! lands in its own pooled [`PicParams`] buffer, and the buffers are reduced
//! in fixed (shard-index) order. Because the reduction order never depends
//! on the thread count, training with `threads = N` is **bit-identical** to
//! `threads = 1` — the single-threaded path runs the exact same per-graph
//! structure, just without spawning.

use crate::metrics::{average_precision, Confusion, MeanMetrics, PerGraphAverager};
use crate::model::{PicConfig, PicModel, PicParams, PicSession};
use crate::optim::{Adam, AdamConfig};
use crate::tensor::{Mat, Scratch};
use rand::{seq::SliceRandom, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use snowcat_graph::CtGraph;

/// A borrowed (graph, labels) training/evaluation pair.
pub type LabeledGraph<'a> = (&'a CtGraph, &'a [bool]);

/// A borrowed (graph, vertex labels, edge flow labels) triple for joint
/// coverage + inter-thread-flow training (§6 future work).
pub type FlowLabeledGraph<'a> = (&'a CtGraph, &'a [bool], &'a [bool]);

/// A training example. Its type selects the task: a [`LabeledGraph`] trains
/// the coverage head, a [`FlowLabeledGraph`] trains the coverage and
/// inter-thread-flow heads jointly. Model selection follows validation URB
/// AP either way (coverage is the primary task; the flow head is auxiliary).
pub trait TrainExample: Copy + Sync {
    /// The graph and its vertex coverage labels.
    fn labeled(&self) -> LabeledGraph<'_>;
    /// Edge flow labels, aligned with the graph's edges, for joint training.
    fn flows(&self) -> Option<&[bool]>;
}

impl TrainExample for LabeledGraph<'_> {
    fn labeled(&self) -> LabeledGraph<'_> {
        *self
    }

    fn flows(&self) -> Option<&[bool]> {
        None
    }
}

impl TrainExample for FlowLabeledGraph<'_> {
    fn labeled(&self) -> LabeledGraph<'_> {
        (self.0, self.1)
    }

    fn flows(&self) -> Option<&[bool]> {
        Some(self.2)
    }
}

/// Training configuration.
#[derive(Debug, Clone, Copy)]
pub struct TrainConfig {
    /// Epochs over the training set.
    pub epochs: usize,
    /// Learning rate.
    pub lr: f32,
    /// Graphs per optimizer step (gradient accumulation).
    pub batch: usize,
    /// Shuffling seed.
    pub seed: u64,
    /// Worker threads per minibatch. Results are bit-identical for any
    /// value (fixed-order gradient reduction); values above the batch size
    /// are clamped.
    pub threads: usize,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self { epochs: 5, lr: 2e-3, batch: 4, seed: 0x7EA1, threads: 1 }
    }
}

/// Salt mixed into the RNG state on epoch retries (distinct from the
/// supervisor's hang-retry salt).
const RETRY_SALT: u64 = 0x7A19_EE0C_55AB_41D7;

/// Pooled per-graph gradient buffers, scratch arenas and loss slots, sized
/// to the largest batch seen and reused for the whole training run — no
/// per-step allocation once warmed up.
#[derive(Default)]
struct ShardPool {
    grads: Vec<PicParams>,
    scratch: Vec<Scratch>,
    losses: Vec<f32>,
}

impl ShardPool {
    fn ensure(&mut self, model: &PicModel, n: usize) {
        while self.grads.len() < n {
            self.grads.push(model.params.zeros_like());
            self.scratch.push(Scratch::new());
        }
        if self.losses.len() < n {
            self.losses.resize(n, 0.0);
        }
    }
}

/// Render a panic payload as text (worker panics become typed errors).
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Compute each batch item's gradient into its own pooled buffer —
/// contiguously sharded across `threads` scoped workers — then reduce the
/// buffers into `grads` in ascending item order and return the loss sum
/// (also folded in item order). The per-item work and both folds are
/// independent of the sharding, which is the determinism contract.
///
/// A panicking worker is contained (on both the threaded and the inline
/// path) and surfaced as `Err(panic message)` with `grads` untouched, so a
/// caller can fail the step without poisoning the process.
fn batch_gradients<T: Sync>(
    model: &PicModel,
    batch: &[T],
    pool: &mut ShardPool,
    threads: usize,
    grads: &mut PicParams,
    per_item: &(dyn Fn(&PicModel, &T, &mut PicParams, &mut Scratch) -> f32 + Sync),
) -> Result<f32, String> {
    pool.ensure(model, batch.len());
    let gbufs = &mut pool.grads[..batch.len()];
    let scratches = &mut pool.scratch[..batch.len()];
    let losses = &mut pool.losses[..batch.len()];
    let threads = threads.clamp(1, batch.len().max(1));
    if threads == 1 {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            for (((item, gb), sc), l) in
                batch.iter().zip(gbufs.iter_mut()).zip(scratches.iter_mut()).zip(losses.iter_mut())
            {
                gb.zero_all();
                *l = per_item(model, item, gb, sc);
            }
        }))
        .map_err(panic_message)?;
    } else {
        let chunk = batch.len().div_ceil(threads);
        crossbeam::thread::scope(|s| {
            for (((items, gbs), scs), ls) in batch
                .chunks(chunk)
                .zip(gbufs.chunks_mut(chunk))
                .zip(scratches.chunks_mut(chunk))
                .zip(losses.chunks_mut(chunk))
            {
                s.spawn(move |_| {
                    for (((item, gb), sc), l) in
                        items.iter().zip(gbs.iter_mut()).zip(scs.iter_mut()).zip(ls.iter_mut())
                    {
                        gb.zero_all();
                        *l = per_item(model, item, gb, sc);
                    }
                });
            }
        })
        .map_err(panic_message)?;
    }
    for gb in pool.grads[..batch.len()].iter() {
        grads.add_assign(gb);
    }
    Ok(pool.losses[..batch.len()].iter().sum())
}

/// Everything [`train`]'s loop carries from one epoch to the next. Passing
/// a captured state back as `resume` continues the run bit-identically, at
/// any thread count.
#[derive(Debug)]
pub struct TrainState {
    /// Epochs completed.
    pub epochs_done: usize,
    /// The shuffle RNG, positioned after the last completed epoch's shuffle.
    pub rng: ChaCha8Rng,
    /// The cumulative shuffle permutation. `shuffle` permutes in place, so
    /// each epoch's order depends on every earlier shuffle; the RNG position
    /// alone does not reproduce it.
    pub order: Vec<usize>,
    /// The optimizer.
    pub opt: Adam,
    /// Mean training loss per completed epoch.
    pub epoch_losses: Vec<f32>,
    /// Validation URB AP per completed epoch (empty without a validation set).
    pub val_ap: Vec<f64>,
    /// Best validation epoch so far: (epoch, URB AP, parameters).
    pub best: Option<(usize, f64, PicParams)>,
}

/// Result of a training run.
#[derive(Debug)]
pub struct TrainReport {
    /// The loop's state when it stopped: losses, validation AP and the best
    /// epoch, plus what a resumed run needs.
    pub state: TrainState,
    /// Wall-clock seconds spent training.
    pub train_seconds: f64,
}

/// Why an epoch attempt stopped early. The failing step never reached the
/// optimizer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EpochError {
    /// A training worker panicked; the panic was contained.
    WorkerPanicked {
        /// The worker's panic message.
        message: String,
    },
    /// A guarded step's batch loss was NaN or infinite.
    NonFiniteLoss {
        /// Optimizer step index within the epoch (0-based).
        step: usize,
    },
    /// A guarded step's gradient norm was NaN or infinite.
    NonFiniteGradient {
        /// Optimizer step index within the epoch (0-based).
        step: usize,
    },
}

impl std::fmt::Display for EpochError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EpochError::WorkerPanicked { message } => {
                write!(f, "training worker panicked: {message}")
            }
            EpochError::NonFiniteLoss { step } => {
                write!(f, "non-finite batch loss at step {step}")
            }
            EpochError::NonFiniteGradient { step } => {
                write!(f, "non-finite gradient norm at step {step}")
            }
        }
    }
}

impl std::error::Error for EpochError {}

/// Deterministic fault injected into an epoch's first optimizer step — the
/// seam the robustness harness uses to prove the guards fire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EpochFault {
    /// Overwrite one accumulated gradient entry with NaN.
    NanGrads,
    /// Make the first batch's workers panic.
    WorkerPanic,
}

/// What a completed epoch produced.
#[derive(Debug, Clone, Copy)]
pub struct EpochOutcome {
    /// Mean per-graph training loss.
    pub mean_loss: f32,
    /// Graphs processed (empty graphs are skipped).
    pub graphs: usize,
    /// Optimizer steps taken.
    pub steps: usize,
}

/// What a [`TrainHook`] decides about one epoch attempt.
#[derive(Debug)]
pub enum Verdict<E> {
    /// Keep the epoch. Only an attempt that completed can be kept.
    Accept,
    /// Roll the epoch back and run it again from a salted shuffle (a
    /// supervising hook only).
    Retry,
    /// End the run with this error. Under a supervising hook the model is
    /// rolled back to its pre-epoch parameters.
    Fail(E),
}

/// What [`train`] does after a completed epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Next {
    /// Run the next epoch, if the schedule has one.
    Continue,
    /// Stop early and keep the best validation parameters, as at the end of
    /// the schedule.
    Finish,
    /// Stop and leave the model at this epoch's parameters; the returned
    /// state resumes the run.
    Interrupt,
}

/// Supervision of [`train`]'s epoch loop. `()` is the plain loop: no
/// faults, no step guards, no rollback, and an epoch error fails the run.
pub trait TrainHook {
    /// Error that ends a run.
    type Error;

    /// The fault to inject into the first step of this attempt at `epoch`
    /// (attempt 0 is the first try).
    fn begin_attempt(&mut self, _epoch: usize, _attempt: usize) -> Option<EpochFault> {
        None
    }

    /// Whether the loop supervises each epoch: every step checks its batch
    /// loss and gradient norm for NaN/Inf before the optimizer applies it,
    /// and the pre-epoch state is kept so that [`Verdict::Retry`] and
    /// [`Verdict::Fail`] can roll the epoch back. An unsupervised run (the
    /// plain loop) pays for neither; it must not retry, and a failed run
    /// stops where the error struck.
    fn supervised(&self) -> bool {
        false
    }

    /// Judge one attempt at `epoch`; `state` still holds only the epochs
    /// completed before it.
    fn judge(
        &mut self,
        epoch: usize,
        attempt: usize,
        result: Result<&EpochOutcome, &EpochError>,
        state: &TrainState,
    ) -> Verdict<Self::Error>;

    /// Called after each completed epoch, once its loss, validation AP and
    /// best-epoch update are in `state`.
    fn end_epoch(&mut self, _model: &PicModel, _state: &TrainState) -> Result<Next, Self::Error> {
        Ok(Next::Continue)
    }
}

impl TrainHook for () {
    type Error = EpochError;

    fn judge(
        &mut self,
        _epoch: usize,
        _attempt: usize,
        result: Result<&EpochOutcome, &EpochError>,
        _state: &TrainState,
    ) -> Verdict<EpochError> {
        match result {
            Ok(_) => Verdict::Accept,
            Err(e) => Verdict::Fail(e.clone()),
        }
    }
}

/// Pooled gradient buffers plus one epoch of [`train`]'s loop body.
struct EpochRunner {
    pool: ShardPool,
    grads: PicParams,
}

impl EpochRunner {
    fn new(model: &PicModel) -> Self {
        Self { pool: ShardPool::default(), grads: model.params.zeros_like() }
    }

    /// Run one epoch over `examples[order]`: `fault` hits the first step,
    /// and with `guard` a step whose loss or gradient norm is not finite is
    /// rejected before the optimizer applies it.
    #[allow(clippy::too_many_arguments)]
    fn run_epoch<T: TrainExample>(
        &mut self,
        model: &mut PicModel,
        examples: &[T],
        order: &[usize],
        batch: usize,
        threads: usize,
        opt: &mut Adam,
        fault: Option<EpochFault>,
        guard: bool,
    ) -> Result<EpochOutcome, EpochError> {
        let per_item = |m: &PicModel, ex: &T, gb: &mut PicParams, sc: &mut Scratch| {
            let (g, labels) = ex.labeled();
            let (_, cache) = m.forward_cached(g);
            match ex.flows() {
                None => m.backward(g, &cache, labels, gb, sc),
                Some(flows) => {
                    let (lv, lf) = m.backward_with_flows(g, &cache, labels, flows, gb, sc);
                    lv + lf
                }
            }
        };
        let (mut total_loss, mut graphs, mut steps) = (0.0f32, 0usize, 0usize);
        let mut flush = |buf: &mut Vec<T>| -> Result<(), EpochError> {
            total_loss +=
                self.step_batch(model, buf, threads, opt, steps, fault, guard, &per_item)?;
            graphs += buf.len();
            steps += 1;
            buf.clear();
            Ok(())
        };
        let mut batch_buf: Vec<T> = Vec::with_capacity(batch);
        for &i in order {
            let ex = examples[i];
            if ex.labeled().0.num_verts() > 0 {
                batch_buf.push(ex);
                if batch_buf.len() == batch {
                    flush(&mut batch_buf)?;
                }
            }
        }
        if !batch_buf.is_empty() {
            flush(&mut batch_buf)?;
        }
        Ok(EpochOutcome {
            mean_loss: if graphs == 0 { 0.0 } else { total_loss / graphs as f32 },
            graphs,
            steps,
        })
    }

    #[allow(clippy::too_many_arguments)]
    fn step_batch<T: Sync>(
        &mut self,
        model: &mut PicModel,
        batch_buf: &[T],
        threads: usize,
        opt: &mut Adam,
        step: usize,
        fault: Option<EpochFault>,
        guard: bool,
        per_item: &(dyn Fn(&PicModel, &T, &mut PicParams, &mut Scratch) -> f32 + Sync),
    ) -> Result<f32, EpochError> {
        let inject = if step == 0 { fault } else { None };
        let loss_sum = if inject == Some(EpochFault::WorkerPanic) {
            let panicking = |_m: &PicModel, _item: &T, _gb: &mut PicParams, _sc: &mut Scratch| {
                panic!("injected training-worker panic")
            };
            batch_gradients(model, batch_buf, &mut self.pool, threads, &mut self.grads, &panicking)
        } else {
            batch_gradients(model, batch_buf, &mut self.pool, threads, &mut self.grads, per_item)
        }
        .map_err(|message| EpochError::WorkerPanicked { message })?;
        if inject == Some(EpochFault::NanGrads) {
            if let Some(x) =
                self.grads.tensors_mut().into_iter().next().and_then(|t| t.data.first_mut())
            {
                *x = f32::NAN;
            }
        }
        if guard {
            let sq_norm: f32 = self
                .grads
                .tensors()
                .iter()
                .map(|t| t.data.iter().map(|x| x * x).sum::<f32>())
                .sum();
            let rejected = if !loss_sum.is_finite() {
                Some(EpochError::NonFiniteLoss { step })
            } else if !sq_norm.is_finite() {
                Some(EpochError::NonFiniteGradient { step })
            } else {
                None
            };
            if let Some(e) = rejected {
                // Leave the buffers clean for the retried epoch; the model
                // and optimizer were not touched by this step.
                self.grads.zero_all();
                return Err(e);
            }
        }
        apply(opt, model, &mut self.grads, batch_buf.len());
        Ok(loss_sum)
    }
}

/// Mix (epoch, attempt) into a captured RNG state for a salted retry —
/// splitmix64-style, so retry streams are decorrelated from the original
/// and from each other.
fn salt_state(state: [u64; 4], epoch: usize, attempt: usize) -> [u64; 4] {
    let mut s = state;
    let mut z = (epoch as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((attempt as u64).wrapping_mul(RETRY_SALT));
    for w in &mut s {
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = z;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        *w ^= x ^ (x >> 31);
    }
    s
}

/// Order-insensitive-to-nothing structural fingerprint of a training set:
/// FNV-1a folded over example count, per-graph vertex/edge counts, vertex
/// tokens and positive-label indices, and for flow examples the flow-label
/// count and positive flow indices. Resume validation compares it to the
/// one stored in the training checkpoint — continuing a run on different
/// data, or on the other task, cannot silently produce a "resumed" model.
pub fn dataset_fingerprint<T: TrainExample>(examples: &[T]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mix = |h: &mut u64, x: u64| {
        for b in x.to_le_bytes() {
            *h ^= u64::from(b);
            *h = h.wrapping_mul(0x100_0000_01b3);
        }
    };
    let mix_positives = |h: &mut u64, labels: &[bool]| {
        for (i, &l) in labels.iter().enumerate() {
            if l {
                mix(h, i as u64);
            }
        }
    };
    mix(&mut h, examples.len() as u64);
    for ex in examples {
        let (g, labels) = ex.labeled();
        mix(&mut h, g.num_verts() as u64);
        mix(&mut h, g.edges.len() as u64);
        for v in &g.verts {
            mix(&mut h, u64::from(v.block.0));
            for &t in &v.tokens {
                mix(&mut h, u64::from(t));
            }
        }
        mix_positives(&mut h, labels);
        if let Some(flows) = ex.flows() {
            mix(&mut h, flows.len() as u64);
            mix_positives(&mut h, flows);
        }
    }
    h
}

/// Train `model` on `examples`, tracking URB average precision on `valid`
/// after each epoch, and keep the parameters with the best validation AP —
/// the paper's model-selection rule ("chose the model training checkpoint
/// with the highest Average Precision … over URBs only").
///
/// This is the only epoch loop. `resume` continues from a captured
/// [`TrainState`] (`None` starts a fresh run), and `hook` supervises it;
/// `&mut ()` is the plain loop. When a supervising hook retries an epoch,
/// the loop restores the parameters, the optimizer, the RNG and the order
/// it had before the epoch and reshuffles from a salted RNG state; when it
/// fails the run, the model is left at its pre-epoch parameters.
pub fn train<T: TrainExample, H: TrainHook>(
    model: &mut PicModel,
    examples: &[T],
    valid: &[LabeledGraph<'_>],
    cfg: TrainConfig,
    resume: Option<TrainState>,
    hook: &mut H,
) -> Result<TrainReport, H::Error> {
    let started = std::time::Instant::now();
    let mut state = resume.unwrap_or_else(|| TrainState {
        epochs_done: 0,
        rng: ChaCha8Rng::seed_from_u64(cfg.seed),
        order: (0..examples.len()).collect(),
        opt: Adam::new(AdamConfig { lr: cfg.lr, ..Default::default() }, &model.params.shapes()),
        epoch_losses: Vec::new(),
        val_ap: Vec::new(),
        best: None,
    });
    let mut runner = EpochRunner::new(model);
    let mut next = Next::Continue;
    while next == Next::Continue && state.epochs_done < cfg.epochs {
        let epoch = state.epochs_done;
        // Everything an epoch mutates, captured when the hook can roll back.
        let rollback = hook.supervised().then(|| {
            (model.params.clone(), state.opt.snapshot(), state.rng.state(), state.order.clone())
        });
        let mut attempt = 0usize;
        let outcome = loop {
            if attempt > 0 {
                let (params, opt, rng, order) =
                    rollback.as_ref().expect("only a supervising hook can retry");
                model.params = params.clone();
                state.opt = Adam::from_snapshot(opt);
                state.order.copy_from_slice(order);
                state.rng = ChaCha8Rng::from_state(salt_state(*rng, epoch, attempt));
            }
            state.order.shuffle(&mut state.rng);
            let fault = hook.begin_attempt(epoch, attempt);
            let result = runner.run_epoch(
                model,
                examples,
                &state.order,
                cfg.batch,
                cfg.threads,
                &mut state.opt,
                fault,
                hook.supervised(),
            );
            match hook.judge(epoch, attempt, result.as_ref(), &state) {
                Verdict::Accept => break result.expect("a hook accepted a failed epoch"),
                Verdict::Retry => attempt += 1,
                Verdict::Fail(e) => {
                    if let Some((params, ..)) = rollback {
                        model.params = params;
                    }
                    return Err(e);
                }
            }
        };
        state.epoch_losses.push(outcome.mean_loss);
        if !valid.is_empty() {
            let ap = urb_average_precision(model, valid);
            state.val_ap.push(ap);
            if ap > state.best.as_ref().map_or(f64::NEG_INFINITY, |b| b.1) {
                state.best = Some((epoch, ap, model.params.clone()));
            }
        }
        state.epochs_done += 1;
        next = hook.end_epoch(model, &state)?;
    }
    if next != Next::Interrupt {
        if let Some((_, _, p)) = &state.best {
            model.params = p.clone();
        }
    }
    Ok(TrainReport { state, train_seconds: started.elapsed().as_secs_f64() })
}

fn apply(opt: &mut Adam, model: &mut PicModel, grads: &mut PicParams, batch: usize) {
    let scale = 1.0 / batch as f32;
    for t in grads.tensors_mut() {
        t.scale(scale);
    }
    {
        let gl: Vec<&Mat> = grads.tensors();
        let mut pl = model.params.tensors_mut();
        opt.step(&mut pl, &gl);
    }
    grads.zero_all();
}

/// Average precision of the flow head over InterFlow edges pooled across
/// graphs.
pub fn flow_average_precision(model: &PicModel, examples: &[FlowLabeledGraph<'_>]) -> f64 {
    let mut scores = Vec::new();
    let mut labels = Vec::new();
    for (g, _, flows) in examples {
        if g.num_verts() == 0 {
            continue;
        }
        let (_, cache) = model.forward_cached(g);
        let probs = model.forward_flows(g, &cache);
        for (i, e) in g.edges.iter().enumerate() {
            if e.kind == snowcat_graph::EdgeKind::InterFlow {
                scores.push(probs[i]);
                labels.push(flows[i]);
            }
        }
    }
    average_precision(&scores, &labels)
}

/// Average precision over URB vertices pooled across graphs.
pub fn urb_average_precision(model: &PicModel, examples: &[LabeledGraph<'_>]) -> f64 {
    let mut scores = Vec::new();
    let mut labels = Vec::new();
    let mut session = PicSession::new();
    let mut probs = Vec::new();
    for (g, y) in examples {
        if g.num_verts() == 0 {
            continue;
        }
        model.forward_into(g, &mut session, &mut probs);
        for i in g.urb_indices() {
            scores.push(probs[i]);
            labels.push(y[i]);
        }
    }
    average_precision(&scores, &labels)
}

/// Tune the classification threshold to maximize mean per-graph F2 on URBs
/// over the validation set (§5.1.2: "chose the threshold with the highest
/// mean F2 score on graph URBs").
pub fn tune_threshold_f2(model: &PicModel, valid: &[LabeledGraph<'_>]) -> f32 {
    let mut cached: Vec<(Vec<f32>, Vec<usize>, &[bool])> = Vec::new();
    for (g, y) in valid {
        if g.num_verts() == 0 {
            continue;
        }
        cached.push((model.forward(g), g.urb_indices(), y));
    }
    let mut best_t = 0.5f32;
    let mut best_f2 = f64::NEG_INFINITY;
    for step in 1..20 {
        let t = step as f32 * 0.05;
        let mut avg = 0.0f64;
        let mut n = 0usize;
        for (probs, urbs, labels) in &cached {
            if urbs.is_empty() {
                continue;
            }
            let preds: Vec<bool> = urbs.iter().map(|&i| probs[i] >= t).collect();
            let truth: Vec<bool> = urbs.iter().map(|&i| labels[i]).collect();
            avg += Confusion::from_preds(&preds, &truth).f2();
            n += 1;
        }
        if n > 0 {
            let mean = avg / n as f64;
            if mean > best_f2 {
                best_f2 = mean;
                best_t = t;
            }
        }
    }
    best_t
}

/// Tune the classification threshold to maximize *pooled* F2 on URBs over
/// the validation set. At reproduction scale CT graphs are small (tens of
/// vertices, often zero positive URBs), which degenerates per-graph F2; the
/// pooled variant is the faithful analogue of the paper's tuning on its
/// ~10k-vertex graphs and is what the pipeline uses.
pub fn tune_threshold_f2_pooled(model: &PicModel, valid: &[LabeledGraph<'_>]) -> f32 {
    let mut scores = Vec::new();
    let mut labels = Vec::new();
    let mut session = PicSession::new();
    let mut probs = Vec::new();
    for (g, y) in valid {
        if g.num_verts() == 0 {
            continue;
        }
        model.forward_into(g, &mut session, &mut probs);
        for i in g.urb_indices() {
            scores.push(probs[i]);
            labels.push(y[i]);
        }
    }
    let mut best_t = 0.5f32;
    let mut best_f2 = f64::NEG_INFINITY;
    for step in 1..20 {
        let t = step as f32 * 0.05;
        let preds: Vec<bool> = scores.iter().map(|&p| p >= t).collect();
        let f2 = Confusion::from_preds(&preds, &labels).f2();
        if f2 > best_f2 {
            best_f2 = f2;
            best_t = t;
        }
    }
    best_t
}

/// Pooled (micro) confusion over all vertices of all graphs at a threshold.
/// With `urb_only`, restricted to URB vertices.
pub fn evaluate_pooled(
    model: &PicModel,
    examples: &[LabeledGraph<'_>],
    threshold: f32,
    urb_only: bool,
) -> Confusion {
    let mut c = Confusion::default();
    let mut session = PicSession::new();
    let mut probs = Vec::new();
    for (g, y) in examples {
        if g.num_verts() == 0 {
            continue;
        }
        model.forward_into(g, &mut session, &mut probs);
        let idx: Vec<usize> = if urb_only { g.urb_indices() } else { (0..g.num_verts()).collect() };
        let preds: Vec<bool> = idx.iter().map(|&i| probs[i] >= threshold).collect();
        let truth: Vec<bool> = idx.iter().map(|&i| y[i]).collect();
        c.add(&Confusion::from_preds(&preds, &truth));
    }
    c
}

/// Pooled confusion for an arbitrary prediction function (baseline rows).
pub fn evaluate_predictions_pooled<F>(
    examples: &[LabeledGraph<'_>],
    urb_only: bool,
    mut predict: F,
) -> Confusion
where
    F: FnMut(&CtGraph) -> Vec<bool>,
{
    let mut c = Confusion::default();
    for (g, y) in examples {
        if g.num_verts() == 0 {
            continue;
        }
        let preds_all = predict(g);
        let idx: Vec<usize> = if urb_only { g.urb_indices() } else { (0..g.num_verts()).collect() };
        let preds: Vec<bool> = idx.iter().map(|&i| preds_all[i]).collect();
        let truth: Vec<bool> = idx.iter().map(|&i| y[i]).collect();
        c.add(&Confusion::from_preds(&preds, &truth));
    }
    c
}

/// Evaluate a model at a threshold, per-graph-averaged (Table 1 style).
/// With `urb_only`, metrics are restricted to URB vertices.
pub fn evaluate(
    model: &PicModel,
    examples: &[LabeledGraph<'_>],
    threshold: f32,
    urb_only: bool,
) -> MeanMetrics {
    let mut avg = PerGraphAverager::new();
    let mut session = PicSession::new();
    let mut probs = Vec::new();
    for (g, y) in examples {
        if g.num_verts() == 0 {
            continue;
        }
        model.forward_into(g, &mut session, &mut probs);
        let idx: Vec<usize> = if urb_only { g.urb_indices() } else { (0..g.num_verts()).collect() };
        if idx.is_empty() {
            continue;
        }
        let preds: Vec<bool> = idx.iter().map(|&i| probs[i] >= threshold).collect();
        let truth: Vec<bool> = idx.iter().map(|&i| y[i]).collect();
        avg.push(&Confusion::from_preds(&preds, &truth));
    }
    avg.finish()
}

/// A serializable model checkpoint: config, parameters, tuned threshold.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Checkpoint {
    /// Model hyperparameters.
    pub cfg: PicConfig,
    /// Trained parameters.
    pub params: PicParams,
    /// Tuned classification threshold.
    pub threshold: f32,
    /// Free-form provenance tag (e.g. `"PIC-5"`, `"PIC-6.ft.sml"`).
    pub name: String,
}

impl Checkpoint {
    /// Bundle a trained model.
    pub fn new(model: &PicModel, threshold: f32, name: &str) -> Self {
        Self { cfg: model.cfg, params: model.params.clone(), threshold, name: name.to_string() }
    }

    /// Restore the model.
    pub fn restore(&self) -> PicModel {
        PicModel { cfg: self.cfg, params: self.params.clone() }
    }

    /// Validate that this snapshot is deployable: the threshold must be a
    /// probability and every parameter finite. The serving layer calls this
    /// before hot-swapping a refreshed model in; loaders can call it after
    /// deserialization to catch corrupted-but-well-framed snapshots.
    pub fn sanity_check(&self) -> Result<(), String> {
        if !self.threshold.is_finite() || !(0.0..=1.0).contains(&self.threshold) {
            return Err(format!("threshold {} is not a probability", self.threshold));
        }
        if self.params.has_non_finite() {
            return Err("model parameters contain NaN or infinite values".into());
        }
        Ok(())
    }

    /// Serialize to JSON.
    pub fn to_json(&self) -> serde_json::Result<String> {
        serde_json::to_string(self)
    }

    /// Deserialize from JSON.
    pub fn from_json(s: &str) -> serde_json::Result<Self> {
        serde_json::from_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snowcat_graph::{Edge, EdgeKind, VertKind, Vertex};
    use snowcat_kernel::{BlockId, ThreadId};

    /// Synthetic task: a URB vertex is covered iff it has an incoming
    /// Schedule edge — learnable purely from structure.
    fn synthetic_example(seed: u64, n: usize) -> (CtGraph, Vec<bool>) {
        use rand::Rng;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let verts: Vec<Vertex> = (0..n)
            .map(|i| Vertex {
                block: BlockId(i as u32),
                thread: ThreadId((i % 2) as u8),
                kind: if i % 2 == 0 { VertKind::Scb } else { VertKind::Urb },
                sched_mark: snowcat_graph::SchedMark::None,
                may_race: false,
                tokens: vec![1 + rng.gen_range(0..40u32)],
                static_feats: Default::default(),
            })
            .collect();
        let mut edges = Vec::new();
        let mut labels = vec![false; n];
        for i in 0..n {
            if i + 1 < n {
                edges.push(Edge { from: i as u32, to: (i + 1) as u32, kind: EdgeKind::ScbFlow });
            }
            if verts[i].kind == VertKind::Urb {
                if rng.gen_bool(0.3) {
                    let src = rng.gen_range(0..n as u32);
                    edges.push(Edge { from: src, to: i as u32, kind: EdgeKind::Schedule });
                    labels[i] = true;
                }
            } else {
                labels[i] = true; // SCBs covered
            }
        }
        (CtGraph { verts, edges }, labels)
    }

    fn dataset(seeds: std::ops::Range<u64>) -> Vec<(CtGraph, Vec<bool>)> {
        seeds.map(|s| synthetic_example(s, 24)).collect()
    }

    #[test]
    fn model_learns_structural_rule() {
        let train_data = dataset(0..60);
        let valid_data = dataset(100..110);
        let train_refs: Vec<LabeledGraph> =
            train_data.iter().map(|(g, y)| (g, y.as_slice())).collect();
        let valid_refs: Vec<LabeledGraph> =
            valid_data.iter().map(|(g, y)| (g, y.as_slice())).collect();
        let mut model = PicModel::new(PicConfig {
            hidden: 16,
            layers: 2,
            pos_weight: 1.0,
            seed: 3,
            ..Default::default()
        });
        let before = urb_average_precision(&model, &valid_refs);
        let report = train(
            &mut model,
            &train_refs,
            &valid_refs,
            TrainConfig { epochs: 8, lr: 1e-2, batch: 4, seed: 1, ..Default::default() },
            None,
            &mut (),
        )
        .unwrap();
        let after = urb_average_precision(&model, &valid_refs);
        assert!(
            after > before.max(0.6),
            "model failed to learn: AP {before} -> {after}, losses {:?}",
            report.state.epoch_losses
        );
    }

    #[test]
    fn threshold_tuning_returns_sane_value() {
        let data = dataset(0..10);
        let refs: Vec<LabeledGraph> = data.iter().map(|(g, y)| (g, y.as_slice())).collect();
        let model = PicModel::new(PicConfig { hidden: 8, layers: 1, ..Default::default() });
        let t = tune_threshold_f2(&model, &refs);
        assert!((0.05..=0.95).contains(&t));
    }

    #[test]
    fn evaluate_handles_empty_and_urb_only() {
        let data = dataset(0..5);
        let refs: Vec<LabeledGraph> = data.iter().map(|(g, y)| (g, y.as_slice())).collect();
        let model = PicModel::new(PicConfig { hidden: 8, layers: 1, ..Default::default() });
        let m_all = evaluate(&model, &refs, 0.5, false);
        let m_urb = evaluate(&model, &refs, 0.5, true);
        assert_eq!(m_all.graphs, 5);
        assert_eq!(m_urb.graphs, 5);
    }

    #[test]
    fn checkpoint_roundtrip_preserves_predictions() {
        let data = dataset(0..3);
        let model = PicModel::new(PicConfig { hidden: 8, layers: 2, ..Default::default() });
        let ck = Checkpoint::new(&model, 0.4, "test");
        let json = ck.to_json().unwrap();
        let back = Checkpoint::from_json(&json).unwrap();
        let restored = back.restore();
        for (g, _) in &data {
            assert_eq!(model.forward(g), restored.forward(g));
        }
        assert_eq!(back.threshold, 0.4);
        assert_eq!(back.name, "test");
    }

    #[test]
    fn sanity_check_rejects_poisoned_snapshots() {
        let model = PicModel::new(PicConfig { hidden: 8, layers: 1, ..Default::default() });
        let ck = Checkpoint::new(&model, 0.4, "ok");
        assert!(ck.sanity_check().is_ok());
        assert!(!ck.params.has_non_finite());

        let mut nan = ck.clone();
        nan.params.w_out.data[0] = f32::NAN;
        assert!(nan.params.has_non_finite());
        assert!(nan.sanity_check().unwrap_err().contains("NaN"));

        let mut inf = ck.clone();
        *inf.params.layers[0].w_rel[0].data.last_mut().unwrap() = f32::INFINITY;
        assert!(inf.sanity_check().is_err());

        let mut bad_t = ck;
        bad_t.threshold = 1.5;
        assert!(bad_t.sanity_check().unwrap_err().contains("threshold"));
    }

    #[test]
    fn pooled_evaluation_counts_all_urbs() {
        let data = dataset(0..6);
        let refs: Vec<LabeledGraph> = data.iter().map(|(g, y)| (g, y.as_slice())).collect();
        let model = PicModel::new(PicConfig { hidden: 8, layers: 1, ..Default::default() });
        let c = evaluate_pooled(&model, &refs, 0.5, true);
        let total_urbs: usize = data.iter().map(|(g, _)| g.urb_indices().len()).sum();
        assert_eq!(c.total(), total_urbs);
        let t = tune_threshold_f2_pooled(&model, &refs);
        assert!((0.05..=0.95).contains(&t));
    }

    #[test]
    fn worker_panic_is_contained_not_propagated() {
        let data = dataset(0..8);
        let refs: Vec<LabeledGraph> = data.iter().map(|(g, y)| (g, y.as_slice())).collect();
        for threads in [1, 3] {
            let mut model = PicModel::new(PicConfig { hidden: 8, layers: 1, ..Default::default() });
            let frozen = model.params.clone();
            let mut opt = Adam::new(AdamConfig::default(), &model.params.shapes());
            let mut runner = EpochRunner::new(&model);
            let order: Vec<usize> = (0..refs.len()).collect();
            let err = runner
                .run_epoch(
                    &mut model,
                    &refs,
                    &order,
                    4,
                    threads,
                    &mut opt,
                    Some(EpochFault::WorkerPanic),
                    false,
                )
                .unwrap_err();
            match err {
                // The inline path preserves the worker's message; the
                // threaded path surfaces std's generic scoped-thread payload.
                EpochError::WorkerPanicked { message } => assert!(
                    message.contains("injected") || message.contains("panicked"),
                    "unexpected message: {message}"
                ),
                other => panic!("expected WorkerPanicked, got {other:?}"),
            }
            // The failed step never reached the optimizer.
            assert_eq!(model.params, frozen, "threads={threads}");
        }
    }

    #[test]
    fn guard_rejects_poisoned_step_and_runner_stays_reusable() {
        let data = dataset(0..8);
        let refs: Vec<LabeledGraph> = data.iter().map(|(g, y)| (g, y.as_slice())).collect();
        let mut model = PicModel::new(PicConfig { hidden: 8, layers: 1, ..Default::default() });
        let frozen = model.params.clone();
        let mut opt = Adam::new(AdamConfig::default(), &model.params.shapes());
        let mut runner = EpochRunner::new(&model);
        let order: Vec<usize> = (0..refs.len()).collect();
        let err = runner
            .run_epoch(&mut model, &refs, &order, 4, 1, &mut opt, Some(EpochFault::NanGrads), true)
            .unwrap_err();
        assert_eq!(err, EpochError::NonFiniteGradient { step: 0 });
        assert_eq!(err.to_string(), "non-finite gradient norm at step 0");
        assert_eq!(model.params, frozen, "the poisoned step never reached the optimizer");
        // The runner stays usable: a clean guarded epoch succeeds (a dirty
        // gradient buffer from the rejected step would poison it).
        let outcome =
            runner.run_epoch(&mut model, &refs, &order, 4, 1, &mut opt, None, true).unwrap();
        assert_eq!((outcome.graphs, outcome.steps), (8, 2));
        assert_ne!(model.params, frozen);
        assert!(!model.params.has_non_finite());
    }

    #[test]
    fn salted_states_differ_per_attempt() {
        let base = [1u64, 2, 3, 4];
        let a1 = salt_state(base, 3, 1);
        let a2 = salt_state(base, 3, 2);
        let b1 = salt_state(base, 4, 1);
        assert_ne!(a1, base);
        assert_ne!(a1, a2);
        assert_ne!(a1, b1);
    }

    #[test]
    fn fingerprint_discriminates_data_and_labels() {
        let data = dataset(0..6);
        let refs: Vec<LabeledGraph> = data.iter().map(|(g, y)| (g, y.as_slice())).collect();
        let base = dataset_fingerprint(&refs);
        assert_eq!(base, dataset_fingerprint(&refs), "fingerprint is deterministic");
        assert_ne!(base, dataset_fingerprint(&refs[..5]), "dropping an example changes it");
        let mut flipped = data.clone();
        let pos = flipped[0].1.iter().position(|&l| l).expect("synthetic data has positive labels");
        flipped[0].1[pos] = false;
        let flipped_refs: Vec<LabeledGraph> =
            flipped.iter().map(|(g, y)| (g, y.as_slice())).collect();
        assert_ne!(base, dataset_fingerprint(&flipped_refs), "label flip changes it");
    }

    #[test]
    fn training_report_has_epoch_entries() {
        let data = dataset(0..8);
        let refs: Vec<LabeledGraph> = data.iter().map(|(g, y)| (g, y.as_slice())).collect();
        let mut model = PicModel::new(PicConfig { hidden: 8, layers: 1, ..Default::default() });
        let cfg = TrainConfig { epochs: 3, ..Default::default() };
        let report = train(&mut model, &refs, &refs, cfg, None, &mut ()).unwrap();
        assert_eq!(report.state.epoch_losses.len(), 3);
        assert_eq!(report.state.val_ap.len(), 3);
        assert!(report.train_seconds >= 0.0);
    }
}
