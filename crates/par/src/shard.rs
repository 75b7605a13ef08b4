//! Deck shards: the pool's unit of isolation, scheduling and stealing.
//!
//! A **shard** is a cone-disjoint group of one deck's coverage signals
//! (or the whole deck, for verification-only decks): the signals whose
//! cones of influence overlap, so they profit from sharing one compiled
//! machine and one reachability fixpoint. Each shard is executed on a
//! fresh private [`covest_bdd::BddManager`]: compile the shard's module
//! once (the union-cone reduction when [`crate::ParConfig::coi`] is on),
//! run reachability once, then multiplex the shard's signals on that
//! machine **in declaration order**, sharing one model checker: the
//! suite is verified once, by the first signal. The shard's results are therefore a
//! pure function of (deck source, config) — which worker runs it, and
//! when, cannot reach a single report byte.
//!
//! Scheduling: shards are sorted largest-first by their static cone
//! weights and dealt round-robin onto per-worker deques. A worker drains
//! its own deque front-first; an idle worker **steals whole shards**
//! (never individual signals) from the fronts of its peers' deques.
//! Stealing moves a shard between threads unexecuted — its private
//! manager does not exist yet — so determinism survives by construction.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

use covest_bdd::{BddManager, ReorderConfig, ReorderMode};
use covest_core::{CoverageEstimator, CoverageOptions, PropertyVerdict, ReportRow};
use covest_mc::ModelChecker;
use covest_smv::Module;
use covest_telemetry::chrome::TraceSink;
use covest_telemetry::{self as telemetry, memory, progress, Clock, Stopwatch, Telemetry};

use crate::plan::{ParConfig, Task, TaskKind, WorkPlan};
use crate::pool::{ShardProfile, SignalOutcome, TaskPayload};

/// One schedulable unit: a cone-disjoint slice of one deck.
#[derive(Debug, Clone)]
pub(crate) struct Shard {
    /// Index of the owning deck in the plan.
    pub deck: usize,
    /// The module this shard compiles on its private manager: the
    /// union-cone reduction of the member signals (COI on), or the full
    /// parsed deck (COI off / verification-only).
    pub module: Arc<Module>,
    /// Global task indices of the member signals, in declaration order —
    /// also the execution order on the shard's manager.
    pub tasks: Vec<usize>,
    /// Scheduling weight: the sum of the member cone widths in state
    /// bits; `usize::MAX` for verification-only shards (whole machine,
    /// dispatched first). Largest-first dispatch keeps the slowest shard
    /// off the tail of an otherwise drained queue.
    pub weight: usize,
}

/// Per-task outcome within a shard: the global task index plus the
/// payload or the task's error message.
pub(crate) type ShardEntries = Vec<(usize, Result<TaskPayload, String>)>;

/// What executing one shard yields: per-task entries (or one shard-level
/// compile error, reported as a plan-class failure of the deck) plus the
/// optional profile.
pub(crate) type ShardResult = (Result<ShardEntries, String>, Option<ShardProfile>);

/// Installs the telemetry memory sampler over `bdd` on the current
/// thread. The closure holds its own manager handle (an `Rc` clone), so
/// the caller **must** [`memory::clear_mem_sampler`] before the shard
/// ends or the sampler would keep the whole arena alive.
pub(crate) fn install_mem_sampler(bdd: &BddManager) {
    let gauges = bdd.clone();
    memory::set_mem_sampler(move || {
        let (live, bytes, peak) = gauges.mem_gauges();
        memory::MemSample {
            live_nodes: live as u64,
            arena_bytes: bytes as u64,
            peak_live_nodes: peak,
        }
    });
}

/// Executes one shard on a fresh private manager. Pure in (deck source,
/// config): compile once, reach once, then the member signals in
/// declaration order on one shared analysis context. `queue_wait`, `stolen` and `worker` are
/// scheduling observability only and reach nothing but the (non-parity)
/// profile. `clock` is the batch-shared timeline every profile span is
/// stamped on.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_shard(
    deck_name: &str,
    shard: &Shard,
    tasks: &[Task],
    config: &ParConfig,
    queue_wait: Duration,
    stolen: bool,
    worker: usize,
    clock: &Arc<dyn Clock>,
) -> ShardResult {
    if config.profile {
        telemetry::install(Telemetry::with_clock(clock.clone()));
    }
    let bdd = BddManager::new();
    if config.profile {
        install_mem_sampler(&bdd);
    }
    if config.progress {
        progress::install_progress(progress::Progress::stderr(
            clock.clone(),
            format!("shard:{deck_name}"),
        ));
    }
    let result = run_shard_phases(&bdd, deck_name, shard, tasks, config);
    memory::clear_mem_sampler();
    progress::uninstall_progress();
    let recorder = telemetry::uninstall();
    match result {
        Ok((entries, compile, reach, solve)) => {
            let profile = recorder.map(|rec| {
                let (spans, mut counters) = rec.into_parts();
                for (name, value) in bdd.stats().pairs() {
                    counters.add(name, value);
                }
                ShardProfile {
                    deck: deck_name.to_owned(),
                    signals: shard
                        .tasks
                        .iter()
                        .filter_map(|&ti| match &tasks[ti].kind {
                            TaskKind::Coverage { signal, .. } => Some(signal.clone()),
                            TaskKind::VerifyOnly => None,
                        })
                        .collect(),
                    queue_wait,
                    compile,
                    reach,
                    solve,
                    stolen,
                    worker,
                    peak_by_phase: memory::peak_by_phase(&spans),
                    counters,
                    spans,
                }
            });
            (Ok(entries), profile)
        }
        Err(message) => (Err(message), None),
    }
}

/// The shard body proper: compile, reach, then the member tasks —
/// returning per-task entries plus each phase's wall-clock. Split out of
/// [`run_shard`] so the recorder installed there is uninstalled on
/// *every* exit path. Stops at the first failing task: later signals of
/// the shard would be discarded anyway (the merge reports the
/// lowest-index error), and stopping keeps that choice deterministic.
fn run_shard_phases(
    bdd: &BddManager,
    deck_name: &str,
    shard: &Shard,
    tasks: &[Task],
    config: &ParConfig,
) -> Result<(ShardEntries, Duration, Duration, Duration), String> {
    let _shard_span = telemetry::span(format!("shard:{deck_name}"));
    if telemetry::is_active() {
        let signals: Vec<&str> = shard
            .tasks
            .iter()
            .filter_map(|&ti| match &tasks[ti].kind {
                TaskKind::Coverage { signal, .. } => Some(signal.as_str()),
                TaskKind::VerifyOnly => None,
            })
            .collect();
        telemetry::span_label("signals", &signals.join("+"));
    }
    bdd.set_reorder_config(ReorderConfig {
        mode: config.reorder,
        ..Default::default()
    });
    let sw = Stopwatch::start();
    let model = covest_smv::compile_module_with(bdd, &shard.module, config.image)
        .map_err(|e| e.to_string())?;
    if config.reorder == ReorderMode::Sift {
        bdd.reduce_heap();
    }
    let compile = sw.elapsed();

    // One context for the whole shard: the estimator's signal-independent
    // part (reach + care install, one model checker with the deck's
    // fairness, and the suite's verdicts and vacuity flags once the first
    // signal has computed them) is shared by every member signal. A
    // fairness constraint that fails to lower fails the first coverage
    // task, as a per-signal checker would. Verification-only shards
    // manage their care set inside the solve phase instead (it is
    // conditional on the simplify mode there, as in `covest check`'s
    // verification).
    let estimator = CoverageEstimator::new(&model.fsm);
    let has_coverage = shard
        .tasks
        .iter()
        .any(|&ti| matches!(tasks[ti].kind, TaskKind::Coverage { .. }));
    let base_options = CoverageOptions {
        fairness: model.fairness.clone(),
        ..Default::default()
    };
    let sw = Stopwatch::start();
    let mut ctx = has_coverage.then(|| estimator.prepare(&base_options));
    let reach_time = sw.elapsed();

    let sw = Stopwatch::start();
    let mut entries = Vec::with_capacity(shard.tasks.len());
    for &ti in &shard.tasks {
        let outcome: Result<TaskPayload, String> = match &tasks[ti].kind {
            TaskKind::Coverage { signal, cone } => (|| {
                let ctx = ctx
                    .as_mut()
                    .expect("coverage shard prepared")
                    .as_mut()
                    .map_err(|e| e.to_string())?;
                let options = CoverageOptions {
                    cone: Some(cone.as_ref().clone()),
                    ..base_options.clone()
                };
                let analysis = estimator
                    .analyze_prepared(ctx, signal, &model.specs, &options)
                    .map_err(|e| e.to_string())?;
                let universe = estimator.universe(options.cone.as_deref());
                let sample = estimator.sample_states_over(
                    &analysis.uncovered(),
                    &universe,
                    config.uncovered_limit,
                );
                let uncovered = analysis
                    .uncovered()
                    .export_bdd()
                    .map_err(|e| e.to_string())?;
                let row =
                    ReportRow::from_analysis(deck_name, &analysis).with_uncovered_sample(sample);
                Ok(TaskPayload::Coverage(Box::new(SignalOutcome {
                    deck: deck_name.to_owned(),
                    signal: signal.clone(),
                    row,
                    uncovered,
                })))
            })(),
            TaskKind::VerifyOnly => (|| {
                let mut mc = ModelChecker::new(&model.fsm);
                for fair in &model.fairness {
                    mc.add_fairness(fair).map_err(|e| e.to_string())?;
                }
                if config.image.simplify != covest_smv::SimplifyConfig::Off {
                    mc.set_care(model.fsm.install_reachable_care());
                }
                let mut verdicts = Vec::with_capacity(model.specs.len());
                for spec in &model.specs {
                    let verdict = mc.check(&spec.clone().into()).map_err(|e| e.to_string())?;
                    verdicts.push(PropertyVerdict {
                        formula: spec.to_string(),
                        holds: verdict.holds(),
                        vacuous: false,
                    });
                }
                Ok(TaskPayload::Verdicts(verdicts))
            })(),
        };
        let failed = outcome.is_err();
        entries.push((ti, outcome));
        if failed {
            break;
        }
    }
    let solve = sw.elapsed();
    Ok((entries, compile, reach_time, solve))
}

/// Runs every shard of a plan on `config.jobs` workers with whole-shard
/// stealing, returning per-shard results (indexed by shard), the steal
/// count, and the worker count actually spawned.
///
/// Shards are sorted largest-first by weight (stable by shard index) and
/// dealt round-robin onto one deque per worker; each deque entry carries
/// its enqueue timestamp, so a shard's queue wait is exactly
/// (dequeue − enqueue) — bounded by the pool's wall-clock. A worker pops
/// its own deque front-first and, once empty, scans its peers' deques
/// (cyclically from its right neighbor) and steals their front — the
/// largest shard still queued there, which moves the most work per
/// steal. All work is enqueued before the workers start, so a full
/// unsuccessful scan means the pool is drained and the worker exits.
///
/// When `sink` is given, each finished shard's span forest is streamed
/// out of the result loop as it arrives — one track per **worker**
/// (tid = worker index + 1; tid 0 is reserved for the driver), batches
/// in per-worker execution order — and dropped from the profile, so
/// trace memory stays bounded by one shard whatever the batch size.
/// The shard root span is tagged with its `stolen` flag at stream time
/// (a scheduling fact, so it must stay out of the parity-checked
/// in-memory profile).
pub(crate) fn run_pool(
    plan: &WorkPlan,
    config: &ParConfig,
    mut sink: Option<&mut dyn TraceSink>,
) -> (Vec<Option<ShardResult>>, usize, usize) {
    let workers = plan.shards.len().min(config.effective_jobs()).max(1);
    let mut order: Vec<usize> = (0..plan.shards.len()).collect();
    order.sort_by_key(|&s| std::cmp::Reverse(plan.shards[s].weight));
    let clock = config.batch_clock();
    let deques: Vec<Mutex<VecDeque<(usize, Duration)>>> =
        (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
    for (rank, &s) in order.iter().enumerate() {
        deques[rank % workers]
            .lock()
            .expect("deque lock")
            .push_back((s, clock.now()));
    }
    let steals = AtomicUsize::new(0);
    let mut slots: Vec<Option<ShardResult>> = Vec::new();
    slots.resize_with(plan.shards.len(), || None);

    std::thread::scope(|scope| {
        let (tx, rx) = mpsc::channel::<(usize, ShardResult)>();
        for w in 0..workers {
            let tx = tx.clone();
            let deques = &deques;
            let steals = &steals;
            let clock = &clock;
            scope.spawn(move || loop {
                let mut picked = deques[w]
                    .lock()
                    .expect("deque lock")
                    .pop_front()
                    .map(|entry| (entry, false));
                if picked.is_none() {
                    for offset in 1..workers {
                        let victim = (w + offset) % workers;
                        let entry = deques[victim].lock().expect("deque lock").pop_front();
                        if let Some(entry) = entry {
                            steals.fetch_add(1, Ordering::Relaxed);
                            picked = Some((entry, true));
                            break;
                        }
                    }
                }
                let Some(((s, enqueued), stolen)) = picked else {
                    break;
                };
                let queue_wait = clock.now().saturating_sub(enqueued);
                let shard = &plan.shards[s];
                let result = run_shard(
                    &plan.decks[shard.deck].name,
                    shard,
                    &plan.tasks,
                    config,
                    queue_wait,
                    stolen,
                    w,
                    clock,
                );
                if tx.send((s, result)).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        for (s, mut result) in rx {
            if let Some(sink) = sink.as_deref_mut() {
                if let Some(profile) = result.1.as_mut() {
                    if !profile.spans.is_empty() {
                        if let Some(root) = profile.spans.first_mut() {
                            root.fields
                                .push(("stolen".to_owned(), u64::from(profile.stolen)));
                        }
                        sink.write_track(
                            profile.worker as u64 + 1,
                            &format!("worker {}", profile.worker),
                            &profile.spans,
                        );
                        profile.spans = Vec::new();
                    }
                }
            }
            slots[s] = Some(result);
        }
    });

    (slots, steals.into_inner(), workers)
}
