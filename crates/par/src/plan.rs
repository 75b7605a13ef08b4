//! Work planning: decompose decks × observed signals into per-signal
//! tasks and cone-disjoint **shards**, per the paper's workflow.
//!
//! The DAC'99 estimator runs one analysis *per observed signal*
//! (Table 2 has one row per signal), and once the model is compiled the
//! analyses are independent. Planning here is **purely static** — parse,
//! dependency graph, cones of influence — and builds no BDDs: all
//! compile and reachability work happens inside the shards, where it
//! runs in parallel, instead of serially on the planning thread. The
//! planner emits one task per `(deck, signal)` pair — in declaration
//! order, which is also the order results are reassembled in, whatever
//! order workers finish — and groups each deck's signals into
//! cone-disjoint shards (see [`crate::shard`]): signals whose cones
//! overlap share one compiled machine and one reachability fixpoint.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;

use covest_analyze::{cone_bit_names, reduce_module_multi, task_cone, DepGraph};
use covest_smv::ImageConfig;

use crate::pool::ParError;
use crate::shard::Shard;

/// One deck in a batch: a name (shown in reports), the SMV source text,
/// and an optional observed-signal override.
#[derive(Debug, Clone)]
pub struct DeckJob {
    /// Display name (typically the deck's path).
    pub name: String,
    /// SMV source text.
    pub source: String,
    /// Signals to analyze; empty means the deck's `OBSERVED` list.
    pub observed: Vec<String>,
}

impl DeckJob {
    /// A deck job analyzing the deck's own `OBSERVED` signals.
    pub fn new(name: impl Into<String>, source: impl Into<String>) -> Self {
        DeckJob {
            name: name.into(),
            source: source.into(),
            observed: Vec::new(),
        }
    }
}

/// Configuration for planning and running a parallel coverage batch.
#[derive(Clone)]
pub struct ParConfig {
    /// Thread budget for the worker pool (`0` = one worker per available
    /// core). The budget is shared by *all* shards of a batch — many
    /// decks × many signals drain through one set of deques.
    pub jobs: usize,
    /// Image configuration for every compile (method, cluster threshold,
    /// simplification mode).
    pub image: ImageConfig,
    /// Dynamic-reordering mode for every manager. [`ReorderMode::Sift`]
    /// mirrors the CLI default: one sifting pass right after compile.
    ///
    /// [`ReorderMode::Sift`]: covest_bdd::ReorderMode::Sift
    pub reorder: covest_bdd::ReorderMode,
    /// How many uncovered states to sample per signal (the canonical
    /// declaration-order sample; see
    /// [`covest_core::CoverageEstimator::uncovered_states`]).
    pub uncovered_limit: usize,
    /// Collect a per-shard [`crate::ShardProfile`] — phase durations, a
    /// span log, and the shard's deterministic engine counters. Off by
    /// default; the counters are a pure function of (deck source,
    /// config), so they are byte-identical across `jobs` values, while
    /// the durations (and the stolen flag) are wall-clock scheduling
    /// facts and excluded from parity. Profiling changes no report byte:
    /// profiled and unprofiled runs execute the same shards.
    pub profile: bool,
    /// Cone-of-influence reduction (`true`, the default): each shard
    /// compiles the statically pruned union-cone deck of its member
    /// signals on its private manager instead of the full source. With
    /// `false` the shard compiles the full deck and the estimator
    /// projects onto each signal's cone instead. The two modes produce
    /// bit-identical reports (percentages, counts, verdicts, uncovered
    /// listings) — the coverage universe is the per-signal cone either
    /// way; only manager size and wall-clock differ. See DESIGN.md
    /// "Static deck analysis & cone-of-influence".
    pub coi: bool,
    /// Emit the throttled stderr progress heartbeat (and arm the
    /// fixpoint watchdog) on every shard. Pure stderr observability —
    /// never reaches a report byte. See [`covest_telemetry::progress`].
    pub progress: bool,
    /// The clock stamping profile spans, queue waits, and the progress
    /// throttle. `None` (the default) means a fresh
    /// [`covest_telemetry::WallClock`] per batch; tests inject a
    /// [`covest_telemetry::ManualClock`] to freeze every timestamp and
    /// make whole span forests byte-comparable across runs.
    pub clock: Option<Arc<dyn covest_telemetry::Clock>>,
}

impl std::fmt::Debug for ParConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ParConfig")
            .field("jobs", &self.jobs)
            .field("image", &self.image)
            .field("reorder", &self.reorder)
            .field("uncovered_limit", &self.uncovered_limit)
            .field("profile", &self.profile)
            .field("coi", &self.coi)
            .field("progress", &self.progress)
            .field("clock", &self.clock.as_ref().map(|_| "injected"))
            .finish()
    }
}

impl Default for ParConfig {
    fn default() -> Self {
        ParConfig {
            jobs: 1,
            image: ImageConfig::default(),
            reorder: covest_bdd::ReorderMode::Sift,
            uncovered_limit: 10,
            profile: false,
            coi: true,
            progress: false,
            clock: None,
        }
    }
}

impl ParConfig {
    /// The effective worker count: `jobs`, or the number of available
    /// cores when `jobs == 0`, never less than one.
    pub fn effective_jobs(&self) -> usize {
        match self.jobs {
            0 => std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
            n => n,
        }
    }

    /// The clock one batch runs under: the injected one, or a fresh
    /// [`covest_telemetry::WallClock`] with its epoch at the call. One
    /// shared clock per batch keeps every worker's span timestamps on a
    /// single timeline, which is what makes merged trace tracks line up.
    pub(crate) fn batch_clock(&self) -> Arc<dyn covest_telemetry::Clock> {
        self.clock
            .clone()
            .unwrap_or_else(|| Arc::new(covest_telemetry::WallClock::new()))
    }
}

/// A statically planned deck: name, suite size, and how long the (pure
/// parse/cone) planning took. Carries no sources and no BDD dumps — the
/// shards own the modules they compile.
#[derive(Debug, Clone)]
pub(crate) struct PlannedDeck {
    pub name: String,
    pub num_properties: usize,
    /// Wall-clock the planner spent on this deck (parse + cones + shard
    /// construction). Timing only — never parity-checked.
    pub plan_time: Duration,
}

/// What one task asks its shard to do.
#[derive(Debug, Clone)]
pub(crate) enum TaskKind {
    /// Verify the suite and estimate coverage for one observed signal.
    Coverage {
        signal: String,
        /// The signal's cone state-bit names in declaration order — the
        /// task's counting/sampling universe and its static size
        /// estimate.
        cone: Arc<Vec<String>>,
    },
    /// Verify the suite only (decks with no observed signals).
    VerifyOnly,
}

impl TaskKind {
    /// Static size estimate in state bits: the cone width for coverage
    /// tasks; `usize::MAX` for verify-only tasks (whole machine).
    pub(crate) fn size_hint(&self) -> usize {
        match self {
            TaskKind::Coverage { cone, .. } => cone.len(),
            TaskKind::VerifyOnly => usize::MAX,
        }
    }
}

/// One unit of report work: a deck index plus what to do with it.
#[derive(Debug, Clone)]
pub(crate) struct Task {
    pub deck: usize,
    pub kind: TaskKind,
}

/// Plans a single deck, statically: parse (validating early, on the
/// calling thread), compute per-signal cones, and group the signals into
/// cone-disjoint shards — task indices local to the deck; the caller
/// offsets them into the global task list.
fn plan_deck(
    job: &DeckJob,
    config: &ParConfig,
) -> Result<(PlannedDeck, Vec<TaskKind>, Vec<Shard>), ParError> {
    let plan_err = |message: String| ParError::Plan {
        deck: job.name.clone(),
        message,
    };
    let sw = covest_telemetry::Stopwatch::start();
    let module = covest_smv::parse_module(&job.source).map_err(|e| plan_err(e.to_string()))?;
    let signals: Vec<String> = if job.observed.is_empty() {
        module.observed.iter().map(|o| o.name.clone()).collect()
    } else {
        job.observed.clone()
    };
    let num_properties = module.specs.len();

    let (kinds, shards) = if signals.is_empty() {
        // Verification-only deck: one shard over the full machine.
        let shard = Shard {
            deck: 0,
            module: Arc::new(module),
            tasks: vec![0],
            weight: usize::MAX,
        };
        (vec![TaskKind::VerifyOnly], vec![shard])
    } else {
        let graph = DepGraph::new(&module);
        let mut cones: Vec<BTreeSet<String>> = Vec::with_capacity(signals.len());
        let mut kinds = Vec::with_capacity(signals.len());
        for signal in &signals {
            let cone = task_cone(&module, &graph, signal).map_err(&plan_err)?;
            kinds.push(TaskKind::Coverage {
                signal: signal.clone(),
                cone: Arc::new(cone_bit_names(&module, &cone)),
            });
            cones.push(cone);
        }

        // Union-find over the signals: overlapping cones share a shard.
        let mut root: Vec<usize> = (0..signals.len()).collect();
        fn find(root: &mut [usize], mut i: usize) -> usize {
            while root[i] != i {
                root[i] = root[root[i]];
                i = root[i];
            }
            i
        }
        for i in 0..signals.len() {
            for j in 0..i {
                if !cones[i].is_disjoint(&cones[j]) {
                    let (a, b) = (find(&mut root, i), find(&mut root, j));
                    // Union toward the lower index, so a group is named
                    // by its first signal in declaration order.
                    let (lo, hi) = (a.min(b), a.max(b));
                    root[hi] = lo;
                }
            }
        }
        // Groups in first-signal declaration order; members likewise.
        let mut groups: Vec<Vec<usize>> = Vec::new();
        let mut group_of = vec![usize::MAX; signals.len()];
        for i in 0..signals.len() {
            let r = find(&mut root, i);
            if group_of[r] == usize::MAX {
                group_of[r] = groups.len();
                groups.push(Vec::new());
            }
            groups[group_of[r]].push(i);
        }

        let full = Arc::new(module);
        let shards = groups
            .into_iter()
            .map(|members| {
                let weight: usize = members
                    .iter()
                    .map(|&i| kinds[i].size_hint())
                    .fold(0usize, usize::saturating_add);
                let module = if config.coi {
                    let mut union: BTreeSet<String> = BTreeSet::new();
                    for &i in &members {
                        union.extend(cones[i].iter().cloned());
                    }
                    // Deduped for the reduced module's OBSERVED list; the
                    // shard's task list keeps duplicates (two identical
                    // rows, as the per-task pool produced).
                    let mut observed: Vec<String> = Vec::new();
                    for &i in &members {
                        if !observed.contains(&signals[i]) {
                            observed.push(signals[i].clone());
                        }
                    }
                    Arc::new(reduce_module_multi(&full, &union, &observed))
                } else {
                    Arc::clone(&full)
                };
                Shard {
                    deck: 0,
                    module,
                    tasks: members,
                    weight,
                }
            })
            .collect();
        (kinds, shards)
    };

    Ok((
        PlannedDeck {
            name: job.name.clone(),
            num_properties,
            plan_time: sw.elapsed(),
        },
        kinds,
        shards,
    ))
}

/// The decomposition of a batch into per-signal tasks and cone-disjoint
/// shards.
///
/// Built by [`WorkPlan::plan`]; executed by [`WorkPlan::run`]. The plan
/// is immutable, `Send + Sync`, and carries no BDD handles — only parsed
/// modules, names and cone bit lists — so the worker pool can share it
/// by reference across threads. Planning is static (no compiles, no
/// reachability); all BDD work happens inside the shards, in parallel.
#[derive(Debug)]
pub struct WorkPlan {
    pub(crate) decks: Vec<PlannedDeck>,
    pub(crate) tasks: Vec<Task>,
    pub(crate) shards: Vec<Shard>,
}

impl WorkPlan {
    /// Parses and statically validates every deck (on the calling
    /// thread), computes each signal's cone of influence, and lays out
    /// one task per `(deck, observed signal)` — or a verification-only
    /// task for decks without signals — grouped into cone-disjoint
    /// shards.
    ///
    /// # Errors
    ///
    /// [`ParError::Plan`] if a deck fails to parse or a property fails
    /// to parse. (Semantic compile failures surface when the shard
    /// compiles, also as [`ParError::Plan`].)
    pub fn plan(jobs: &[DeckJob], config: &ParConfig) -> Result<WorkPlan, ParError> {
        let mut decks = Vec::with_capacity(jobs.len());
        let mut tasks = Vec::new();
        let mut shards: Vec<Shard> = Vec::new();
        for (deck_idx, job) in jobs.iter().enumerate() {
            let (deck, kinds, deck_shards) = plan_deck(job, config)?;
            let base = tasks.len();
            tasks.extend(kinds.into_iter().map(|kind| Task {
                deck: deck_idx,
                kind,
            }));
            shards.extend(deck_shards.into_iter().map(|mut s| {
                s.deck = deck_idx;
                for t in &mut s.tasks {
                    *t += base;
                }
                s
            }));
            decks.push(deck);
        }
        Ok(WorkPlan {
            decks,
            tasks,
            shards,
        })
    }

    /// Number of decks in the plan.
    pub fn num_decks(&self) -> usize {
        self.decks.len()
    }

    /// Total number of report tasks (coverage + verification-only).
    pub fn num_tasks(&self) -> usize {
        self.tasks.len()
    }

    /// Number of shards — the pool's schedulable (and stealable) units.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Static per-task size estimates, in task order: the cone width in
    /// state bits for coverage tasks, `usize::MAX` for verify-only tasks
    /// (whole machine). A shard's scheduling weight is the sum over its
    /// member tasks; the pool dispatches shards largest-first on those
    /// weights.
    pub fn task_size_estimates(&self) -> Vec<usize> {
        self.tasks.iter().map(|t| t.kind.size_hint()).collect()
    }

    /// Number of per-signal coverage tasks.
    pub fn num_coverage_tasks(&self) -> usize {
        self.tasks
            .iter()
            .filter(|t| matches!(t.kind, TaskKind::Coverage { .. }))
            .count()
    }
}
