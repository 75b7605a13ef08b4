//! The deck-sharded worker pool and the deterministic result merge.
//!
//! A [`covest_bdd::BddManager`] is an `Rc<RefCell<…>>` handle and
//! deliberately **not** `Send`: sharing one node arena across threads
//! would put a lock on every `ite`. The pool therefore shards by
//! *deck partition*: each cone-disjoint group of a deck's signals (a
//! [`crate::shard::Shard`]) gets one private manager, compiles its
//! (union-cone-reduced) module once, runs one reachability fixpoint, and
//! multiplexes its signals on that machine in declaration order. Shards
//! drain from per-worker deques with whole-shard stealing — see
//! [`crate::shard`] — and results are reassembled **by task index**, so
//! the report order (and every byte of it) is independent of scheduling.
//!
//! One manager per *shard* (not per worker) is a deliberate determinism
//! choice: a worker that happened to run two shards on a shared manager
//! would report different node counts than one that didn't, making
//! output depend on scheduling. With per-shard managers every shard is a
//! pure function of (deck source, config), so `--jobs 1` and `--jobs 64`
//! produce byte-identical reports — even when shards are stolen.

use std::time::Duration;

use covest_bdd::BddDump;
use covest_core::{CoverageTable, PropertyVerdict, ReportRow};
use covest_telemetry::{Counters, SpanRecord};

use crate::plan::{DeckJob, ParConfig, PlannedDeck, Task, TaskKind, WorkPlan};
use crate::shard::{run_pool, Shard, ShardResult};

/// Errors from planning or running a parallel batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParError {
    /// A deck failed to parse (during static planning) or compile (on
    /// its shard's manager).
    Plan {
        /// Deck display name.
        deck: String,
        /// Underlying error message.
        message: String,
    },
    /// A per-signal analysis (or verification) failed. When several
    /// fail, the one with the lowest task index is reported —
    /// deterministically, regardless of completion order.
    Task {
        /// Deck display name.
        deck: String,
        /// Observed signal, if the task was a coverage task.
        signal: Option<String>,
        /// Underlying error message.
        message: String,
    },
}

impl std::fmt::Display for ParError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParError::Plan { deck, message } => write!(f, "planning `{deck}`: {message}"),
            ParError::Task {
                deck,
                signal: Some(signal),
                message,
            } => write!(f, "analyzing `{deck}` signal `{signal}`: {message}"),
            ParError::Task {
                deck,
                signal: None,
                message,
            } => write!(f, "verifying `{deck}`: {message}"),
        }
    }
}

impl std::error::Error for ParError {}

/// The outcome of one per-signal coverage task.
#[derive(Debug, Clone)]
pub struct SignalOutcome {
    /// Deck display name.
    pub deck: String,
    /// Observed signal.
    pub signal: String,
    /// The Table-2 row: percentage, counts, verdicts, the canonical
    /// uncovered-state sample, node counts and timings.
    pub row: ReportRow,
    /// The uncovered-state set, exported name-keyed — importable into
    /// any manager (e.g. the front-end's, for trace generation, or a
    /// parity harness's, for semantic comparison).
    pub uncovered: BddDump,
}

/// The per-shard observability record collected when
/// [`ParConfig::profile`] is on: where the shard's wall-clock went, the
/// span log its phases recorded, and the deterministic engine counters
/// of its private manager.
///
/// The counters (and spans' deterministic fields) are a pure function of
/// (deck source, config) — byte-identical across `jobs` values and
/// across identical runs. Every `Duration` here, and the `stolen` flag,
/// is a wall-clock scheduling fact and excluded from any parity
/// contract.
#[derive(Debug, Clone)]
pub struct ShardProfile {
    /// Deck display name.
    pub deck: String,
    /// The shard's member signals in declaration order; empty for a
    /// verification-only shard.
    pub signals: Vec<String>,
    /// Time between the shard being enqueued and a worker dequeuing it
    /// (its own or a thief) — by construction never more than the
    /// pool's wall-clock.
    pub queue_wait: Duration,
    /// Time compiling the shard's module on its private manager
    /// (including the startup sifting pass, when configured).
    pub compile: Duration,
    /// Time in the shard's one reachability fixpoint + care install
    /// (zero for verification-only shards, which handle care inside
    /// `solve`).
    pub reach: Duration,
    /// Time in the analyses proper (one verification of the suite, then
    /// coverage per member signal; or verification only).
    pub solve: Duration,
    /// `true` if the shard was executed by a worker other than the one
    /// it was dealt to. Scheduling observability only.
    pub stolen: bool,
    /// Index of the pool worker that executed the shard (the thief, if
    /// stolen). Scheduling observability only — it is also the shard's
    /// trace track: tid = `worker + 1` (tid 0 is the driver).
    pub worker: usize,
    /// Per-phase peak-live attribution table (`compile` / `reach` /
    /// `care_install` / `signal:NAME` / `other` → peak live nodes), the
    /// fold of the span forest's memory samples — deterministic, and
    /// its maximum equals the `bdd_peak_live_nodes` counter exactly.
    /// See [`covest_telemetry::memory::peak_by_phase`].
    pub peak_by_phase: Counters,
    /// Deterministic counters: the telemetry tallies recorded during the
    /// shard (image calls, fixpoint iterations, …) plus the manager's
    /// [`covest_bdd::BddStats`] as `bdd_`-prefixed entries.
    pub counters: Counters,
    /// The shard's span/event forest (see [`covest_telemetry`]).
    /// Emptied after streaming when the run carries a trace sink.
    pub spans: Vec<SpanRecord>,
}

impl ShardProfile {
    /// The shard manager's live-node high-water mark (the
    /// `bdd_peak_live_nodes` counter) — also the maximum of
    /// [`ShardProfile::peak_by_phase`].
    pub fn peak_live_nodes(&self) -> u64 {
        self.counters.get("bdd_peak_live_nodes")
    }

    /// `(before, after)` live-node sizes of the post-compile sifting
    /// pass (the `bdd_reorder_size_before`/`_after` counters; both zero
    /// when reordering never ran).
    pub fn reorder_sizes(&self) -> (u64, u64) {
        (
            self.counters.get("bdd_reorder_size_before"),
            self.counters.get("bdd_reorder_size_after"),
        )
    }
}

/// All results for one deck, in signal declaration order.
#[derive(Debug, Clone)]
pub struct DeckReport {
    /// Deck display name.
    pub name: String,
    /// Number of properties in the deck's suite.
    pub num_properties: usize,
    /// Per-property verdicts (suite order). For coverage decks these come
    /// from the shard of the deck's first signal: each shard verifies the
    /// suite once, shared by its member signals, and every shard of a
    /// deck necessarily reaches the same verdicts. `covest check
    /// --coverage` prints its `[PASS]`/`[FAIL]` lines from them.
    pub verdicts: Vec<PropertyVerdict>,
    /// Per-signal outcomes, in declaration order.
    pub signals: Vec<SignalOutcome>,
    /// Wall-clock the planner spent statically analyzing this deck
    /// (parse + cones + shard construction).
    pub plan_time: Duration,
    /// Per-shard profiles in shard order — empty unless
    /// [`ParConfig::profile`] is set.
    pub profiles: Vec<ShardProfile>,
}

impl DeckReport {
    /// `true` if every property of the deck holds.
    pub fn all_hold(&self) -> bool {
        self.verdicts.iter().all(|v| v.holds)
    }
}

/// Scheduling statistics for one batch run: how the work was executed.
/// Pure observability — every field except `shards` depends on timing
/// and core count, so none of this may reach a deterministic report
/// surface (it is excluded from all parity contracts).
#[derive(Debug, Clone, Copy, Default)]
pub struct SchedStats {
    /// Worker threads actually spawned: `jobs` (or the core count),
    /// capped at the shard count, never less than one.
    pub workers: usize,
    /// Shards in the plan.
    pub shards: usize,
    /// Shards executed by a worker other than the one they were dealt
    /// to.
    pub steals: usize,
}

/// The deterministic merge of a whole batch: decks in input order,
/// signals in declaration order — independent of worker scheduling.
#[derive(Debug, Clone, Default)]
pub struct BatchReport {
    /// Per-deck reports, in batch input order.
    pub decks: Vec<DeckReport>,
    /// How the batch was scheduled (non-deterministic observability;
    /// never part of the report's parity surface).
    pub sched: SchedStats,
}

impl BatchReport {
    /// `true` if every property of every deck holds.
    pub fn all_hold(&self) -> bool {
        self.decks.iter().all(DeckReport::all_hold)
    }

    /// All signal outcomes flattened, in deterministic report order.
    pub fn outcomes(&self) -> impl Iterator<Item = &SignalOutcome> {
        self.decks.iter().flat_map(|d| d.signals.iter())
    }

    /// The batch as a Table-2-style [`CoverageTable`].
    pub fn table(&self) -> CoverageTable {
        let mut table = CoverageTable::new();
        for o in self.outcomes() {
            table.push(o.row.clone());
        }
        table
    }
}

/// What one task sends back from its shard.
pub(crate) enum TaskPayload {
    Coverage(Box<SignalOutcome>),
    Verdicts(Vec<PropertyVerdict>),
}

impl WorkPlan {
    /// Executes the plan on a pool of `config.jobs` worker threads (one
    /// deque each, whole-shard stealing) and merges the results
    /// deterministically: decks in input order, signals in declaration
    /// order, whatever order shards completed in — and on whichever
    /// worker. This is the only way coverage runs: [`run_batch`] is
    /// [`WorkPlan::plan`] followed by this call.
    ///
    /// # Errors
    ///
    /// [`ParError::Plan`] if a shard's compile fails; [`ParError::Task`]
    /// for the failed analysis with the lowest task index if any fails
    /// (deterministic under racing failures).
    pub fn run(&self, config: &ParConfig) -> Result<BatchReport, ParError> {
        self.run_inner(config, None)
    }

    /// [`WorkPlan::run`], streaming every profiled shard's span forest
    /// into `sink` as results arrive — one track per worker, the shard
    /// root span tagged with its `stolen` flag. Streamed forests are
    /// dropped from the returned profiles ([`ShardProfile::spans`] comes
    /// back empty), so a long batch holds at most one shard's records at
    /// a time. Without [`ParConfig::profile`] there are no records and
    /// the sink stays untouched.
    pub fn run_with_trace(
        &self,
        config: &ParConfig,
        sink: &mut dyn covest_telemetry::chrome::TraceSink,
    ) -> Result<BatchReport, ParError> {
        self.run_inner(config, Some(sink))
    }

    fn run_inner(
        &self,
        config: &ParConfig,
        sink: Option<&mut dyn covest_telemetry::chrome::TraceSink>,
    ) -> Result<BatchReport, ParError> {
        let (slots, steals, workers) = run_pool(self, config, sink);
        let mut report = merge_shard_results(&self.decks, &self.tasks, &self.shards, slots)?;
        report.sched = SchedStats {
            workers,
            shards: self.shards.len(),
            steals,
        };
        Ok(report)
    }
}

/// Assembles per-shard results into the final deterministic report:
/// decks in input order, signals in task order, profiles in shard order.
///
/// Error precedence is deterministic regardless of scheduling: the
/// failure anchored at the lowest task index wins, with a shard-level
/// compile failure anchored at its shard's first task and preempting
/// that shard's per-task failures.
fn merge_shard_results(
    decks: &[PlannedDeck],
    tasks: &[Task],
    shards: &[Shard],
    slots: Vec<Option<ShardResult>>,
) -> Result<BatchReport, ParError> {
    let slots: Vec<ShardResult> = slots
        .into_iter()
        .map(|s| s.expect("every shard reports exactly once"))
        .collect();

    // Error pass: anchor every failure at a task index and pick the
    // lowest (compile failures rank before task failures on a tie).
    let mut best: Option<((usize, u8), ParError)> = None;
    let mut consider = |key: (usize, u8), err: ParError| {
        if best.as_ref().is_none_or(|(k, _)| key < *k) {
            best = Some((key, err));
        }
    };
    for (shard, (result, _)) in shards.iter().zip(&slots) {
        let first = shard.tasks.first().copied().unwrap_or(usize::MAX);
        match result {
            Err(message) => consider(
                (first, 0),
                ParError::Plan {
                    deck: decks[shard.deck].name.clone(),
                    message: message.clone(),
                },
            ),
            Ok(entries) => {
                for (ti, entry) in entries {
                    if let Err(message) = entry {
                        consider(
                            (*ti, 1),
                            ParError::Task {
                                deck: decks[shard.deck].name.clone(),
                                signal: match &tasks[*ti].kind {
                                    TaskKind::Coverage { signal, .. } => Some(signal.clone()),
                                    TaskKind::VerifyOnly => None,
                                },
                                message: message.clone(),
                            },
                        );
                    }
                }
            }
        }
    }
    if let Some((_, err)) = best {
        return Err(err);
    }

    let mut reports: Vec<DeckReport> = decks
        .iter()
        .map(|d| DeckReport {
            name: d.name.clone(),
            num_properties: d.num_properties,
            verdicts: Vec::new(),
            signals: Vec::new(),
            plan_time: d.plan_time,
            profiles: Vec::new(),
        })
        .collect();

    // Scatter payloads to task slots, then gather in task order.
    let mut payloads: Vec<Option<TaskPayload>> = Vec::new();
    payloads.resize_with(tasks.len(), || None);
    for (shard, (result, profile)) in shards.iter().zip(slots) {
        let entries = result.expect("error pass returned above");
        for (ti, entry) in entries {
            payloads[ti] = Some(entry.expect("error pass returned above"));
        }
        reports[shard.deck].profiles.extend(profile);
    }
    for (task, payload) in tasks.iter().zip(payloads) {
        let report = &mut reports[task.deck];
        match payload.expect("every task belongs to exactly one shard") {
            TaskPayload::Coverage(outcome) => {
                if report.verdicts.is_empty() {
                    report.verdicts = outcome.row.verdicts.clone();
                }
                report.signals.push(*outcome);
            }
            TaskPayload::Verdicts(verdicts) => report.verdicts = verdicts,
        }
    }
    Ok(BatchReport {
        decks: reports,
        sched: SchedStats::default(),
    })
}

/// Plans and runs a batch in one call — the front door used by
/// `covest check --coverage` and `covest batch`: [`WorkPlan::plan`],
/// then [`WorkPlan::run`], for every fleet and every `jobs` value.
/// Planning is static (parse + cones, no BDDs) and cheap, so it always
/// completes before execution; a plan failure therefore takes precedence
/// over every shard outcome.
///
/// # Errors
///
/// See [`WorkPlan::plan`] and [`WorkPlan::run`].
pub fn run_batch(jobs: &[DeckJob], config: &ParConfig) -> Result<BatchReport, ParError> {
    WorkPlan::plan(jobs, config)?.run(config)
}

/// [`run_batch`] with a streaming trace sink — see
/// [`WorkPlan::run_with_trace`].
pub fn run_batch_with_trace(
    jobs: &[DeckJob],
    config: &ParConfig,
    sink: &mut dyn covest_telemetry::chrome::TraceSink,
) -> Result<BatchReport, ParError> {
    WorkPlan::plan(jobs, config)?.run_with_trace(config, sink)
}
