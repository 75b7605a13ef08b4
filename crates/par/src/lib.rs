//! # covest-par
//!
//! The coverage engine: run the DAC'99 estimator's per-signal analyses
//! **concurrently**, across one deck or a whole fleet of decks, under a
//! single thread budget. Every coverage row `covest check --coverage`
//! and `covest batch` print comes from here, at every `--jobs` value.
//!
//! The paper's workflow (Table 2 / Section 4) runs one coverage analysis
//! per observed signal, and each analysis is independent once the model
//! is compiled. A [`covest_bdd::BddManager`] is an `Rc<RefCell<…>>`
//! handle and deliberately not `Send`, so the analyses cannot share one
//! manager across threads. This crate supplies the three pieces that
//! turn signal independence into wall-clock speedup:
//!
//! - **[`WorkPlan`]** — decompose decks × observed signals into
//!   per-signal tasks and cone-disjoint **shards**. Planning is purely
//!   static (parse, dependency graph, cones of influence — no BDDs):
//!   signals whose cones overlap are grouped into one shard, which
//!   compiles one union-cone machine, runs one reachability fixpoint and
//!   verifies the suite once for all of them, instead of every signal
//!   paying its own compile and verification.
//! - **The worker pool** ([`WorkPlan::run`]) — `jobs` OS threads, one
//!   deque each. Shards are dealt round-robin largest-first (by their
//!   static cone weights); an idle worker **steals whole shards** —
//!   never individual signals — from its peers, so every shard still
//!   executes its signals in declaration order on one fresh private
//!   manager, wherever it lands.
//! - **Deterministic merge** ([`BatchReport`]) — results are assembled
//!   by task index: decks in input order, signals in declaration order,
//!   byte-identical reports regardless of scheduling, stealing or
//!   `jobs`.
//!
//! [`run_batch`] is the one-call front door: it always plans, then runs
//! the shards. The contract — enforced by `tests/parity.rs` against the
//! sequential estimator kept as a test-only oracle in `covest-bench`,
//! across the full image × simplify × reorder mode cross and under
//! forced stealing — is that sharding is *pure mechanism*: coverage
//! percentages, per-property verdicts and uncovered-state sets are
//! bit-identical to that estimator's. Node counts and timings (per-shard
//! managers vs one shared manager) differ from the oracle's, but are
//! identical across `jobs` values.
//!
//! # Example
//!
//! ```
//! use covest_par::{run_batch, DeckJob, ParConfig};
//!
//! let deck = r#"
//! MODULE main
//! VAR b : boolean;
//! ASSIGN init(b) := FALSE; next(b) := !b;
//! SPEC AG (b -> AX !b);
//! OBSERVED b;
//! "#;
//! let jobs = vec![DeckJob::new("toggler", deck)];
//! let report = run_batch(&jobs, &ParConfig { jobs: 2, ..Default::default() })?;
//! assert!(report.all_hold());
//! // The property covers the b-state but not the !b-state: 1 of 2.
//! assert_eq!(report.decks[0].signals[0].row.percent, 50.0);
//! # Ok::<(), covest_par::ParError>(())
//! ```

mod plan;
mod pool;
mod shard;

pub use plan::{DeckJob, ParConfig, WorkPlan};
pub use pool::{
    run_batch, run_batch_with_trace, BatchReport, DeckReport, ParError, SchedStats, ShardProfile,
    SignalOutcome,
};
