//! `covest` — check SMV-dialect model decks and estimate property
//! coverage, reproducing (and parallelizing) the workflow of the DAC'99
//! paper.
//!
//! ```text
//! covest check MODEL.smv [--coverage] [--observed SIGNAL]...
//!                        [--traces N] [--strict] [--dot FILE]
//!                        [--reorder off|sift|auto] [--image mono|part]
//!                        [--simplify off|restrict|constrain]
//!                        [--coi on|off] [--jobs N] [--json FILE]
//! covest batch JOBLIST   [--strict] [--reorder ...] [--image ...]
//!                        [--simplify ...] [--coi on|off] [--jobs N]
//!                        [--json FILE]
//! covest lint DECK.smv... [--strict]
//! ```
//!
//! `check` verifies every `SPEC` under the deck's `FAIRNESS` constraints
//! and, with `--coverage`, estimates coverage for each `OBSERVED` signal
//! (or the `--observed` overrides) and lists uncovered states. When
//! coverage runs, the `[PASS]`/`[FAIL]` verdicts are the coverage
//! shards' (each shard verifies the suite once, on its cone-reduced
//! deck), and the front end checks only the failing specs, to print
//! their counterexamples; without coverage, or when the coverage run
//! fails, the front end verifies every spec itself, so a broken deck
//! fails the same way with or without `--coverage`:
//!
//! - `--traces N` prints shortest input sequences to up to `N` uncovered
//!   states per signal;
//! - `--strict` exits nonzero if any property fails;
//! - `--dot FILE` dumps the reachable-state BDD in Graphviz format;
//! - `--reorder`, `--image`, `--simplify` select the engine modes (all
//!   combinations produce bit-identical results; see `README.md`);
//! - `--coi on|off` (default on) controls whether the coverage shards
//!   compile each signal group's statically pruned cone-of-influence
//!   deck or the full deck; reports are bit-identical either way — the
//!   coverage universe is the signal's cone in both modes — except for
//!   the table's node counts;
//! - `--jobs N` runs the coverage shards on `N` worker threads (`0` =
//!   one per core, default 1), each shard on its own BDD manager; the
//!   output, node counts included, is byte-identical at every `N` (only
//!   the table's times differ);
//! - `--json FILE` additionally writes the coverage table — rows plus
//!   per-property verdicts and the canonical uncovered-state sample — as
//!   machine-readable JSON;
//! - `--stats` prints an engine-counter summary (unique-table and memo
//!   hit rates, fixpoint iterations, image calls, per-shard phase times)
//!   after the run; counter values are deterministic — byte-identical
//!   across `--jobs` values — while everything below the `-- timings --`
//!   line is wall-clock and excluded from any parity contract;
//! - `--trace FILE` writes the recorded span/event log (compile,
//!   reachability with per-BFS-step sizes, care install, each per-signal
//!   analysis). The file **streams**: each shard's span forest is
//!   written as its result arrives, one track per pool worker, so a
//!   long batch holds at most one shard's records in memory; the
//!   front-end's own track (tid 0) is appended at the end;
//! - `--trace-format jsonl|chrome` selects the trace flavor: native
//!   JSONL (default; one record per line, `tid` = track), or Chrome
//!   trace-event JSON — load the file in `ui.perfetto.dev` to see one
//!   timeline row per worker, shard spans tagged with their signals and
//!   stolen flag, memory gauges in the args panel;
//! - `--progress` prints a throttled heartbeat to stderr while the
//!   fixpoints run (phase, iteration, BDD size, support width, live
//!   nodes) and arms a watchdog that reports any fixpoint whose iterate
//!   has stopped changing (same size and support for many iterations)
//!   together with a snapshot of the open spans.
//!
//! Coverage always runs the same way: the deck is planned into
//! cone-disjoint shards, and the shards run on the worker pool, at every
//! `--jobs` value and with or without `--stats`/`--trace`/`--progress`,
//! so observing a run never changes what it prints. Per-shard fresh
//! managers make every shard's counters a pure function of (deck source,
//! config), which is what makes the summary's counter section
//! parity-checkable. The summary also carries each shard's
//! **peak-live-by-phase** table — the fold of the memory samples stamped
//! on every span open/close and BFS step — whose maximum reconciles
//! exactly with the shard's `bdd_peak_live_nodes` counter.
//!
//! `batch` runs a *fleet* of decks: `JOBLIST` names one deck per line
//! (`PATH [SIGNAL ...]`, `#` comments; relative paths resolve against
//! the joblist's directory), and all decks × signals drain through one
//! worker pool under the `--jobs` thread budget. Batch output contains
//! no timings or node counts, so two runs with different `--jobs` are
//! byte-identical.
//!
//! `lint` statically checks decks without building any BDDs: undefined
//! names, `DEFINE` cycles, missing `next` assignments, dead variables,
//! constant signals, observed signals outside every property's cone.
//! Findings print in a stable order (declaration order, then line);
//! `--strict` fails on warnings too. Exit codes: 0 clean, 1 findings,
//! 2 usage/I-O error.

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Duration;

use covest_analyze::{cone_bit_names, lint_source, task_cone, DepGraph};
use covest_bdd::{BddManager, ReorderConfig, ReorderMode};
use covest_core::{json_string, CoverageEstimator, CoverageTable, ReportRow};
use covest_mc::{ModelChecker, Verdict};
use covest_par::{run_batch, run_batch_with_trace, BatchReport, DeckJob, ParConfig, ShardProfile};
use covest_smv::{CompiledModel, ImageConfig, ImageMethod, SimplifyConfig};
use covest_telemetry::chrome::{TraceFormat, TraceSink, TraceWriter};
use covest_telemetry::{
    self as telemetry, memory, progress, Counters, SpanRecord, Telemetry, WallClock, TIMINGS_MARKER,
};

/// Flags shared by `check` and `batch`.
struct EngineArgs {
    reorder: ReorderMode,
    image: ImageMethod,
    simplify: SimplifyConfig,
    jobs: usize,
    json: Option<String>,
    stats: bool,
    trace: Option<String>,
    trace_format: TraceFormat,
    progress: bool,
    coi: bool,
}

impl Default for EngineArgs {
    fn default() -> Self {
        EngineArgs {
            reorder: ReorderMode::Sift,
            image: ImageMethod::Partitioned,
            simplify: SimplifyConfig::Restrict,
            jobs: 1,
            json: None,
            stats: false,
            trace: None,
            trace_format: TraceFormat::Jsonl,
            progress: false,
            coi: true,
        }
    }
}

impl EngineArgs {
    /// `true` when either observability flag asks for a recorder — and
    /// therefore for per-shard profiling.
    fn profiling(&self) -> bool {
        self.stats || self.trace.is_some()
    }
}

struct CheckArgs {
    model_path: String,
    coverage: bool,
    observed: Vec<String>,
    traces: usize,
    strict: bool,
    dot: Option<String>,
    engine: EngineArgs,
}

struct BatchArgs {
    joblist: String,
    strict: bool,
    engine: EngineArgs,
}

struct LintArgs {
    paths: Vec<String>,
    strict: bool,
}

enum Cmd {
    Check(CheckArgs),
    Batch(BatchArgs),
    Lint(LintArgs),
}

fn usage() -> ! {
    eprintln!(
        "usage: covest check MODEL.smv [--coverage] [--observed SIGNAL]... \
         [--traces N] [--strict] [--dot FILE] [--reorder off|sift|auto] \
         [--image mono|part] [--simplify off|restrict|constrain] \
         [--coi on|off] [--jobs N] [--json FILE] [--stats] [--trace FILE] \
         [--trace-format jsonl|chrome] [--progress]\n\
         \u{20}      covest batch JOBLIST [--strict] [--reorder off|sift|auto] \
         [--image mono|part] [--simplify off|restrict|constrain] \
         [--coi on|off] [--jobs N] [--json FILE] [--stats] [--trace FILE] \
         [--trace-format jsonl|chrome] [--progress]\n\
         \u{20}      covest lint DECK.smv... [--strict]\n\
         \n\
         --reorder off   keep the declaration variable order\n\
         --reorder sift  sift once after compiling the model (default)\n\
         --reorder auto  re-sift whenever the BDD grows past the threshold\n\
         --image part    clustered transition relation with early\n\
         \u{20}               quantification; the monolith is never built (default)\n\
         --image mono    monolithic transition relation\n\
         --simplify restrict   size-safe don't-care simplification of\n\
         \u{20}                    frontiers, iterates and clusters (default)\n\
         --simplify constrain  stronger generalized-cofactor simplification\n\
         --simplify off        no don't-care simplification\n\
         --coi on        coverage shards compile each signal group's\n\
         \u{20}               statically pruned cone deck (default; reports\n\
         \u{20}               match --coi off except for node counts)\n\
         --coi off       shards compile the full deck and project onto\n\
         \u{20}               the cone afterwards\n\
         --jobs N        run the coverage shards on N worker threads\n\
         \u{20}               (0 = one per core; default 1)\n\
         --json FILE     write the coverage table (rows, verdicts,\n\
         \u{20}               uncovered sample) as JSON\n\
         --stats         print the engine-counter summary (deterministic\n\
         \u{20}               counters above `-- timings --`, wall-clock below)\n\
         --trace FILE    write the span/event log (compile, reachability,\n\
         \u{20}               per-signal fixpoints), streamed per shard\n\
         --trace-format jsonl|chrome   trace flavor: native JSONL\n\
         \u{20}               (default) or Chrome trace-event JSON for\n\
         \u{20}               ui.perfetto.dev (`perfetto` is an alias)\n\
         --progress      print a throttled fixpoint heartbeat to stderr\n\
         \u{20}               and flag stalled fixpoints (watchdog)\n\
         \n\
         JOBLIST lines: PATH [SIGNAL ...]   (# comments; relative paths\n\
         resolve against the joblist's directory)\n\
         \n\
         lint exit codes: 0 = clean (warnings allowed without --strict),\n\
         \u{20}                1 = errors, or warnings under --strict,\n\
         \u{20}                2 = usage or I/O error"
    );
    std::process::exit(2);
}

/// Parses a flag shared by both subcommands; returns `false` if the flag
/// is not an engine flag.
fn parse_engine_flag(
    engine: &mut EngineArgs,
    flag: &str,
    argv: &mut impl Iterator<Item = String>,
) -> bool {
    fn parsed<T: std::str::FromStr>(value: Option<String>) -> T
    where
        T::Err: std::fmt::Display,
    {
        match value.map(|v| v.parse::<T>()) {
            Some(Ok(v)) => v,
            Some(Err(e)) => {
                eprintln!("error: {e}");
                usage()
            }
            None => usage(),
        }
    }
    match flag {
        "--reorder" => engine.reorder = parsed(argv.next()),
        "--image" => engine.image = parsed(argv.next()),
        "--simplify" => engine.simplify = parsed(argv.next()),
        "--jobs" => match argv.next().and_then(|n| n.parse().ok()) {
            Some(n) => engine.jobs = n,
            None => {
                eprintln!("error: --jobs expects a thread count (0 = one per core)");
                usage()
            }
        },
        "--json" => match argv.next() {
            Some(p) => engine.json = Some(p),
            None => usage(),
        },
        "--coi" => match argv.next().as_deref() {
            Some("on") => engine.coi = true,
            Some("off") => engine.coi = false,
            _ => {
                eprintln!("error: --coi expects `on` or `off`");
                usage()
            }
        },
        "--stats" => engine.stats = true,
        "--trace" => match argv.next() {
            Some(p) => engine.trace = Some(p),
            None => usage(),
        },
        "--trace-format" => engine.trace_format = parsed(argv.next()),
        "--progress" => engine.progress = true,
        _ => return false,
    }
    true
}

fn parse_args() -> Cmd {
    let mut argv = std::env::args().skip(1);
    match argv.next().as_deref() {
        Some("check") => {
            let mut args = CheckArgs {
                model_path: String::new(),
                coverage: false,
                observed: Vec::new(),
                traces: 0,
                strict: false,
                dot: None,
                engine: EngineArgs::default(),
            };
            while let Some(a) = argv.next() {
                if parse_engine_flag(&mut args.engine, a.as_str(), &mut argv) {
                    continue;
                }
                match a.as_str() {
                    "--coverage" => args.coverage = true,
                    "--strict" => args.strict = true,
                    "--observed" => match argv.next() {
                        Some(s) => args.observed.push(s),
                        None => usage(),
                    },
                    "--traces" => match argv.next().and_then(|n| n.parse().ok()) {
                        Some(n) => args.traces = n,
                        None => usage(),
                    },
                    "--dot" => match argv.next() {
                        Some(p) => args.dot = Some(p),
                        None => usage(),
                    },
                    _ if args.model_path.is_empty() && !a.starts_with('-') => {
                        args.model_path = a;
                    }
                    _ => usage(),
                }
            }
            if args.model_path.is_empty() {
                usage();
            }
            Cmd::Check(args)
        }
        Some("batch") => {
            let mut args = BatchArgs {
                joblist: String::new(),
                strict: false,
                engine: EngineArgs::default(),
            };
            while let Some(a) = argv.next() {
                if parse_engine_flag(&mut args.engine, a.as_str(), &mut argv) {
                    continue;
                }
                match a.as_str() {
                    "--strict" => args.strict = true,
                    _ if args.joblist.is_empty() && !a.starts_with('-') => {
                        args.joblist = a;
                    }
                    _ => usage(),
                }
            }
            if args.joblist.is_empty() {
                usage();
            }
            Cmd::Batch(args)
        }
        Some("lint") => {
            let mut paths = Vec::new();
            let mut strict = false;
            for a in argv {
                match a.as_str() {
                    "--strict" => strict = true,
                    _ if !a.starts_with('-') => paths.push(a),
                    _ => usage(),
                }
            }
            if paths.is_empty() {
                usage();
            }
            Cmd::Lint(LintArgs { paths, strict })
        }
        _ => usage(),
    }
}

fn main() -> ExitCode {
    let (result, strict) = match parse_args() {
        Cmd::Check(args) => (run_check(&args), args.strict),
        Cmd::Batch(args) => (run_batch_cmd(&args), args.strict),
        Cmd::Lint(args) => return run_lint(&args),
    };
    match result {
        Ok(all_passed) => {
            if strict && !all_passed {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `covest lint`: statically checks decks and prints findings in the
/// stable order (declaration order, then line). Exit code 0 when clean
/// (warnings allowed without `--strict`), 1 on errors or on warnings
/// under `--strict`, 2 on usage or I/O problems.
fn run_lint(args: &LintArgs) -> ExitCode {
    let mut errors = 0usize;
    let mut warnings = 0usize;
    for path in &args.paths {
        let src = match std::fs::read_to_string(path) {
            Ok(src) => src,
            Err(e) => {
                eprintln!("error: cannot read `{path}`: {e}");
                return ExitCode::from(2);
            }
        };
        let report = lint_source(&src);
        for d in &report.diagnostics {
            println!(
                "{path}:{}: {} [{}] {}",
                d.line, d.severity, d.rule, d.message
            );
        }
        errors += report.errors();
        warnings += report.warnings();
    }
    println!(
        "lint: {} decks, {errors} errors, {warnings} warnings",
        args.paths.len()
    );
    if errors > 0 || (args.strict && warnings > 0) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Prints the per-signal coverage block: vacuity warnings, then — below
/// 100% — the canonical uncovered-state listing.
fn print_signal_block(row: &ReportRow) {
    for v in &row.verdicts {
        if v.vacuous {
            println!(
                "warning: SPEC {} passes vacuously (an implication never triggers)",
                v.formula
            );
        }
    }
    if row.percent < 100.0 {
        println!("\nuncovered states for `{}`:", row.signal);
        for state in &row.uncovered_sample {
            println!("  {}", ReportRow::render_state(state));
        }
    }
}

/// How many uncovered states each report samples (the pool's
/// `uncovered_limit`).
const UNCOVERED_SAMPLE_LIMIT: usize = 10;

fn par_config(engine: &EngineArgs) -> ParConfig {
    ParConfig {
        jobs: engine.jobs,
        image: ImageConfig {
            method: engine.image,
            simplify: engine.simplify,
            ..Default::default()
        },
        reorder: engine.reorder,
        uncovered_limit: UNCOVERED_SAMPLE_LIMIT,
        profile: engine.profiling(),
        progress: engine.progress,
        clock: None,
        coi: engine.coi,
    }
}

/// Opens the streaming `--trace` writer over a buffered file, in the
/// selected `--trace-format`. Shard tracks stream into it as the pool
/// produces results; the front-end's own records land on tid 0 at the
/// end (see [`finish_trace`]).
fn open_trace(
    engine: &EngineArgs,
) -> Result<Option<TraceWriter<std::io::BufWriter<std::fs::File>>>, std::io::Error> {
    match &engine.trace {
        Some(path) => {
            let file = std::fs::File::create(path)?;
            Ok(Some(TraceWriter::new(
                std::io::BufWriter::new(file),
                engine.trace_format,
            )))
        }
        None => {
            if engine.trace_format != TraceFormat::Jsonl {
                eprintln!("warning: --trace-format has no effect without --trace");
            }
            Ok(None)
        }
    }
}

/// Appends the front-end record forest as track 0 and closes the trace
/// file (surfacing any I/O error deferred during streaming).
fn finish_trace(
    engine: &EngineArgs,
    writer: Option<TraceWriter<std::io::BufWriter<std::fs::File>>>,
    records: &[SpanRecord],
) -> Result<(), std::io::Error> {
    if let Some(mut writer) = writer {
        if !records.is_empty() {
            writer.write_track(0, "front-end", records);
        }
        writer.finish()?;
        if let Some(path) = &engine.trace {
            println!("wrote {path}");
        }
    }
    Ok(())
}

/// Installs the front-end memory sampler: every span open/close and
/// event recorded on this thread is stamped with `mgr`'s live-node /
/// arena-byte / high-water gauges. The caller owns the recorder's
/// lifecycle; the sampler is cleared in [`collect_observability`].
fn install_front_sampler(mgr: &BddManager) {
    let gauges = mgr.clone();
    memory::set_mem_sampler(move || {
        let (live, bytes, peak) = gauges.mem_gauges();
        memory::MemSample {
            live_nodes: live as u64,
            arena_bytes: bytes as u64,
            peak_live_nodes: peak,
        }
    });
}

/// Writes the coverage table as JSON, splicing the `stats` object in as
/// a sibling of `rows` when observability was collected.
fn write_json(
    engine: &EngineArgs,
    table: &CoverageTable,
    stats: Option<&str>,
) -> Result<(), std::io::Error> {
    if let Some(path) = &engine.json {
        let mut doc = table.to_json();
        if let Some(stats) = stats {
            let body = doc.strip_suffix("\n}\n").expect("table JSON shape");
            doc = format!("{body},\n  \"stats\": {stats}\n}}\n");
        }
        std::fs::write(path, doc)?;
        println!("wrote {path}");
    }
    Ok(())
}

/// Everything the observability flags produce in one place: the summary
/// text (deterministic counters above [`TIMINGS_MARKER`], wall-clock
/// below), the `--json` `stats` object, and the front-end's own span
/// forest (shard forests stream straight to the trace sink).
struct StatsOutput {
    text: String,
    json: String,
    records: Vec<SpanRecord>,
}

fn fmt_ms(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64() * 1e3)
}

fn counters_json(c: &Counters) -> String {
    let mut out = String::from("{");
    for (i, (name, value)) in c.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "{}: {value}", json_string(name));
    }
    out.push('}');
    out
}

fn profile_label(p: &ShardProfile) -> String {
    if p.signals.is_empty() {
        format!("shard {} (verify)", p.deck)
    } else {
        format!("shard {} signals {}", p.deck, p.signals.join("+"))
    }
}

/// Uninstalls the recorder installed for `--stats`/`--trace` (plus the
/// front-end memory sampler and progress channel) and folds its output
/// together with the per-shard profiles of `report` (when coverage or a
/// batch ran) and the front-end manager's engine counters
/// (when one survives the run, i.e. `check`).
///
/// The counter sections — the front-end counters and every per-shard
/// counter set — are deterministic: byte-identical across `--jobs`
/// values and across identical runs. Every `*_ms` value, the stolen
/// markers, the scheduler line, and everything below the
/// [`TIMINGS_MARKER`] line is wall-clock/scheduling observability.
fn collect_observability(
    engine: &EngineArgs,
    front_mgr: Option<&BddManager>,
    report: Option<&BatchReport>,
) -> Option<StatsOutput> {
    if !engine.profiling() {
        return None;
    }
    memory::clear_mem_sampler();
    progress::uninstall_progress();
    let rec = telemetry::uninstall().unwrap_or_default();
    let (records, mut front) = rec.into_parts();
    if let Some(mgr) = front_mgr {
        for (name, value) in mgr.stats().pairs() {
            front.add(name, value);
        }
    }
    let front_peak = memory::peak_by_phase(&records);
    let profiles: Vec<&ShardProfile> = report
        .iter()
        .flat_map(|r| r.decks.iter())
        .flat_map(|d| d.profiles.iter())
        .collect();
    // The fleet-wide attribution table: per phase, the largest peak any
    // shard saw there. Its maximum is the largest per-shard manager
    // high-water mark (each shard's own table reconciles exactly with
    // that shard's `bdd_peak_live_nodes`).
    let mut merged_peak = Counters::new();
    for p in &profiles {
        for (phase, value) in p.peak_by_phase.iter() {
            merged_peak.set_max(phase, value);
        }
    }

    let mut text = String::from("stats:\n  front-end\n");
    text.push_str(&front.render("    "));
    if !front_peak.is_empty() {
        text.push_str("    peak-live by phase\n");
        text.push_str(&front_peak.render("      "));
    }
    for p in &profiles {
        let _ = writeln!(text, "  {}", profile_label(p));
        text.push_str(&p.counters.render("    "));
        let (before, after) = p.reorder_sizes();
        let _ = writeln!(
            text,
            "    peak live {} nodes  reorder {before} -> {after} nodes",
            p.peak_live_nodes()
        );
        if !p.peak_by_phase.is_empty() {
            text.push_str("    peak-live by phase\n");
            text.push_str(&p.peak_by_phase.render("      "));
        }
    }
    if !merged_peak.is_empty() {
        text.push_str("  peak-live by phase (max across shards)\n");
        text.push_str(&merged_peak.render("    "));
    }
    let _ = writeln!(text, "{TIMINGS_MARKER}");
    for deck in report.iter().flat_map(|r| r.decks.iter()) {
        let _ = writeln!(text, "  plan {}  {} ms", deck.name, fmt_ms(deck.plan_time));
    }
    for p in &profiles {
        let _ = writeln!(
            text,
            "  {}  queue {} ms  compile {} ms  reach {} ms  solve {} ms{}",
            profile_label(p),
            fmt_ms(p.queue_wait),
            fmt_ms(p.compile),
            fmt_ms(p.reach),
            fmt_ms(p.solve),
            if p.stolen { "  (stolen)" } else { "" },
        );
    }
    if let Some(rep) = report {
        let _ = writeln!(
            text,
            "  sched  workers {}  shards {}  steals {}",
            rep.sched.workers, rep.sched.shards, rep.sched.steals
        );
    }

    // The `stats` JSON object: deterministic fields first, `*_ms` last.
    let mut json = String::from("{\"front_end\": ");
    json.push_str(&counters_json(&front));
    if !front_peak.is_empty() {
        let _ = write!(
            json,
            ", \"front_end_peak_by_phase\": {}",
            counters_json(&front_peak)
        );
    }
    json.push_str(", \"shards\": [");
    for (i, p) in profiles.iter().enumerate() {
        if i > 0 {
            json.push_str(", ");
        }
        let signals: Vec<String> = p.signals.iter().map(|s| json_string(s)).collect();
        let _ = write!(
            json,
            "{{\"deck\": {}, \"signals\": [{}], \"counters\": {}, \
             \"peak_live_nodes\": {}, \"peak_by_phase\": {}, \
             \"queue_ms\": {}, \"compile_ms\": {}, \"reach_ms\": {}, \"solve_ms\": {}, \
             \"stolen\": {}}}",
            json_string(&p.deck),
            signals.join(", "),
            counters_json(&p.counters),
            p.peak_live_nodes(),
            counters_json(&p.peak_by_phase),
            fmt_ms(p.queue_wait),
            fmt_ms(p.compile),
            fmt_ms(p.reach),
            fmt_ms(p.solve),
            p.stolen,
        );
    }
    json.push(']');
    if !merged_peak.is_empty() {
        let _ = write!(json, ", \"peak_by_phase\": {}", counters_json(&merged_peak));
    }
    if let Some(rep) = report {
        let plan_ms: f64 = rep
            .decks
            .iter()
            .map(|d| d.plan_time.as_secs_f64() * 1e3)
            .sum();
        let _ = write!(json, ", \"plan_ms\": {plan_ms:.3}");
    }
    json.push('}');

    Some(StatsOutput {
        text,
        json,
        records,
    })
}

/// Prints the `--stats` summary (the trace file streams separately; see
/// [`finish_trace`]).
fn emit_observability(engine: &EngineArgs, out: &StatsOutput) {
    if engine.stats {
        print!("\n{}", out.text);
    }
}

/// The front-end model checker: the deck's fairness constraints and,
/// with simplification on, the reachable states as the care boundary of
/// the verification fixpoints.
fn front_checker(
    model: &CompiledModel,
    simplify: SimplifyConfig,
) -> Result<ModelChecker<'_>, Box<dyn std::error::Error>> {
    let mut mc = ModelChecker::new(&model.fsm);
    for fair in &model.fairness {
        mc.add_fairness(fair)?;
    }
    if simplify != SimplifyConfig::Off {
        mc.set_care(model.fsm.install_reachable_care());
    }
    Ok(mc)
}

fn run_check(args: &CheckArgs) -> Result<bool, Box<dyn std::error::Error>> {
    let src = std::fs::read_to_string(&args.model_path)?;
    // The recorder goes in before compile so the span log covers the
    // front-end compile, reachability, and verification phases.
    if args.engine.profiling() {
        telemetry::install(Telemetry::new());
    }
    // The heartbeat/watchdog channel covers the front-end fixpoints
    // (reachability, verification EU/EG) on this thread; pool workers
    // install their own per-shard channels.
    if args.engine.progress {
        progress::install_progress(progress::Progress::stderr(
            std::sync::Arc::new(WallClock::new()),
            args.model_path.clone(),
        ));
    }
    let mut trace_writer = open_trace(&args.engine)?;
    let bdd = BddManager::new();
    bdd.set_reorder_config(ReorderConfig {
        mode: args.engine.reorder,
        ..Default::default()
    });
    // Memory timeline: stamp every front-end span/event with this
    // manager's gauges (workers sample their own per-shard managers).
    if args.engine.profiling() {
        install_front_sampler(&bdd);
    }
    let image = ImageConfig {
        method: args.engine.image,
        simplify: args.engine.simplify,
        ..Default::default()
    };
    let module = covest_smv::parse_module(&src)?;
    let model = covest_smv::compile_module_with(&bdd, &module, image)?;
    // In mono mode nothing was clustered — the engine holds the raw
    // parts and the fixpoints run on the lazy monolith.
    let partition = match args.engine.image {
        ImageMethod::Partitioned => {
            format!("{} clusters", model.fsm.image_engine().clusters().len())
        }
        ImageMethod::Monolithic => format!("{} parts", model.fsm.trans_parts().len()),
    };
    println!(
        "model `{}`: {} state bits, {} properties, {} fairness constraints, \
         image method `{}` ({partition}), simplify `{}`",
        args.model_path,
        model.fsm.num_state_bits(),
        model.specs.len(),
        model.fairness.len(),
        args.engine.image,
        args.engine.simplify,
    );
    // In auto mode the manager already sifts at its own checkpoints
    // (including one at the end of compile), so the explicit startup pass
    // belongs to sift mode only.
    if args.engine.reorder == ReorderMode::Sift {
        let stats = bdd.reduce_heap();
        println!(
            "reorder (sift): {} -> {} live nodes ({} swaps)",
            stats.before, stats.after, stats.swaps
        );
    }

    // The JSON report is the coverage table; without --coverage there is
    // no table and the flag would silently write nothing.
    if args.engine.json.is_some() && !args.coverage {
        eprintln!("warning: --json has no effect without --coverage");
    }

    // Coverage runs before verification when it runs at all: the deck is
    // planned into cone-disjoint shards and run on the worker pool at
    // every `--jobs` value — each shard compiles one private manager and
    // verifies the suite once, and idle workers steal whole shards.
    let has_signals = !(args.observed.is_empty() && model.observed.is_empty());
    let pool = (args.coverage && has_signals).then(|| {
        let jobs = vec![DeckJob {
            name: args.model_path.clone(),
            source: src.clone(),
            observed: args.observed.clone(),
        }];
        let config = par_config(&args.engine);
        match trace_writer.as_mut() {
            Some(writer) => run_batch_with_trace(&jobs, &config, writer),
            None => run_batch(&jobs, &config),
        }
    });

    // Verification. With a coverage report the verdicts are the shards';
    // the front end checks only the failing specs, for their
    // counterexamples. Otherwise — no coverage, or a pool error — the
    // front end verifies every spec itself, so a broken deck fails with
    // the same output either way, before the pool's error is reported.
    let shard_verdicts = match &pool {
        Some(Ok(report)) => Some(&report.decks[0].verdicts),
        _ => None,
    };
    let mut mc = match shard_verdicts {
        Some(_) => None,
        None => Some(front_checker(&model, args.engine.simplify)?),
    };
    let mut all_passed = true;
    for (i, spec) in model.specs.iter().enumerate() {
        let verdict = match shard_verdicts {
            Some(verdicts) if verdicts[i].holds => Verdict::Holds,
            _ => {
                if mc.is_none() {
                    mc = Some(front_checker(&model, args.engine.simplify)?);
                }
                let mc = mc.as_mut().expect("front-end checker built");
                mc.check(&spec.clone().into())?
            }
        };
        let mark = if verdict.holds() { "PASS" } else { "FAIL" };
        println!("[{mark}] SPEC {spec}");
        if let Verdict::Fails {
            counterexample: Some(trace),
            ..
        } = &verdict
        {
            println!("{trace}");
        }
        all_passed &= verdict.holds();
    }
    let pool_report = pool.transpose()?;

    // Coverage report. Traces to uncovered states replay on this manager.
    let mut table_out: Option<CoverageTable> = None;
    if args.coverage {
        match &pool_report {
            Some(report) => {
                let estimator = CoverageEstimator::new(&model.fsm);
                let graph = DepGraph::new(&module);
                for outcome in report.outcomes() {
                    print_signal_block(&outcome.row);
                    if outcome.row.percent < 100.0 && args.traces > 0 {
                        // The worker exported its uncovered set name-keyed
                        // over the signal's cone; import it here and replay
                        // traces over the same cone universe.
                        let uncovered = bdd.import_bdd(&outcome.uncovered)?;
                        let cone = task_cone(&module, &graph, &outcome.row.signal)?;
                        let universe = estimator.universe(Some(&cone_bit_names(&module, &cone)));
                        for trace in
                            estimator.traces_to_states_over(&uncovered, &universe, args.traces)
                        {
                            println!("trace to uncovered state:\n{trace}");
                        }
                    }
                }
            }
            None => eprintln!("warning: no OBSERVED signals; use --observed"),
        }
        let table = pool_report
            .as_ref()
            .map_or_else(CoverageTable::new, BatchReport::table);
        println!("\n{table}");
        table_out = Some(table);
    }

    if let Some(path) = &args.dot {
        let reach = model.fsm.reachable();
        std::fs::write(path, bdd.to_dot(&[("reachable", &reach)]))?;
        println!("wrote {path}");
    }

    let stats_out = collect_observability(&args.engine, Some(&bdd), pool_report.as_ref());
    finish_trace(
        &args.engine,
        trace_writer,
        stats_out.as_ref().map_or(&[][..], |s| &s.records),
    )?;
    if let Some(table) = &table_out {
        write_json(
            &args.engine,
            table,
            stats_out.as_ref().map(|s| s.json.as_str()),
        )?;
    }
    if let Some(out) = &stats_out {
        emit_observability(&args.engine, out);
    }

    Ok(all_passed)
}

/// Parses a joblist: one deck per line — `PATH [SIGNAL ...]` — with `#`
/// comments; relative paths resolve against the joblist's directory.
fn parse_joblist(path: &str) -> Result<Vec<DeckJob>, Box<dyn std::error::Error>> {
    let text = std::fs::read_to_string(path)?;
    let base = std::path::Path::new(path)
        .parent()
        .map(std::path::Path::to_path_buf)
        .unwrap_or_default();
    let mut jobs = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut fields = line.split_whitespace();
        let deck = fields.next().expect("nonempty line has a first field");
        let deck_path = {
            let p = std::path::Path::new(deck);
            if p.is_absolute() {
                p.to_path_buf()
            } else {
                base.join(p)
            }
        };
        let source = std::fs::read_to_string(&deck_path).map_err(|e| {
            format!(
                "{path}:{}: cannot read deck `{}`: {e}",
                lineno + 1,
                deck_path.display()
            )
        })?;
        jobs.push(DeckJob {
            name: deck.to_owned(),
            source,
            observed: fields.map(str::to_owned).collect(),
        });
    }
    if jobs.is_empty() {
        return Err(format!("joblist `{path}` lists no decks").into());
    }
    Ok(jobs)
}

fn run_batch_cmd(args: &BatchArgs) -> Result<bool, Box<dyn std::error::Error>> {
    // Planning runs on this thread inside `run_batch`, so the recorder
    // captures the plan-phase compile and reachability spans.
    if args.engine.profiling() {
        telemetry::install(Telemetry::new());
    }
    let mut trace_writer = open_trace(&args.engine)?;
    let jobs = parse_joblist(&args.joblist)?;
    let config = par_config(&args.engine);
    let report = match trace_writer.as_mut() {
        Some(writer) => run_batch_with_trace(&jobs, &config, writer)?,
        None => run_batch(&jobs, &config)?,
    };

    // Every line below is deterministic (no timings, no node counts, no
    // thread counts), so batch output is byte-identical across `--jobs`.
    println!(
        "batch: {} decks, {} signal analyses",
        report.decks.len(),
        report.outcomes().count(),
    );
    let mut held = 0usize;
    let mut total = 0usize;
    for deck in &report.decks {
        println!("deck {}: {} properties", deck.name, deck.num_properties);
        for v in &deck.verdicts {
            let mark = if v.holds { "PASS" } else { "FAIL" };
            println!("  [{mark}] SPEC {}", v.formula);
            held += usize::from(v.holds);
            total += 1;
        }
        for outcome in &deck.signals {
            let row = &outcome.row;
            for v in &row.verdicts {
                if v.vacuous {
                    println!(
                        "  warning: SPEC {} passes vacuously for `{}`",
                        v.formula, row.signal
                    );
                }
            }
            println!(
                "  signal {}: {:.2}% covered ({} of {} states)",
                row.signal, row.percent, row.covered_states, row.space_states
            );
            for state in row.uncovered_sample.iter().take(5) {
                println!("    uncovered: {}", ReportRow::render_state(state));
            }
        }
    }
    println!(
        "batch: {held}/{total} properties hold across {} decks, {} signals analyzed",
        report.decks.len(),
        report.outcomes().count(),
    );
    let stats_out = collect_observability(&args.engine, None, Some(&report));
    finish_trace(
        &args.engine,
        trace_writer,
        stats_out.as_ref().map_or(&[][..], |s| &s.records),
    )?;
    write_json(
        &args.engine,
        &report.table(),
        stats_out.as_ref().map(|s| s.json.as_str()),
    )?;
    if let Some(out) = &stats_out {
        emit_observability(&args.engine, out);
    }
    Ok(report.all_hold())
}
