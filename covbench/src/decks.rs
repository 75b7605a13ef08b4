//! Seeded deck generators and their known answers.
//!
//! Every expected verdict and coverage figure here comes from the
//! generator's closed form, never from a run of the program under test:
//!
//! - `pipeline_dN` (sized, with the debug chain): all 10 properties
//!   pass and `out` is 100% covered;
//! - `counter_mN` with its `N` increment properties: all pass, and
//!   `count` is covered on the `N` values `1..=N` of its `N+1` reachable
//!   values (the wrap and reset target 0 is never checked);
//! - `priority_buffer` with the full suite (initial `lo_cnt` suite, the
//!   missing-case property, `hi_cnt` suite): all pass, both counts 100%;
//!   the buggy variant fails exactly the missing-case property;
//! - `circular_queue` with every staged suite: all pass, `wrap`, `full`
//!   and `empty` 100%;
//! - the arbiter (see [`arbiter_deck`]): all pass, coverage as derived there.
//!
//! The `crosscheck` subcommand confirms the closed forms on small
//! instances of every family against the enumerative reference
//! implementation of the paper's coverage definition.

use std::fmt::Write as _;

use covest_circuits::{circular_queue, counter, pipeline, priority_buffer};
use covest_ctl::Formula;

/// Expected coverage of one observed signal.
#[derive(Debug, Clone)]
pub struct SignalExpect {
    pub name: String,
    /// `(covered, reachable)` state counts over the state bits. The
    /// CLI's counting universe also spans the input bits in the signal's
    /// cone, which scales both counts by one power of two, so checks
    /// compare the ratio. `None`: fully covered (covered equals the
    /// reachable space, which has no simple closed form for the family).
    pub counts: Option<(u64, u64)>,
}

/// One generated deck with its known answer.
#[derive(Debug, Clone)]
pub struct Deck {
    pub file: String,
    pub source: String,
    pub specs: usize,
    /// Display form of every property expected to fail.
    pub failing: Vec<String>,
    pub signals: Vec<SignalExpect>,
}

/// SplitMix64: a tiny seeded generator, so a seed names the same decks
/// on every machine and toolchain.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5eed_c0de_2b7e_1516)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.range(0, i as u64) as usize;
            items.swap(i, j);
        }
    }
}

fn with_specs(mut deck: String, specs: &[String]) -> String {
    for spec in specs {
        writeln!(deck, "SPEC {spec};").expect("write to string");
    }
    deck
}

fn texts(specs: &[Formula]) -> Vec<String> {
    specs.iter().map(ToString::to_string).collect()
}

fn full(names: &[&str]) -> Vec<SignalExpect> {
    names
        .iter()
        .map(|n| SignalExpect {
            name: (*n).to_owned(),
            counts: None,
        })
        .collect()
}

/// The sized pipeline with its 10-property `out` suite. The seed only
/// permutes the order of the `SPEC` lines, which changes neither the
/// answer nor the work.
pub fn pipeline_deck(stages: usize, rng: Option<&mut Rng>) -> Deck {
    let mut suite = texts(&pipeline::out_suite_initial(stages));
    suite.extend(texts(&pipeline::out_suite_hold()));
    if let Some(rng) = rng {
        rng.shuffle(&mut suite);
    }
    Deck {
        file: format!("pipeline_d{stages}.smv"),
        specs: suite.len(),
        source: with_specs(pipeline::deck_sized(stages), &suite),
        failing: Vec::new(),
        signals: full(&["out"]),
    }
}

pub fn counter_deck(max: u32) -> Deck {
    let suite = texts(&counter::increment_properties_sized(max));
    Deck {
        file: format!("counter_m{max}.smv"),
        specs: suite.len(),
        source: with_specs(counter::deck_sized(max), &suite),
        failing: Vec::new(),
        signals: vec![SignalExpect {
            name: "count".to_owned(),
            counts: Some((u64::from(max), u64::from(max) + 1)),
        }],
    }
}

pub fn buffer_deck(capacity: i64, bug: bool) -> Deck {
    let mut suite = priority_buffer::lo_suite_initial(capacity);
    suite.push(priority_buffer::lo_missing_case());
    suite.extend(priority_buffer::hi_suite(capacity));
    let suite = texts(&suite);
    let (file, failing) = if bug {
        (
            format!("priority_buffer_buggy_c{capacity}.smv"),
            vec![priority_buffer::lo_missing_case().to_string()],
        )
    } else {
        (format!("priority_buffer_c{capacity}.smv"), Vec::new())
    };
    Deck {
        file,
        specs: suite.len(),
        source: with_specs(priority_buffer::deck(capacity, bug), &suite),
        failing,
        // A failing property contributes nothing, so the buggy deck's
        // coverage has no closed form; only its verdicts are checked.
        signals: if bug {
            Vec::new()
        } else {
            full(&["hi_cnt", "lo_cnt"])
        },
    }
}

pub fn queue_deck(depth: i64) -> Deck {
    let mut suite = circular_queue::wrap_suite_initial();
    suite.extend(circular_queue::wrap_suite_additional());
    suite.extend(circular_queue::wrap_suite_final());
    suite.extend(circular_queue::wrap_suite_nonwrapping(depth));
    suite.extend(circular_queue::full_suite());
    suite.extend(circular_queue::empty_suite());
    let suite = texts(&suite);
    Deck {
        file: format!("circular_queue_q{depth}.smv"),
        specs: suite.len(),
        source: with_specs(circular_queue::deck(depth), &suite),
        failing: Vec::new(),
        signals: full(&["wrap", "full", "empty"]),
    }
}

/// Two banks (`a`, `b`) of `k` round-robin clients. Each bank passes a
/// one-hot token around a ring every cycle; client `i` is granted (the
/// `g` register rises) one cycle after it requested (`r` input) while
/// holding the token. All `2k` grants are observed.
///
/// Properties, per bank: mutual exclusion for every client (each one's
/// support is the whole bank), and for even clients a grant (`AX`) and a
/// liveness (`AF`) property. Every property sits in every signal's cone,
/// so the planner puts both banks in one shard.
///
/// Closed form: both tokens start at client 0 and move in lock step, so
/// the reachable states are (token at `t`) × (grant `t-1` of each bank
/// up or down): `4k` states. For grant `i` of a bank, mutual exclusion
/// covers the states where another grant of that bank is up — `2(k-1)`
/// — and the grant and liveness properties of an even client add the
/// 2 states right after its grant: `2k` of `4k` for even `i`, `2k-2` for
/// odd `i`.
pub fn arbiter_deck(k: usize, rng: Option<&mut Rng>) -> Deck {
    assert!(k >= 2, "an arbiter needs at least 2 clients per bank");
    let banks = ["a", "b"];
    let mut src = String::from(
        "\nMODULE main\n-- Two banks of round-robin clients: token ring, request inputs,\n\
         -- grant registers.\nVAR\n",
    );
    for b in banks {
        for i in 0..k {
            writeln!(src, "  t{b}{i} : boolean;\n  g{b}{i} : boolean;").expect("write");
        }
    }
    src.push_str("IVAR\n");
    for b in banks {
        for i in 0..k {
            writeln!(src, "  r{b}{i} : boolean;").expect("write");
        }
    }
    src.push_str("ASSIGN\n");
    for b in banks {
        for i in 0..k {
            let prev = (i + k - 1) % k;
            let init = if i == 0 { "TRUE" } else { "FALSE" };
            writeln!(
                src,
                "  init(t{b}{i}) := {init};\n  next(t{b}{i}) := t{b}{prev};\n  \
                 init(g{b}{i}) := FALSE;\n  next(g{b}{i}) := t{b}{i} & r{b}{i};"
            )
            .expect("write");
        }
    }
    let mut suite = Vec::new();
    for b in banks {
        for i in 0..k {
            let others: Vec<String> = (0..k)
                .filter(|&j| j != i)
                .map(|j| format!("g{b}{j}"))
                .collect();
            suite.push(format!("AG (g{b}{i} -> !({}))", others.join(" | ")));
            if i % 2 == 0 {
                suite.push(format!("AG ((t{b}{i} & r{b}{i}) -> AX g{b}{i})"));
                suite.push(format!("AG ((t{b}{i} & r{b}{i}) -> AF g{b}{i})"));
            }
        }
    }
    if let Some(rng) = rng {
        rng.shuffle(&mut suite);
    }
    let observed: Vec<String> = banks
        .iter()
        .flat_map(|b| (0..k).map(move |i| format!("g{b}{i}")))
        .collect();
    writeln!(src, "OBSERVED {};", observed.join(", ")).expect("write");
    let space = 4 * k as u64;
    let signals = banks
        .iter()
        .flat_map(|b| {
            (0..k).map(move |i| SignalExpect {
                name: format!("g{b}{i}"),
                counts: Some((
                    if i % 2 == 0 {
                        2 * k as u64
                    } else {
                        2 * k as u64 - 2
                    },
                    space,
                )),
            })
        })
        .collect();
    Deck {
        file: format!("arbiter_k{k}.smv"),
        specs: suite.len(),
        source: with_specs(src, &suite),
        failing: Vec::new(),
        signals,
    }
}

/// Stages of the `pipeline_check` deck: deep enough that reachability
/// and the EU/EG sweeps dominate, small enough for a dozen invocations
/// in one measured run (d64 is 1.2-2.4 s on a 2-vCPU guest).
pub const PIPELINE_STAGES: usize = 64;

/// Clients per bank of the `arbiter_check` deck.
pub const ARBITER_CLIENTS: usize = 12;

/// How the CLI runs a workload: `check DECK --coverage` on its one deck
/// or `batch jobs.txt` over the joblist, with `--jobs` and `--traces`
/// (omitted at their defaults, 1 and 0).
pub struct Invocation {
    pub batch: bool,
    pub jobs: usize,
    pub traces: usize,
}

pub fn invocation(workload: &str) -> Result<Invocation, String> {
    let (batch, jobs, traces) = match workload {
        "pipeline_check" => (false, 1, 0),
        "fleet_batch" => (true, 2, 0),
        "arbiter_check" => (false, 2, 2),
        _ => return Err(format!("unknown workload `{workload}`")),
    };
    Ok(Invocation {
        batch,
        jobs,
        traces,
    })
}

impl Invocation {
    /// The CLI arguments, run from the deck directory.
    pub fn argv(&self, first_deck: &str) -> Vec<String> {
        let mut argv: Vec<String> = if self.batch {
            vec!["batch".into(), "jobs.txt".into()]
        } else {
            vec!["check".into(), first_deck.into(), "--coverage".into()]
        };
        if self.jobs != 1 {
            argv.extend(["--jobs".into(), self.jobs.to_string()]);
        }
        if self.traces != 0 {
            argv.extend(["--traces".into(), self.traces.to_string()]);
        }
        argv
    }
}

/// The `fleet_batch` fleet. Every seed gets the same decks, so every
/// seed carries the same work (a drawn counter size would move the
/// fleet's reachability steps by ~10%); the seed draws the joblist order
/// and the order of each pipeline's `SPEC` lines. Pipeline cost grows
/// steeply with depth (d48 1.3 s, d80 5.8 s alone), so depths stop at 40
/// and no one deck dominates the fleet.
pub fn fleet(seed: u64) -> Vec<Deck> {
    let mut rng = Rng::new(seed);
    let mut decks = Vec::new();
    for max in (50..=160).step_by(10) {
        decks.push(counter_deck(max));
    }
    for stages in (16..=40).step_by(4) {
        decks.push(pipeline_deck(stages, Some(&mut rng)));
    }
    for capacity in 2..=9 {
        decks.push(buffer_deck(capacity, false));
    }
    decks.push(buffer_deck(4, true));
    for depth in [4, 6, 8, 12, 16, 24, 32] {
        decks.push(queue_deck(depth));
    }
    rng.shuffle(&mut decks);
    decks
}

/// The decks of one workload.
pub fn workload(name: &str, seed: u64) -> Result<Vec<Deck>, String> {
    let mut rng = Rng::new(seed);
    match name {
        "pipeline_check" => Ok(vec![pipeline_deck(PIPELINE_STAGES, Some(&mut rng))]),
        "fleet_batch" => Ok(fleet(seed)),
        "arbiter_check" => Ok(vec![arbiter_deck(ARBITER_CLIENTS, Some(&mut rng))]),
        _ => Err(format!("unknown workload `{name}`")),
    }
}
