//! `covbench`: the compiled half of the covest benchmark (`run.py` runs
//! the measurements).
//!
//! ```text
//! covbench gen WORKLOAD SEED DIR     write the workload's decks, a
//!                                    joblist and expected.json into DIR
//! covbench crosscheck                check the closed-form answers of
//!                                    small instances of every family
//!                                    against the enumerative reference
//! covbench replay WORKLOAD DIR       traced layer replay of the
//!                                    workload's CLI invocation; prints
//!                                    one JSON object
//! ```

mod decks;
mod replay;

use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;

use covest_bdd::BddManager;
use covest_core::{json_string, reference_covered_set, CoverageEstimator, CoverageOptions};
use covest_core::{ReferenceMode, DEFAULT_STATE_LIMIT};

use decks::Deck;

fn usage() -> ExitCode {
    eprintln!(
        "usage: covbench gen WORKLOAD SEED DIR | covbench crosscheck | \
         covbench replay WORKLOAD DIR"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        ["gen", workload, seed, dir] => match seed.parse() {
            Ok(seed) => gen(workload, seed, Path::new(dir)),
            Err(_) => return usage(),
        },
        ["crosscheck"] => crosscheck(),
        ["replay", workload, dir] => replay::run(workload, Path::new(dir)).map(|json| {
            println!("{json}");
        }),
        _ => return usage(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("covbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The CLI invocation and the known answers as JSON, decks in joblist
/// order.
fn expected_json(workload: &str, decks: &[Deck]) -> Result<String, String> {
    let inv = decks::invocation(workload)?;
    let argv: Vec<String> = inv
        .argv(&decks[0].file)
        .iter()
        .map(|a| json_string(a))
        .collect();
    let mut out = format!(
        "{{\"workload\": {}, \"argv\": [{}], \"traces\": {}, \"decks\": [",
        json_string(workload),
        argv.join(", "),
        inv.traces
    );
    for (i, d) in decks.iter().enumerate() {
        let failing: Vec<String> = d.failing.iter().map(|f| json_string(f)).collect();
        let signals: Vec<String> = d
            .signals
            .iter()
            .map(|s| match s.counts {
                Some((c, n)) => format!(
                    "{{\"name\": {}, \"covered\": {c}, \"space\": {n}}}",
                    json_string(&s.name)
                ),
                None => format!(
                    "{{\"name\": {}, \"covered\": null, \"space\": null}}",
                    json_string(&s.name)
                ),
            })
            .collect();
        let _ = write!(
            out,
            "{}\n  {{\"file\": {}, \"specs\": {}, \"failing\": [{}], \"signals\": [{}]}}",
            if i > 0 { "," } else { "" },
            json_string(&d.file),
            d.specs,
            failing.join(", "),
            signals.join(", "),
        );
    }
    out.push_str("\n]}\n");
    Ok(out)
}

fn gen(workload: &str, seed: u64, dir: &Path) -> Result<(), String> {
    let decks = decks::workload(workload, seed)?;
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let write = |name: &str, text: &str| {
        std::fs::write(dir.join(name), text).map_err(|e| format!("{name}: {e}"))
    };
    for d in &decks {
        write(&d.file, &d.source)?;
    }
    let joblist: String = decks.iter().map(|d| format!("{}\n", d.file)).collect();
    write("jobs.txt", &joblist)?;
    write("expected.json", &expected_json(workload, &decks)?)
}

/// Confirms every family's closed form on small instances: the symbolic
/// estimator's counts must equal the closed form, and its covered set
/// must equal the union of the enumerative reference's per-property
/// covered sets (the paper's Definition 3, one model-checking run per
/// state).
fn crosscheck() -> Result<(), String> {
    let small = vec![
        decks::pipeline_deck(2, None),
        decks::counter_deck(5),
        decks::counter_deck(9),
        decks::buffer_deck(2, false),
        decks::buffer_deck(2, true),
        decks::queue_deck(2),
        decks::arbiter_deck(2, None),
    ];
    for deck in &small {
        crosscheck_deck(deck).map_err(|e| format!("{}: {e}", deck.file))?;
    }
    println!("crosscheck: {} decks agree with the reference", small.len());
    Ok(())
}

fn crosscheck_deck(deck: &Deck) -> Result<(), String> {
    let bdd = BddManager::new();
    let model = covest_smv::compile(&bdd, &deck.source).map_err(|e| e.to_string())?;
    let fairness = model
        .fairness
        .iter()
        .map(|f| model.fsm.signals().lower(&bdd, f))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    let estimator = CoverageEstimator::new(&model.fsm);
    let options = CoverageOptions {
        fairness: model.fairness.clone(),
        ..Default::default()
    };
    let reach = model.fsm.reachable();
    let signals: Vec<String> = if deck.signals.is_empty() {
        model.observed.clone()
    } else {
        deck.signals.iter().map(|s| s.name.clone()).collect()
    };
    for (si, signal) in signals.iter().enumerate() {
        let analysis = estimator
            .analyze(signal, &model.specs, &options)
            .map_err(|e| e.to_string())?;
        let failing: Vec<String> = analysis
            .properties
            .iter()
            .filter(|p| !p.holds)
            .map(|p| p.formula.to_string())
            .collect();
        if failing != deck.failing || analysis.properties.len() != deck.specs {
            return Err(format!(
                "verdicts: {} properties, failing {failing:?}",
                analysis.properties.len()
            ));
        }
        if let Some(expect) = deck.signals.get(si) {
            let (covered, space) = (analysis.covered_count, analysis.space_count);
            let ok = match expect.counts {
                Some((c, n)) => covered * n as f64 == space * c as f64,
                None => covered == space && space > 0.0,
            };
            if !ok {
                return Err(format!(
                    "`{signal}`: {covered} of {space} states covered, expected {:?}",
                    expect.counts
                ));
            }
        }
        let mut union = bdd.constant(false);
        for p in analysis.properties.iter().filter(|p| p.holds) {
            let set = reference_covered_set(
                &model.fsm,
                signal,
                &p.formula,
                ReferenceMode::Transformed,
                &fairness,
                DEFAULT_STATE_LIMIT,
            )
            .map_err(|e| e.to_string())?;
            union = union.or(&set);
        }
        if union != analysis.covered.and(&reach) {
            return Err(format!("`{signal}`: reference covered set differs"));
        }
    }
    Ok(())
}
