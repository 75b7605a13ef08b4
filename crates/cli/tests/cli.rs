//! End-to-end tests of the `covest` command-line tool against the
//! bundled model decks.

use std::process::Command;

fn covest() -> Command {
    Command::new(env!("CARGO_BIN_EXE_covest-cli"))
}

fn repo_root() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("repo root")
}

#[test]
fn checks_counter_with_coverage() {
    let out = covest()
        .arg("check")
        .arg(repo_root().join("models/counter.smv"))
        .arg("--coverage")
        .output()
        .expect("runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.matches("[PASS]").count(), 5, "{stdout}");
    assert!(stdout.contains("83.33"), "{stdout}");
    assert!(stdout.contains("uncovered states for `count`"), "{stdout}");
}

#[test]
fn strict_mode_fails_on_buggy_buffer() {
    let out = covest()
        .arg("check")
        .arg(repo_root().join("models/priority_buffer_buggy.smv"))
        .arg("--strict")
        .output()
        .expect("runs");
    assert!(
        !out.status.success(),
        "the buggy deck must fail strict mode"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("[FAIL]"), "{stdout}");
    assert!(
        stdout.contains("counterexample") || stdout.contains("step 0"),
        "{stdout}"
    );
}

#[test]
fn fixed_buffer_passes_at_full_coverage() {
    let out = covest()
        .arg("check")
        .arg(repo_root().join("models/priority_buffer.smv"))
        .arg("--coverage")
        .arg("--strict")
        .output()
        .expect("runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!stdout.contains("[FAIL]"), "{stdout}");
    assert!(stdout.contains("100.00"), "{stdout}");
}

#[test]
fn pipeline_deck_uses_embedded_fairness() {
    let out = covest()
        .arg("check")
        .arg(repo_root().join("models/pipeline.smv"))
        .arg("--strict")
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "eventualities hold under the deck's FAIRNESS: {}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn image_methods_agree_on_coverage() {
    let run = |method: &str| -> String {
        let out = covest()
            .arg("check")
            .arg(repo_root().join("models/counter.smv"))
            .arg("--coverage")
            .arg("--image")
            .arg(method)
            .output()
            .expect("runs");
        assert!(out.status.success(), "--image {method} run fails");
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let mono = run("mono");
    let part = run("part");
    assert!(mono.contains("image method `mono`"), "{mono}");
    assert!(part.contains("image method `part`"), "{part}");
    for stdout in [&mono, &part] {
        assert_eq!(stdout.matches("[PASS]").count(), 5, "{stdout}");
        assert!(stdout.contains("83.33"), "{stdout}");
    }
}

#[test]
fn simplify_modes_agree_on_coverage() {
    let run = |mode: &str| -> String {
        let out = covest()
            .arg("check")
            .arg(repo_root().join("models/counter.smv"))
            .arg("--coverage")
            .arg("--simplify")
            .arg(mode)
            .output()
            .expect("runs");
        assert!(out.status.success(), "--simplify {mode} run fails");
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    for mode in ["off", "restrict", "constrain"] {
        let stdout = run(mode);
        assert!(stdout.contains(&format!("simplify `{mode}`")), "{stdout}");
        assert_eq!(stdout.matches("[PASS]").count(), 5, "{stdout}");
        assert!(stdout.contains("83.33"), "{stdout}");
    }
}

#[test]
fn bad_simplify_mode_is_rejected() {
    let out = covest()
        .arg("check")
        .arg(repo_root().join("models/counter.smv"))
        .arg("--simplify")
        .arg("maybe")
        .output()
        .expect("runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown simplify mode"), "{stderr}");
}

#[test]
fn bad_image_method_is_rejected() {
    let out = covest()
        .arg("check")
        .arg(repo_root().join("models/counter.smv"))
        .arg("--image")
        .arg("hybrid")
        .output()
        .expect("runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown image method"), "{stderr}");
}

/// Runs `covest check` on a deck and returns stdout.
fn check_stdout(deck: &str, extra: &[&str]) -> String {
    let out = covest()
        .arg("check")
        .arg(repo_root().join(deck))
        .args(extra)
        .output()
        .expect("runs");
    assert!(out.status.success(), "{deck} {extra:?} run fails");
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// Drops every ` - <time>` cell of the coverage table: the only
/// wall-clock bytes in `check`'s stdout before the `--stats` summary. A
/// fast host prints every time in µs, so no unit is assumed.
fn strip_times(stdout: &str) -> String {
    stdout
        .lines()
        .map(|l| {
            let mut parts = l.split(" - ");
            let mut kept = parts.next().unwrap_or_default().to_owned();
            for part in parts {
                kept.push_str(part.trim_start_matches(|c: char| c != ' '));
            }
            kept
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// The table rows of `check`'s stdout (the lines with the " - "
/// separator, less the "BDDs - time" header), times stripped.
fn table_rows(stdout: &str) -> Vec<String> {
    stdout
        .lines()
        .filter(|l| l.contains(" - ") && !l.contains("BDDs - "))
        .map(strip_times)
        .collect()
}

/// `--jobs N` must not change a single observable byte outside the
/// table's time columns: verification lines, vacuity warnings,
/// uncovered-state listings and the table's circuit / signal / #prop /
/// %COV and node-count columns are all byte-identical to the
/// single-worker run. Both run on per-shard managers, so even the node
/// counts agree.
#[test]
fn parallel_check_output_matches_sequential() {
    let seq = check_stdout("models/priority_buffer.smv", &["--coverage"]);
    let par = check_stdout("models/priority_buffer.smv", &["--coverage", "--jobs", "4"]);
    assert_eq!(table_rows(&seq).len(), 2, "two signals expected:\n{seq}");
    assert_eq!(strip_times(&seq), strip_times(&par), "output must match");
}

/// The observer effect: `--stats`, `--trace FILE` and `--progress` must
/// not change what `check` prints, node columns included, on any bundled
/// deck at `--jobs 1` or `--jobs 4`. Compared: stdout without its
/// ` - <time>` cells, the `--stats` summary, the `wrote PATH` lines and
/// trailing blank lines.
#[test]
fn observability_flags_do_not_change_check_output() {
    let stable = |stdout: &str| -> String {
        let body = stdout
            .lines()
            .take_while(|l| *l != "stats:")
            .filter(|l| !l.starts_with("wrote "))
            .collect::<Vec<_>>()
            .join("\n");
        strip_times(body.trim_end()).trim_end().to_owned()
    };
    let mut decks: Vec<String> = std::fs::read_dir(repo_root().join("models"))
        .expect("models directory")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "smv"))
        .map(|p| format!("models/{}", p.file_name().unwrap().to_string_lossy()))
        .collect();
    decks.sort();
    assert!(!decks.is_empty());
    for deck in &decks {
        let plain = stable(&check_stdout(deck, &["--coverage", "--traces", "1"]));
        assert!(plain.contains("%COV"), "{deck}: no table:\n{plain}");
        for jobs in ["1", "4"] {
            let trace = std::env::temp_dir().join(format!(
                "covest-observer-{}-{jobs}.jsonl",
                deck.replace('/', "_")
            ));
            let trace_arg = trace.to_str().unwrap().to_owned();
            let variants: [&[&str]; 4] =
                [&[], &["--stats"], &["--trace", &trace_arg], &["--progress"]];
            for extra in variants {
                let mut argv = vec!["--coverage", "--traces", "1", "--jobs", jobs];
                argv.extend_from_slice(extra);
                let got = stable(&check_stdout(deck, &argv));
                assert_eq!(plain, got, "{deck} {argv:?} changed the output");
            }
            let _ = std::fs::remove_file(&trace);
        }
    }
}

/// An unknown `--observed` signal fails the same way at every `--jobs`
/// value and under `--stats`: exit code 1 and byte-identical stderr.
#[test]
fn unknown_observed_signal_fails_the_same_everywhere() {
    let run = |extra: &[&str]| -> (Option<i32>, String) {
        let out = covest()
            .arg("check")
            .arg(repo_root().join("models/counter.smv"))
            .args(["--coverage", "--observed", "nope"])
            .args(extra)
            .output()
            .expect("runs");
        (
            out.status.code(),
            String::from_utf8_lossy(&out.stderr).into_owned(),
        )
    };
    let one = run(&["--jobs", "1"]);
    assert_eq!(one.0, Some(1), "{}", one.1);
    assert!(one.1.contains("nope"), "{}", one.1);
    assert_eq!(run(&["--jobs", "4"]), one, "--jobs 4");
    assert_eq!(run(&["--stats"]), one, "--stats");
}

/// Broken decks fail under `check --coverage` exactly as they always
/// have: same stdout, stderr and exit code, at one and four jobs. When
/// the coverage pool fails, the front end verifies the suite itself
/// before the pool's error is reported, so an undefined SPEC atom is
/// or fairness constraint is named by the front-end checker (not as a
/// per-signal analysis error), and a bad `--observed` signal still
/// follows the `[PASS]` lines.
#[test]
fn broken_decks_fail_the_same_under_coverage() {
    let dir = std::env::temp_dir();
    let write_deck = |name: &str, specs: &str| -> String {
        let path = dir.join(name);
        let deck = format!(
            "MODULE main\nVAR a : boolean;\n    b : boolean;\nASSIGN\n  \
             init(a) := FALSE;\n  next(a) := !a;\n  init(b) := FALSE;\n  \
             next(b) := a;\nSPEC AG (a -> AX b);\n{specs}\nOBSERVED b;\n"
        );
        std::fs::write(&path, deck).expect("write deck");
        path.to_str().expect("utf-8 path").to_owned()
    };
    let undefined = write_deck("covest-broken-undefined-atom.smv", "SPEC AG (zz -> AX b);");
    let non_actl = write_deck("covest-broken-non-actl.smv", "SPEC EG b;");
    let bad_fairness = dir.join("covest-broken-fairness.smv");
    std::fs::write(
        &bad_fairness,
        "MODULE main\nVAR a : boolean;\nASSIGN\n  init(a) := FALSE;\n  next(a) := !a;\n\
         FAIRNESS zz;\nOBSERVED a;\n",
    )
    .expect("write deck");
    let bad_fairness = bad_fairness.to_str().expect("utf-8 path").to_owned();
    let parse_error = repo_root().join("models/lint_fixtures/parse_error.smv");
    let parse_error = parse_error.to_str().expect("utf-8 path").to_owned();
    let counter = repo_root().join("models/counter.smv");
    let counter = counter.to_str().expect("utf-8 path").to_owned();
    let counter_passes: String = (0..5)
        .map(|k| {
            format!(
                "[PASS] SPEC AG ((((!(stall) & !(reset)) & count = {k}) & count < 5) \
                 -> AX count = {})\n",
                k + 1
            )
        })
        .collect();
    // (argv after `check`, stdout, stderr), all exiting 1.
    let cases: Vec<(Vec<&str>, String, String)> = vec![
        (
            vec![&undefined, "--coverage"],
            format!(
                "model `{undefined}`: 2 state bits, 2 properties, 0 fairness constraints, \
                 image method `part` (1 clusters), simplify `restrict`\n\
                 reorder (sift): 13 -> 11 live nodes (20 swaps)\n\
                 [PASS] SPEC AG (a -> AX b)\n"
            ),
            "error: unknown signal `zz`\n".to_owned(),
        ),
        (
            vec![&bad_fairness, "--coverage"],
            format!(
                "model `{bad_fairness}`: 1 state bits, 0 properties, 1 fairness constraints, \
                 image method `part` (1 clusters), simplify `restrict`\n\
                 reorder (sift): 5 -> 5 live nodes (0 swaps)\n"
            ),
            "error: unknown signal `zz`\n".to_owned(),
        ),
        (
            vec![&non_actl, "--coverage"],
            String::new(),
            "error: model error: SPEC `EG b`: formula outside the acceptable ACTL subset: \
             E... (existential path quantifiers are not universal (ACTL) formulas)\n"
                .to_owned(),
        ),
        (
            vec![&parse_error, "--coverage"],
            String::new(),
            "error: model error at 5:1: expected `;`\n".to_owned(),
        ),
        (
            vec![&counter, "--coverage", "--observed", "nope"],
            format!(
                "model `{counter}`: 5 state bits, 5 properties, 0 fairness constraints, \
                 image method `part` (1 clusters), simplify `restrict`\n\
                 reorder (sift): 75 -> 52 live nodes (132 swaps)\n{counter_passes}"
            ),
            format!(
                "error: planning `{counter}`: model error: OBSERVED signal `nope` is not defined\n"
            ),
        ),
    ];
    for (argv, stdout, stderr) in &cases {
        for jobs in ["1", "4"] {
            let out = covest()
                .arg("check")
                .args(argv)
                .args(["--jobs", jobs])
                .output()
                .expect("runs");
            let context = format!("check {argv:?} --jobs {jobs}");
            assert_eq!(out.status.code(), Some(1), "{context}");
            assert_eq!(String::from_utf8_lossy(&out.stdout), *stdout, "{context}");
            assert_eq!(String::from_utf8_lossy(&out.stderr), *stderr, "{context}");
        }
    }
    for path in [undefined, bad_fairness, non_actl] {
        let _ = std::fs::remove_file(path);
    }
}

/// With `--coverage` the verdicts come from the coverage shards and the
/// front end checks only failing specs, for their counterexamples; the
/// verification lines (counterexamples included) must be exactly what
/// plain `check` prints, on every bundled deck and engine mode.
#[test]
fn coverage_keeps_the_verification_lines_of_plain_check() {
    for deck in [
        "models/counter.smv",
        "models/pipeline.smv",
        "models/priority_buffer.smv",
        "models/priority_buffer_buggy.smv",
    ] {
        for extra in [
            &[][..],
            &["--simplify", "off"],
            &["--reorder", "auto", "--image", "mono"],
        ] {
            let plain = check_stdout(deck, extra);
            let mut argv = vec!["--coverage"];
            argv.extend_from_slice(extra);
            let coverage = check_stdout(deck, &argv);
            assert!(
                coverage.starts_with(&plain),
                "{deck} {extra:?}: verification lines differ:\n{plain}\n---\n{coverage}"
            );
        }
    }
    let buggy = check_stdout("models/priority_buffer_buggy.smv", &["--coverage"]);
    assert!(
        buggy.contains("[FAIL]") && buggy.contains("step 0: "),
        "{buggy}"
    );
}

/// `--coi off` is honored at `--jobs 1`: the full-deck shard builds
/// larger BDDs than the pruned cone deck on the priority buffer, while
/// every other column stays the same.
#[test]
fn coi_off_changes_node_columns_at_one_job() {
    let on = check_stdout("models/priority_buffer.smv", &["--coverage", "--jobs", "1"]);
    let off = check_stdout(
        "models/priority_buffer.smv",
        &["--coverage", "--jobs", "1", "--coi", "off"],
    );
    let (on_rows, off_rows) = (table_rows(&on), table_rows(&off));
    assert_eq!(on_rows.len(), 2, "two signals expected:\n{on}");
    assert_ne!(on_rows, off_rows, "--coi off must change the node columns");
    // Identity and %COV columns: all but the two node counts.
    let identity = |rows: &[String]| -> Vec<Vec<String>> {
        rows.iter()
            .map(|r| {
                let tokens: Vec<&str> = r.split_whitespace().collect();
                tokens[..tokens.len() - 2]
                    .iter()
                    .map(|t| t.to_string())
                    .collect()
            })
            .collect()
    };
    assert_eq!(identity(&on_rows), identity(&off_rows));
}

#[test]
fn check_json_reports_rows_and_verdicts() {
    let json_path = std::env::temp_dir().join("covest-check-test.json");
    let _ = std::fs::remove_file(&json_path);
    let stdout = check_stdout(
        "models/counter.smv",
        &["--coverage", "--json", json_path.to_str().unwrap()],
    );
    assert!(stdout.contains("wrote "), "{stdout}");
    let json = std::fs::read_to_string(&json_path).expect("json written");
    assert!(json.contains("\"signal\": \"count\""), "{json}");
    assert!(json.contains("\"percent\": 83.33333333333333"), "{json}");
    assert!(json.contains("\"formula\": \"AG ("), "{json}");
    assert!(json.contains("\"holds\": true"), "{json}");
    assert!(json.contains("\"uncovered\": [\""), "{json}");
    let _ = std::fs::remove_file(&json_path);
}

/// Writes a joblist over every bundled deck (relative paths, exercising
/// joblist-directory resolution) and returns its path.
fn write_joblist(name: &str) -> std::path::PathBuf {
    let dir = repo_root().join("models");
    let joblist = std::env::temp_dir().join(name);
    let lines: String = [
        "# every bundled deck, by absolute path",
        "counter.smv",
        "pipeline.smv",
        "priority_buffer.smv",
        "priority_buffer_buggy.smv",
    ]
    .iter()
    .map(|l| {
        if l.starts_with('#') {
            format!("{l}\n")
        } else {
            format!("{}\n", dir.join(l).display())
        }
    })
    .collect();
    std::fs::write(&joblist, lines).expect("write joblist");
    joblist
}

/// `covest batch` output carries no timings or node counts, so two runs
/// with different thread budgets must be byte-identical — and the JSON
/// must be identical outside the `_ms` fields.
#[test]
fn batch_is_byte_identical_across_job_counts() {
    let joblist = write_joblist("covest-batch-parity.txt");
    let run = |jobs: &str, json: &std::path::Path| -> String {
        let out = covest()
            .arg("batch")
            .arg(&joblist)
            .args(["--jobs", jobs, "--json", json.to_str().unwrap()])
            .output()
            .expect("runs");
        assert!(out.status.success(), "batch --jobs {jobs} fails");
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let json1 = std::env::temp_dir().join("covest-batch-1.json");
    let json4 = std::env::temp_dir().join("covest-batch-4.json");
    let out1 = run("1", &json1);
    let out4 = run("4", &json4);
    // Stdout: identical except the `wrote <path>` trailer.
    let body = |s: &str| -> Vec<String> {
        s.lines()
            .filter(|l| !l.starts_with("wrote "))
            .map(str::to_owned)
            .collect()
    };
    assert_eq!(
        body(&out1),
        body(&out4),
        "batch stdout must not depend on --jobs"
    );
    assert!(out4.contains("batch: 4 decks, 6 signal analyses"), "{out4}");
    assert!(out4.contains("83.33% covered"), "{out4}");
    assert!(out4.contains("[FAIL]"), "the buggy deck must fail:\n{out4}");
    assert!(out4.contains("uncovered: "), "{out4}");

    // JSON: identical outside the timing fields.
    let scrub = |p: &std::path::Path| -> String {
        let mut s = std::fs::read_to_string(p).expect("json written");
        for key in ["\"verify_ms\": ", "\"coverage_ms\": "] {
            while let Some(at) = s.find(key) {
                let start = at + key.len();
                let end = start
                    + s[start..]
                        .find(|c: char| !(c.is_ascii_digit() || c == '.'))
                        .unwrap();
                s.replace_range(at..end, "");
            }
        }
        s
    };
    assert_eq!(
        scrub(&json1),
        scrub(&json4),
        "batch JSON must not depend on --jobs"
    );
    for p in [joblist, json1, json4] {
        let _ = std::fs::remove_file(p);
    }
}

/// The observer effect for `batch`: `--stats`, `--trace FILE` and
/// `--progress` must not change its stdout, at `--jobs 1` or `--jobs 4`.
/// Compared: stdout without the `--stats` summary, the `wrote PATH`
/// lines and trailing blank lines.
#[test]
fn observability_flags_do_not_change_batch_output() {
    let joblist = write_joblist("covest-batch-observer.txt");
    let stable = |stdout: &[u8]| -> String {
        String::from_utf8_lossy(stdout)
            .lines()
            .take_while(|l| *l != "stats:")
            .filter(|l| !l.starts_with("wrote "))
            .collect::<Vec<_>>()
            .join("\n")
            .trim_end()
            .to_owned()
    };
    let run = |argv: &[&str]| -> String {
        let out = covest()
            .arg("batch")
            .arg(&joblist)
            .args(argv)
            .output()
            .expect("runs");
        assert!(out.status.success(), "batch {argv:?} fails");
        stable(&out.stdout)
    };
    let plain = run(&[]);
    assert!(plain.contains("batch: 4 decks"), "{plain}");
    for jobs in ["1", "4"] {
        let trace = std::env::temp_dir().join(format!("covest-batch-observer-{jobs}.jsonl"));
        let trace_arg = trace.to_str().unwrap().to_owned();
        let variants: [&[&str]; 4] = [&[], &["--stats"], &["--trace", &trace_arg], &["--progress"]];
        for extra in variants {
            let mut argv = vec!["--jobs", jobs];
            argv.extend_from_slice(extra);
            assert_eq!(plain, run(&argv), "batch {argv:?} changed the output");
        }
        let _ = std::fs::remove_file(&trace);
    }
    let _ = std::fs::remove_file(joblist);
}

#[test]
fn batch_strict_fails_when_any_deck_fails() {
    let joblist = write_joblist("covest-batch-strict.txt");
    let out = covest()
        .arg("batch")
        .arg(&joblist)
        .args(["--strict", "--jobs", "2"])
        .output()
        .expect("runs");
    assert!(
        !out.status.success(),
        "the buggy deck must fail strict batch mode"
    );
    let _ = std::fs::remove_file(joblist);
}

#[test]
fn batch_rejects_missing_deck() {
    let joblist = std::env::temp_dir().join("covest-batch-missing.txt");
    std::fs::write(&joblist, "does-not-exist.smv\n").expect("write joblist");
    let out = covest().arg("batch").arg(&joblist).output().expect("runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cannot read deck"), "{stderr}");
    let _ = std::fs::remove_file(joblist);
}

#[test]
fn bad_jobs_value_is_rejected() {
    let out = covest()
        .arg("check")
        .arg(repo_root().join("models/counter.smv"))
        .args(["--jobs", "many"])
        .output()
        .expect("runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--jobs expects a thread count"), "{stderr}");
}

#[test]
fn usage_on_bad_arguments() {
    let out = covest().arg("frobnicate").output().expect("runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage:"), "{stderr}");
}

#[test]
fn missing_file_reports_error() {
    let out = covest()
        .arg("check")
        .arg("does-not-exist.smv")
        .output()
        .expect("runs");
    assert!(!out.status.success());
}

/// The `--stats` summary above the `-- timings --` marker holds only
/// deterministic counters, so it must be byte-identical between a
/// sequential and a 4-thread run (the timings below the marker are
/// wall-clock and legitimately differ).
#[test]
fn stats_summary_is_byte_identical_across_job_counts() {
    let section = |jobs: &str| -> String {
        let stdout = check_stdout(
            "models/counter.smv",
            &["--coverage", "--stats", "--jobs", jobs],
        );
        let start = stdout.find("stats:").expect("stats section present");
        let end = stdout
            .find("-- timings --")
            .expect("timings marker present");
        assert!(start < end, "marker precedes stats:\n{stdout}");
        stdout[start..end].to_owned()
    };
    let seq = section("1");
    let par = section("4");
    assert!(seq.contains("bdd_peak_live_nodes"), "{seq}");
    assert!(seq.contains("image_calls"), "{seq}");
    assert!(seq.contains("signals count"), "{seq}");
    assert_eq!(seq, par, "stats counters must not depend on --jobs");
}

/// `--trace FILE` writes a JSONL span log covering the compile, the
/// reachability fixpoint (with per-step events), and every per-signal
/// coverage fixpoint.
#[test]
fn trace_log_covers_the_run_phases() {
    let trace = std::env::temp_dir().join("covest-trace-test.jsonl");
    let _ = std::fs::remove_file(&trace);
    let stdout = check_stdout(
        "models/counter.smv",
        &["--coverage", "--trace", trace.to_str().unwrap()],
    );
    assert!(stdout.contains("wrote "), "{stdout}");
    let log = std::fs::read_to_string(&trace).expect("trace written");
    for needle in [
        "\"name\":\"compile\"",
        "\"name\":\"reachability\"",
        "\"name\":\"bfs_step\"",
        "\"name\":\"care_install\"",
        "\"name\":\"signal:count\"",
        "\"name\":\"verify\"",
        "\"name\":\"coverage\"",
    ] {
        assert!(log.contains(needle), "missing {needle} in:\n{log}");
    }
    // Every line parses as a record with the fixed field set.
    for line in log.lines() {
        assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        for key in ["\"type\"", "\"id\"", "\"name\"", "\"start_us\""] {
            assert!(line.contains(key), "missing {key} in {line}");
        }
    }
    let _ = std::fs::remove_file(&trace);
}

/// With `--stats --json`, the JSON document gains a `stats` object whose
/// counters match across job counts (the `*_ms` fields are wall-clock
/// and are scrubbed before comparing).
#[test]
fn json_stats_object_is_deterministic() {
    let run = |jobs: &str, path: &std::path::Path| -> String {
        check_stdout(
            "models/counter.smv",
            &[
                "--coverage",
                "--stats",
                "--jobs",
                jobs,
                "--json",
                path.to_str().unwrap(),
            ],
        );
        std::fs::read_to_string(path).expect("json written")
    };
    let p1 = std::env::temp_dir().join("covest-stats-1.json");
    let p4 = std::env::temp_dir().join("covest-stats-4.json");
    let j1 = run("1", &p1);
    let j4 = run("4", &p4);
    assert!(j1.contains("\"stats\": {"), "{j1}");
    assert!(j1.contains("\"front_end\": {"), "{j1}");
    assert!(j1.contains("\"bdd_peak_live_nodes\":"), "{j1}");
    let scrub = |s: &str| -> String {
        let mut s = s.to_owned();
        for key in [
            "\"verify_ms\": ",
            "\"coverage_ms\": ",
            "\"queue_ms\": ",
            "\"compile_ms\": ",
            "\"reach_ms\": ",
            "\"solve_ms\": ",
            "\"plan_ms\": ",
        ] {
            while let Some(at) = s.find(key) {
                let start = at + key.len();
                let end = start
                    + s[start..]
                        .find(|c: char| !(c.is_ascii_digit() || c == '.'))
                        .unwrap();
                s.replace_range(at..end, "");
            }
        }
        s
    };
    assert_eq!(
        scrub(&j1),
        scrub(&j4),
        "json stats must not depend on --jobs"
    );
    for p in [p1, p4] {
        let _ = std::fs::remove_file(p);
    }
}

/// `--trace-format chrome` streams a Chrome trace-event JSON array:
/// square-bracketed, comma-separated objects, `thread_name` metadata
/// for the worker and front-end tracks, and complete (`ph:"X"`) events
/// for the run's phases. `ui.perfetto.dev` ingests exactly this shape.
#[test]
fn chrome_trace_is_a_perfetto_loadable_array() {
    let trace = std::env::temp_dir().join("covest-trace-test-chrome.json");
    let _ = std::fs::remove_file(&trace);
    let stdout = check_stdout(
        "models/priority_buffer.smv",
        &[
            "--coverage",
            "--jobs",
            "4",
            "--trace",
            trace.to_str().unwrap(),
            "--trace-format",
            "chrome",
        ],
    );
    assert!(stdout.contains("wrote "), "{stdout}");
    let log = std::fs::read_to_string(&trace).expect("trace written");
    let body = log.trim();
    assert!(body.starts_with('[') && body.ends_with(']'), "{body}");
    for needle in [
        "\"ph\":\"M\"",
        "\"name\":\"thread_name\"",
        "\"args\":{\"name\":\"worker 0\"}",
        "\"args\":{\"name\":\"front-end\"}",
        "\"ph\":\"X\"",
        "\"name\":\"compile\"",
        "\"name\":\"signal:hi_cnt\"",
        "\"signals\":\"hi_cnt+lo_cnt\"",
        "\"stolen\":",
        "\"mem_peak_close\":",
    ] {
        assert!(log.contains(needle), "missing {needle} in:\n{log}");
    }
    // Structural JSON-array check without a parser: every event line is
    // one object, comma-terminated except the last.
    let lines: Vec<&str> = body.lines().collect();
    assert!(lines.len() > 3, "trace has events");
    for line in &lines[1..lines.len() - 1] {
        assert!(line.starts_with('{'), "{line}");
        assert!(line.ends_with("},") || line.ends_with('}'), "{line}");
    }
    let _ = std::fs::remove_file(&trace);
}

/// `--progress` emits heartbeat lines on stderr naming the phase,
/// iteration, BDD size and support width; stdout stays byte-identical
/// to a run without the flag.
#[test]
fn progress_heartbeat_lands_on_stderr_only() {
    let deck = repo_root().join("models/priority_buffer.smv");
    let with = covest()
        .arg("check")
        .arg(&deck)
        .args(["--coverage", "--progress"])
        .output()
        .expect("runs");
    assert!(with.status.success());
    let stderr = String::from_utf8_lossy(&with.stderr);
    assert!(stderr.contains("progress["), "no heartbeat in:\n{stderr}");
    assert!(
        stderr.contains("reach iter=") && stderr.contains(" size=") && stderr.contains(" support="),
        "heartbeat lacks fixpoint gauges:\n{stderr}"
    );
    let without = covest()
        .arg("check")
        .arg(&deck)
        .arg("--coverage")
        .output()
        .expect("runs");
    // The coverage table prints a wall-clock time after each " - ", so
    // compare stdout with every " - <time>" stripped (not with the lines
    // holding "ms" dropped: a fast host prints every time in µs).
    let stable = |out: &[u8]| -> String {
        String::from_utf8_lossy(out)
            .lines()
            .map(|l| {
                let mut parts = l.split(" - ");
                let mut kept = parts.next().unwrap_or_default().to_owned();
                for part in parts {
                    kept.push_str(part.trim_start_matches(|c: char| c != ' '));
                }
                kept
            })
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(
        stable(&with.stdout),
        stable(&without.stdout),
        "--progress must not perturb stdout"
    );
}

/// `--stats` surfaces the per-phase peak-live attribution: the shard
/// table's maximum must equal the shard's `bdd_peak_live_nodes` counter
/// (the acceptance reconciliation), and the explicit peak/reorder line
/// rides along.
#[test]
fn stats_peak_table_reconciles_with_high_water_counter() {
    let stdout = check_stdout(
        "models/counter.smv",
        &["--coverage", "--stats", "--jobs", "4"],
    );
    let start = stdout.find("stats:").expect("stats section");
    let section = &stdout[start..];
    assert!(section.contains("peak-live by phase"), "{section}");
    assert!(section.contains("peak live "), "{section}");
    assert!(section.contains("  reorder "), "{section}");

    // Parse the *shard* block: its counters (including the high-water
    // mark) followed by its peak table.
    let shard_at = section.find("  shard ").expect("shard block");
    let shard = &section[shard_at..];
    let peak_counter: u64 = shard
        .lines()
        .find(|l| l.trim_start().starts_with("bdd_peak_live_nodes"))
        .and_then(|l| l.split_whitespace().last())
        .expect("bdd_peak_live_nodes line")
        .parse()
        .expect("counter parses");
    let table_at = shard.find("peak-live by phase").expect("peak table");
    let table_max = shard[table_at..]
        .lines()
        .skip(1)
        .take_while(|l| l.starts_with("      "))
        .filter_map(|l| l.split_whitespace().last())
        .filter_map(|v| v.parse::<u64>().ok())
        .max()
        .expect("table rows");
    assert_eq!(
        table_max, peak_counter,
        "peak table max must equal bdd_peak_live_nodes:\n{shard}"
    );
}
