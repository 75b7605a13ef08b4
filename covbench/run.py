#!/usr/bin/env python3
"""The covest benchmark: drives the real `covest-cli` binary on seeded
workloads, checks every verdict and coverage row against known answers,
and prints the metrics as one JSON object on the last line of stdout.

    python3 covbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 covbench/run.py --steady RUNS [--workload NAME] [--seconds S]

`--trace 0` measures end to end: a closed loop with one client, where
the next CLI invocation starts after the previous one exits, for S
seconds. Its times are reported at reference host speed (see
host_speedup). `--trace 1` measures layer by layer: the same invocation
plain and under `--stats`, and a traced in-process replay (`covbench replay`)
of the layer calls the CLI makes. `--steady` runs each workload RUNS
times on seeds 1..RUNS and prints each end-to-end metric's median and
quartiles.

The program is built from source in the checkout (into
`$CARGO_TARGET_DIR`, default `.bench_build`); generated decks go to
`.bench_work`. See BENCHMARK.json for why each workload exists.
"""

import argparse
import difflib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(BENCH)
TARGET = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
WORK = os.path.join(REPO, ".bench_work")
CLI = os.path.join(TARGET, "release", "covest-cli")
COVBENCH = os.path.join(TARGET, "release", "covbench")
CALIB = os.path.join(TARGET, "release", "calib")

# The calibration's time at reference host speed: about what it takes
# on one vCPU of an idle 2-vCPU Xeon (Sapphire Rapids) KVM guest. It
# only sets the unit; every gated comparison is a ratio.
CALIB_REF_S = 0.1
# How covest's speed follows the calibration's: under the same host
# contention covest slows by about the square root of the calibration's
# slowdown. Fitted on a 2-vCPU KVM guest over nine series (~700
# invocations of the three workloads, each followed by a calibration):
# the spread (IQR over median) of the median wall time of 6-14
# invocation windows averaged 0.16 uncorrected (worst 0.29), 0.14 with
# exponent 1 (worst 0.28) and 0.07 with 0.5 (worst 0.10).
HOST_EXPONENT = 0.5

# Set-ups per measured run; setup_s is their median.
SETUPS = 3
# A measured run makes at least this many invocations, whatever S is.
MIN_INVOCATIONS = 3
# One invocation that runs longer than this counts as timed out.
INVOCATION_TIMEOUT_S = 60

# The decks and the CLI arguments of each workload come from
# `covbench gen` (covbench/src/decks.rs).
WORKLOADS = ["pipeline_check", "fleet_batch", "arbiter_check"]

# Metric names and units, as BENCHMARK.json declares them.
with open(os.path.join(REPO, "BENCHMARK.json")) as _f:
    _SPEC = json.load(_f)
END_TO_END = [(m["name"], m["unit"]) for m in _SPEC["end_to_end"]]
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def die(msg):
    log(f"covbench: {msg}")
    sys.exit(2)


def cargo_env():
    env = dict(os.environ)
    env["CARGO_TARGET_DIR"] = TARGET
    return env


def build():
    if not (os.path.isfile(os.path.join(REPO, "Cargo.toml"))
            and os.path.isdir(os.path.join(REPO, "crates", "cli"))):
        die(f"{REPO} is not a covest checkout (no Cargo.toml / crates/cli)")
    for manifest, extra in [(os.path.join(REPO, "Cargo.toml"), ["-p", "covest-cli"]),
                            (os.path.join(BENCH, "Cargo.toml"), [])]:
        cmd = ["cargo", "build", "--release", "--offline", "-q",
               "--manifest-path", manifest] + extra
        if subprocess.run(cmd, env=cargo_env(), stdout=sys.stderr).returncode != 0:
            die("build failed: " + " ".join(cmd))


def invoke(argv, cwd, out_path):
    """Runs one process in `cwd` to completion; returns (wall, cpu,
    rss_mb, exit code or None on timeout)."""
    with open(out_path, "w") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, stdout=out, stderr=subprocess.DEVNULL)
        timer = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
        timer.start()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    code = None if proc.returncode < 0 else proc.returncode
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, code


def covbench(*args):
    proc = subprocess.run([COVBENCH, *args], capture_output=True, text=True,
                          timeout=INVOCATION_TIMEOUT_S)
    if proc.returncode != 0:
        die(f"covbench {' '.join(args)}: {proc.stderr.strip()}")
    return proc.stdout


def calibrate():
    """Runs the host-speed calibration (covbench/src/bin/calib.rs, a
    fixed BDD build that shares no code with covest); returns its time."""
    proc = subprocess.run([CALIB], capture_output=True, text=True,
                          timeout=INVOCATION_TIMEOUT_S)
    if proc.returncode != 0:
        die(f"calib: {proc.stderr.strip()}")
    return float(proc.stdout.split()[0])


def host_speedup(calibrations):
    """The factor that takes a time measured on this host, while these
    calibrations ran, to reference speed. A shared host's speed swings
    by up to 2x over minutes, and a slow spell slows every CPU-bound
    process; the run times the calibration after every set-up and every
    invocation, and scales its medians by this factor."""
    slowdown = statistics.median(calibrations) / CALIB_REF_S
    return slowdown ** -HOST_EXPONENT


def setup(workload, seed, tag):
    """Generates the decks and known answers, cross-checks the closed
    forms against the reference, and makes one warm-up invocation.
    Returns (seconds, deck dir, expected, argv, warm-up check)."""
    start = time.perf_counter()
    deck_dir = os.path.join(WORK, f"{workload}-s{seed}-{tag}")
    shutil.rmtree(deck_dir, ignore_errors=True)
    covbench("gen", workload, str(seed), deck_dir)
    covbench("crosscheck")
    with open(os.path.join(deck_dir, "expected.json")) as f:
        expected = json.load(f)
    argv = [CLI] + expected["argv"]
    warm = invoke(argv, deck_dir, os.path.join(deck_dir, "warmup.out"))
    with open(os.path.join(deck_dir, "warmup.out")) as f:
        checked = check_output(workload, f.read(), warm[3], expected)
    return time.perf_counter() - start, deck_dir, expected, argv, checked


# --- parsing CLI output -------------------------------------------------

VERDICT = re.compile(r"^\s*\[(PASS|FAIL)\] SPEC (.*)$")
CHECK_ROW = re.compile(r"^(\S+)?\s+(\S+)\s+(\d+)\s+(\d+\.\d\d)\s+\S+ - ")
BATCH_DECK = re.compile(r"^deck (\S+): (\d+) properties$")
BATCH_SIGNAL = re.compile(r"^  signal (\S+): (\d+\.\d\d)% covered \((\d+) of (\d+) states\)$")


def parse(workload, text):
    """Returns {deck: {"verdicts": [(formula, holds)], "signals":
    {name: (percent str, covered, space)}}} and the number of traces."""
    decks = {}
    if workload == "fleet_batch":
        cur = None
        for line in text.splitlines():
            m = BATCH_DECK.match(line)
            if m:
                cur = decks.setdefault(os.path.basename(m.group(1)),
                                       {"verdicts": [], "signals": {}})
                continue
            if cur is None:
                continue
            m = VERDICT.match(line)
            if m:
                cur["verdicts"].append((m.group(2), m.group(1) == "PASS"))
                continue
            m = BATCH_SIGNAL.match(line)
            if m:
                cur["signals"][m.group(1)] = (m.group(2), int(m.group(3)), int(m.group(4)))
        return decks, 0
    deck = {"verdicts": [], "signals": {}}
    in_table = False
    for line in text.splitlines():
        m = VERDICT.match(line)
        if m and not in_table:
            deck["verdicts"].append((m.group(2), m.group(1) == "PASS"))
        elif "%COV" in line:
            in_table = True
        elif in_table:
            m = CHECK_ROW.match(line)
            if m:
                deck["signals"][m.group(2)] = (m.group(4), None, None)
    return deck, text.count("trace to uncovered state:")


def expected_percent(sig):
    if sig["covered"] is None:
        return "100.00"
    return f"{100.0 * sig['covered'] / sig['space']:.2f}"


def check_deck(exp, got):
    """Returns (attempted, failed, correct signal rows) for one deck."""
    attempted = exp["specs"] + len(exp["signals"])
    if got is None:
        return attempted, attempted, 0
    failed = abs(len(got["verdicts"]) - exp["specs"])
    failing = set(exp["failing"])
    failed += sum(1 for formula, holds in got["verdicts"] if holds == (formula in failing))
    correct = 0
    for sig in exp["signals"]:
        row = got["signals"].get(sig["name"])
        ok = row is not None and row[0] == expected_percent(sig)
        if ok and row[1] is not None:
            if sig["covered"] is None:
                ok = row[1] == row[2] and row[2] > 0
            else:
                ok = row[1] * sig["space"] == row[2] * sig["covered"]
        correct += ok
        failed += not ok
    return attempted, min(failed, attempted), correct


def check_output(workload, text, code, expected):
    """Checks one invocation's output; returns (attempted, failed,
    correct signal rows). A crash, timeout or non-zero exit fails every
    row. The fleet's buggy deck fails a property by design; without
    `--strict` the CLI still exits 0."""
    decks, traces = parse(workload, text)
    attempted = failed = correct = 0
    for exp in expected["decks"]:
        if code != 0:
            got, traces = None, -1
        elif workload == "fleet_batch":
            got = decks.get(exp["file"])
        else:
            got = decks
        a, f, c = check_deck(exp, got)
        attempted, failed, correct = attempted + a, failed + f, correct + c
    if expected["traces"]:
        # Every signal is partially covered, so each gets N traces.
        want = expected["traces"] * sum(len(d["signals"]) for d in expected["decks"])
        attempted += 1
        failed += traces != want
    return attempted, failed, correct


# --- measured runs --------------------------------------------------------

def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def end_to_end(workload, seed, seconds):
    setups, calibrations = [], []
    attempted = failed = 0
    for i in range(SETUPS):
        secs, deck_dir, expected, argv, (a, fl, _) = setup(workload, seed, f"setup{i}")
        setups.append(secs)
        calibrations.append(calibrate())
        attempted, failed = attempted + a, failed + fl
    out_path = os.path.join(deck_dir, "run.out")
    walls, cpus, rss, rates = [], [], [], []
    deadline = time.perf_counter() + seconds
    while len(walls) < MIN_INVOCATIONS or time.perf_counter() < deadline:
        wall, cpu, mb, code = invoke(argv, deck_dir, out_path)
        calibrations.append(calibrate())
        with open(out_path) as f:
            a, fl, c = check_output(workload, f.read(), code, expected)
        walls.append(wall)
        cpus.append(cpu)
        rss.append(mb)
        rates.append(c / wall)
        attempted, failed = attempted + a, failed + fl
    speedup = host_speedup(calibrations)
    metrics = {  # keyed as BENCHMARK.json's end_to_end
        "wall_s": statistics.median(walls) * speedup,
        "cpu_s": statistics.median(cpus) * speedup,
        "peak_rss_mb": statistics.median(rss),
        "signals_per_s": statistics.median(rates) / speedup,
        "setup_s": statistics.median(setups) * speedup,
    }
    log(f"{workload}: {len(walls)} invocations, fail_ratio {failed / attempted} "
        f"({failed} of {attempted} rows); times below are at reference speed, "
        f"measured ones times {speedup:.4f}")
    log("  measured wall_s " + " ".join(f"{w:.3f}" for w in walls))
    log("  calibration_s   " + " ".join(f"{c:.3f}" for c in calibrations))
    for name, unit in END_TO_END:
        log(f"  {name:<14} {metrics[name]:.6g} {unit}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END},
    }


def timing_free(text):
    """The output with everything wall-clock removed: the table's
    `- 1.23ms` columns and the `--stats` summary."""
    text = text.split("\nstats:\n")[0]
    return [re.sub(r" - [\d.]+(ns|µs|ms|s)\b", "", line) for line in text.splitlines()]


def traced(workload, seed, seconds):
    _, deck_dir, expected, argv, (attempted, failed, _) = setup(workload, seed, "trace")
    plain_walls, plain_cpus, stats_walls, diffs, replays = [], [], [], [], []
    calibrations = []
    deadline = time.perf_counter() + seconds
    while len(replays) < 2 or time.perf_counter() < deadline:
        outputs = []
        for extra, walls in [([], plain_walls), (["--stats"], stats_walls)]:
            path = os.path.join(deck_dir, "trace.out")
            wall, cpu, _, code = invoke(argv + extra, deck_dir, path)
            if not extra:
                plain_cpus.append(cpu)
                calibrations.append(calibrate())
            with open(path) as f:
                text = f.read()
            a, fl, _ = check_output(workload, text, code, expected)
            attempted, failed = attempted + a, failed + fl
            walls.append(wall)
            outputs.append(text)
        plain, stats = (timing_free(t) for t in outputs)
        diffs.append(sum(1 for line in difflib.unified_diff(plain, stats, n=0)
                         if line[:1] in "+-" and line[:3] not in ("+++", "---")))
        replay = json.loads(covbench("replay", workload, deck_dir))
        attempted += 1
        failed += not same_results(workload, replay, outputs[0])
        replays.append(replay)

    # Count determinism: every count-derived bdd/fsm/mc metric must repeat
    # exactly across replays of the same seed.
    counts = [{k: v for k, v in r["metrics"].items()
               if k.split(".")[0] in ("bdd", "fsm", "mc") and not k.endswith("_s")}
              for r in replays]
    attempted += 1
    if any(c != counts[0] for c in counts[1:]):
        failed += 1
        log(f"{workload}: counts differ across replays: {counts}")

    metrics = {}
    for name in replays[0]["metrics"]:
        metrics[name] = statistics.median(r["metrics"][name] for r in replays)
    plain_wall = statistics.median(plain_walls)
    metrics["telemetry.stats_wall_ratio"] = statistics.median(stats_walls) / plain_wall
    metrics["telemetry.stats_diff_lines"] = statistics.median(diffs)
    metrics["trace.overhead_ratio"] = statistics.median(r["wall_s"] for r in replays) / plain_wall
    metrics["trace.unattributed_ratio"] = statistics.median(
        r["unattributed_ratio"] for r in replays)
    metrics["cli.wall_s"] = plain_wall
    metrics["cli.cpu_s"] = statistics.median(plain_cpus)
    metrics["host.slowdown_ratio"] = statistics.median(calibrations) / CALIB_REF_S
    if set(metrics) != set(PER_LAYER):
        die(f"replay metrics {sorted(set(metrics) ^ set(PER_LAYER))} disagree with BENCHMARK.json")
    log(f"{workload}: {len(replays)} replays, {len(plain_walls)} plain and --stats invocations")
    for name, unit in PER_LAYER.items():
        log(f"  {name:<28} {metrics[name]:.6g} {unit}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in PER_LAYER.items()},
    }


def same_results(workload, replay, cli_text):
    """The replay must reach the CLI's verdicts and coverage: same
    formulas and verdicts, same percentages, and, where the CLI prints
    state counts, the same counts; same number of traces."""
    decks, traces = parse(workload, cli_text)
    if workload != "fleet_batch":
        decks = {r["name"]: decks for r in replay["results"]}
        if traces != replay["traces"]:
            return False
    for r in replay["results"]:
        got = decks.get(os.path.basename(r["name"]))
        if got is None or [(f, h) for f, h in r["verdicts"]] != got["verdicts"]:
            return False
        for name, percent, covered, space in r["signals"]:
            row = got["signals"].get(name)
            if row is None or row[0] != f"{percent:.2f}":
                return False
            if row[1] is not None and (row[1], row[2]) != (int(covered), int(space)):
                return False
    return True


def steady(runs, workloads, seconds):
    """Runs each workload `runs` times on seeds 1..runs and prints each
    end-to-end metric's median, quartiles and spread (IQR / median)."""
    for workload in workloads:
        values, fails, attempted = {}, 0, 0
        for seed in range(1, runs + 1):
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                capture_output=True, text=True)
            if proc.returncode != 0:
                die(f"{workload} seed {seed} failed:\n{proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            fails += result["failed"]
            attempted += result["attempted"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"{workload}: {runs} runs")
        print(f"  {'fail_ratio':<14} {fails / attempted:.6g} ratio  ({fails} of {attempted} rows)")
        for name, unit in END_TO_END:
            q1, med, q3 = quartiles(values[name])
            print(f"  {name:<14} median {med:.6g} {unit}  q1 {q1:.6g}  q3 {q3:.6g}  "
                  f"spread {(q3 - q1) / med:.4f}  runs "
                  + " ".join(f"{v:.4g}" for v in values[name]))
        sys.stdout.flush()


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steady", type=int, metavar="RUNS")
    args = ap.parse_args()
    build()
    if args.steady:
        steady(args.steady, [args.workload] if args.workload else WORKLOADS,
               args.seconds)
        return
    if args.workload is None:
        ap.error("--workload is required")
    run = traced if args.trace else end_to_end
    print(json.dumps(run(args.workload, args.seed, args.seconds)))


if __name__ == "__main__":
    main()
