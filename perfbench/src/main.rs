//! Serving-path benchmark for `d2tree serve`.
//!
//! ```text
//! cargo run --release -q --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> [--seed 42] [--seconds 10] [--trace 0|1]
//! cargo run --release -q --offline --manifest-path perfbench/Cargo.toml -- --self-test
//! ```
//!
//! Run from the root of a checkout. It builds the release `d2tree` binary,
//! starts `d2tree serve` for the workload, drives it from two client
//! connections, checks every answer, and prints each metric with its
//! unit. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}` — the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! Any failed check exits non-zero without that line. See README.md.

mod client;
mod daemon;
mod inproc;
mod spec;
mod sys;

use std::collections::BTreeMap;
use std::fs;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use d2tree_cluster::{MetricsDoc, NetMds};
use d2tree_core::{D2TreeConfig, D2TreeScheme, LocalIndex, Partitioner};
use d2tree_metrics::{Assignment, ClusterSpec, MdsId};
use d2tree_namespace::AttrTable;
use d2tree_store::{MdsStore, StoreConfig};
use d2tree_telemetry::{names, Histogram, Registry};
use d2tree_workload::WorkloadBuilder;

use client::{quantile_us, Conn, PhaseStats};
use daemon::Daemon;
use spec::{Metric, Pacing, Workload, CONNS, END_TO_END, GL_PROPORTION, PER_LAYER, WORKLOADS};

/// Daemon start-ups per run: at least `MIN_SPAWNS`, more (up to
/// `MAX_SPAWNS`) while they have taken under `SPAWN_BUDGET` in total.
/// `setup_s` is their median; a fast start-up gets more samples.
const MIN_SPAWNS: usize = 5;
const MAX_SPAWNS: usize = 15;
const SPAWN_BUDGET: Duration = Duration::from_secs(2);

/// In-process derivations a traced run times for `setup.*`.
const DERIVATIONS: usize = 3;

/// Starts the error of a run refused because its open-loop generator
/// fell behind its schedule.
const GENERATOR_BEHIND: &str = "open-loop generator fell behind";

/// Scratch space (daemon stores, port files, logs, spans) in the checkout.
const WORK_DIR: &str = ".bench_work";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    self_test: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 42,
        seconds: 10,
        trace: false,
        self_test: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--self-test" {
            a.self_test = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {v}"))
        };
        match flag.as_str() {
            "--workload" => a.workload = value,
            "--seed" => a.seed = num(&value)?,
            "--seconds" => a.seconds = num(&value)?.max(1),
            "--trace" => a.trace = num(&value)? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn real_main() -> Result<(), String> {
    let args = parse_args()?;
    let root = std::env::current_dir().map_err(|e| format!("cwd: {e}"))?;
    if !args.self_test && spec::workload(&args.workload).is_none() {
        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!(
            "--workload must be one of {known:?}, got {:?}",
            args.workload
        ));
    }
    let bin = build_daemon(&root)?;
    if args.self_test {
        return self_test(&root, &bin, args.seed);
    }
    let w = spec::workload(&args.workload).expect("checked above");
    let report = run_workload(
        &root,
        &bin,
        &w,
        args.seed,
        Duration::from_secs(args.seconds),
        args.trace,
    )?;
    let table: &[Metric] = if args.trace { &PER_LAYER } else { &END_TO_END };
    println!("# {}: {}", w.name, w.why);
    for m in table {
        let (v, n) = report.metrics[m.name];
        println!("{:<28} {:>14.4} {:<14} ({n} samples)", m.name, v, m.unit);
    }
    if args.trace {
        println!("{}", report.budget);
    }
    println!("{}", run_record(&root, &w, &args, &report));
    println!("{}", result_line(table, &report));
    Ok(())
}

/// Builds the release `d2tree` binary of the checkout at `root` and
/// returns its path.
fn build_daemon(root: &Path) -> Result<PathBuf, String> {
    let manifest = root.join("Cargo.toml");
    if !manifest.is_file() || !root.join("crates").join("cli").is_dir() {
        return Err(format!(
            "{} is not the root of a d2tree checkout (no Cargo.toml and crates/cli)",
            root.display()
        ));
    }
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from(".bench_build"), PathBuf::from);
    let target = root.join(target);
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "d2tree-cli",
        ])
        .arg("--manifest-path")
        .arg(&manifest)
        .env("CARGO_TARGET_DIR", &target)
        .stdout(Stdio::from(std::io::stderr()))
        .status()
        .map_err(|e| format!("run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building d2tree failed ({status})"));
    }
    Ok(target.join("release").join("d2tree"))
}

/// Metric name → (value, sample count).
type Metrics = BTreeMap<&'static str, (f64, u64)>;

struct Report {
    metrics: Metrics,
    attempted: u64,
    failed: u64,
    /// Traced runs: the latency budget as one line of text.
    budget: String,
    store_fs: String,
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Runs `w` once in a fresh scratch directory, which is removed after.
fn run_workload(
    root: &Path,
    bin: &Path,
    w: &Workload,
    seed: u64,
    dur: Duration,
    traced: bool,
) -> Result<Report, String> {
    let work = root
        .join(WORK_DIR)
        .join(format!("{}-{}", w.name, std::process::id()));
    let _ = fs::remove_dir_all(&work);
    let result = measure(root, bin, w, seed, dur, traced, &work);
    let _ = fs::remove_dir_all(&work);
    result
}

#[allow(clippy::too_many_lines)]
fn measure(
    root: &Path,
    bin: &Path,
    w: &Workload,
    seed: u64,
    dur: Duration,
    traced: bool,
    work: &Path,
) -> Result<Report, String> {
    let mut m = Metrics::new();

    // The derivation `d2tree serve` makes, done here too: the client
    // needs the op stream, the traced run the placement. Traced runs
    // time it several times and keep the medians.
    let mut workload_ms = Vec::new();
    let mut partition_ms = Vec::new();
    let mut derived = None;
    for _ in 0..if traced { DERIVATIONS } else { 1 } {
        let t = Instant::now();
        let workload = WorkloadBuilder::new(w.trace_profile()).seed(seed).build();
        workload_ms.push(ms_since(t));
        let t = Instant::now();
        let pop = workload.trace.popularity(&workload.tree);
        let mut scheme =
            D2TreeScheme::new(D2TreeConfig::by_proportion(GL_PROPORTION).with_seed(seed));
        scheme.build(&workload.tree, &pop, &ClusterSpec::homogeneous(1, 1.0));
        partition_ms.push(ms_since(t));
        derived = Some((workload, scheme));
    }
    let (workload, scheme) = derived.expect("at least one derivation");
    let (workload_ms, partition_ms) = (median(&mut workload_ms), median(&mut partition_ms));
    let tree = Arc::new(workload.tree);
    let ops = workload.trace.ops().to_vec();
    let placement = scheme.placement().clone();

    // Set-up: time to first answer, over several fresh start-ups.
    let mut setups: Vec<f64> = Vec::with_capacity(MAX_SPAWNS);
    let mut daemon: Option<Daemon> = None;
    while setups.len() < MIN_SPAWNS
        || (setups.len() < MAX_SPAWNS && setups.iter().sum::<f64>() < SPAWN_BUDGET.as_secs_f64())
    {
        if let Some(d) = daemon.take() {
            d.kill()?;
        }
        let dir = work.join(format!("daemon-{}", setups.len()));
        let (d, s) = Daemon::start(bin, w, seed, &dir)?;
        setups.push(s);
        daemon = Some(d);
    }
    let daemon = daemon.expect("at least one start-up");
    let spawns = setups.len() as u64;
    let setup_s = median(&mut setups);
    m.insert("setup_s", (setup_s, spawns));

    // Timed phase against the daemon, bracketed by admin-plane scrapes.
    let mut conns = (0..CONNS)
        .map(|k| Conn::open(&daemon.addr, k, w.pacing, tree.node_count()))
        .collect::<Result<Vec<_>, _>>()?;
    client::run_phase(
        &mut conns,
        &ops,
        w.pacing,
        (dur / 4).min(Duration::from_secs(1)),
    )?;
    let before = daemon.scrape()?;
    let mut st = client::run_phase(&mut conns, &ops, w.pacing, dur)?;
    let after = daemon.scrape()?;
    check_counters(&before, &after, &st)?;
    let late_p99_us = match w.pacing {
        Pacing::Open { rate } => {
            let late = quantile_us(&mut st.late_ns, 0.99);
            let interval_us = CONNS as f64 / rate * 1e6;
            if late > interval_us {
                return Err(format!(
                    "{GENERATOR_BEHIND}: p99 send lateness {late:.1} µs exceeds \
                     the {interval_us:.0} µs send interval"
                ));
            }
            late
        }
        Pacing::Closed { .. } => 0.0,
    };
    let completed = st.completed;
    m.insert("throughput_ops_s", (st.throughput(), completed));
    let n_lat = st.samples();
    m.insert("p50_us", (st.quantile_us(0.50), n_lat));
    m.insert("p99_us", (st.quantile_us(0.99), n_lat));

    // Durability: kill -9, reopen the store, compare with the acks.
    let mut acked = vec![0u32; tree.node_count()];
    for c in &conns {
        for (a, b) in acked.iter_mut().zip(&c.acked) {
            *a += b;
        }
    }
    drop(conns);
    let store_dir = daemon.store_dir.clone();
    daemon.kill()?;
    let store_fs = filesystem_of(work);
    let (recovery_ms, replayed) = match &store_dir {
        Some(dir) => check_durability(dir, &acked)?,
        None => (0.0, 0),
    };

    let mut report = Report {
        metrics: m,
        attempted: st.attempted,
        failed: st.failed,
        budget: String::new(),
        store_fs,
    };
    if !traced {
        return Ok(report);
    }
    let m = &mut report.metrics;

    // store: admin-plane deltas over the timed phase.
    let c = completed as f64;
    let delta = |name| (after.counter(name) - before.counter(name)) as f64;
    let hist = |name| {
        let count_sum = |d: &MetricsDoc| d.histogram(name).map_or((0, 0), |h| (h.count, h.sum));
        let (c0, s0) = count_sum(&before);
        let (c1, s1) = count_sum(&after);
        ((c1 - c0) as f64, (s1 - s0) as f64)
    };
    let (fsyncs, fsync_us) = hist(names::WAL_FSYNC_US);
    let (appends, append_us) = hist(names::WAL_APPEND_US);
    let (batches, batched) = hist(names::NET_BATCH_DEPTH);
    m.insert("store.fsyncs_per_op", (fsyncs / c, completed));
    m.insert(
        "store.records_per_op",
        (delta(names::WAL_RECORDS_TOTAL) / c, completed),
    );
    m.insert(
        "store.bytes_per_op",
        (delta(names::WAL_BYTES_TOTAL) / c, completed),
    );
    m.insert(
        "store.group_commits_per_op",
        (delta(names::WAL_GROUP_COMMITS_TOTAL) / c, completed),
    );
    m.insert(
        "store.snapshots_per_kop",
        (delta(names::SNAPSHOTS_TOTAL) * 1e3 / c, completed),
    );
    m.insert(
        "store.append_us_mean",
        (ratio(append_us, appends), appends as u64),
    );
    m.insert(
        "store.fsync_us_mean",
        (ratio(fsync_us, fsyncs), fsyncs as u64),
    );
    m.insert(
        "store.recovery_ms",
        (recovery_ms, u64::from(store_dir.is_some())),
    );
    m.insert(
        "store.records_replayed",
        (replayed as f64, u64::from(store_dir.is_some())),
    );
    m.insert(
        "net.batch_depth_mean",
        (ratio(batched, batches), batches as u64),
    );
    m.insert("client.late_us_p99", (late_p99_us, st.late_ns.len() as u64));
    m.insert(
        "client.failed_frac",
        (ratio(st.failed as f64, st.attempted as f64), st.attempted),
    );
    let local = ops
        .iter()
        .filter(|op| matches!(placement.assignment(op.target), Assignment::Single(_)))
        .count();
    m.insert(
        "serve.local_share",
        (local as f64 / ops.len() as f64, ops.len() as u64),
    );

    // Standalone calls on the workload's op stream.
    let (n, ns) = ns_per_call(ops.len(), |i| {
        black_box(placement.assignment(ops[i % ops.len()].target));
    });
    m.insert("placement.assign_ns", (ns, n));
    let index = scheme.local_index();
    let (n, ns) = ns_per_call(ops.len(), |i| {
        black_box(index.locate(&tree, ops[i % ops.len()].target));
    });
    m.insert("index.locate_ns", (ns, n));
    let mut attrs = AttrTable::new(&tree);
    let (n, ns) = ns_per_call(ops.len(), |i| {
        black_box(attrs.update(ops[i % ops.len()].target, |a| a.mtime = i as u64));
    });
    m.insert("attrs.update_ns", (ns, n));
    let h = Histogram::new();
    let (n, ns) = ns_per_call(ops.len(), |i| h.record(black_box(i as u64 & 0xfff)));
    m.insert("telemetry.hist_record_ns", (ns, n));

    // Traced in-process serving, after an untraced pass for overhead.
    let mut index = LocalIndex::new();
    for (root, owner) in scheme.local_index().iter() {
        index.insert(root, owner);
    }
    let registry = Arc::new(Registry::new());
    names::register_all(&registry);
    let mut mds = NetMds::new(Arc::clone(&tree), placement, index, MdsId(0), registry);
    let t = Instant::now();
    if w.store {
        mds = mds.with_store_root(&work.join("inproc-store"), StoreConfig::default());
    }
    let store_open_ms = if w.store { ms_since(t) } else { 0.0 };
    let fifth = dur / 5;
    let warm = (dur / 8).min(Duration::from_millis(500));
    let plain = inproc::run(&mds, w, &ops, false, warm, fifth)?;
    let tr = inproc::run(&mds, w, &ops, true, warm, fifth)?;
    let spans_path = Path::new(WORK_DIR).join(format!("spans-{}.jsonl", w.name));
    fs::write(root.join(&spans_path), inproc::spans_jsonl(&tr.spans))
        .map_err(|e| format!("write {}: {e}", spans_path.display()))?;
    let s = &tr.stages;
    let client_mean = tr.client.mean_latency_us();
    let remainder = client_mean - s.server_us();
    let ops_n = s.ops;
    m.insert("serve.req_us", (s.per_op_us(s.serve_ns), ops_n));
    m.insert("serve.commit_us", (s.per_op_us(s.commit_ns), ops_n));
    m.insert("net.read_wait_us", (s.per_op_us(s.read_wait_ns), ops_n));
    m.insert("net.decode_ns", (s.per_op_us(s.decode_ns) * 1e3, ops_n));
    m.insert("net.encode_ns", (s.per_op_us(s.encode_ns) * 1e3, ops_n));
    m.insert("net.write_us", (s.per_op_us(s.write_ns), ops_n));
    m.insert("net.remainder_us", (remainder, ops_n));
    let n_client = tr.client.samples();
    m.insert("budget.client_mean_us", (client_mean, n_client));
    m.insert(
        "serve.redirects_per_op",
        (
            ratio(tr.client.redirects as f64, tr.client.attempted as f64),
            tr.client.attempted,
        ),
    );
    m.insert(
        "client.send_us",
        (
            ratio(tr.client.send_ns as f64, tr.client.attempted as f64) / 1e3,
            tr.client.attempted,
        ),
    );
    m.insert(
        "client.recv_wait_us",
        (
            ratio(tr.client.recv_ns as f64, tr.client.completed as f64) / 1e3,
            tr.client.completed,
        ),
    );
    m.insert(
        "trace.overhead_pct",
        (
            (tr.client.whole_quantile_us(0.5) / plain.client.whole_quantile_us(0.5) - 1.0) * 100.0,
            n_client,
        ),
    );
    m.insert("setup.workload_ms", (workload_ms, DERIVATIONS as u64));
    m.insert("setup.partition_ms", (partition_ms, DERIVATIONS as u64));
    m.insert("setup.store_open_ms", (store_open_ms, u64::from(w.store)));
    m.insert(
        "setup.other_ms",
        (
            setup_s * 1e3 - workload_ms - partition_ms - store_open_ms,
            spawns,
        ),
    );
    report.budget = format!(
        "budget (µs/op): decode {:.3} + serve {:.3} + commit {:.3} + encode {:.3} + write {:.3} \
         + remainder {:.3} = client mean {:.3}; spans in {}",
        s.per_op_us(s.decode_ns),
        s.per_op_us(s.serve_ns),
        s.per_op_us(s.commit_ns),
        s.per_op_us(s.encode_ns),
        s.per_op_us(s.write_ns),
        remainder,
        client_mean,
        spans_path.display(),
    );
    Ok(report)
}

/// Calls `f(0), f(1), ...` for at least `min_calls` calls and 50 ms;
/// returns (calls, mean ns per call).
fn ns_per_call(min_calls: usize, mut f: impl FnMut(usize)) -> (u64, f64) {
    let t = Instant::now();
    let mut i = 0usize;
    while i < min_calls || t.elapsed() < Duration::from_millis(50) {
        for _ in 0..1024 {
            f(i);
            i += 1;
        }
    }
    (i as u64, t.elapsed().as_nanos() as f64 / i as f64)
}

/// The correctness gate on the daemon's own counters.
fn check_counters(before: &MetricsDoc, after: &MetricsDoc, st: &PhaseStats) -> Result<(), String> {
    if st.completed == 0 {
        return Err("the timed phase completed no operations".to_owned());
    }
    let delta = |name| after.counter(name) - before.counter(name);
    let served = delta(names::SERVER_SERVED_TOTAL);
    if served != st.completed {
        return Err(format!(
            "daemon counted {served} served ops, the client {} completed",
            st.completed
        ));
    }
    for name in [names::NET_DECODE_ERRORS_TOTAL, names::NET_CONN_RESETS_TOTAL] {
        if delta(name) != 0 {
            return Err(format!(
                "{name} moved by {} during the timed phase",
                delta(name)
            ));
        }
    }
    Ok(())
}

/// Reopens a killed daemon's store and checks that every acknowledged
/// update survived. Returns (recovery ms, records replayed).
fn check_durability(dir: &Path, acked: &[u32]) -> Result<(f64, u64), String> {
    let (store, info) = MdsStore::open(dir, StoreConfig::default())
        .map_err(|e| format!("reopen store {}: {e}", dir.display()))?;
    let attrs = &store.state().attrs;
    for (node, &n) in acked.iter().enumerate() {
        let version = attrs.get(&(node as u64)).map_or(0, |a| a.version);
        if version < u64::from(n) {
            return Err(format!(
                "node {node}: {n} updates acknowledged but the recovered version is {version}"
            ));
        }
    }
    Ok((info.duration.as_secs_f64() * 1e3, info.records_replayed))
}

fn result_line(table: &[Metric], r: &Report) -> String {
    let metrics: Vec<String> = table
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, r.metrics[m.name].0, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.attempted,
        r.failed,
        metrics.join(", ")
    )
}

/// Where and on what this run happened, plus every metric's samples.
fn run_record(root: &Path, w: &Workload, args: &Args, r: &Report) -> String {
    let kernel = fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".to_owned(), |s| s.trim().to_owned());
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let samples: Vec<String> = r
        .metrics
        .iter()
        .map(|(k, (_, n))| format!("\"{k}\": {n}"))
        .collect();
    format!(
        "{{\"record\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {nproc}, \"kernel\": \"{kernel}\", \"store_fs\": \"{}\", \"commit\": \"{}\", \
         \"samples\": {{{}}}}}}}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        r.store_fs,
        git_commit(root),
        samples.join(", ")
    )
}

/// The commit checked out at `root`, read from `.git` without running
/// git (which would search parent directories).
fn git_commit(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_owned();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    if let Ok(hash) = fs::read_to_string(git.join(reference)) {
        return hash.trim().to_owned();
    }
    fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split(' ').next().map(str::to_owned))
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Filesystem type of the mount holding `path`, from /proc/self/mounts.
fn filesystem_of(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split(' ');
            let (_, mnt, fstype) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mnt)
                .then(|| (mnt.len(), fstype.to_owned()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_owned(), |(_, t)| t)
}

/// Runs every workload at a tiny size, traced and untraced, and checks
/// that every metric is emitted, finite and with its unit, that the
/// latency budget adds up, and that BENCHMARK.json (when present) lists
/// the same workloads and metrics.
fn self_test(root: &Path, bin: &Path, seed: u64) -> Result<(), String> {
    for w in WORKLOADS {
        let tiny = w.tiny();
        for traced in [false, true] {
            // A host stall of a few ms can push an open loop's p99 send
            // lateness past its interval; such a refusal is shown and the
            // run retried, up to three attempts.
            let mut attempt = 1;
            let r = loop {
                match run_workload(root, bin, &tiny, seed, Duration::from_secs(1), traced) {
                    Err(e) if e.starts_with(GENERATOR_BEHIND) && attempt < 3 => {
                        println!("self-test: {} attempt {attempt} refused: {e}", w.name);
                        attempt += 1;
                    }
                    r => break r?,
                }
            };
            let table: &[Metric] = if traced { &PER_LAYER } else { &END_TO_END };
            for m in table {
                let Some((v, _)) = r.metrics.get(m.name) else {
                    return Err(format!("{}: {} not emitted", w.name, m.name));
                };
                if !v.is_finite() {
                    return Err(format!("{}: {} is {v}", w.name, m.name));
                }
            }
            let line = result_line(table, &r);
            for m in table {
                let want = format!("\"{}\": {{\"value\": ", m.name);
                let unit = format!("\"unit\": \"{}\"", m.unit);
                if !line.contains(&want) || !line.contains(&unit) {
                    return Err(format!(
                        "{}: {} missing from the result line",
                        w.name, m.name
                    ));
                }
            }
            if traced {
                let get = |k: &str| r.metrics[k].0;
                let stages = get("net.decode_ns") / 1e3
                    + get("serve.req_us")
                    + get("serve.commit_us")
                    + get("net.encode_ns") / 1e3
                    + get("net.write_us");
                let mean = get("budget.client_mean_us");
                let sum = stages + get("net.remainder_us");
                if (sum - mean).abs() > 1e-6 * mean.max(1.0) {
                    return Err(format!("{}: budget {sum} != client mean {mean}", w.name));
                }
                if stages <= 0.0 || get("net.remainder_us") < -0.05 * mean {
                    return Err(format!(
                        "{}: server stages {stages} µs do not fit in the client mean {mean} µs",
                        w.name
                    ));
                }
            }
            println!("self-test: {} trace={} ok", w.name, u8::from(traced));
        }
    }
    if let Ok(doc) = fs::read_to_string(root.join("BENCHMARK.json")) {
        for w in WORKLOADS {
            if doc.contains(&format!("\"name\": \"{}\"", w.name)) != w.gated {
                return Err(format!(
                    "BENCHMARK.json should {}list {}",
                    if w.gated { "" } else { "not " },
                    w.name
                ));
            }
        }
        let entries = END_TO_END.iter().chain(&PER_LAYER).map(|m| {
            format!(
                "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
                m.name, m.unit, m.better
            )
        });
        for e in entries {
            if !doc.contains(&e) {
                return Err(format!("BENCHMARK.json lacks {e}"));
            }
        }
        println!("self-test: BENCHMARK.json matches");
    }
    println!("self-test passed");
    Ok(())
}
