//! What the benchmark runs (workloads) and what it reports (metrics).

use d2tree_workload::TraceProfile;

/// How the client paces its requests.
#[derive(Debug, Clone, Copy)]
pub enum Pacing {
    /// Each connection sends `depth` requests in one write, waits for all
    /// of their responses, then sends the next window.
    Closed { depth: usize },
    /// Requests leave on a fixed schedule at `rate` ops/s across all
    /// connections, whether or not earlier responses are back.
    Open { rate: f64 },
}

/// One traffic mix against one daemon.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// `--profile` value of `d2tree serve`.
    pub profile: &'static str,
    pub nodes: usize,
    /// Length of the synthesised op history (`--ops`).
    pub history_ops: usize,
    /// Whether the daemon runs with `--store-root`.
    pub store: bool,
    pub pacing: Pacing,
    /// Listed in BENCHMARK.json. See README.md for why one is not.
    pub gated: bool,
}

impl Workload {
    pub fn trace_profile(&self) -> TraceProfile {
        match self.profile {
            "lmbe" => TraceProfile::lmbe(),
            "ra" => TraceProfile::ra(),
            "dtr" => TraceProfile::dtr(),
            other => unreachable!("unknown profile {other}"),
        }
        .with_nodes(self.nodes)
        .with_operations(self.history_ops)
    }

    /// The same traffic at a tiny size, for the self-test. An open loop
    /// also slows to 2000 ops/s, so one host stall in its single second
    /// does not trip the lateness gate.
    pub fn tiny(mut self) -> Workload {
        self.nodes = 2_000;
        self.history_ops = 5_000;
        if let Pacing::Open { rate } = &mut self.pacing {
            *rate = rate.min(2_000.0);
        }
        self
    }
}

/// Client connections (and client threads) on every workload.
pub const CONNS: usize = 2;

/// `--gl` of every derivation.
pub const GL_PROPORTION: f64 = 0.01;

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "lmbe-local-store",
        why: "77% of ops land on local-layer subtrees, so a store-backed daemon journals a \
              popularity record for most ops: the store's fsync path does the work",
        profile: "lmbe",
        nodes: 20_000,
        history_ops: 50_000,
        store: true,
        pacing: Pacing::Closed { depth: 1 },
        gated: true,
    },
    Workload {
        name: "ra-update-open",
        why: "16% updates (84% of them on the global layer) at a fixed 8000 ops/s: latency \
              shows fsync queueing and inline snapshots",
        profile: "ra",
        nodes: 200_000,
        history_ops: 500_000,
        store: true,
        pacing: Pacing::Open { rate: 8_000.0 },
        gated: false,
    },
    Workload {
        name: "dtr-global-memory",
        why: "93.5% of ops hit the replicated global layer with no store attached: the \
              per-request CPU path does the work",
        profile: "dtr",
        nodes: 200_000,
        history_ops: 500_000,
        store: false,
        pacing: Pacing::Closed { depth: 8 },
        gated: true,
    },
];

pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// A reported metric: name, unit, and which direction is better.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better }
}

/// Printed by untraced runs (`--trace 0`).
pub const END_TO_END: [Metric; 4] = [
    m("setup_s", "s", "lower"),
    m("throughput_ops_s", "ops/s", "higher"),
    m("p50_us", "us", "lower"),
    m("p99_us", "us", "lower"),
];

/// Printed by traced runs (`--trace 1`).
pub const PER_LAYER: [Metric; 33] = [
    // store: admin-plane deltas over the timed phase of the real daemon.
    m("store.fsyncs_per_op", "fsyncs/op", "lower"),
    m("store.records_per_op", "records/op", "lower"),
    m("store.bytes_per_op", "B/op", "lower"),
    m("store.group_commits_per_op", "commits/op", "lower"),
    m("store.snapshots_per_kop", "snapshots/kop", "lower"),
    m("store.append_us_mean", "us", "lower"),
    m("store.fsync_us_mean", "us", "lower"),
    m("store.recovery_ms", "ms", "lower"),
    m("store.records_replayed", "records", "lower"),
    // serve: traced in-process serving; local share from the op stream.
    m("serve.req_us", "us", "lower"),
    m("serve.commit_us", "us", "lower"),
    m("serve.local_share", "fraction", "lower"),
    m("serve.redirects_per_op", "redirects/op", "lower"),
    // net: traced in-process serving; batch depth from the admin plane.
    m("net.read_wait_us", "us", "lower"),
    m("net.decode_ns", "ns", "lower"),
    m("net.encode_ns", "ns", "lower"),
    m("net.write_us", "us", "lower"),
    m("net.batch_depth_mean", "requests", "higher"),
    m("net.remainder_us", "us", "lower"),
    m("budget.client_mean_us", "us", "lower"),
    // standalone calls on the workload's own op stream.
    m("placement.assign_ns", "ns", "lower"),
    m("index.locate_ns", "ns", "lower"),
    m("attrs.update_ns", "ns", "lower"),
    m("telemetry.hist_record_ns", "ns", "lower"),
    m("trace.overhead_pct", "%", "lower"),
    // setup: timed derivation calls, the rest of the daemon's start-up.
    m("setup.workload_ms", "ms", "lower"),
    m("setup.partition_ms", "ms", "lower"),
    m("setup.store_open_ms", "ms", "lower"),
    m("setup.other_ms", "ms", "lower"),
    // client: confirms the load generator is not the bottleneck.
    m("client.send_us", "us", "lower"),
    m("client.recv_wait_us", "us", "lower"),
    m("client.late_us_p99", "us", "lower"),
    m("client.failed_frac", "fraction", "lower"),
];
