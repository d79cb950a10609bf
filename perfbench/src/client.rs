//! The benchmark's own client: one thread per connection, each driving
//! its share of the workload's op stream through the wire codec and
//! checking every answer.
//!
//! Closed-loop connections use `NetClient` (`send_batch` + `recv`). The
//! open-loop connections speak the same codec over a bare `TcpStream`,
//! because a request must leave on schedule even while earlier responses
//! are outstanding, and that needs a wait on "readable or next send
//! due", which `NetClient` does not expose.

use std::collections::VecDeque;
use std::io::{self, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use bytes::Bytes;
use d2tree_cluster::{
    FrameReader, NetClient, Request, RequestId, Response, ResponseBody, MAX_FRAME_BYTES,
};
use d2tree_workload::{OpKind, Operation};

use crate::spec::{Pacing, CONNS};
use crate::sys::{tighten_timer_slack, wait_readable};

/// Bound on any single wait for the daemon; passing it fails the run.
pub const IO_TIMEOUT: Duration = Duration::from_secs(5);

/// Windows each phase is cut into, by completion time. Throughput and
/// latency quantiles are taken per window and reported as the median
/// over windows, so a short stall elsewhere on the host moves one window
/// rather than the whole figure.
pub const WINDOWS: u32 = 20;

/// What one phase of traffic measured, summed over connections.
#[derive(Debug, Default)]
pub struct PhaseStats {
    pub attempted: u64,
    pub completed: u64,
    /// Answers other than `Served`.
    pub failed: u64,
    pub redirects: u64,
    /// Latency of every served op, nanoseconds: from its send (closed
    /// loop) or its scheduled send (open loop) to its response. Indexed
    /// by completion window; windows past [`WINDOWS`] hold the drain.
    pub lat_ns: Vec<Vec<u32>>,
    /// Open loop only: how late each send left its schedule, nanoseconds.
    pub late_ns: Vec<u32>,
    /// Time spent inside send calls.
    pub send_ns: u64,
    /// Time spent inside receive calls.
    pub recv_ns: u64,
    /// Length of one window.
    pub window: Duration,
    /// From the phase start to its last response.
    pub elapsed: Duration,
    pub open_loop: bool,
}

impl PhaseStats {
    fn new(window: Duration) -> Self {
        PhaseStats {
            window,
            ..PhaseStats::default()
        }
    }

    /// Books one served op that completed at `t`.
    fn served(&mut self, start: Instant, t: Instant, lat: Duration) {
        let k = ((t - start).as_nanos() / self.window.as_nanos().max(1)) as usize;
        if self.lat_ns.len() <= k {
            self.lat_ns.resize_with(k + 1, Vec::new);
        }
        self.lat_ns[k].push(u32::try_from(lat.as_nanos()).unwrap_or(u32::MAX));
    }

    fn merge(&mut self, other: PhaseStats) {
        self.attempted += other.attempted;
        self.completed += other.completed;
        self.failed += other.failed;
        self.redirects += other.redirects;
        if self.lat_ns.len() < other.lat_ns.len() {
            self.lat_ns.resize_with(other.lat_ns.len(), Vec::new);
        }
        for (mine, theirs) in self.lat_ns.iter_mut().zip(other.lat_ns) {
            mine.extend(theirs);
        }
        self.late_ns.extend(other.late_ns);
        self.send_ns += other.send_ns;
        self.recv_ns += other.recv_ns;
    }

    pub fn samples(&self) -> u64 {
        self.lat_ns.iter().map(|v| v.len() as u64).sum()
    }

    pub fn mean_latency_us(&self) -> f64 {
        let sum: f64 = self.lat_ns.iter().flatten().map(|&v| f64::from(v)).sum();
        sum / self.samples() as f64 / 1e3
    }

    /// Median over the full windows of `f(window's latencies)`.
    fn window_median(&mut self, mut f: impl FnMut(&mut [u32]) -> f64) -> f64 {
        self.lat_ns
            .resize_with(self.lat_ns.len().max(WINDOWS as usize), Vec::new);
        let mut per_window: Vec<f64> = self.lat_ns[..WINDOWS as usize]
            .iter_mut()
            .map(|v| f(v))
            .collect();
        per_window.sort_by(f64::total_cmp);
        per_window[per_window.len() / 2]
    }

    /// Completed ops per second: the median window in a closed loop. An
    /// open loop completes what it offers per window, so there it is the
    /// ops over the time until the last response, which falls below the
    /// offered rate only when responses lag.
    pub fn throughput(&mut self) -> f64 {
        if self.open_loop {
            return self.completed as f64 / self.elapsed.as_secs_f64();
        }
        let secs = self.window.as_secs_f64();
        self.window_median(|v| v.len() as f64 / secs)
    }

    /// The `q`-quantile of latency in microseconds: the median window.
    pub fn quantile_us(&mut self, q: f64) -> f64 {
        self.window_median(|v| if v.is_empty() { 0.0 } else { quantile_us(v, q) })
    }

    /// The `q`-quantile over the whole phase, microseconds.
    pub fn whole_quantile_us(&self, q: f64) -> f64 {
        quantile_us(&mut self.lat_ns.concat(), q)
    }
}

/// The `q`-quantile of nanosecond samples, in microseconds (nearest rank).
pub fn quantile_us(v: &mut [u32], q: f64) -> f64 {
    let k = ((v.len() as f64 * q).ceil() as usize).clamp(1, v.len()) - 1;
    f64::from(*v.select_nth_unstable(k).1) / 1e3
}

fn ns(d: Duration) -> u32 {
    u32::try_from(d.as_nanos()).unwrap_or(u32::MAX)
}

fn io_context(what: &'static str) -> impl Fn(io::Error) -> String {
    move |e| format!("{what}: {e}")
}

/// One connection's transport.
enum Link {
    Client(NetClient),
    Raw {
        stream: TcpStream,
        reader: FrameReader<TcpStream>,
    },
}

/// This connection's slice of the op stream: ops `first`, `first + CONNS`,
/// ... of the trace, cycled.
struct OpStream {
    cursor: usize,
    next_id: u64,
}

impl OpStream {
    fn next(&mut self, ops: &[Operation]) -> Request {
        let op = ops[self.cursor % ops.len()];
        self.cursor += CONNS;
        let id = RequestId(self.next_id);
        self.next_id += 1;
        Request {
            id,
            kind: op.kind,
            target: op.target,
            hops: 0,
            trace: None,
        }
    }
}

/// One client connection plus its op stream and the updates the daemon
/// acknowledged over it.
pub struct Conn {
    link: Link,
    stream: OpStream,
    /// Acknowledged updates per node index.
    pub acked: Vec<u32>,
}

impl Conn {
    /// Connection `k` of [`CONNS`] to `addr`.
    pub fn open(addr: &str, k: usize, pacing: Pacing, nodes: usize) -> Result<Conn, String> {
        let link = match pacing {
            Pacing::Closed { .. } => {
                Link::Client(NetClient::connect(addr, IO_TIMEOUT).map_err(io_context("connect"))?)
            }
            Pacing::Open { .. } => {
                let stream = TcpStream::connect(addr).map_err(io_context("connect"))?;
                stream.set_nodelay(true).map_err(io_context("nodelay"))?;
                stream
                    .set_read_timeout(Some(IO_TIMEOUT))
                    .map_err(io_context("read timeout"))?;
                let reader = FrameReader::new(
                    stream.try_clone().map_err(io_context("clone"))?,
                    MAX_FRAME_BYTES,
                );
                Link::Raw { stream, reader }
            }
        };
        Ok(Conn {
            link,
            stream: OpStream {
                cursor: k,
                // Ids unique across connections.
                next_id: (k as u64) << 48 | 1,
            },
            acked: vec![0; nodes],
        })
    }

    /// Windows of `depth` requests until `deadline`.
    fn closed_loop(
        &mut self,
        ops: &[Operation],
        depth: usize,
        start: Instant,
        deadline: Instant,
        st: &mut PhaseStats,
    ) -> Result<(), String> {
        let Link::Client(client) = &mut self.link else {
            unreachable!("closed-loop connections use NetClient");
        };
        let mut reqs = Vec::with_capacity(depth);
        while Instant::now() < deadline {
            reqs.clear();
            for _ in 0..depth {
                reqs.push(self.stream.next(ops));
            }
            st.attempted += depth as u64;
            let t0 = Instant::now();
            client.send_batch(&reqs).map_err(io_context("send"))?;
            let mut t = Instant::now();
            st.send_ns += (t - t0).as_nanos() as u64;
            for req in &reqs {
                let before = t;
                let resp = client.recv().map_err(io_context("receive"))?;
                t = Instant::now();
                st.recv_ns += (t - before).as_nanos() as u64;
                if check(&mut self.acked, req, &resp, st)? {
                    st.served(start, t, t - t0);
                }
            }
        }
        Ok(())
    }

    /// Sends on the schedule `first_due + k * interval` until `deadline`,
    /// receiving whenever a response is ready, then drains.
    fn open_loop(
        &mut self,
        ops: &[Operation],
        interval: Duration,
        start: Instant,
        first_due: Instant,
        deadline: Instant,
        st: &mut PhaseStats,
    ) -> Result<(), String> {
        let Link::Raw { stream, reader } = &mut self.link else {
            unreachable!("open-loop connections are raw");
        };
        let mut inflight: VecDeque<(Request, Instant)> = VecDeque::new();
        let mut frames: Vec<Bytes> = Vec::new();
        let mut due = first_due;
        loop {
            let now = Instant::now();
            let sending = due < deadline;
            if sending && now >= due {
                let req = self.stream.next(ops);
                stream
                    .write_all(&req.encode())
                    .map_err(io_context("send"))?;
                st.send_ns += now.elapsed().as_nanos() as u64;
                st.late_ns.push(ns(now - due));
                st.attempted += 1;
                inflight.push_back((req, due));
                due += interval;
                continue;
            }
            if !sending && inflight.is_empty() {
                return Ok(());
            }
            let wait = if sending { due - now } else { IO_TIMEOUT };
            if !wait_readable(stream, wait).map_err(io_context("poll"))? {
                if sending {
                    continue;
                }
                return Err(format!(
                    "{} responses still missing after {IO_TIMEOUT:?}",
                    inflight.len()
                ));
            }
            let t0 = Instant::now();
            frames.clear();
            if reader
                .next_frames(&mut frames)
                .map_err(io_context("receive"))?
                == 0
            {
                return Err("daemon closed the connection".to_owned());
            }
            let t = Instant::now();
            st.recv_ns += (t - t0).as_nanos() as u64;
            for mut frame in frames.drain(..) {
                let resp = Response::decode(&mut frame)
                    .ok_or_else(|| "response frame failed to decode".to_owned())?;
                let (req, due) = inflight
                    .pop_front()
                    .ok_or_else(|| "response with no request in flight".to_owned())?;
                if check(&mut self.acked, &req, &resp, st)? {
                    st.served(start, t, t - due);
                }
            }
        }
    }
}

/// Checks one answer against its request. `Ok(true)` means served.
fn check(
    acked: &mut [u32],
    req: &Request,
    resp: &Response,
    st: &mut PhaseStats,
) -> Result<bool, String> {
    if resp.id != req.id {
        return Err(format!(
            "response id {} answers request id {}",
            resp.id.0, req.id.0
        ));
    }
    match resp.body {
        ResponseBody::Served { node } if node == req.target => {
            if req.kind == OpKind::Update {
                acked[node.index()] += 1;
            }
            st.completed += 1;
            Ok(true)
        }
        ResponseBody::Served { node } => Err(format!(
            "request {} for node {} was served as node {}",
            req.id.0,
            req.target.index(),
            node.index()
        )),
        ResponseBody::Redirect { .. } => {
            st.failed += 1;
            st.redirects += 1;
            Ok(false)
        }
        ResponseBody::NotFound => {
            st.failed += 1;
            Ok(false)
        }
    }
}

/// Runs `dur` of traffic on every connection, one thread each, and
/// returns the merged stats. Every response has arrived when it returns.
pub fn run_phase(
    conns: &mut [Conn],
    ops: &[Operation],
    pacing: Pacing,
    dur: Duration,
) -> Result<PhaseStats, String> {
    let start = Instant::now();
    let deadline = start + dur;
    let results: Vec<Result<PhaseStats, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(k, conn)| {
                s.spawn(move || {
                    let mut st = PhaseStats::new(dur / WINDOWS);
                    match pacing {
                        Pacing::Closed { depth } => {
                            conn.closed_loop(ops, depth, start, deadline, &mut st)?
                        }
                        Pacing::Open { rate } => {
                            tighten_timer_slack();
                            // Each connection carries 1/CONNS of the rate;
                            // their schedules interleave evenly.
                            let interval = Duration::from_secs_f64(CONNS as f64 / rate);
                            let first = start + interval * k as u32 / CONNS as u32;
                            conn.open_loop(ops, interval, start, first, deadline, &mut st)?;
                        }
                    }
                    Ok(st)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut total = PhaseStats::new(dur / WINDOWS);
    total.elapsed = start.elapsed();
    total.open_loop = matches!(pacing, Pacing::Open { .. });
    for r in results {
        total.merge(r?);
    }
    Ok(total)
}
