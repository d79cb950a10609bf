//! The traced run's server: the daemon's connection loop rebuilt in this
//! process from the public calls it makes (`FrameReader::next_frames`,
//! `Request::decode`, `NetMds::serve_deferred`, `NetMds::commit_batch`,
//! `Response::encode`, `write_all`), with a span around each call.
//!
//! Spans of one batch share the id of the batch's first request; the
//! per-request spans carry their own request id. All of them link to the
//! batch span. They stay in memory (up to [`SPAN_CAP`] per connection)
//! and are written out after the run.

use std::fmt::Write as _;
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use bytes::Bytes;
use d2tree_cluster::{FrameReader, NetMds, Request, MAX_FRAME_BYTES};
use d2tree_workload::Operation;

use crate::client::{run_phase, Conn, PhaseStats};
use crate::spec::{Workload, CONNS};

/// Spans kept in memory per connection; stage sums cover every batch.
pub const SPAN_CAP: usize = 50_000;

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Request id (per-request calls) or first request id of the batch.
    pub trace: u64,
    pub id: u64,
    /// 0 for the batch span itself.
    pub parent: u64,
    pub name: &'static str,
    /// Nanoseconds since the run's epoch.
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// Per-op exposure to each stage, summed over the measured ops: an op
/// waits for its whole batch's decodes, serves, commit, encodes and
/// write, so each stage adds its batch total once per op in the batch.
#[derive(Debug, Default, Clone, Copy)]
pub struct StageSums {
    pub ops: u64,
    pub read_wait_ns: u64,
    pub decode_ns: u64,
    pub serve_ns: u64,
    pub commit_ns: u64,
    pub encode_ns: u64,
    pub write_ns: u64,
}

impl StageSums {
    fn add(&mut self, o: &StageSums) {
        self.ops += o.ops;
        self.read_wait_ns += o.read_wait_ns;
        self.decode_ns += o.decode_ns;
        self.serve_ns += o.serve_ns;
        self.commit_ns += o.commit_ns;
        self.encode_ns += o.encode_ns;
        self.write_ns += o.write_ns;
    }

    /// Mean per-op exposure of one stage, microseconds.
    pub fn per_op_us(&self, total_ns: u64) -> f64 {
        total_ns as f64 / self.ops as f64 / 1e3
    }

    /// The stages that lie between a request's arrival and its response
    /// leaving: everything but the read wait, which is mostly the server
    /// idling for the client's next request.
    pub fn server_us(&self) -> f64 {
        self.per_op_us(
            self.decode_ns + self.serve_ns + self.commit_ns + self.encode_ns + self.write_ns,
        )
    }
}

/// What one in-process phase measured.
pub struct Inproc {
    pub client: PhaseStats,
    pub stages: StageSums,
    pub spans: Vec<Span>,
}

/// Nanosecond clock that reads nothing when tracing is off.
struct Clock {
    epoch: Instant,
    on: bool,
}

impl Clock {
    fn now(&self) -> u64 {
        if self.on {
            self.epoch.elapsed().as_nanos() as u64
        } else {
            0
        }
    }
}

/// One connection's serve loop, as the daemon runs it, plus spans.
fn serve_conn(
    stream: TcpStream,
    mds: &NetMds,
    clock: &Clock,
    tag: u64,
    measuring: &AtomicBool,
) -> Result<(StageSums, Vec<Span>), String> {
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    let mut reader = FrameReader::new(
        stream.try_clone().map_err(|e| e.to_string())?,
        MAX_FRAME_BYTES,
    );
    let mut write_half = stream;
    let mut frames: Vec<Bytes> = Vec::new();
    let mut reqs: Vec<Request> = Vec::new();
    let mut out: Vec<u8> = Vec::new();
    let mut sums = StageSums::default();
    let mut spans: Vec<Span> = Vec::new();
    let mut batch_spans: Vec<Span> = Vec::new();
    let mut next_id = tag << 48;
    let mut span_id = || {
        next_id += 1;
        next_id
    };
    loop {
        frames.clear();
        reqs.clear();
        batch_spans.clear();
        let t_read = clock.now();
        let n = reader
            .next_frames(&mut frames)
            .map_err(|e| format!("server read: {e}"))?;
        if n == 0 {
            break; // the client closed between frames
        }
        let t_decode = clock.now();
        let batch = span_id();
        let mut b = StageSums {
            ops: n as u64,
            read_wait_ns: t_decode - t_read,
            ..StageSums::default()
        };
        let push = |spans: &mut Vec<Span>, trace, name, start: u64, end: u64| {
            if !clock.on {
                return;
            }
            spans.push(Span {
                trace,
                id: 0,
                parent: batch,
                name,
                start_ns: start,
                dur_ns: end - start,
            });
        };
        let mut t = t_decode;
        for frame in &mut frames {
            let req = Request::decode(frame).ok_or("request frame failed to decode")?;
            let t2 = clock.now();
            push(&mut batch_spans, req.id.0, "decode", t, t2);
            b.decode_ns += t2 - t;
            t = t2;
            reqs.push(req);
        }
        let first = reqs[0].id.0;
        let mut resps = Vec::with_capacity(reqs.len());
        for req in &reqs {
            resps.push(mds.serve_deferred(*req));
            let t2 = clock.now();
            push(&mut batch_spans, req.id.0, "serve_deferred", t, t2);
            b.serve_ns += t2 - t;
            t = t2;
        }
        mds.commit_batch();
        let t2 = clock.now();
        push(&mut batch_spans, first, "commit_batch", t, t2);
        b.commit_ns = t2 - t;
        t = t2;
        out.clear();
        for resp in &resps {
            out.extend_from_slice(&resp.encode());
            let t2 = clock.now();
            push(&mut batch_spans, resp.id.0, "encode", t, t2);
            b.encode_ns += t2 - t;
            t = t2;
        }
        write_half
            .write_all(&out)
            .map_err(|e| format!("server write: {e}"))?;
        let t_end = clock.now();
        push(&mut batch_spans, first, "write_all", t, t_end);
        b.write_ns = t_end - t;
        push(&mut batch_spans, first, "next_frames", t_read, t_decode);
        if !measuring.load(Ordering::Relaxed) {
            continue;
        }
        // Exposure: every op of the batch waits for the batch totals.
        let k = b.ops;
        sums.add(&StageSums {
            ops: k,
            read_wait_ns: b.read_wait_ns * k,
            decode_ns: b.decode_ns * k,
            serve_ns: b.serve_ns * k,
            commit_ns: b.commit_ns * k,
            encode_ns: b.encode_ns * k,
            write_ns: b.write_ns * k,
        });
        if clock.on && spans.len() + batch_spans.len() < SPAN_CAP {
            spans.push(Span {
                trace: first,
                id: batch,
                parent: 0,
                name: "batch",
                start_ns: t_read,
                dur_ns: t_end - t_read,
            });
            for s in &batch_spans {
                spans.push(Span {
                    id: span_id(),
                    ..*s
                });
            }
        }
    }
    Ok((sums, spans))
}

/// Serves `mds` on a listener of this process and drives it with the
/// workload's client: `warmup`, then `dur` measured.
pub fn run(
    mds: &NetMds,
    w: &Workload,
    ops: &[Operation],
    traced: bool,
    warmup: Duration,
    dur: Duration,
) -> Result<Inproc, String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("local addr: {e}"))?
        .to_string();
    let clock = Clock {
        epoch: Instant::now(),
        on: traced,
    };
    let measuring = AtomicBool::new(false);
    std::thread::scope(|s| {
        let servers: Vec<_> = (0..CONNS)
            .map(|k| {
                let (listener, clock, measuring) = (&listener, &clock, &measuring);
                s.spawn(move || {
                    let (stream, _) = listener.accept().map_err(|e| format!("accept: {e}"))?;
                    serve_conn(stream, mds, clock, k as u64 + 1, measuring)
                })
            })
            .collect();
        let client = (|| {
            let mut conns = (0..CONNS)
                .map(|k| Conn::open(&addr, k, w.pacing, w.nodes))
                .collect::<Result<Vec<_>, _>>()?;
            run_phase(&mut conns, ops, w.pacing, warmup)?;
            measuring.store(true, Ordering::Relaxed);
            run_phase(&mut conns, ops, w.pacing, dur)
            // `conns` drop here: the servers see EOF and return.
        })();
        if client.is_err() {
            // Unblock any server still waiting in `accept`.
            for _ in 0..CONNS {
                drop(TcpStream::connect(&addr));
            }
        }
        let mut stages = StageSums::default();
        let mut spans = Vec::new();
        let mut server_err = None;
        for h in servers {
            match h.join().expect("server thread panicked") {
                Ok((sums, sp)) => {
                    stages.add(&sums);
                    spans.extend(sp);
                }
                Err(e) => server_err = Some(e),
            }
        }
        let client = client?;
        if let Some(e) = server_err {
            return Err(e);
        }
        Ok(Inproc {
            client,
            stages,
            spans,
        })
    })
}

/// Spans as JSON lines.
pub fn spans_jsonl(spans: &[Span]) -> String {
    let mut s = String::new();
    for sp in spans {
        let _ = writeln!(
            s,
            "{{\"trace\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"dur_ns\":{}}}",
            sp.trace, sp.id, sp.parent, sp.name, sp.start_ns, sp.dur_ns
        );
    }
    s
}
