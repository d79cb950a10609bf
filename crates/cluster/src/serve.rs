//! The transport-free serve core: the paper's one serve rule for an MDS,
//! shared by the TCP daemon ([`crate::net::NetMds`]) and the in-process
//! runtime ([`crate::live`]).
//!
//! A replicated global-layer (GL) node is served anywhere; a local-layer
//! (LL) node is served only by its owner, and any other MDS redirects;
//! a target outside the tree is not found. Every served LL op feeds the
//! decaying popularity counters behind mirror-division (Sec. IV-B). All of
//! that — dispatch, update commit, the `AttrCommit` / `Popularity` WAL
//! records, served/redirect accounting and the `serve` span — lives in
//! [`ServeCore::apply`].
//!
//! What the transports do differently sits behind [`ServeHost`]: how they
//! read placement and index (plain in a daemon, behind the Monitor's
//! locks in the live runtime) and, the one real decision, how a GL update
//! replicates. The daemon commits it locally (a single replica, DESIGN.md
//! §14); the live runtime serialises it through the lock service and
//! propagates it to every live replica. Framing, batching, group commit,
//! reply-edge faults and server-side latency measurement stay in the
//! transports.

use std::collections::{BTreeSet, HashMap};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use d2tree_core::LocalIndex;
use d2tree_metrics::{Assignment, MdsId};
use d2tree_namespace::{AttrTable, FileAttr, NamespaceTree, NodeId, VersionedAttr};
use d2tree_store::{AttrState, MdsRecord, MdsStore, StoreConfig};
use d2tree_telemetry::trace::{span_names, ArgKey, Span, SpanCtx, SpanId, TraceId, Tracer};
use d2tree_telemetry::{names, Counter, EventKind, FaultKind, MetricKey, Registry};
use d2tree_workload::OpKind;
use parking_lot::{Mutex, RwLock};

use crate::message::{Request, Response, ResponseBody};

/// What a transport supplies to [`ServeCore::apply`]: read access to the
/// cluster layout and the global-layer replication policy.
pub(crate) trait ServeHost {
    /// Where `target` lives. Only asked about nodes in the tree.
    fn assignment(&self, target: NodeId) -> Assignment;

    /// Runs `f` against the local index (the live runtime holds its read
    /// guard for the duration, ordering it before the counters and store).
    fn with_index<R>(&self, f: impl FnOnce(&LocalIndex) -> R) -> R;

    /// Commits an update of GL node `target` on `core` (via
    /// [`ServeCore::commit`]) and replicates it. Returns `false` when the
    /// request must be dropped unanswered.
    fn commit_gl_update(&self, core: &ServeCore, target: NodeId, span: Option<ServeSpan>) -> bool;
}

/// A sampled request's `serve` span, opened when the request arrives so
/// child spans can parent on it before it is recorded.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ServeSpan {
    ctx: SpanCtx,
    id: SpanId,
    start: u64,
}

impl ServeSpan {
    /// The context a child of the `serve` span parents on.
    pub(crate) fn child_ctx(&self) -> SpanCtx {
        SpanCtx {
            trace: self.ctx.trace,
            span: self.id,
        }
    }
}

/// One MDS's serving state and the serve rule over it.
#[derive(Debug)]
pub(crate) struct ServeCore {
    pub(crate) me: MdsId,
    tree: Arc<NamespaceTree>,
    /// This MDS's replica of the attribute table.
    pub(crate) attrs: RwLock<AttrTable>,
    /// The durable store, `None` when running in memory (or, in the live
    /// runtime, while the MDS is crashed).
    pub(crate) store: Mutex<Option<MdsStore>>,
    /// Served-op counts per LL subtree root. The live runtime shares one
    /// map across its MDSs and the Monitor, which decays it.
    pub(crate) subtree_counts: Arc<RwLock<HashMap<NodeId, f64>>>,
    /// Operations served (not redirected).
    pub(crate) served: AtomicU64,
    /// Redirect responses issued.
    pub(crate) redirects: AtomicU64,
    pub(crate) registry: Arc<Registry>,
    pub(crate) tracer: Option<Arc<Tracer>>,
    served_total: Arc<Counter>,
    forwarded_total: Arc<Counter>,
    epoch: Instant,
    /// Appends skip the store's own sync policy because the transport
    /// group-commits each batch before acknowledging it.
    deferred_sync: bool,
}

impl ServeCore {
    /// Serving state for MDS `me` over `tree` with an empty attribute
    /// table, no store and zeroed counters.
    pub(crate) fn new(
        me: MdsId,
        tree: Arc<NamespaceTree>,
        subtree_counts: Arc<RwLock<HashMap<NodeId, f64>>>,
        registry: Arc<Registry>,
        epoch: Instant,
        deferred_sync: bool,
    ) -> Self {
        ServeCore {
            me,
            attrs: RwLock::new(AttrTable::new(&tree)),
            tree,
            store: Mutex::new(None),
            subtree_counts,
            served: AtomicU64::new(0),
            redirects: AtomicU64::new(0),
            served_total: registry.counter(MetricKey::mds(names::SERVER_SERVED_TOTAL, me.0)),
            forwarded_total: registry.counter(MetricKey::global(names::FORWARDED_TOTAL)),
            registry,
            tracer: None,
            epoch,
            deferred_sync,
        }
    }

    fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    /// Serves one decoded request.
    ///
    /// `reply_edge` runs once the answer is decided, before the `serve`
    /// span is recorded: the transport consults its reply-edge faults
    /// there, and the fault it returns tags the span. Returns `None` when
    /// the host dropped a GL update (see
    /// [`ServeHost::commit_gl_update`]); nothing is answered then.
    ///
    /// Never panics on out-of-range targets: a node this tree does not
    /// have answers `NotFound`.
    pub(crate) fn apply<H: ServeHost>(
        &self,
        host: &H,
        req: Request,
        reply_edge: impl FnOnce() -> Option<FaultKind>,
    ) -> Option<Response> {
        let span = match (self.tracer.as_deref(), req.trace) {
            (Some(tr), Some((t, s))) => {
                let ctx = SpanCtx {
                    trace: TraceId(t),
                    span: SpanId(s),
                };
                Some(ServeSpan {
                    ctx,
                    id: tr.next_span(ctx.trace),
                    start: tr.now_us(),
                })
            }
            _ => None,
        };
        let assignment = if self.tree.node(req.target).is_some() {
            host.assignment(req.target)
        } else {
            Assignment::Unassigned
        };
        let body = match assignment {
            Assignment::Replicated => {
                if req.kind == OpKind::Update && !host.commit_gl_update(self, req.target, span) {
                    self.record_serve(span, req.target, None, Some(FaultKind::Drop));
                    return None;
                }
                ResponseBody::Served { node: req.target }
            }
            Assignment::Single(owner) if owner == self.me => {
                if req.kind == OpKind::Update {
                    self.commit(req.target, false);
                }
                ResponseBody::Served { node: req.target }
            }
            Assignment::Single(owner) => {
                self.redirects.fetch_add(1, Ordering::Relaxed);
                self.forwarded_total.inc();
                self.registry.journal().record(EventKind::Forwarded {
                    from: self.me.0,
                    to: owner.0,
                });
                ResponseBody::Redirect { owner }
            }
            Assignment::Unassigned => ResponseBody::NotFound,
        };
        if matches!(body, ResponseBody::Served { .. }) {
            self.served.fetch_add(1, Ordering::Relaxed);
            self.served_total.inc();
            if matches!(assignment, Assignment::Single(_)) {
                host.with_index(|index| {
                    if let Some((root, _)) = index.locate(&self.tree, req.target) {
                        let bits = {
                            let mut counts = self.subtree_counts.write();
                            let v = counts.entry(root).or_insert(0.0);
                            *v += 1.0;
                            v.to_bits()
                        };
                        // The counter's new absolute value, so recovery
                        // restores popularity exactly.
                        self.journal(MdsRecord::Popularity {
                            root: root.index() as u64,
                            bits,
                        });
                    }
                });
            }
        }
        let fault = reply_edge();
        self.record_serve(span, req.target, Some(body), fault);
        Some(Response {
            id: req.id,
            from: self.me,
            body,
            hops: req.hops,
        })
    }

    fn record_serve(
        &self,
        span: Option<ServeSpan>,
        target: NodeId,
        body: Option<ResponseBody>,
        fault: Option<FaultKind>,
    ) {
        let (Some(s), Some(tr)) = (span, self.tracer.as_deref()) else {
            return;
        };
        let mut sp = Span::child(
            s.ctx,
            s.id,
            span_names::SERVE,
            s.start,
            tr.now_us().saturating_sub(s.start),
        )
        .on_mds(self.me.0)
        .with_arg(ArgKey::Target, target.index() as u64);
        if let Some(body) = body {
            sp = sp.with_arg(ArgKey::Body, u64::from(body.code()));
        }
        if let Some(fault) = fault {
            sp = sp.with_fault(fault);
        }
        tr.record(sp);
    }

    /// Commits an update of `target` on this replica and journals it.
    pub(crate) fn commit(&self, target: NodeId, gl: bool) -> VersionedAttr {
        let now = self.now_ms();
        self.attrs.write().update(target, |a| a.mtime = now);
        let committed = self.attrs.read().get(target);
        self.journal(attr_commit(target, gl, committed));
        committed
    }

    /// Appends one record to this MDS's WAL; a no-op without a store.
    pub(crate) fn journal(&self, record: MdsRecord) {
        if let Some(store) = self.store.lock().as_mut() {
            let appended = if self.deferred_sync {
                store.append_deferred(record)
            } else {
                store.append(record)
            };
            appended.expect("WAL append failed");
        }
    }

    /// Makes every journaled record durable; a no-op without a store.
    pub(crate) fn sync(&self) {
        if let Some(store) = self.store.lock().as_mut() {
            store.sync().expect("WAL sync failed");
        }
    }

    /// Opens this MDS's store at `<root>/mds-<k>` and recovers from it:
    /// records `recovery_ms` and a `StoreRecovered` event, rebuilds the
    /// attribute table from the journaled commits, re-seeds popularity
    /// (live counts win over journaled ones), and converges the durable
    /// ownership set on the roots `index` gives this MDS. The store comes
    /// back synced; the caller decides when to publish it.
    ///
    /// # Panics
    ///
    /// Panics if the store cannot be opened or recovered: an MDS must not
    /// serve from state it cannot trust.
    pub(crate) fn recover_store(
        &self,
        root: &Path,
        config: StoreConfig,
        index: &LocalIndex,
    ) -> MdsStore {
        let dir = root.join(format!("mds-{}", self.me.index()));
        let (store, info) = MdsStore::open(&dir, config).expect("store recovery failed");
        let mut store = store.with_registry(&self.registry, self.me.0);
        if let Some(tr) = &self.tracer {
            store = store.with_tracer(Arc::clone(tr), self.me.0);
        }
        let recovery_ms = info.duration.as_millis() as u64;
        self.registry
            .histogram(MetricKey::mds(names::RECOVERY_MS, self.me.0))
            .record(recovery_ms);
        self.registry.journal().record(EventKind::StoreRecovered {
            mds: self.me.0,
            records: info.records_replayed,
            torn_bytes: info.torn_bytes,
            recovery_ms,
        });
        let mut table = AttrTable::new(&self.tree);
        for (&node, a) in &store.state().attrs {
            table.apply_if_newer(NodeId::from_index(node as usize), versioned_attr(a));
        }
        *self.attrs.write() = table;
        {
            let mut counts = self.subtree_counts.write();
            for (&r, &bits) in &store.state().popularity {
                counts
                    .entry(NodeId::from_index(r as usize))
                    .or_insert_with(|| f64::from_bits(bits));
            }
        }
        let seeded: BTreeSet<u64> = index
            .iter()
            .filter(|(_, owner)| *owner == self.me)
            .map(|(root, _)| root.index() as u64)
            .collect();
        let owned = &store.state().owned;
        let shed: Vec<u64> = owned.difference(&seeded).copied().collect();
        let acquire: Vec<u64> = seeded.difference(owned).copied().collect();
        for (roots, acquired) in [(shed, false), (acquire, true)] {
            for root in roots {
                store
                    .append(MdsRecord::Ownership { root, acquired })
                    .expect("WAL append failed");
            }
        }
        store.sync().expect("WAL sync failed");
        store
    }
}

/// The WAL record of an attribute commit on `node`.
pub(crate) fn attr_commit(node: NodeId, gl: bool, v: VersionedAttr) -> MdsRecord {
    MdsRecord::AttrCommit {
        node: node.index() as u64,
        gl,
        attr: AttrState {
            version: v.version,
            mode: v.attr.mode,
            uid: v.attr.uid,
            gid: v.attr.gid,
            size: v.attr.size,
            mtime: v.attr.mtime,
        },
    }
}

/// The in-memory form of a journaled attribute record.
fn versioned_attr(a: &AttrState) -> VersionedAttr {
    VersionedAttr {
        attr: FileAttr {
            mode: a.mode,
            uid: a.uid,
            gid: a.gid,
            size: a.size,
            mtime: a.mtime,
        },
        version: a.version,
    }
}
