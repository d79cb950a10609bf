//! A `d2tree serve` child process: spawn, wait for its first answer,
//! scrape its admin plane, kill it.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use d2tree_cluster::{
    admin_get, parse_metrics_json, MetricsDoc, NetClient, Request, RequestId, ResponseBody,
};
use d2tree_namespace::NodeId;
use d2tree_workload::OpKind;

use crate::spec::{Workload, GL_PROPORTION};

/// The daemon exits on its own after this long: a second guard, beside
/// dying with its parent, against outliving the benchmark.
const LIFETIME_MS: u64 = 170_000;

/// How long a daemon may take to answer its first request.
const START_TIMEOUT: Duration = Duration::from_secs(60);

/// A running daemon. Dropping it kills the process and waits for it.
pub struct Daemon {
    child: Child,
    pub addr: String,
    admin: String,
    log: PathBuf,
    /// `<store-root>/mds-0`, when store-backed.
    pub store_dir: Option<PathBuf>,
}

impl Daemon {
    /// Starts `bin serve` for `w` in `dir` (port files, log and store
    /// live there) and returns it with the seconds from spawn until it
    /// answered its first request.
    pub fn start(bin: &Path, w: &Workload, seed: u64, dir: &Path) -> Result<(Daemon, f64), String> {
        fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let port_file = dir.join("port");
        let admin_file = dir.join("admin-port");
        let log = dir.join("serve.log");
        let log_file = fs::File::create(&log).map_err(|e| format!("create log: {e}"))?;
        let mut cmd = Command::new(bin);
        cmd.arg("serve")
            .args(["--addr", "127.0.0.1:0", "--mds-id", "0", "--mds", "1"])
            .args(["--profile", w.profile])
            .args(["--nodes", &w.nodes.to_string()])
            .args(["--ops", &w.history_ops.to_string()])
            .args(["--seed", &seed.to_string()])
            .args(["--gl", &GL_PROPORTION.to_string()])
            .args(["--duration-ms", &LIFETIME_MS.to_string()])
            .arg("--port-file")
            .arg(&port_file)
            .args(["--admin-addr", "127.0.0.1:0"])
            .arg("--admin-port-file")
            .arg(&admin_file);
        let store_dir = if w.store {
            let root = dir.join("store");
            cmd.arg("--store-root").arg(&root);
            Some(root.join("mds-0"))
        } else {
            None
        };
        crate::sys::die_with_parent(&mut cmd);
        cmd.stdin(Stdio::null())
            .stdout(log_file.try_clone().map_err(|e| format!("log: {e}"))?)
            .stderr(log_file);
        let t0 = Instant::now();
        let child = cmd
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut daemon = Daemon {
            child,
            addr: String::new(),
            admin: String::new(),
            log,
            store_dir,
        };
        loop {
            if let (Ok(a), Ok(b)) = (
                fs::read_to_string(&port_file),
                fs::read_to_string(&admin_file),
            ) {
                daemon.addr = a.trim().to_owned();
                daemon.admin = b.trim().to_owned();
                break;
            }
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!(
                    "daemon exited during start-up ({status}): {}",
                    daemon.log_tail()
                ));
            }
            if t0.elapsed() > START_TIMEOUT {
                return Err(format!("daemon not listening after {START_TIMEOUT:?}"));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let mut probe = NetClient::connect(&daemon.addr, START_TIMEOUT)
            .map_err(|e| format!("connect to daemon: {e}"))?;
        let root = NodeId::from_index(0);
        let resp = probe
            .call(&Request {
                id: RequestId(1),
                kind: OpKind::Read,
                target: root,
                hops: 0,
                trace: None,
            })
            .map_err(|e| format!("first request: {e}"))?;
        let setup_s = t0.elapsed().as_secs_f64();
        if resp.id != RequestId(1) || resp.body != (ResponseBody::Served { node: root }) {
            return Err(format!("first request answered {resp:?}"));
        }
        Ok((daemon, setup_s))
    }

    /// One `/metrics.json` scrape.
    pub fn scrape(&self) -> Result<MetricsDoc, String> {
        let (status, body) = admin_get(&self.admin, "/metrics.json", Duration::from_secs(5))
            .map_err(|e| format!("scrape: {e}"))?;
        if status != 200 {
            return Err(format!("scrape answered HTTP {status}"));
        }
        parse_metrics_json(&body).ok_or_else(|| "unparsable /metrics.json".to_owned())
    }

    /// `kill -9` and reap.
    pub fn kill(mut self) -> Result<(), String> {
        self.child.kill().map_err(|e| format!("kill daemon: {e}"))?;
        self.child.wait().map_err(|e| format!("reap daemon: {e}"))?;
        Ok(())
    }

    fn log_tail(&self) -> String {
        let bytes = fs::read(&self.log).unwrap_or_default();
        let start = bytes.len().saturating_sub(2000);
        String::from_utf8_lossy(&bytes[start..]).into_owned()
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Already dead after `kill`; errors here are not actionable.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}
