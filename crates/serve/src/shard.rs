//! Backend shard supervision: spawning, discovering and reaping `serve`
//! processes.
//!
//! The shard tier multiplies the single-process server: `N` independent
//! `serve` processes — each with its own port, request queue, worker
//! pool and [`camo_litho::ContextCache`] — sit behind one
//! [`router`](crate::router) front. This module owns the *process* half of
//! that story:
//!
//! * [`ShardSpec`] describes how to launch one shard (the `serve` binary
//!   path plus whatever tuning flags every shard should share);
//! * [`ShardSet::spawn`] starts `count` children via [`std::process`], each
//!   with `--port 0 --port-file <tmp>`, and blocks until every shard has
//!   written its ephemeral address (so the caller never races a
//!   half-started backend);
//! * [`ShardSet::kill`] force-kills one shard (the failure-injection hook
//!   behind the router's redispatch and chaos tests);
//! * [`ShardSet::respawn`] replaces one dead (or doomed) shard with a
//!   fresh process launched from the stored spec — the router's supervisor
//!   calls this when its prober declares a shard dead, and the rolling
//!   `restart` admin request calls it per shard;
//! * [`ShardSet::wait_all`] reaps every child after a graceful drain —
//!   escalating to a kill only when a child outlives the timeout.
//!
//! While a shard is down the router routes around it (every fingerprint's
//! preference order spans all shards), so capacity degrades but
//! availability does not; supervised respawn (see [`crate::supervise`])
//! then restores capacity without operator action. Dropping a `ShardSet`
//! kills any children still running, so an aborted router start cannot
//! leak processes.

use std::io;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How to launch one backend shard process.
#[derive(Debug, Clone)]
pub struct ShardSpec {
    /// Path to the `serve` binary (a router binary typically passes
    /// [`std::env::current_exe`], re-executing itself without `--shards`).
    pub binary: PathBuf,
    /// Extra arguments forwarded verbatim to every shard (e.g. `--threads`,
    /// `--queue-depth`). `--port`/`--port-file` are owned by the spawner.
    pub args: Vec<String>,
    /// How long to wait for a spawned shard to report its bound address.
    pub spawn_timeout: Duration,
}

impl ShardSpec {
    /// A spec launching `binary` with no extra flags and a 30 s discovery
    /// timeout.
    pub fn new(binary: impl Into<PathBuf>) -> Self {
        Self {
            binary: binary.into(),
            args: Vec::new(),
            spawn_timeout: Duration::from_secs(30),
        }
    }
}

/// One supervised backend process.
#[derive(Debug)]
struct ShardProcess {
    child: Child,
    addr: SocketAddr,
    port_file: PathBuf,
}

/// A set of spawned backend `serve` processes, keeping the spec they were
/// launched from so dead members can be respawned in place.
#[derive(Debug)]
pub struct ShardSet {
    shards: Vec<ShardProcess>,
    spec: ShardSpec,
}

impl ShardSet {
    /// Spawns `count` shard processes and waits until each has bound its
    /// ephemeral port and written it to its `--port-file`.
    ///
    /// On any failure (spawn error, discovery timeout, unparseable port
    /// file) every already-started child is killed before the error is
    /// returned — a failed spawn never leaks processes.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero.
    pub fn spawn(spec: &ShardSpec, count: usize) -> io::Result<Self> {
        assert!(count > 0, "a shard tier needs at least one shard");
        // Pid alone is not unique enough: concurrent spawns inside one test
        // process would race on the same file names.
        static SPAWN_SERIAL: std::sync::atomic::AtomicUsize =
            std::sync::atomic::AtomicUsize::new(0);
        let serial = SPAWN_SERIAL.fetch_add(1, std::sync::atomic::Ordering::Relaxed); // relaxed-ok: unique-suffix counter; uniqueness needs only atomicity
        let mut set = Self {
            shards: Vec::new(),
            spec: spec.clone(),
        };
        let base = std::env::temp_dir();
        for index in 0..count {
            let port_file = base.join(format!(
                "camo-shard-{}-{serial}-{index}.port",
                std::process::id()
            ));
            // Killed on drop of `set` if discovery below fails.
            let child = Self::launch(spec, &port_file)?;
            set.shards.push(ShardProcess {
                child,
                addr: SocketAddr::from(([0, 0, 0, 0], 0)),
                port_file,
            });
        }
        let deadline = Instant::now() + spec.spawn_timeout;
        for index in 0..count {
            set.shards[index].addr = Self::discover(&mut set.shards[index], deadline)?;
        }
        Ok(set)
    }

    /// Starts one child of `spec`, reporting into `port_file`.
    fn launch(spec: &ShardSpec, port_file: &PathBuf) -> io::Result<Child> {
        // A stale file from a recycled pid (or a previous incarnation of
        // this shard slot) would satisfy the discovery poll with the wrong
        // address; remove it before spawning.
        let _ = std::fs::remove_file(port_file);
        Command::new(&spec.binary)
            .arg("--port")
            .arg("0")
            .arg("--port-file")
            .arg(port_file)
            .args(&spec.args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn()
    }

    /// Polls one shard's port file until it holds a parseable address; a
    /// child that exits early or outlives `deadline` is an error.
    fn discover(shard: &mut ShardProcess, deadline: Instant) -> io::Result<SocketAddr> {
        loop {
            if let Ok(raw) = std::fs::read_to_string(&shard.port_file) {
                let trimmed = raw.trim();
                if !trimmed.is_empty() {
                    return trimmed.parse().map_err(|_| {
                        io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("shard wrote an unparseable address: {trimmed:?}"),
                        )
                    });
                }
            }
            if let Some(status) = shard.child.try_wait()? {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    format!("shard exited during startup: {status}"),
                ));
            }
            if Instant::now() >= deadline {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "shard did not report its address before the spawn timeout",
                ));
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    /// Number of shards spawned (dead ones included).
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// True when the set holds no shards (never, after a successful spawn).
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// The bound address of each shard, in spawn order.
    pub fn addrs(&self) -> Vec<SocketAddr> {
        self.shards.iter().map(|s| s.addr).collect()
    }

    /// Force-kills one shard (SIGKILL) and reaps it — the
    /// failure-injection hook used by the redispatch tests.
    pub fn kill(&mut self, index: usize) -> io::Result<()> {
        let shard = &mut self.shards[index];
        shard.child.kill()?;
        shard.child.wait()?;
        Ok(())
    }

    /// Replaces shard `index` with a fresh process launched from the stored
    /// spec, returning the new incarnation's bound address.
    ///
    /// The old child is killed (if still running) and reaped first, so the
    /// slot never holds two live processes. On failure — spawn error,
    /// discovery timeout, or a corrupt port file — the half-started child
    /// stays in the slot: the next `respawn` call (or `Drop`) kills it, so
    /// a failed respawn still cannot leak processes.
    pub fn respawn(&mut self, index: usize) -> io::Result<SocketAddr> {
        let spec = self.spec.clone();
        let shard = &mut self.shards[index];
        if shard.child.try_wait()?.is_none() {
            let _ = shard.child.kill();
        }
        let _ = shard.child.wait();
        shard.child = Self::launch(&spec, &shard.port_file)?;
        let deadline = Instant::now() + spec.spawn_timeout;
        shard.addr = Self::discover(shard, deadline)?;
        Ok(shard.addr)
    }

    /// Waits up to `timeout` for shard `index` to exit *on its own* (the
    /// graceful half of a rolling restart: the caller has already sent the
    /// shard a `shutdown` request). Returns whether the shard exited; a
    /// shard that outlives the timeout is left running for the caller to
    /// escalate (typically via [`ShardSet::respawn`], which kills it).
    pub fn wait_one(&mut self, index: usize, timeout: Duration) -> io::Result<bool> {
        let deadline = Instant::now() + timeout;
        loop {
            if self.shards[index].child.try_wait()?.is_some() {
                return Ok(true);
            }
            if Instant::now() >= deadline {
                return Ok(false);
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    /// Mutable access to the stored launch spec — the failure-injection
    /// hook behind the breaker tests (point `binary` at something that
    /// corrupts its port file and every respawn attempt fails) and an ops
    /// hook for retuning shard flags before a rolling restart.
    pub fn spec_mut(&mut self) -> &mut ShardSpec {
        &mut self.spec
    }

    /// Waits for every shard to exit on its own (the graceful path: the
    /// router has sent each a `shutdown` request); any child still running
    /// after `timeout` is killed. Returns the number of shards that had to
    /// be killed.
    pub fn wait_all(&mut self, timeout: Duration) -> io::Result<usize> {
        let deadline = Instant::now() + timeout;
        let mut killed = 0usize;
        for shard in &mut self.shards {
            loop {
                if shard.child.try_wait()?.is_some() {
                    break;
                }
                if Instant::now() >= deadline {
                    let _ = shard.child.kill();
                    let _ = shard.child.wait();
                    killed += 1;
                    break;
                }
                std::thread::sleep(Duration::from_millis(10));
            }
            let _ = std::fs::remove_file(&shard.port_file);
        }
        Ok(killed)
    }
}

impl Drop for ShardSet {
    /// Kills and reaps any child still running, so an aborted start (or a
    /// caller that never drained) cannot leak shard processes.
    fn drop(&mut self) {
        for shard in &mut self.shards {
            if let Ok(None) = shard.child.try_wait() {
                let _ = shard.child.kill();
            }
            let _ = shard.child.wait();
            let _ = std::fs::remove_file(&shard.port_file);
        }
    }
}
