//! `serve`: one closed-loop client against a `serve` daemon started on a
//! fresh state directory for every pass. A fixed seeded mix of fresh
//! specs (simulate, write the trial journal) and resubmits of earlier
//! specs (content-addressed journal replay, no simulation) exercises the
//! write path and the read path of the same journal. The only workload
//! that crosses `bench::serve`, its socket protocol and its WAL.

use crate::measure::{median, tail, timed, Digest, Spans};
use crate::{derive_seed, Options, Pass, Size, Trace, Workbench};
use microsampler_bench::run_modexp_iterations;
use microsampler_bench::serve::queue::JobSpec;
use microsampler_bench::sweep::HEARTBEAT_SCHEMA;
use microsampler_core::analyze;
use microsampler_kernels::modexp::ModexpVariant;
use microsampler_obs::{json, Value};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const KERNELS: [ModexpVariant; 3] =
    [ModexpVariant::V1CompilerVuln, ModexpVariant::V1MicroarchVuln, ModexpVariant::V2Safe];

/// How long the daemon may take to answer its first request, to drain on
/// SIGTERM, or to answer one job.
const DAEMON_DEADLINE: Duration = Duration::from_secs(30);

/// One submission of the mix: a spec index, and whether it resubmits a
/// spec an earlier job of the pass already ran.
#[derive(Clone, Copy, Debug)]
struct Job {
    spec: usize,
    replay: bool,
}

pub(crate) struct Bench {
    specs: Vec<JobSpec>,
    mix: Vec<Job>,
    exe: PathBuf,
    work_dir: PathBuf,
    passes: usize,
    /// Each spec's in-process verdict `(leaky, report)`, computed once.
    expected: Option<Vec<(bool, Value)>>,
    /// Client-side latencies over every pass, by kind, in ms.
    latency: BTreeMap<&'static str, Vec<f64>>,
}

impl Workbench for Bench {
    fn setup(opts: &Options) -> Result<Bench, String> {
        let exe = opts.daemon_exe.clone().ok_or("no daemon executable given")?;
        if !exe.exists() {
            return Err(format!("daemon executable {} does not exist", exe.display()));
        }
        let fresh = match opts.size {
            Size::Full => 12,
            Size::Tiny => 3,
        };
        // Spec size is the daemon's default job (`JobSpec::default()`:
        // 4 keys x 1 byte); only kernel and seed vary.
        let specs: Vec<JobSpec> = (0..fresh)
            .map(|i| JobSpec {
                kernel: KERNELS[i % KERNELS.len()],
                seed: derive_seed(opts.seed, i),
                ..JobSpec::default()
            })
            .collect();
        // Every third fresh job is followed by a resubmit of an earlier
        // spec, picked by a seeded generator. The one-in-four replay
        // share is an assumption: no recorded traffic backs it.
        let mut rng = derive_seed(opts.seed, 99);
        let mut mix = Vec::new();
        for i in 0..fresh {
            mix.push(Job { spec: i, replay: false });
            if (i + 1) % 3 == 0 {
                rng = rng
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                mix.push(Job { spec: ((rng >> 33) % (i as u64 + 1)) as usize, replay: true });
            }
        }
        Ok(Bench {
            specs,
            mix,
            exe,
            work_dir: opts.work_dir.clone(),
            passes: 0,
            expected: None,
            latency: BTreeMap::new(),
        })
    }

    fn pass(&mut self) -> Result<Pass, String> {
        self.run_pass(None)
    }

    fn traced_pass(&mut self, trace: &mut Trace) -> Result<Pass, String> {
        self.run_pass(Some(trace))
    }

    fn probes(&mut self, trace: &mut Trace) -> Result<(), String> {
        for (name, kind) in [
            ("serve.ack_ms", "ack"),
            ("serve.exec_ms", "exec"),
            ("serve.replay_ms", "replay"),
            ("serve.queue_wait_ms", "queue_wait"),
        ] {
            let xs = self.latency.get(kind).map_or(&[][..], Vec::as_slice);
            trace.values.insert(name, median(xs));
        }
        let all = self.latency.get("total").cloned().unwrap_or_default();
        trace.values.insert("latency_p50_ms", median(&all));
        trace.values.insert("latency_samples", all.len() as f64);
        if let Some((pct, value)) = tail(&all) {
            trace.values.insert("latency_tail_pct", pct as f64);
            trace.values.insert("latency_tail_ms", value);
        }
        Ok(())
    }
}

/// What one job looked like from the client.
struct JobTimes {
    ack_ms: f64,
    total_ms: f64,
    verdict: Value,
}

impl Bench {
    fn run_pass(&mut self, trace: Option<&mut Trace>) -> Result<Pass, String> {
        self.passes += 1;
        let state_dir = self.work_dir.join(format!("serve-{}-{}", std::process::id(), self.passes));
        std::fs::remove_dir_all(&state_dir).ok();
        std::fs::create_dir_all(&state_dir)
            .map_err(|e| format!("cannot create {}: {e}", state_dir.display()))?;
        let socket = state_dir.join("serve.sock");
        let (daemon, setup_s) = timed(|| Daemon::start(&self.exe, &state_dir, &socket));
        let mut daemon = daemon.inspect_err(|_| {
            std::fs::remove_dir_all(&state_dir).ok();
        })?;

        let mut failures = Vec::new();
        let mut verdicts = Vec::new();
        let start = Instant::now();
        let mut spans = Spans::default();
        let mut client_ms = Vec::new();
        for job in &self.mix {
            let spec = &self.specs[job.spec];
            let (times, secs) = timed(|| submit(&socket, spec));
            spans.add("serve", secs);
            match times {
                Ok(t) => {
                    let kind = if job.replay { "replay" } else { "exec" };
                    self.latency.entry(kind).or_default().push(t.total_ms - t.ack_ms);
                    client_ms.push(t.total_ms - t.ack_ms);
                    self.latency.entry("ack").or_default().push(t.ack_ms);
                    self.latency.entry("total").or_default().push(t.total_ms);
                    verdicts.push(Some(t.verdict));
                }
                Err(e) => {
                    failures.push(format!("job for spec {}: {e}", job.spec));
                    verdicts.push(None);
                }
            }
        }
        let wall_s = start.elapsed().as_secs_f64();
        if let Some(trace) = trace {
            trace.ledger.serial(&spans);
        }
        let rss_mb = crate::measure::peak_rss_mb(&daemon.child.id().to_string());
        let wal_bytes = file_len(&state_dir.join("serve-wal.jsonl"));
        let journal_bytes = journal_bytes(&state_dir);
        let stopped = daemon.stop();
        let metrics = std::fs::read_to_string(state_dir.join("serve-metrics.json"))
            .ok()
            .and_then(|t| json::parse(&t).ok());
        std::fs::remove_dir_all(&state_dir).ok();
        stopped?;
        let metrics = metrics.ok_or("the daemon left no serve-metrics.json")?;
        let sum = |name: &str| {
            metrics.get(name).and_then(|c| c.get("sum")).and_then(Value::as_f64).unwrap_or(0.0)
        };
        let count = |name: &str| {
            metrics.get(name).and_then(|c| c.get("count")).and_then(Value::as_f64).unwrap_or(0.0)
        };
        // Ack→verdict less the daemon's own per-job run time: the wait in
        // the queue and for delivery to the client.
        let jobs = count("serve.job.duration_sec");
        if jobs > 0.0 && !client_ms.is_empty() {
            let mean_client = client_ms.iter().sum::<f64>() / client_ms.len() as f64;
            let mean_daemon = sum("serve.job.duration_sec") * 1e3 / jobs;
            self.latency.entry("queue_wait").or_default().push(mean_client - mean_daemon);
        }

        self.check_verdicts(&verdicts, &mut failures);
        let mut digest = Digest::default();
        for v in &verdicts {
            digest.str(&v.as_ref().map_or_else(String::new, Value::render_compact));
        }
        let mut counters = BTreeMap::new();
        for name in ["sim.cycles", "sim.committed", "trace.rows_sampled", "trace.hash_bytes"] {
            counters.insert(name, sum(name));
        }
        counters.insert("serve.wal_bytes", wal_bytes as f64);
        counters.insert("serve.journal_bytes", journal_bytes as f64);
        let replays = self.mix.iter().filter(|j| j.replay).count();
        counters.insert("serve.replay_ratio", replays as f64 / self.mix.len() as f64);
        let trials =
            self.mix.iter().filter(|j| !j.replay).map(|j| self.specs[j.spec].keys as u64).sum();
        Ok(Pass {
            wall_s,
            digest: digest.finish(),
            trials,
            ops: self.mix.len() as u64,
            failures,
            counters,
            setup_s: Some(setup_s),
            rss_mb,
        })
    }

    /// Each verdict must equal the in-process verdict for its spec.
    fn check_verdicts(&mut self, verdicts: &[Option<Value>], failures: &mut Vec<String>) {
        let expected = self.expected.get_or_insert_with(|| {
            self.specs
                .iter()
                .map(|s| {
                    let config = s.core_config().expect("benchmark specs name a known core");
                    let report = analyze(&run_modexp_iterations(
                        s.kernel,
                        &config,
                        s.keys,
                        s.key_bytes,
                        s.seed,
                    ));
                    (report.is_leaky(), report.to_json())
                })
                .collect()
        });
        for (job, verdict) in self.mix.iter().zip(verdicts) {
            let Some(verdict) = verdict else { continue };
            let (leaky, report) = &expected[job.spec];
            let same = verdict.get("leaky").and_then(Value::as_bool) == Some(*leaky)
                && verdict.get("report") == Some(report);
            if !same {
                failures.push(format!("spec {}: daemon verdict differs from in-process", job.spec));
            }
        }
        // The in-process runs fed the registry; they are not pass work.
        microsampler_obs::metrics::reset();
    }
}

/// Submits one job and reads its event stream to the verdict.
fn submit(socket: &Path, spec: &JobSpec) -> Result<JobTimes, String> {
    let start = Instant::now();
    let stream = UnixStream::connect(socket).map_err(|e| format!("connect: {e}"))?;
    stream.set_read_timeout(Some(DAEMON_DEADLINE)).map_err(|e| e.to_string())?;
    let mut request = spec.to_json();
    if let Value::Object(fields) = &mut request {
        fields.insert(0, ("op".into(), "submit".into()));
        fields.insert(1, ("client".into(), "perfbench".into()));
    }
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    writeln!(writer, "{}", request.render_compact()).map_err(|e| format!("send: {e}"))?;
    let mut ack_ms = None;
    for line in BufReader::new(stream).lines() {
        let line = line.map_err(|e| format!("read: {e}"))?;
        let event = json::parse(&line).map_err(|e| format!("bad event {line:?}: {e}"))?;
        match event.get("event").and_then(Value::as_str) {
            Some("accepted") => ack_ms = Some(start.elapsed().as_secs_f64() * 1e3),
            Some("verdict") => {
                let total_ms = start.elapsed().as_secs_f64() * 1e3;
                if event.get("status").and_then(Value::as_str) != Some("done") {
                    return Err(format!("job ended {line}"));
                }
                let verdict = event.get("verdict").cloned().ok_or("verdict without a body")?;
                return Ok(JobTimes { ack_ms: ack_ms.unwrap_or(total_ms), total_ms, verdict });
            }
            Some("busy" | "error") => return Err(format!("refused: {line}")),
            _ => {}
        }
    }
    Err("the daemon closed the connection before the verdict".into())
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// Bytes of trial records in the state directory's journals. Progress
/// heartbeats carry wall-clock rates, so they are left out.
fn journal_bytes(state_dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(state_dir) else { return 0 };
    let mut bytes = 0;
    for entry in entries.flatten() {
        let name = entry.file_name().to_string_lossy().to_string();
        if name.starts_with("trials-") && name.ends_with(".jsonl") {
            let text = std::fs::read_to_string(entry.path()).unwrap_or_default();
            bytes += text
                .lines()
                .filter(|l| !l.contains(HEARTBEAT_SCHEMA))
                .map(|l| l.len() as u64 + 1)
                .sum::<u64>();
        }
    }
    bytes
}

/// A daemon child process, stopped (and waited for) on drop at the
/// latest.
struct Daemon {
    child: Child,
    stopped: bool,
}

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
}

const SIGTERM: i32 = 15;

impl Daemon {
    /// Starts the daemon and waits until it answers a `status` request.
    fn start(exe: &Path, state_dir: &Path, socket: &Path) -> Result<Daemon, String> {
        let log = std::fs::File::create(state_dir.join("daemon.log"))
            .map_err(|e| format!("cannot create the daemon log: {e}"))?;
        let child = Command::new(exe)
            .arg("--serve-daemon")
            .arg(state_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("cannot start the daemon: {e}"))?;
        let mut daemon = Daemon { child, stopped: false };
        let deadline = Instant::now() + DAEMON_DEADLINE;
        loop {
            if let Ok(Some(status)) = daemon.child.try_wait() {
                daemon.stopped = true;
                return Err(format!("the daemon exited during start-up: {status}"));
            }
            if let Ok(mut stream) = UnixStream::connect(socket) {
                if writeln!(stream, "{{\"op\":\"status\"}}").is_ok() {
                    let mut line = String::new();
                    if BufReader::new(stream).read_line(&mut line).is_ok()
                        && line.contains("status")
                    {
                        return Ok(daemon);
                    }
                }
            }
            if Instant::now() >= deadline {
                return Err("the daemon did not become ready".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Asks the daemon to drain (SIGTERM) and waits for a clean exit.
    fn stop(&mut self) -> Result<(), String> {
        self.stopped = true;
        let pid = i32::try_from(self.child.id()).map_err(|e| e.to_string())?;
        // SAFETY: `kill` has no memory-safety preconditions; `pid` names
        // our own child, which has not been waited for, so it cannot have
        // been reused by another process.
        unsafe {
            kill(pid, SIGTERM);
        }
        let deadline = Instant::now() + DAEMON_DEADLINE;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("the daemon exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    self.child.kill().ok();
                    self.child.wait().ok();
                    return Err("the daemon did not drain on SIGTERM".into());
                }
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if !self.stopped {
            self.child.kill().ok();
            self.child.wait().ok();
        }
    }
}
