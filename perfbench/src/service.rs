//! The `journal` and `service` layers, measured on an in-process `dstressd`
//! serving loopback TCP and journaling to a real directory. Two closed-loop
//! clients each submit a quick-scale word64 campaign, watch it to
//! `Completed`, and only then submit the next. The searches journal
//! nothing, so a traced run drives this loop after its search. It is no
//! end-to-end workload: its wall-clock rates follow the hypervisor's steal
//! more than the program (see `README.md`).

use crate::stats::{median, percentile};
use crate::{mix, Config, Report, TEMP_C, WORKERS};
use dstress::service::{
    CampaignSpec, DaemonConfig, Dstressd, Event, LeaderboardEntry, Request, Response, SeqEvent,
};
use dstress::{DStress, DiskStorage, EvalStats, ExperimentScale, Metric, Storage};
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Concurrent client connections.
const CLIENTS: usize = 2;

/// Campaigns the loop completes at least.
const MIN_CAMPAIGNS: usize = 20;

/// Share of the run length the loop lasts at least.
const RUN_SHARE: f64 = 0.1;

/// Distinct campaign seeds the loop draws from. Campaigns cycle through
/// them, so the solo reference runs the gate compares against stay few
/// while the daemon still journals every campaign separately.
const SEED_POOL: usize = 64;

/// One watched campaign, timed from its `Submit`.
#[derive(Debug)]
struct CampaignRun {
    seed: u64,
    submit_ack_s: f64,
    watch_ack_s: f64,
    first_event_s: Option<f64>,
    total_s: f64,
    /// The `Completed` leaderboard; `None` when the campaign failed, was
    /// cancelled or the submit was refused.
    leaderboard: Option<Vec<LeaderboardEntry>>,
    stats: Option<EvalStats>,
    generations: u32,
    event_gaps_s: Vec<f64>,
    lagged: u64,
    event_bytes: u64,
}

/// A line-delimited JSON connection to the daemon.
struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| format!("read timeout: {e}"))?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| format!("clone: {e}"))?);
        Ok(Client { stream, reader })
    }

    fn send(&mut self, request: &Request) -> Result<(), String> {
        let mut line = serde_json::to_string(request).map_err(|e| format!("encode: {e}"))?;
        line.push('\n');
        self.stream
            .write_all(line.as_bytes())
            .map_err(|e| format!("send: {e}"))
    }

    fn line(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("the daemon closed the connection".into()),
            Ok(_) => Ok(line),
            Err(e) => Err(format!("receive: {e}")),
        }
    }

    fn request(&mut self, request: &Request) -> Result<Response, String> {
        self.send(request)?;
        let line = self.line()?;
        serde_json::from_str(&line).map_err(|e| format!("decode {line:?}: {e}"))
    }

    /// Submits a quick-scale word64 campaign and watches it to the end.
    fn campaign(&mut self, seed: u64) -> Result<CampaignRun, String> {
        let mut run = CampaignRun {
            seed,
            submit_ack_s: 0.0,
            watch_ack_s: 0.0,
            first_event_s: None,
            total_s: 0.0,
            leaderboard: None,
            stats: None,
            generations: 0,
            event_gaps_s: Vec::new(),
            lagged: 0,
            event_bytes: 0,
        };
        let submitted = Instant::now();
        let spec = CampaignSpec {
            scale: "quick".into(),
            seed,
            ..CampaignSpec::default()
        };
        let campaign = match self.request(&Request::Submit { spec })? {
            Response::Submitted { campaign, .. } => campaign,
            Response::Error { message } => {
                eprintln!("dstressd: submit of seed {seed} refused: {message}");
                run.total_s = submitted.elapsed().as_secs_f64();
                return Ok(run);
            }
            other => return Err(format!("expected Submitted, got {other:?}")),
        };
        run.submit_ack_s = submitted.elapsed().as_secs_f64();
        let watched = Instant::now();
        match self.request(&Request::Watch {
            campaign,
            from_seq: 0,
        })? {
            Response::Watching { .. } => {}
            other => return Err(format!("expected Watching, got {other:?}")),
        }
        run.watch_ack_s = watched.elapsed().as_secs_f64();
        let mut last_event = Instant::now();
        loop {
            let line = self.line()?;
            let Ok(stamped) = serde_json::from_str::<SeqEvent>(&line) else {
                // The end-of-stream marker (a Response) ends the watch.
                break;
            };
            run.event_bytes += line.len() as u64;
            run.event_gaps_s.push(last_event.elapsed().as_secs_f64());
            last_event = Instant::now();
            match stamped.event {
                Event::Generation {
                    generation, stats, ..
                } => {
                    run.first_event_s
                        .get_or_insert_with(|| submitted.elapsed().as_secs_f64());
                    run.generations = generation;
                    run.stats = Some(stats);
                }
                Event::Completed {
                    generations,
                    leaderboard,
                    ..
                } => {
                    run.total_s = submitted.elapsed().as_secs_f64();
                    run.generations = generations;
                    run.leaderboard = Some(leaderboard);
                }
                Event::Lagged { missed } => run.lagged += missed,
                Event::Cancelled { .. } | Event::Failed { .. } => {
                    run.total_s = submitted.elapsed().as_secs_f64();
                }
            }
        }
        Ok(run)
    }
}

/// A `Storage` that times every fsync and counts appended bytes.
#[derive(Debug, Clone, Default)]
struct TimingStorage {
    inner: DiskStorage,
    stats: Arc<Mutex<JournalStats>>,
}

#[derive(Debug, Default)]
struct JournalStats {
    syncs_s: Vec<f64>,
    append_bytes: u64,
}

impl TimingStorage {
    fn stats(&self) -> std::sync::MutexGuard<'_, JournalStats> {
        self.stats.lock().expect("no journal-stats holder panics")
    }
}

impl Storage for TimingStorage {
    fn read(&self, path: &Path) -> io::Result<Option<Vec<u8>>> {
        self.inner.read(path)
    }

    fn append(&mut self, path: &Path, data: &[u8]) -> io::Result<()> {
        self.stats().append_bytes += data.len() as u64;
        self.inner.append(path, data)
    }

    fn sync(&mut self, path: &Path) -> io::Result<()> {
        let started = Instant::now();
        let synced = self.inner.sync(path);
        self.stats().syncs_s.push(started.elapsed().as_secs_f64());
        synced
    }

    fn write(&mut self, path: &Path, data: &[u8]) -> io::Result<()> {
        self.inner.write(path, data)
    }

    fn rename(&mut self, from: &Path, to: &Path) -> io::Result<()> {
        self.inner.rename(from, to)
    }

    fn remove(&mut self, path: &Path) -> io::Result<()> {
        self.inner.remove(path)
    }

    fn create_dir_all(&mut self, path: &Path) -> io::Result<()> {
        self.inner.create_dir_all(path)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        self.inner.list(dir)
    }
}

/// Starts a daemon whose registry lives in `dir`, which [`scratch_dir`]
/// has emptied.
fn start(storage: TimingStorage, dir: &Path) -> Result<Dstressd, String> {
    Dstressd::start_with_storage(
        storage,
        DaemonConfig {
            addr: "127.0.0.1:0".into(),
            dir: dir.to_path_buf(),
            workers: WORKERS,
            ..DaemonConfig::default()
        },
    )
    .map_err(|e| format!("dstressd start: {e}"))
}

/// Framework seed of client `client`'s `index`-th campaign (never 0,
/// which the protocol reads as "default").
fn campaign_seed(seed: u64, client: usize, index: usize) -> u64 {
    let slot = (index * CLIENTS + client) % SEED_POOL;
    mix(seed, slot as u64).max(1)
}

/// Runs the clients' closed loops until `seconds` have passed and at
/// least `min_campaigns` campaigns finished; returns every campaign and
/// the wall clock of the phase.
fn closed_loop(
    addr: SocketAddr,
    seed: u64,
    seconds: f64,
    min_campaigns: usize,
) -> Result<(Vec<CampaignRun>, f64), String> {
    let started = Instant::now();
    let finished = AtomicUsize::new(0);
    let per_client = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let finished = &finished;
                scope.spawn(move || -> Result<Vec<CampaignRun>, String> {
                    let mut client = Client::connect(addr)?;
                    let mut runs = Vec::new();
                    while started.elapsed().as_secs_f64() < seconds
                        || finished.load(Ordering::SeqCst) < min_campaigns
                    {
                        runs.push(client.campaign(campaign_seed(seed, c, runs.len()))?);
                        finished.fetch_add(1, Ordering::SeqCst);
                    }
                    Ok(runs)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client threads do not panic"))
            .collect::<Result<Vec<_>, String>>()
    })?;
    let wall = started.elapsed().as_secs_f64();
    Ok((per_client.into_iter().flatten().collect(), wall))
}

/// The gate: every campaign completed, with the leaderboard a solo
/// `search_word64` of its seed produces. The solo runs, one per distinct
/// seed, are split over `WORKERS` threads.
fn check(runs: &[CampaignRun]) -> Vec<String> {
    let mut seeds: Vec<u64> = runs.iter().map(|r| r.seed).collect();
    seeds.sort_unstable();
    seeds.dedup();
    let chunk = seeds.len().div_ceil(WORKERS).max(1);
    let solos: HashMap<u64, Result<Vec<LeaderboardEntry>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = seeds
            .chunks(chunk)
            .map(|part| scope.spawn(move || part.iter().map(|&s| (s, solo(s))).collect::<Vec<_>>()))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("solo threads do not panic"))
            .collect()
    });
    let mut problems = Vec::new();
    for run in runs {
        match (&run.leaderboard, &solos[&run.seed]) {
            (None, _) => problems.push(format!("seed {}: campaign did not complete", run.seed)),
            (Some(_), Err(e)) => {
                problems.push(format!("seed {}: solo search failed: {e}", run.seed))
            }
            (Some(got), Ok(expected)) if got != expected => problems.push(format!(
                "seed {}: leaderboard differs from the solo run",
                run.seed
            )),
            _ => {}
        }
    }
    problems
}

/// The final leaderboard of a solo quick-scale `search_word64`.
fn solo(seed: u64) -> Result<Vec<LeaderboardEntry>, String> {
    let mut dstress = DStress::new(ExperimentScale::quick(), seed);
    let campaign = dstress
        .search_word64(TEMP_C, Metric::CeAverage, false)
        .map_err(|e| e.to_string())?;
    Ok(campaign
        .result
        .leaderboard
        .iter()
        .map(|(genome, fitness)| LeaderboardEntry {
            genes: genome.to_words(),
            fitness: *fitness,
        })
        .collect())
}

fn ms(samples: impl Iterator<Item = f64>) -> Vec<f64> {
    samples.map(|s| s * 1e3).collect()
}

/// An empty directory for one daemon's registry: one left by an
/// interrupted run would be resumed, not started fresh.
fn scratch_dir(config: &Config) -> PathBuf {
    let dir = config
        .scratch
        .join(format!("dstressd-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A closed loop against a daemon over a fsync-timing journal storage.
pub(crate) struct ServiceTrace {
    runs: Vec<CampaignRun>,
    wall: f64,
    storage: TimingStorage,
}

/// Runs the clients' closed loop (see [`closed_loop`]) for a tenth of the
/// run length and at least 20 campaigns, against a fresh daemon whose
/// journal storage times every fsync.
///
/// # Errors
///
/// Propagates daemon and transport failures.
pub(crate) fn trace_service(config: &Config) -> Result<ServiceTrace, String> {
    let dir = scratch_dir(config);
    let storage = TimingStorage::default();
    let daemon = start(storage.clone(), &dir)?;
    let seconds = config.seconds * RUN_SHARE;
    let looped = closed_loop(daemon.addr(), config.seed, seconds, MIN_CAMPAIGNS);
    let stopped = daemon.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    let (runs, wall) = looped?;
    stopped.map_err(|e| format!("dstressd shutdown: {e}"))?;
    Ok(ServiceTrace {
        runs,
        wall,
        storage,
    })
}

impl ServiceTrace {
    /// The correctness gate over the loop's campaigns.
    pub(crate) fn problems(&self) -> Vec<String> {
        check(&self.runs)
    }

    /// Appends the `journal` and `service` metrics.
    pub(crate) fn push_metrics(&self, report: &mut Report) {
        let runs = &self.runs;
        let n = runs.len().max(1) as f64;
        let journal = self.storage.stats();
        let syncs_us: Vec<f64> = journal.syncs_s.iter().map(|s| s * 1e6).collect();
        report.push("journal.syncs", journal.syncs_s.len() as f64 / n, "count");
        report.push("journal.sync_p50_us", percentile(&syncs_us, 0.5), "us");
        report.push(
            "journal.append_bytes",
            journal.append_bytes as f64 / n,
            "bytes",
        );
        report.push(
            "journal.sync_share",
            journal.syncs_s.iter().sum::<f64>() / self.wall,
            "ratio",
        );
        let gaps = ms(runs.iter().flat_map(|r| r.event_gaps_s.iter().copied()));
        let firsts = ms(runs.iter().filter_map(|r| r.first_event_s));
        let totals = ms(runs
            .iter()
            .filter(|r| r.leaderboard.is_some())
            .map(|r| r.total_s));
        report.push(
            "service.submit_ack_ms",
            median(&ms(runs.iter().map(|r| r.submit_ack_s))),
            "ms",
        );
        report.push(
            "service.watch_ack_ms",
            median(&ms(runs.iter().map(|r| r.watch_ack_s))),
            "ms",
        );
        report.push("service.first_event_p50_ms", percentile(&firsts, 0.5), "ms");
        report.push("service.first_event_p90_ms", percentile(&firsts, 0.9), "ms");
        report.push("service.campaign_p90_ms", percentile(&totals, 0.9), "ms");
        report.push("service.event_gap_p50_ms", percentile(&gaps, 0.5), "ms");
        report.push("service.event_gap_p90_ms", percentile(&gaps, 0.9), "ms");
        report.push(
            "service.lagged_events",
            runs.iter().map(|r| r.lagged).sum::<u64>() as f64,
            "count",
        );
        report.push(
            "service.event_bytes",
            runs.iter().map(|r| r.event_bytes).sum::<u64>() as f64 / n,
            "bytes",
        );
    }
}
