//! `serve-mixed`: an in-process daemon (`Server::bind` on an ephemeral
//! localhost port, [`THREADS`] workers, a fresh store directory so the
//! journal is on) under a closed loop of [`THREADS`] clients, one
//! connection each.
//!
//! A round is one fresh daemon serving the seeded submit sequence; rounds
//! repeat until `--seconds` have elapsed, so every round does the same
//! work and its set-up (store open, bind, journal open) is sampled once
//! per round. Untraced clients use `Client::submit`; traced clients speak
//! the wire with `protocol::write_frame`/`read_frame` and timestamp the
//! accepted, scorecard and batch-done frames. Every scorecard is compared
//! byte for byte against `run_local`, the in-process oracle.

use crate::report::{median, median_of, percentile, secs, Fingerprint, Report, MIN_COVERAGE};
use crate::{peak_rss_mb, timed, Args, WorkDir, THREADS};
use std::collections::{BTreeMap, BTreeSet};
use std::io::{BufReader, BufWriter, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};
use valign_core::serve::protocol::{
    compose_scorecard, read_frame, scorecard_body, write_frame, Json,
};
use valign_core::serve::{
    run_local, Client, JobSpec, Priority, ServeConfig, Server, SubmitOutcome, SubmitRequest,
    DEFAULT_DEADLINE,
};
use valign_core::supervise::{SupervisedRunner, SupervisorConfig};
use valign_core::{trace_kernel, KernelId, PreparedTrace, TraceKey, TraceStore};
use valign_kernels::util::Variant;
use valign_pipeline::{PipelineConfig, Simulator};
use valign_store::{decode_file, encode_file, StoreDir};

/// Kernel executions per served job: small, so per-job replay is short
/// and the service layers dominate.
const EXECS: usize = 40;
/// Largest number of jobs in one submit.
const MAX_JOBS: usize = 4;
/// Submits per round that repeat an earlier submit's jobs (one in five
/// of the round's 50).
const REPEATS: usize = 10;
/// Realign models a job may ask for.
const REALIGNS: [&str; 11] = [
    "equal-latency",
    "proposed",
    "extra:0",
    "extra:1",
    "extra:2",
    "extra:3",
    "extra:4",
    "extra:5",
    "extra:6",
    "extra:7",
    "extra:8",
];
/// Distinct seeded submit sequences per run; rounds cycle through them,
/// so a run's figures average over several job mixes.
const SEQUENCES: u64 = 4;
/// Frame prefix `run_local` renders before the job-independent body.
const ORACLE_PREFIX: &str = "{\"type\": \"scorecard\", \"job_id\": 0, ";

/// SplitMix64: the submit generator's seeded stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// The per-client submit sequences of one round, drawn from `seed` and
/// the sequence number. Every job traces with `seed` itself.
///
/// The fresh jobs are the Table II matrix — every kernel/variant pair
/// once on each machine, a random realign model each — in three passes:
/// each pass submits every pair once, in seeded order, on the pair's next
/// machine of a seeded permutation. So the first pass touches the whole
/// working set and every seed does the same trace, build and replay work.
/// Fresh submits carry 1–4 jobs (sizes cycle 1, 2, 3, 4 until the jobs
/// run out, then are shuffled). [`REPEATS`] submits in the second half
/// re-send an earlier submit's jobs, their sizes cycling the same way.
/// Each submit gets a random priority; submits alternate between the
/// clients.
fn generate(seed: u64, sequence: u64) -> Vec<Vec<SubmitRequest>> {
    let mut rng = Rng(seed ^ sequence.wrapping_mul(0xa076_1d64_78bd_642f));
    let configs: Vec<&str> = PipelineConfig::table_ii().iter().map(|c| c.name).collect();
    let pairs: Vec<(String, &str, Vec<usize>)> = KernelId::ALL
        .iter()
        .flat_map(|k| Variant::ALL.iter().map(move |v| (k.label(), v.label())))
        .map(|(k, v)| {
            let mut machines: Vec<usize> = (0..configs.len()).collect();
            rng.shuffle(&mut machines);
            (k, v, machines)
        })
        .collect();
    let mut fresh = Vec::new();
    for pass in 0..configs.len() {
        let mut order: Vec<usize> = (0..pairs.len()).collect();
        rng.shuffle(&mut order);
        for i in order {
            let (kernel, variant, machines) = &pairs[i];
            fresh.push(JobSpec {
                kernel: kernel.clone(),
                variant: variant.to_string(),
                config: configs[machines[pass]].to_string(),
                execs: EXECS,
                seed,
                realign: REALIGNS[rng.below(REALIGNS.len())].to_string(),
            });
        }
    }
    let cycle = |i: usize| i % MAX_JOBS + 1;
    let mut sizes = Vec::new();
    let mut left = fresh.len();
    while left > 0 {
        let size = cycle(sizes.len()).min(left);
        sizes.push(size);
        left -= size;
    }
    rng.shuffle(&mut sizes);
    let mut rest = fresh.as_slice();
    let fresh_submits: Vec<Vec<JobSpec>> = sizes
        .iter()
        .map(|&n| {
            let (jobs, tail) = rest.split_at(n);
            rest = tail;
            jobs.to_vec()
        })
        .collect();
    let half = fresh_submits.len() / 2;
    let repeats: Vec<(usize, usize)> = (0..REPEATS)
        .map(|r| {
            let after = half + rng.below(fresh_submits.len() - half);
            let earlier: Vec<usize> = (0..=after).filter(|&i| sizes[i] == cycle(r)).collect();
            let of = if earlier.is_empty() {
                rng.below(after + 1)
            } else {
                earlier[rng.below(earlier.len())]
            };
            (after, of)
        })
        .collect();
    let priorities = [Priority::Low, Priority::Normal, Priority::High];
    let mut clients = vec![Vec::new(); THREADS];
    let mut sequence = 0;
    for (i, jobs) in fresh_submits.iter().enumerate() {
        let again = repeats
            .iter()
            .filter(|(after, _)| *after == i)
            .map(|(_, of)| &fresh_submits[*of]);
        for jobs in std::iter::once(jobs).chain(again) {
            let c = sequence % THREADS;
            sequence += 1;
            clients[c].push(SubmitRequest {
                client: format!("client-{c}"),
                priority: priorities[rng.below(priorities.len())],
                inject: Vec::new(),
                jobs: jobs.clone(),
            });
        }
    }
    clients
}

fn spec_key(s: &JobSpec) -> String {
    format!("{}.{} {} {}", s.kernel, s.variant, s.config, s.realign)
}

/// What one submit returned, as a client saw it.
struct Answer {
    latency_ms: f64,
    /// Seconds from the round's start to this submit's return.
    done_at: f64,
    /// Scorecard frames in job order, or why the submit failed.
    cards: Result<Vec<String>, String>,
    /// Traced clients only: accepted-frame latency and per-scorecard
    /// latencies after it, in milliseconds.
    admit_ms: f64,
    card_ms: Vec<f64>,
}

impl Answer {
    fn new(cards: Result<Vec<String>, String>) -> Answer {
        Answer {
            latency_ms: 0.0,
            done_at: 0.0,
            cards,
            admit_ms: 0.0,
            card_ms: Vec::new(),
        }
    }
}

/// One round's observations.
struct Round {
    /// Which of the run's submit sequences the round served.
    sequence: usize,
    /// Whether the clients spoke the wire with timestamps.
    traced: bool,
    setup: f64,
    wall: f64,
    answers: Vec<Vec<Answer>>,
    stats: Json,
}

/// Serves one round on a fresh daemon over a fresh store at `dir`.
fn round(
    dir: &Path,
    sequence: usize,
    submits: &[Vec<SubmitRequest>],
    traced: bool,
) -> Result<Round, String> {
    let _ = std::fs::remove_dir_all(dir);
    let (server, setup) = timed(|| -> Result<Server, String> {
        let store = TraceStore::with_disk(dir).map_err(|e| e.to_string())?;
        let cfg = ServeConfig {
            threads: THREADS,
            ..ServeConfig::default()
        };
        Server::bind("127.0.0.1:0", Arc::new(store), cfg).map_err(|e| format!("bind: {e}"))
    });
    let server = server?;
    let addr = server.addr();
    let started = Instant::now();
    let answers: Vec<Vec<Answer>> = std::thread::scope(|scope| {
        let clients: Vec<_> = submits
            .iter()
            .map(|seq| scope.spawn(move || client_loop(addr, seq, started, traced)))
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("client thread panicked"))
            .collect()
    });
    let wall = secs(started.elapsed());
    let stats = Client::connect(addr)
        .map_err(|e| e.to_string())
        .and_then(|mut c| c.stats().map_err(|e| e.message()));
    server.shutdown();
    server.wait();
    let stats = Json::parse(&stats?).map_err(|e| format!("malformed /stats: {e}"))?;
    Ok(Round {
        sequence,
        traced,
        setup: secs(setup),
        wall,
        answers,
        stats,
    })
}

/// One closed-loop client: each submit waits for its batch-done before
/// the next is sent.
fn client_loop(
    addr: SocketAddr,
    submits: &[SubmitRequest],
    started: Instant,
    traced: bool,
) -> Vec<Answer> {
    let failed_all = |e: String| {
        submits
            .iter()
            .map(|_| Answer::new(Err(e.clone())))
            .collect()
    };
    if traced {
        let stream = match TcpStream::connect(addr).and_then(|s| {
            s.set_read_timeout(Some(DEFAULT_DEADLINE))?;
            s.set_write_timeout(Some(DEFAULT_DEADLINE))?;
            Ok(s)
        }) {
            Ok(s) => s,
            Err(e) => return failed_all(format!("connect: {e}")),
        };
        let mut wire = match stream.try_clone() {
            Ok(read_half) => Wire {
                reader: BufReader::new(read_half),
                writer: BufWriter::new(stream),
            },
            Err(e) => return failed_all(format!("connect: {e}")),
        };
        submits
            .iter()
            .map(|req| wire.submit(req, started))
            .collect()
    } else {
        let mut client = match Client::connect(addr) {
            Ok(c) => c,
            Err(e) => return failed_all(format!("connect: {e}")),
        };
        submits
            .iter()
            .map(|req| {
                let (outcome, t) = timed(|| client.submit(req));
                let cards = match outcome {
                    Ok(SubmitOutcome::Accepted { scorecards, .. }) => Ok(scorecards),
                    Ok(SubmitOutcome::Rejected { reason, .. }) => {
                        Err(format!("rejected: {reason}"))
                    }
                    Err(e) => Err(e.message()),
                };
                Answer {
                    latency_ms: secs(t) * 1e3,
                    done_at: secs(started.elapsed()),
                    ..Answer::new(cards)
                }
            })
            .collect()
    }
}

/// A traced client's connection, speaking the frame protocol directly.
struct Wire {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Wire {
    fn frame(&mut self) -> Result<(String, Json), String> {
        let text = read_frame(&mut self.reader)
            .map_err(|e| format!("broken frame: {e}"))?
            .ok_or("daemon closed the connection")?;
        let json = Json::parse(&text).map_err(|e| format!("malformed frame: {e}"))?;
        Ok((text, json))
    }

    fn submit(&mut self, req: &SubmitRequest, started: Instant) -> Answer {
        let sent = Instant::now();
        let mut answer = Answer::new(Ok(Vec::new()));
        let result = (|| -> Result<Vec<String>, String> {
            write_frame(&mut self.writer, &req.render()).map_err(|e| e.to_string())?;
            self.writer.flush().map_err(|e| e.to_string())?;
            let (_, first) = self.frame()?;
            let accepted = Instant::now();
            answer.admit_ms = secs(accepted - sent) * 1e3;
            if first.get("type").and_then(Json::as_str) != Some("accepted") {
                return Err(format!("not accepted: {first:?}"));
            }
            let mut cards = Vec::new();
            loop {
                let (text, json) = self.frame()?;
                match json.get("type").and_then(Json::as_str) {
                    Some("scorecard") => {
                        answer.card_ms.push(secs(accepted.elapsed()) * 1e3);
                        let id = json
                            .get("job_id")
                            .and_then(Json::as_u64)
                            .ok_or("no job_id")?;
                        cards.push((id, text));
                    }
                    Some("batch-done") => break,
                    other => return Err(format!("unexpected frame {other:?}")),
                }
            }
            cards.sort_by_key(|(id, _)| *id);
            Ok(cards.into_iter().map(|(_, text)| text).collect())
        })();
        answer.latency_ms = secs(sent.elapsed()) * 1e3;
        answer.done_at = secs(started.elapsed());
        answer.cards = result;
        answer
    }
}

/// Reads an integer counter at `path` of a `/stats` frame.
fn stat(stats: &Json, path: &[&str]) -> f64 {
    path.iter()
        .try_fold(stats, |j, k| j.get(k))
        .and_then(Json::as_u64)
        .unwrap_or(0) as f64
}

/// Submits the daemon rejected, by any admission rule.
fn rejected(stats: &Json) -> f64 {
    ["rejected_queue_full", "rejected_quota", "rejected_budget"]
        .iter()
        .map(|k| stat(stats, &["jobs", k]))
        .sum()
}

fn stat_ratio(stats: &Json, path: &[&str]) -> f64 {
    match path.iter().try_fold(stats, |j, k| j.get(k)) {
        Some(Json::Num(v)) => *v,
        _ => 0.0,
    }
}

/// `serve-mixed`: repeat rounds until `--seconds` have elapsed, then
/// check every scorecard against the in-process oracle.
pub fn run(args: &Args, work: &WorkDir) -> Result<Report, String> {
    let sequences: Vec<Vec<Vec<SubmitRequest>>> =
        (0..SEQUENCES).map(|k| generate(args.seed, k)).collect();
    let dir = work.fresh("store");
    let mut rounds = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut peak = None;
    for i in 0.. {
        let sequence = i % sequences.len();
        let untraced = round(&dir, sequence, &sequences[sequence], false)?;
        // One daemon lifetime from an empty store; later rounds only add
        // allocator arenas of the threads each fresh daemon spawns.
        peak.get_or_insert_with(peak_rss_mb);
        rounds.push(untraced);
        if args.trace {
            rounds.push(round(&dir, sequence, &sequences[sequence], true)?);
        }
        if Instant::now() >= deadline {
            break;
        }
    }

    let mut r = Report::default();
    let oracle = Oracle::build(sequences.iter().flatten())?;
    let jobs: Vec<usize> = sequences
        .iter()
        .map(|seq| seq.iter().flatten().map(|s| s.jobs.len()).sum())
        .collect();
    let instructions: Vec<u64> = sequences
        .iter()
        .map(|seq| {
            seq.iter()
                .flatten()
                .flat_map(|s| &s.jobs)
                .map(|spec| 2 * oracle.instructions[&spec_key(spec)])
                .sum()
        })
        .collect();
    r.note(format!(
        "fingerprint serve-mixed seed={} results={:016x} ({} distinct jobs; {SEQUENCES} sequences of {:?} jobs in {:?} submits)",
        args.seed,
        oracle.fingerprint(),
        oracle.bodies.len(),
        jobs,
        sequences.iter().map(|seq| seq.iter().map(Vec::len).sum::<usize>()).collect::<Vec<_>>(),
    ));
    for (key, body) in &oracle.bodies {
        r.check(
            body.contains("\"outcome\": \"completed\"") && body.contains("\"conserved\": true"),
            || format!("oracle job {key} did not complete with conserved attribution"),
        );
    }
    for round in &rounds {
        for (seq, answers) in sequences[round.sequence].iter().zip(&round.answers) {
            for (req, answer) in seq.iter().zip(answers) {
                let ok = answer
                    .cards
                    .as_ref()
                    .is_ok_and(|cards| oracle.matches(req, cards));
                r.check(ok, || match &answer.cards {
                    Ok(_) => format!(
                        "{} submit: scorecards differ from the local oracle",
                        req.client
                    ),
                    Err(e) => format!("{} submit failed: {e}", req.client),
                });
            }
        }
        let rejected = rejected(&round.stats);
        r.check(rejected == 0.0, || {
            format!("daemon rejected {rejected} submits")
        });
    }

    let (traced, plain): (Vec<&Round>, Vec<&Round>) = rounds.iter().partition(|x| x.traced);
    if args.trace {
        let untraced_walls: Vec<f64> = plain.iter().map(|x| x.wall).collect();
        report_layers(
            &mut r,
            &traced,
            &untraced_walls,
            &sequences[0],
            &oracle,
            work,
        )?;
    } else {
        let n = plain.len();
        let per_round =
            |f: &dyn Fn(&Round) -> f64| median(&plain.iter().map(|x| f(x)).collect::<Vec<_>>());
        r.set(
            "setup_s",
            per_round(&|x| x.setup),
            format!("store open + bind + journal open, median of {n}"),
        );
        r.set(
            "wall_s",
            per_round(&|x| x.wall),
            format!("per round, {}", median_of(n)),
        );
        r.set(
            "sim_mips",
            per_round(&|x| instructions[x.sequence] as f64 / x.wall / 1e6),
            format!("delivered instructions per round wall, {}", median_of(n)),
        );
        r.set(
            "ready_s",
            per_round(&|x| working_set_served(&sequences[x.sequence], x)),
            format!(
                "time until every kernel/variant was served once, {}",
                median_of(n)
            ),
        );
        r.set(
            "jobs_per_s",
            per_round(&|x| jobs[x.sequence] as f64 / x.wall),
            median_of(n),
        );
        let latencies: Vec<f64> = plain
            .iter()
            .flat_map(|x| x.answers.iter().flatten().map(|a| a.latency_ms))
            .collect();
        let m = latencies.len();
        r.note(format!(
            "submit latency ms: p10 {:.2} p25 {:.2} p50 {:.2} p75 {:.2} p90 {:.2} max {:.2}",
            percentile(&latencies, 10.0),
            percentile(&latencies, 25.0),
            percentile(&latencies, 50.0),
            percentile(&latencies, 75.0),
            percentile(&latencies, 90.0),
            percentile(&latencies, 100.0),
        ));
        r.set(
            "submit_p50_ms",
            percentile(&latencies, 50.0),
            format!("p50 of {m} submits"),
        );
        r.set(
            "submit_p99_ms",
            percentile(&latencies, 99.0),
            format!("p99 of {m} submits"),
        );
        r.set(
            "peak_rss_mb",
            peak.unwrap_or_default(),
            "VmHWM after the first round",
        );
    }
    Ok(r)
}

/// Seconds from a round's start until every kernel/variant pair of the
/// round had been delivered at least once: the served analogue of "all
/// images resident".
fn working_set_served(submits: &[Vec<SubmitRequest>], x: &Round) -> f64 {
    let mut first: BTreeMap<(&str, &str), f64> = BTreeMap::new();
    for (seq, answers) in submits.iter().zip(&x.answers) {
        for (req, answer) in seq.iter().zip(answers) {
            for spec in &req.jobs {
                let t = first
                    .entry((&spec.kernel, &spec.variant))
                    .or_insert(f64::INFINITY);
                *t = t.min(answer.done_at);
            }
        }
    }
    first.values().copied().fold(0.0, f64::max)
}

/// The `run_local` oracle: one scorecard body and instruction count per
/// distinct job spec of the round.
struct Oracle {
    bodies: BTreeMap<String, String>,
    instructions: BTreeMap<String, u64>,
}

impl Oracle {
    fn build<'a>(submits: impl Iterator<Item = &'a Vec<SubmitRequest>>) -> Result<Oracle, String> {
        let store = TraceStore::new();
        let mut bodies = BTreeMap::new();
        let mut instructions = BTreeMap::new();
        for spec in submits.flatten().flat_map(|s| &s.jobs) {
            let key = spec_key(spec);
            if bodies.contains_key(&key) {
                continue;
            }
            let frames = run_local(
                &store,
                std::slice::from_ref(spec),
                &[],
                SupervisorConfig::default(),
            )
            .map_err(|e| e.message)?;
            let body = frames
                .first()
                .and_then(|f| f.strip_prefix(ORACLE_PREFIX))
                .ok_or("run_local rendered no scorecard")?
                .to_string();
            let json = Json::parse(&compose_scorecard(0, &body)).map_err(|e| e.to_string())?;
            instructions.insert(
                key.clone(),
                json.get("instructions").and_then(Json::as_u64).unwrap_or(0),
            );
            bodies.insert(key, body);
        }
        Ok(Oracle {
            bodies,
            instructions,
        })
    }

    /// Whether `cards` are exactly the oracle's scorecards for `req`, in
    /// job order.
    fn matches(&self, req: &SubmitRequest, cards: &[String]) -> bool {
        cards.len() == req.jobs.len()
            && req
                .jobs
                .iter()
                .zip(cards)
                .enumerate()
                .all(|(id, (spec, card))| {
                    *card == compose_scorecard(id as u64, &self.bodies[&spec_key(spec)])
                })
    }

    /// Fingerprint of every distinct job's scorecard body (cycles and
    /// attribution included), in spec order.
    fn fingerprint(&self) -> u64 {
        let mut fp = Fingerprint::default();
        for (key, body) in &self.bodies {
            fp.label(key);
            fp.label(body);
        }
        fp.finish()
    }
}

/// Per-layer report of the traced rounds: wire spans and `/stats`
/// counters per round, plus the daemon's per-job work re-enacted
/// in-process once (serial sums over one round's distinct keys and jobs).
fn report_layers(
    r: &mut Report,
    traced: &[&Round],
    untraced_walls: &[f64],
    submits: &[Vec<SubmitRequest>],
    oracle: &Oracle,
    work: &WorkDir,
) -> Result<(), String> {
    let n = traced.len();
    let answers = || traced.iter().flat_map(|x| x.answers.iter().flatten());
    let admit: Vec<f64> = answers().map(|a| a.admit_ms).collect();
    let card: Vec<f64> = answers().flat_map(|a| a.card_ms.iter().copied()).collect();
    r.set(
        "serve.admit_p50_ms",
        percentile(&admit, 50.0),
        format!("p50 of {} submits", admit.len()),
    );
    r.set(
        "serve.admit_p99_ms",
        percentile(&admit, 99.0),
        format!("p99 of {} submits", admit.len()),
    );
    r.set(
        "serve.card_p50_ms",
        percentile(&card, 50.0),
        format!("p50 of {} scorecards", card.len()),
    );
    r.set(
        "serve.card_p99_ms",
        percentile(&card, 99.0),
        format!("p99 of {} scorecards", card.len()),
    );

    let per_round =
        |f: &dyn Fn(&Round) -> f64| median(&traced.iter().map(|x| f(x)).collect::<Vec<_>>());
    let jobs = |x: &Round| stat(&x.stats, &["jobs", "submitted"]).max(1.0);
    r.set(
        "journal.fsyncs_per_job",
        per_round(&|x| {
            (stat(&x.stats, &["journal", "appended_accepted"])
                + stat(&x.stats, &["journal", "appended_done"])
                + stat(&x.stats, &["journal", "compactions"]))
                / jobs(x)
        }),
        format!(
            "(accepted + done appends + compactions) / jobs, {}",
            median_of(n)
        ),
    );
    r.set(
        "journal.compactions",
        per_round(&|x| stat(&x.stats, &["journal", "compactions"])),
        format!("per round, {}", median_of(n)),
    );
    r.set(
        "serve.dedup_ratio",
        per_round(&|x| {
            (stat(&x.stats, &["jobs", "deduped"])
                + stat(&x.stats, &["jobs", "cache_served"])
                + stat(&x.stats, &["jobs", "journal_served"]))
                / jobs(x)
        }),
        format!(
            "(deduped + cache_served + journal_served) / jobs, {}",
            median_of(n)
        ),
    );
    r.set(
        "serve.rejected",
        per_round(&|x| rejected(&x.stats)),
        format!("per round, {}", median_of(n)),
    );
    r.set(
        "sim.memory_hit_ratio",
        per_round(&|x| stat_ratio(&x.stats, &["store", "memory_hit_rate"])),
        format!("/stats, {}", median_of(n)),
    );
    r.set(
        "sim.disk_hit_ratio",
        per_round(&|x| stat_ratio(&x.stats, &["store", "disk_hit_rate"])),
        format!("/stats, {}", median_of(n)),
    );

    // A closed-loop client's time is spent waiting on its submits; their
    // spans must account for the clients' active time.
    let coverage = |x: &Round| {
        let waited: f64 = x.answers.iter().flatten().map(|a| a.latency_ms / 1e3).sum();
        let active: f64 = x
            .answers
            .iter()
            .filter_map(|a| a.last().map(|a| a.done_at))
            .sum();
        waited / active
    };
    for x in traced {
        let c = coverage(x);
        r.check((MIN_COVERAGE..=1.0).contains(&c), || {
            format!(
                "submit spans cover {c:.4} of the clients' active time, outside [{MIN_COVERAGE}, 1]"
            )
        });
    }
    r.set(
        "trace.coverage",
        per_round(&coverage),
        format!("client wait / client active time, {}", median_of(n)),
    );
    r.set(
        "trace.overhead_s",
        per_round(&|x| x.wall) - median(untraced_walls),
        format!(
            "median traced round wall ({n}) minus median untraced ({})",
            untraced_walls.len()
        ),
    );
    reenact(r, submits, oracle, work)
}

/// Re-enacts, in-process and serially, the per-job work the daemon did
/// for one round — trace, build, encode, save, load of each distinct key;
/// warm-up and measured replay of each distinct job; scorecard rendering
/// of every job — timing each layer's public function.
fn reenact(
    r: &mut Report,
    submits: &[Vec<SubmitRequest>],
    oracle: &Oracle,
    work: &WorkDir,
) -> Result<(), String> {
    let specs: Vec<&JobSpec> = submits.iter().flatten().flat_map(|s| &s.jobs).collect();
    let mut distinct_jobs = BTreeMap::new();
    for spec in &specs {
        distinct_jobs.entry(spec_key(spec)).or_insert(*spec);
    }
    let keys: BTreeSet<(String, String)> = specs
        .iter()
        .map(|s| (s.kernel.clone(), s.variant.clone()))
        .collect();
    let seed = specs.first().map_or(0, |s| s.seed);
    let key_of = |kernel: &str, variant: &str| TraceKey {
        kernel: KernelId::from_label(kernel).expect("generated kernel labels are valid"),
        variant: Variant::from_label(variant).expect("generated variant labels are valid"),
        execs: EXECS,
        seed,
    };
    let (mut trace, mut build, mut encode, mut save, mut load) = (0.0, 0.0, 0.0, 0.0, 0.0);
    let (mut instructions, mut image_bytes) = (0u64, 0u64);
    let mut files = Vec::new();
    let scratch = StoreDir::create(work.fresh("reenact")).map_err(|e| e.to_string())?;
    let mut prepared = BTreeMap::new();
    for (kernel, variant) in &keys {
        let key = key_of(kernel, variant);
        let (t, dt) =
            timed(|| trace_kernel(key.kernel, key.variant, key.execs, key.seed).into_shared());
        trace += secs(dt);
        instructions += t.len() as u64;
        let (p, dt) = timed(|| PreparedTrace::new(t));
        build += secs(dt);
        image_bytes += p.image.approx_bytes() as u64;
        let (bytes, dt) = timed(|| encode_file(&p.image, p.image_checksum));
        encode += secs(dt);
        let hash = key.content_hash();
        let (saved, dt) = timed(|| scratch.save(hash, &p.image, p.image_checksum));
        save += secs(dt);
        saved.map_err(|e| e.to_string())?;
        let (loaded, dt) = timed(|| scratch.load(hash));
        load += secs(dt);
        r.check(loaded.is_ok_and(|l| l.checksum == p.image_checksum), || {
            format!("{kernel}.{variant}: saved image does not load back")
        });
        files.push(bytes);
        prepared.insert((kernel.clone(), variant.clone()), p);
    }

    let (mut warmup, mut measured) = (0.0, 0.0);
    for spec in distinct_jobs.values() {
        let image = &prepared[&(spec.kernel.clone(), spec.variant.clone())].image;
        let job = spec.resolve().map_err(|e| e.message)?;
        let mut sim = Simulator::new(job.cfg.clone());
        let (_, dt) = timed(|| sim.run_image(image));
        warmup += secs(dt);
        let (res, dt) = timed(|| sim.run_image(image));
        measured += secs(dt);
        r.check(
            oracle.bodies[&spec_key(spec)].contains(&format!("\"cycles\": {},", res.cycles)),
            || {
                format!(
                    "{}: re-enacted replay differs from the oracle",
                    spec_key(spec)
                )
            },
        );
    }

    let store = TraceStore::new();
    let mut outcomes = BTreeMap::new();
    for (key, spec) in &distinct_jobs {
        let job = spec.resolve().map_err(|e| e.message)?;
        let outcome = SupervisedRunner::new(1)
            .run(&store, std::slice::from_ref(&job))
            .remove(0);
        outcomes.insert(key.clone(), (job, outcome));
    }
    let jobs: Vec<_> = specs
        .iter()
        .map(|spec| &outcomes[&spec_key(spec)])
        .collect();
    let (bodies, render) = timed(|| {
        jobs.iter()
            .map(|(job, outcome)| scorecard_body(job, outcome))
            .collect::<Vec<_>>()
    });
    for (spec, body) in specs.iter().zip(&bodies) {
        r.check(*body == oracle.bodies[&spec_key(spec)], || {
            format!("{}: re-rendered scorecard differs", spec_key(spec))
        });
    }

    let bytes: usize = files.iter().map(Vec::len).sum();
    let mib = bytes as f64 / (1024.0 * 1024.0);
    let (decoded, decode_t) = timed(|| files.iter().all(|f| decode_file(f).is_ok()));
    r.check(decoded, || "an encoded image does not decode".to_string());
    let mut copies: Vec<Vec<u8>> = files.iter().map(|f| vec![0u8; f.len()]).collect();
    let ((), memcpy_t) = timed(|| {
        for (dst, src) in copies.iter_mut().zip(&files) {
            dst.copy_from_slice(std::hint::black_box(src));
        }
    });
    std::hint::black_box(&copies);

    let per = |what: &str, n: usize| format!("{what}, serial sum over {n} per round");
    r.set("workload.trace_s", trace, per("trace_kernel", keys.len()));
    r.set(
        "workload.instructions",
        instructions as f64,
        per("traced instructions", keys.len()),
    );
    r.set(
        "image.build_s",
        build,
        per("PreparedTrace::new", keys.len()),
    );
    r.set(
        "image.bytes",
        image_bytes as f64,
        per("ReplayImage::approx_bytes", keys.len()),
    );
    r.set("store.encode_s", encode, per("encode_file", keys.len()));
    r.set("store.save_s", save, per("StoreDir::save", keys.len()));
    r.set("store.load_s", load, per("StoreDir::load", keys.len()));
    r.set(
        "store.decode_mb_per_s",
        mib / secs(decode_t),
        format!("decode_file over {bytes} B"),
    );
    r.set(
        "store.memcpy_mb_per_s",
        mib / secs(memcpy_t),
        format!("copy_from_slice over {bytes} B"),
    );
    r.set(
        "store.bytes",
        bytes as f64,
        per("encoded bytes", keys.len()),
    );
    r.set(
        "engine.warmup_s",
        warmup,
        per("warm-up run_image", distinct_jobs.len()),
    );
    r.set(
        "engine.measured_s",
        measured,
        per("measured run_image", distinct_jobs.len()),
    );
    r.set(
        "engine.replays",
        2.0 * distinct_jobs.len() as f64,
        "run_image calls per round",
    );
    r.set(
        "protocol.render_s",
        secs(render),
        per("scorecard_body", specs.len()),
    );
    r.set(
        "experiments.render_s",
        0.0,
        "no figures rendered by the daemon",
    );
    Ok(())
}
