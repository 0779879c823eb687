//! The `serve` phase: `ServerHandle` over the lake's compacted index,
//! driven over real TCP by an open-loop generator in this process.
//!
//! The generator uses at most `nproc` threads, each sending its share of
//! a fixed schedule one request at a time, so there are never more than
//! `nproc` connections open. Latency runs from each request's due time.

use std::collections::{HashMap, HashSet};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use valentine_core::index::{LoadedIndex, SearchOptions};
use valentine_core::obs::json::Json;
use valentine_core::obs::Snapshot;
use valentine_core::table::{csv, Table};
use valentine_serve::{ServeConfig, ServerHandle};

use crate::lake::{self, LakeOutcome, LakePlan};
use crate::out::Report;
use crate::stats::{self, max_qps, median, next_rate, run_schedule, summarize, Rung, Sample};

/// The serve traffic of a workload.
///
/// No trace of real discovery traffic exists to take the shares from, so
/// they are assumptions, chosen once and not tuned: the two workloads
/// bracket the unknown real mix with a repeat-heavy and a new-query-heavy
/// end, swapping the hot and cold shares and keeping the rest.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    /// Percent of requests: hot unionable, cold unionable, joinable (on a
    /// few popular tables), upload.
    pub shares: [u64; 4],
    /// The rate `serve.p50_ms` and `serve.p99_ms` are measured at, and
    /// where the ladder search starts.
    pub reference_rate: f64,
}

/// Mostly repeated queries, which the LRU cache answers (`hot` workload):
/// an analyst going back to the same few tables.
pub const HOT: Mix = Mix {
    shares: [80, 5, 10, 5],
    reference_rate: 1000.0,
};

/// Mostly queries the server has not seen, each of which runs the index
/// search (`cold` workload): a sweep across the lake.
pub const COLD: Mix = Mix {
    shares: [5, 80, 10, 5],
    reference_rate: 200.0,
};

/// Length of each ladder rung, as a share of `--seconds`.
const RUNG_SHARE: f64 = 0.12;

/// Length of the reference-rate schedule, as a share of `--seconds`.
const REFERENCE_SHARE: f64 = 0.3;

/// The ladder search stops once the highest passing and lowest failing
/// rates are within this share of each other.
const RESOLUTION: f64 = 0.1;

/// The ladder search never offers more than this, requests per second.
const CEILING: f64 = 64_000.0;

/// Requests per reference window: enough for a p99 with ten beyond it.
const REFERENCE_WINDOW: usize = 1000;

/// Latency SLO on a rung's tail and final lag, ms.
const SLO_MS: f64 = 100.0;

/// Final lag, ms, past which a failed rung is plainly overloaded and is
/// not run again.
const OVERLOAD_LAG_MS: f64 = 5.0 * SLO_MS;

/// Popular unionable tables (Zipf-distributed requests).
const HOT_TABLES: usize = 24;

/// Tables asked for joinable columns (also popular).
const JOINABLE: usize = 8;

/// Distinct CSV bodies uploaded (cycled).
const UPLOADS: usize = 8;

/// Server LRU capacity: holds the hot, joinable and upload keys, not the
/// cold tail.
const CACHE_CAPACITY: usize = 64;

/// How long before a due time the generator stops sleeping and spins.
const SPIN: Duration = Duration::from_micros(200);

/// Zipf exponent of the hot set. Breslau et al., "Web Caching and
/// Zipf-like Distributions: Evidence and Implications" (INFOCOM 1999),
/// found request popularity Zipf-like with exponents below one (0.64 to
/// 0.83 over their proxy traces); 0.8 lies in that range. The hot set
/// fits in the cache, so the exponent decides which hot keys repeat, not
/// whether they hit.
const ZIPF_S: f64 = 0.8;

/// Top-k every request asks for.
const K: usize = lake::K;

/// One kind of request of the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kind {
    Hot,
    Cold,
    Joinable,
    Upload,
}

/// A request ready to send: what it is, the key its body is checked
/// under, and the raw HTTP bytes.
#[derive(Debug, Clone)]
struct Request {
    kind: Kind,
    key: String,
    bytes: Vec<u8>,
}

/// What came back.
#[derive(Debug, Clone)]
struct Response {
    status: u16,
    cache: String,
    body: Vec<u8>,
}

/// One sent request, as measured.
#[derive(Debug, Clone)]
pub struct Sent {
    pub kind: Kind,
    pub sample: Sample,
    pub connect: Duration,
    pub hit: bool,
}

fn encode(raw: &str) -> String {
    raw.bytes()
        .map(|b| {
            if b.is_ascii_alphanumeric() || matches!(b, b'-' | b'_' | b'.') {
                (b as char).to_string()
            } else {
                format!("%{b:02X}")
            }
        })
        .collect()
}

fn get(path_and_query: &str) -> Vec<u8> {
    format!("GET {path_and_query} HTTP/1.1\r\nHost: bench\r\n\r\n").into_bytes()
}

/// The query a request key stands for: an indexed table, looked up by name
/// in the server's own index exactly as the server does, or an upload.
enum Truth {
    Named { joinable: bool, table: String },
    Uploaded(Table),
}

/// The request population of a run: hot, joinable and upload keys (all
/// cacheable), and the cold tail, which each request uses once.
pub struct Population {
    hot: Vec<Request>,
    joinable: Vec<Request>,
    uploads: Vec<Request>,
    cold: Vec<Request>,
    /// Cumulative Zipf weights over `hot`.
    zipf: Vec<f64>,
    /// The query behind each key, for the body check.
    truth: HashMap<String, Truth>,
}

impl Population {
    /// Builds the population from the surviving lake tables and queries.
    ///
    /// The server caches answers under the query's sketch digest, so two
    /// different tables with equal digests would share one cached body
    /// although the re-rank, which reads the rows, can rank them
    /// differently. Such tables are left out of the population (and
    /// counted on stderr): the body check holds every answer to its own
    /// query.
    pub fn new(
        seed: u64,
        lake_plan: &LakePlan,
        survivors: &[(String, Table)],
        index: &LoadedIndex,
    ) -> Population {
        let mut seen = HashSet::new();
        let mut distinct = |t: &Table| {
            let whole = seen.insert((false, index.table_digest(t)));
            let column = seen.insert((true, index.column_digest(&t.columns()[0])));
            whole && column
        };
        // the background tables all have one shape, so the request mix
        // costs the same for every seed; family tables arrive as uploads
        let mut order: Vec<&Table> = survivors
            .iter()
            .filter(|(tag, _)| tag == "bg")
            .map(|(_, t)| t)
            .collect();
        order.sort_by_key(|t| lake::mix(seed ^ lake::name_hash(t.name())));
        let before = order.len();
        order.retain(|t| distinct(t));
        let mut truth = HashMap::new();
        let mut take = |kind: Kind, t: &Table| -> Request {
            let (key, bytes) = match kind {
                Kind::Joinable => {
                    let column = t.columns()[0].name();
                    let key = format!("joinable:{}:{column}", t.name());
                    let table = t.name().to_string();
                    truth.insert(
                        key.clone(),
                        Truth::Named {
                            joinable: true,
                            table,
                        },
                    );
                    (
                        key,
                        get(&format!(
                            "/search?kind=joinable&k={K}&table={}&column={}",
                            encode(t.name()),
                            encode(column)
                        )),
                    )
                }
                _ => {
                    let key = format!("unionable:{}", t.name());
                    let table = t.name().to_string();
                    truth.insert(
                        key.clone(),
                        Truth::Named {
                            joinable: false,
                            table,
                        },
                    );
                    (
                        key,
                        get(&format!(
                            "/search?kind=unionable&k={K}&table={}",
                            encode(t.name())
                        )),
                    )
                }
            };
            Request { kind, key, bytes }
        };
        let order_len = order.len();
        let mut it = order.into_iter();
        let hot: Vec<Request> = it
            .by_ref()
            .take(HOT_TABLES)
            .map(|t| take(Kind::Hot, t))
            .collect();
        let joinable: Vec<Request> = it
            .by_ref()
            .take(JOINABLE)
            .map(|t| take(Kind::Joinable, t))
            .collect();
        let cold: Vec<Request> = it.map(|t| take(Kind::Cold, t)).collect();
        let uploads: Vec<Request> = lake::queries(seed, lake_plan)
            .into_iter()
            .filter(|q| distinct(&q.table))
            .take(UPLOADS)
            .map(|q| {
                let body = csv::serialize(&q.table);
                let key = format!("upload:{}", q.table.name());
                let mut bytes = format!(
                    "POST /search?kind=unionable&k={K} HTTP/1.1\r\nHost: bench\r\nContent-Type: text/csv\r\nContent-Length: {}\r\n\r\n",
                    body.len()
                )
                .into_bytes();
                bytes.extend_from_slice(body.as_bytes());
                let parsed = csv::parse("query", &body).expect("serialized CSV parses");
                truth.insert(key.clone(), Truth::Uploaded(parsed));
                Request {
                    kind: Kind::Upload,
                    key,
                    bytes,
                }
            })
            .collect();
        if before > order_len {
            eprintln!(
                "serve: {} of {before} tables left out: their sketch digest repeats another table's",
                before - order_len
            );
        }
        let mut acc = 0.0;
        let zipf = (1..=hot.len())
            .map(|r| {
                acc += 1.0 / (r as f64).powf(ZIPF_S);
                acc
            })
            .collect();
        Population {
            hot,
            joinable,
            uploads,
            cold,
            zipf,
            truth,
        }
    }

    /// Every cacheable request once: the warm-up.
    fn warm(&self) -> Vec<Request> {
        self.hot
            .iter()
            .chain(&self.joinable)
            .chain(&self.uploads)
            .cloned()
            .collect()
    }
}

/// Draws the requests of one schedule. `cold_next` counts the cold
/// requests drawn so far and picks the next cold table.
fn draw(
    pop: &Population,
    shares: [u64; 4],
    n: usize,
    rng: &mut u64,
    cold_next: &mut usize,
) -> Vec<Request> {
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        *rng = lake::mix(*rng);
        let roll = *rng % 100;
        *rng = lake::mix(*rng);
        let unit = (*rng >> 11) as f64 / (1u64 << 53) as f64;
        let req = if roll < shares[0] {
            let total = pop.zipf.last().copied().unwrap_or(1.0);
            let i = pop.zipf.partition_point(|&c| c < unit * total);
            pop.hot[i.min(pop.hot.len() - 1)].clone()
        } else if roll < shares[0] + shares[1] {
            // the pool is cycled; it is far larger than the cache, so a
            // table is long evicted before it comes round again
            let req = pop.cold[*cold_next % pop.cold.len()].clone();
            *cold_next += 1;
            req
        } else if roll < shares[0] + shares[1] + shares[2] {
            pop.joinable[(*rng % pop.joinable.len() as u64) as usize].clone()
        } else {
            pop.uploads[(*rng % pop.uploads.len() as u64) as usize].clone()
        };
        out.push(req);
    }
    out
}

/// Sends one request on a fresh connection and reads the whole response.
fn exchange(addr: SocketAddr, bytes: &[u8]) -> Result<(Duration, Response), String> {
    let start = Instant::now();
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let connect = start.elapsed();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| e.to_string())?;
    stream.write_all(bytes).map_err(|e| format!("write: {e}"))?;
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| format!("read: {e}"))?;
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or("response without a header end")?;
    let head = String::from_utf8_lossy(&raw[..split]).to_string();
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or("response without a status")?;
    let cache = head
        .lines()
        .find_map(|l| {
            let (name, value) = l.split_once(':')?;
            name.eq_ignore_ascii_case("X-Valentine-Cache")
                .then(|| value.trim().to_string())
        })
        .unwrap_or_default();
    Ok((
        connect,
        Response {
            status,
            cache,
            body: raw[split + 4..].to_vec(),
        },
    ))
}

/// Bodies seen per key: the first miss body, plus any hit body that
/// differed from it.
#[derive(Default)]
struct Bodies {
    first: HashMap<String, Vec<u8>>,
    mismatched: Vec<String>,
}

impl Bodies {
    fn note(&mut self, key: &str, response: &Response) {
        if response.status != 200 {
            return;
        }
        match self.first.get(key) {
            None => {
                self.first.insert(key.to_string(), response.body.clone());
            }
            Some(first) if *first != response.body => self.mismatched.push(key.to_string()),
            Some(_) => {}
        }
    }
}

/// Runs one open-loop schedule over at most `nproc` sender threads.
fn drive(addr: SocketAddr, requests: &[Request], rate: f64, bodies: &Mutex<Bodies>) -> Vec<Sent> {
    let due = stats::schedule(rate, requests.len());
    let threads = crate::nproc().min(requests.len()).max(1);
    let start = Instant::now() + Duration::from_millis(5);
    let results: Vec<Vec<Sent>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let mine: Vec<(usize, Duration)> = due
                    .iter()
                    .copied()
                    .enumerate()
                    .filter(|(i, _)| i % threads == t)
                    .collect();
                scope.spawn(move || {
                    let mut extra: Vec<(Duration, bool)> = Vec::with_capacity(mine.len());
                    let samples = run_schedule(
                        &mine,
                        || Instant::now().saturating_duration_since(start),
                        |at| {
                            // sleep to just short of the due time, then spin:
                            // a sleeping thread wakes late by a varying amount
                            let due = start + at;
                            let early = due.checked_sub(SPIN).unwrap_or(due);
                            std::thread::sleep(early.saturating_duration_since(Instant::now()));
                            while Instant::now() < due {
                                std::hint::spin_loop();
                            }
                        },
                        |i| {
                            let req = &requests[i];
                            match exchange(addr, &req.bytes) {
                                Ok((connect, resp)) => {
                                    let hit = resp.cache == "hit";
                                    bodies.lock().expect("body log lock").note(&req.key, &resp);
                                    extra.push((connect, hit));
                                    resp.status == 200
                                }
                                Err(e) => {
                                    eprintln!("serve request failed: {e}");
                                    extra.push((Duration::ZERO, false));
                                    false
                                }
                            }
                        },
                    );
                    samples
                        .into_iter()
                        .zip(extra)
                        .map(|(sample, (connect, hit))| Sent {
                            kind: requests[sample.index].kind,
                            sample,
                            connect,
                            hit,
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("sender threads do not panic"))
            .collect()
    });
    let mut all: Vec<Sent> = results.into_iter().flatten().collect();
    all.sort_by_key(|s| s.sample.index);
    all
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Tail summary of a rung.
fn rung_of(rate: f64, sent: &[Sent]) -> Rung {
    let lat: Vec<f64> = sent.iter().map(|s| ms(s.sample.latency)).collect();
    let tail = summarize(&lat, 0.99).map_or(f64::INFINITY, |s| s.tail);
    let last = sent.len().div_ceil(10).max(1);
    let final_lag = sent
        .iter()
        .rev()
        .take(last)
        .map(|s| ms(s.sample.lag))
        .fold(0.0, f64::max);
    Rung {
        rate,
        attempted: sent.len(),
        failed: sent.iter().filter(|s| !s.sample.ok).count(),
        tail_ms: tail,
        final_lag_ms: final_lag,
    }
}

/// What a serve session measured, for the traced pass.
pub struct Session {
    pub sent: Vec<Sent>,
    pub snapshot: Snapshot,
    pub log: Vec<u8>,
}

/// A `Write` into shared memory, for the server's request log.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().expect("log lock").extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Starts a server, warms its cache, runs the reference rate and (when
/// untraced) the ladder search, checks every body, and stops it.
fn session(
    seed: u64,
    mix: &Mix,
    index: &LoadedIndex,
    pop: &Population,
    traced: bool,
    seconds: f64,
    report: &mut Report,
) -> Result<Session, String> {
    let config = ServeConfig {
        pool_threads: crate::nproc(),
        cache_capacity: CACHE_CAPACITY,
        default_deadline: Some(Duration::from_secs(5)),
        default_k: K,
        ..ServeConfig::default()
    };
    let buf = SharedBuf::default();
    let server = ServerHandle::start_with_log(
        index.clone(),
        config,
        traced.then(|| Box::new(buf.clone()) as Box<dyn Write + Send>),
    )
    .map_err(|e| format!("start server: {e}"))?;
    let addr = server.addr();
    let bodies = Mutex::new(Bodies::default());

    let mut rng = seed ^ 0x5e7e;
    let mut cold_next = 0;
    let warm = pop.warm();
    let warmed = drive(addr, &warm, 200.0, &bodies);

    let reference = draw(
        pop,
        mix.shares,
        (mix.reference_rate * REFERENCE_SHARE * seconds) as usize,
        &mut rng,
        &mut cold_next,
    );
    let ref_sent = drive(addr, &reference, mix.reference_rate, &bodies);
    let mut all: Vec<Sent> = warmed.iter().chain(&ref_sent).cloned().collect();

    // (rung, achieved rate) of every rate the ladder search offered
    let mut rungs: Vec<(Rung, f64)> = Vec::new();
    let tried = |rungs: &[(Rung, f64)]| rungs.iter().map(|(r, _)| *r).collect::<Vec<_>>();
    if !traced {
        while let Some(rate) = next_rate(
            mix.reference_rate,
            &tried(&rungs),
            SLO_MS,
            RESOLUTION,
            CEILING,
        ) {
            // a rung that fails is run once more, so that one stall of the
            // machine does not decide a rate; a rung that ends with its backlog
            // still growing past five SLOs is overloaded and is not run again
            let (mut rung, mut sent) = (None, Vec::new());
            for _ in 0..2 {
                let reqs = draw(
                    pop,
                    mix.shares,
                    (rate * RUNG_SHARE * seconds) as usize,
                    &mut rng,
                    &mut cold_next,
                );
                sent = drive(addr, &reqs, rate, &bodies);
                let r = rung_of(rate, &sent);
                all.extend(sent.iter().cloned());
                rung = Some(r);
                if r.passes(SLO_MS) || r.final_lag_ms > OVERLOAD_LAG_MS {
                    break;
                }
            }
            let rung = rung.expect("the rung ran");
            eprintln!(
                "serve rung {rate:.1}/s: {} sent, {} failed, tail {:.2} ms, final lag {:.2} ms",
                rung.attempted, rung.failed, rung.tail_ms, rung.final_lag_ms
            );
            // achieved rate: requests finished per second of schedule
            let done = sent
                .iter()
                .map(|s| s.sample.index as f64 / rate + s.sample.latency.as_secs_f64())
                .fold(0.0, f64::max);
            let achieved = (sent.len().saturating_sub(1)) as f64 / done.max(1e-9);
            rungs.push((rung, achieved));
        }
    }
    let snapshot = server.shutdown();

    // every response 200; every cached body byte-identical to the first
    // body of its key; every first body equal to the in-process answer
    let failed = all.iter().filter(|s| !s.sample.ok).count() as u64;
    report.checks(
        all.len() as u64,
        failed,
        "serve requests failed or were refused",
    );
    let bodies = bodies.into_inner().expect("body log lock");
    report.checks(
        all.iter().filter(|s| s.hit).count() as u64,
        bodies.mismatched.len() as u64,
        "cached bodies differed from the first body of their query",
    );
    for (key, body) in &bodies.first {
        let ok = matches_in_process(index, pop, key, body);
        report.check(
            ok,
            &format!("{key}: served answer differs from the in-process one"),
        );
    }

    // the reference schedule in windows, each large enough for its own
    // p99; the windows' medians are reported, so one stall of the machine
    // moves one window instead of the result
    let window = REFERENCE_WINDOW.min(ref_sent.len()).max(1);
    let windows: Vec<stats::Summary> = ref_sent
        .chunks_exact(window)
        .filter_map(|w| {
            let lat: Vec<f64> = w.iter().map(|s| ms(s.sample.latency)).collect();
            summarize(&lat, 0.99)
        })
        .collect();
    if !windows.is_empty() {
        let p50: Vec<f64> = windows.iter().map(|s| s.p50).collect();
        let tail: Vec<f64> = windows.iter().map(|s| s.tail).collect();
        report.put("serve.p50_ms", median(&p50), "ms");
        report.put("serve.p99_ms", median(&tail), "ms");
        eprintln!(
            "serve: reference {}/s, {} windows of {window} requests, tail at p{}",
            mix.reference_rate,
            windows.len(),
            windows[0].tail_q * 100.0
        );
    }
    if !traced {
        // the achieved rate of the highest passing rung below the lowest
        // failing one; a search that found no passing rate reports half
        // its lowest offer: capacity lies below it, and the metric stays
        // nonzero
        let lowest = rungs
            .iter()
            .map(|(r, _)| r.rate)
            .fold(f64::INFINITY, f64::min);
        let qps = max_qps(&tried(&rungs), SLO_MS)
            .and_then(|rate| rungs.iter().find(|(r, _)| r.rate == rate))
            .map_or(lowest / 2.0, |(_, achieved)| *achieved);
        report.put("serve.max_qps", qps, "1/s");
    }
    let log = std::mem::take(&mut *buf.0.lock().expect("log lock"));
    Ok(Session {
        sent: all,
        snapshot,
        log,
    })
}

/// Compares a served body with the in-process answer for its key.
fn matches_in_process(index: &LoadedIndex, pop: &Population, key: &str, body: &[u8]) -> bool {
    let (joinable, query) = match pop.truth.get(key) {
        Some(Truth::Named { joinable, table }) => match index.table_by_name(table) {
            Some(t) => (*joinable, &t.table),
            None => return false,
        },
        Some(Truth::Uploaded(table)) => (false, table),
        None => return false,
    };
    let opts = SearchOptions {
        threads: 1,
        ..SearchOptions::default()
    };
    let outcome = if joinable {
        index.top_k_joinable(&query.columns()[0], K, &opts)
    } else {
        index.top_k_unionable(query, K, &opts)
    };
    let Ok(json) = Json::parse(String::from_utf8_lossy(body).trim()) else {
        return false;
    };
    let Some(results) = json.get("results").and_then(Json::as_arr) else {
        return false;
    };
    results.len() == outcome.results.len()
        && results.iter().zip(&outcome.results).all(|(got, want)| {
            got.get("table").and_then(Json::as_str) == Some(want.table_name.as_str())
                && got.get("score").and_then(Json::as_f64) == Some(want.score)
                && got.get("sketch_score").and_then(Json::as_f64) == Some(want.sketch_score)
                && got.get("column").and_then(Json::as_str) == want.column.as_deref()
        })
}

/// The untraced serve phase: reference rate plus ladder search.
pub fn run(
    seed: u64,
    mix: &Mix,
    lake_plan: &LakePlan,
    lake_out: &LakeOutcome,
    seconds: f64,
    report: &mut Report,
) -> Result<(), String> {
    let index = LoadedIndex::load(&lake_out.index_dir).map_err(|e| e.to_string())?;
    let pop = Population::new(seed, lake_plan, &lake_out.survivors, &index);
    session(seed, mix, &index, &pop, false, seconds, report)?;
    Ok(())
}

/// The traced serve pass: the reference rate with the request log on.
pub fn traced(
    seed: u64,
    mix: &Mix,
    lake_plan: &LakePlan,
    lake_out: &LakeOutcome,
    seconds: f64,
    report: &mut Report,
) -> Result<Session, String> {
    let index = LoadedIndex::load(&lake_out.index_dir).map_err(|e| e.to_string())?;
    let pop = Population::new(seed, lake_plan, &lake_out.survivors, &index);
    session(seed, mix, &index, &pop, true, seconds, report)
}
