//! `serve`: an in-process `incore-cli serve` with `nproc` shards under a
//! closed loop of `nproc` connections, each waiting for its reply. Four
//! in five requests repeat a hot set smaller than the response LRU; one
//! in five is a never-seen kernel; a small share asks for the simulator.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Barrier, OnceLock};
use std::time::{Duration, Instant};

use cli::serve::{ServeOpts, ServerHandle};

use crate::gen::{self, Pick, ServeRequest};
use crate::out::{Cfg, Metric, PhaseOut};
use crate::stats::{quantile, supported_tail_pct, Stamp};
use crate::trace::Tracer;

/// Hot-set size (well below the default 1024-entry response LRU).
pub const HOT: usize = 256;
/// Requests every connection sends however short the loop: the output
/// digest covers the replies to these, so it does not depend on how many
/// requests the loop's time allowed.
const DIGESTED: u64 = 200;
/// Set-ups per process: each warms the response LRU with the whole hot
/// set, as much predictor work as 256 never-seen requests.
const SETUPS: usize = 2;

struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Result<Client, String> {
        let writer = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        writer.set_nodelay(true).map_err(|e| e.to_string())?;
        let reader = BufReader::new(writer.try_clone().map_err(|e| e.to_string())?);
        Ok(Client { writer, reader })
    }

    /// One request/response round trip.
    fn call(&mut self, frame: &str) -> Result<String, String> {
        self.writer
            .write_all(frame.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("server closed the connection".to_string()),
            Ok(_) => Ok(line),
            Err(e) => Err(format!("receive: {e}")),
        }
    }
}

struct Server {
    handle: ServerHandle,
    clients: Vec<Client>,
}

impl Server {
    fn stop(self) -> Result<cli::serve::ServeSummary, String> {
        drop(self.clients);
        self.handle.shutdown().map_err(|e| format!("shutdown: {e}"))
    }
}

/// Generate the hot set, start the server, connect, and warm the response
/// LRU with every hot request. Returns the generation time separately.
fn setup(cfg: &Cfg) -> Result<(Server, Vec<ServeRequest>, Vec<String>, f64), String> {
    let t = Instant::now();
    let hot = gen::hot_set(cfg.seed, HOT);
    let generate_ms = t.elapsed().as_secs_f64() * 1e3;
    let handle = ServerHandle::start(ServeOpts {
        threads: cfg.threads,
        ..ServeOpts::default()
    })
    .map_err(|e| format!("server start: {e}"))?;
    let clients = (0..cfg.threads)
        .map(|_| Client::connect(handle.addr))
        .collect::<Result<Vec<_>, _>>()?;
    let mut server = Server { handle, clients };
    let mut warm = Vec::with_capacity(HOT);
    for (i, r) in hot.iter().enumerate() {
        let n = server.clients.len();
        let resp = server.clients[i % n].call(&r.frame(i as u64))?;
        if !is_ok(&resp) {
            return Err(format!("warm-up request {i} failed: {resp}"));
        }
        warm.push(resp);
    }
    Ok((server, hot, warm, generate_ms))
}

fn is_ok(resp: &str) -> bool {
    resp.contains("\"ok\":true")
}

/// The report inside a response with its `timings` object blanked: the
/// only part allowed to differ from `analyze_report_json`.
fn without_timings(report: &str) -> String {
    match report.find("\"timings\":{") {
        Some(i) => {
            let end = report[i..].find('}').map_or(report.len(), |j| i + j + 1);
            format!("{}{}", &report[..i], &report[end..])
        }
        None => report.to_string(),
    }
}

/// `timings.wall_ms` of a served report (0 when absent).
fn report_wall_ms(report: &str) -> f64 {
    report
        .find("\"wall_ms\":")
        .map(|i| &report[i + "\"wall_ms\":".len()..])
        .and_then(|s| s.split([',', '}']).next())
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0.0)
}

/// A never-seen request's reply, kept small: the request is regenerated
/// from `(seed, conn, i)` when it is verified.
struct Miss {
    conn: u64,
    i: u64,
    /// Digest of the served report with `timings` blanked.
    digest: u64,
    wall_ms: f64,
}

/// One answered request.
#[derive(Clone, Copy)]
struct Sample {
    rtt_ns: u64,
    /// Hot-set index, or `None` for a never-seen request.
    hot: Option<usize>,
    /// Index into the connection's misses when `hot` is `None`.
    miss: usize,
}

/// What one client connection saw.
#[derive(Default)]
struct ClientLog {
    samples: Vec<Sample>,
    misses: Vec<Miss>,
    /// Hot responses that differed from the warm-up response.
    hot_diverged: usize,
    errors: usize,
    overloaded: usize,
    first_error: Option<String>,
}

/// What every client thread of the closed loop shares.
struct Loop<'a> {
    cfg: &'a Cfg,
    hot: &'a [ServeRequest],
    /// The warm-up reply to each hot request.
    warm: &'a [String],
    /// Releases the clients together.
    barrier: Barrier,
    start: OnceLock<Instant>,
    tracer: Option<&'a Tracer>,
}

fn client_loop(lp: &Loop, conn: u64, client: &mut Client) -> ClientLog {
    let mut log = ClientLog::default();
    lp.barrier.wait();
    let t0 = *lp.start.get_or_init(Instant::now);
    let deadline = t0 + Duration::from_secs_f64(lp.cfg.seconds);
    let mut i = 0u64;
    while Instant::now() < deadline || i < DIGESTED {
        let pick = gen::pick_request(lp.cfg.seed, conn, i, lp.hot.len());
        let id = (conn << 32) | i;
        let frame = match &pick {
            Pick::Hot(h) => lp.hot[*h].frame(id),
            Pick::Miss(r) => r.frame(id),
        };
        let sent = Instant::now();
        let resp = client.call(&frame);
        let got = Instant::now();
        if let Some(t) = lp.tracer {
            t.record(id + 1, 0, "serve.request", sent, got);
        }
        i += 1;
        let resp = match resp {
            Ok(r) => r,
            Err(e) => {
                log.errors += 1;
                log.first_error.get_or_insert(e);
                break;
            }
        };
        if !is_ok(&resp) {
            if resp.contains("\"kind\":\"overloaded\"") {
                log.overloaded += 1;
            } else {
                log.errors += 1;
                log.first_error.get_or_insert(resp);
            }
            continue;
        }
        let mut sample = Sample {
            rtt_ns: got.duration_since(sent).as_nanos() as u64,
            hot: None,
            miss: 0,
        };
        match pick {
            Pick::Hot(h) => {
                // Same request bytes apart from the id: same report.
                if cli::proto::extract_report(&resp) != cli::proto::extract_report(&lp.warm[h]) {
                    log.hot_diverged += 1;
                }
                sample.hot = Some(h);
                log.samples.push(sample);
            }
            Pick::Miss(_) => {
                let report = cli::proto::extract_report(&resp).unwrap_or("");
                sample.miss = log.misses.len();
                log.samples.push(sample);
                log.misses.push(Miss {
                    conn,
                    i: i - 1,
                    digest: crate::stats::fnv1a(without_timings(report).as_bytes()),
                    wall_ms: report_wall_ms(report),
                });
            }
        }
    }
    log
}

/// Numbers from the server's own `metrics` response.
#[derive(Debug, Default, Clone, Copy)]
struct ServerMetrics {
    hits: f64,
    misses: f64,
    analyze: f64,
    coalesced: f64,
    overloaded: f64,
    service_p50_us: f64,
    service_p99_us: f64,
}

fn server_metrics(client: &mut Client) -> Result<ServerMetrics, String> {
    let resp = client.call("{\"type\":\"metrics\",\"id\":0}\n")?;
    let v: serde::Value = serde_json::from_str(&resp).map_err(|e| format!("metrics: {e}"))?;
    let body = v.as_object().and_then(|o| o.get("metrics"));
    let num = |path: &[&str]| -> f64 {
        let mut cur = body;
        for k in path {
            cur = cur.and_then(|c| c.as_object()).and_then(|o| o.get(k));
        }
        cur.and_then(|c| c.as_f64()).unwrap_or(f64::NAN)
    };
    Ok(ServerMetrics {
        hits: num(&["cache", "response_hits"]),
        misses: num(&["cache", "response_misses"]),
        analyze: num(&["requests", "analyze"]),
        coalesced: num(&["requests", "coalesced"]),
        overloaded: num(&["requests", "overloaded"]),
        service_p50_us: num(&["service_time_us", "p50"]),
        service_p99_us: num(&["service_time_us", "p99"]),
    })
}

/// Check every distinct response (request, digest of its report without
/// `timings`) against `cli::analyze_report_json`, on `threads` threads.
/// Returns the mismatching labels.
fn verify(distinct: &[(ServeRequest, u64)], threads: usize) -> Vec<String> {
    let chunk = distinct.len().div_ceil(threads.max(1)).max(1);
    std::thread::scope(|s| {
        let handles: Vec<_> = distinct
            .chunks(chunk)
            .map(|part| {
                s.spawn(move || {
                    let mut bad = Vec::new();
                    for (req, digest) in part {
                        let machine = uarch::registry::machine(req.model).expect("registry id");
                        let want =
                            cli::analyze_report_json(&machine, &req.label, &req.asm, req.flags());
                        let same = want.is_ok_and(|w| {
                            crate::stats::fnv1a(without_timings(w.trim_end()).as_bytes()) == *digest
                        });
                        if !same {
                            bad.push(req.label.clone());
                        }
                    }
                    bad
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("verifier thread panicked"))
            .collect()
    })
}

pub fn run(cfg: &Cfg) -> Result<PhaseOut, String> {
    let mut out = PhaseOut::default();
    let mut generate_ms = Vec::new();
    let mut ready = None;
    for k in 0..SETUPS {
        let stamp = Stamp::now();
        let (server, hot, warm, g) = setup(cfg)?;
        out.setup.push(stamp.elapsed().1);
        generate_ms.push(g);
        if k + 1 < SETUPS {
            server.stop()?;
        } else {
            ready = Some((server, hot, warm));
        }
    }
    let (mut server, hot, warm) = ready.expect("at least one set-up");
    out.inputs.push(("hot_set", hot.len().to_string()));
    out.inputs.push(("connections", cfg.threads.to_string()));

    let before = server_metrics(&mut server.clients[0])?;
    let tracer = Tracer::new();
    let lp = Loop {
        cfg,
        hot: &hot,
        warm: &warm,
        barrier: Barrier::new(server.clients.len()),
        start: OnceLock::new(),
        tracer: cfg.trace.then_some(&*tracer),
    };
    let stamp = Stamp::now();
    let logs: Vec<ClientLog> = std::thread::scope(|s| {
        let lp = &lp;
        let handles: Vec<_> = server
            .clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| s.spawn(move || client_loop(lp, c as u64, client)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let (loop_wall_s, loop_cpu_s) = stamp.elapsed();
    let after = server_metrics(&mut server.clients[0])?;
    let summary = server.stop()?;
    out.peak_rss_mb = crate::stats::peak_rss_mb();
    out.inputs
        .push(("server_summary", summary.render().trim_end().to_string()));

    let requests: usize = logs
        .iter()
        .map(|l| l.samples.len() + l.errors + l.overloaded)
        .sum();
    let errors: usize = logs.iter().map(|l| l.errors).sum();
    let overloaded: usize = logs.iter().map(|l| l.overloaded).sum();
    out.attempted = requests as u64;
    out.failed = (errors + overloaded) as u64;
    if let Some(e) = logs.iter().find_map(|l| l.first_error.as_ref()) {
        out.inputs.push(("first_error", e.clone()));
    }

    // Correctness, outside the timed loop.
    let hot_diverged: usize = logs.iter().map(|l| l.hot_diverged).sum();
    let served_digest = |resp: &str| {
        crate::stats::fnv1a(
            without_timings(cli::proto::extract_report(resp).unwrap_or("")).as_bytes(),
        )
    };
    let mut distinct: Vec<(ServeRequest, u64)> = hot
        .iter()
        .zip(&warm)
        .map(|(r, resp)| (r.clone(), served_digest(resp)))
        .collect();
    for m in logs.iter().flat_map(|l| &l.misses) {
        match gen::pick_request(cfg.seed, m.conn, m.i, HOT) {
            Pick::Miss(r) => distinct.push((r, m.digest)),
            Pick::Hot(_) => unreachable!("request {}.{} was sent as a miss", m.conn, m.i),
        }
    }
    let bad = verify(&distinct, cfg.threads);
    out.check(
        "serve.responses_match_analyze",
        bad.is_empty() && hot_diverged == 0,
        format!(
            "{} distinct responses checked, {} differ, {hot_diverged} hot replies differ from warm-up; first: {:?}",
            distinct.len(),
            bad.len(),
            bad.first()
        ),
    );
    let misses = logs.iter().flat_map(|l| &l.misses);
    let digests: String = distinct[..HOT]
        .iter()
        .map(|(req, d)| format!("{} {d:016x}\n", req.label))
        .chain(
            misses
                .filter(|m| m.i < DIGESTED)
                .map(|m| format!("{}.{} {:016x}\n", m.conn, m.i, m.digest)),
        )
        .collect();
    out.digest = crate::stats::fnv1a(digests.as_bytes());

    // Metrics from the raw round-trip samples.
    let mut all: Vec<f64> = Vec::new();
    let mut hits: Vec<f64> = Vec::new();
    let mut misses: Vec<f64> = Vec::new();
    let mut wire: Vec<f64> = Vec::new();
    let hot_wall: Vec<f64> = warm
        .iter()
        .map(|r| report_wall_ms(cli::proto::extract_report(r).unwrap_or("")))
        .collect();
    for l in &logs {
        for s in &l.samples {
            let ms = s.rtt_ns as f64 / 1e6;
            all.push(ms);
            let wall = match s.hot {
                Some(h) => {
                    hits.push(ms);
                    hot_wall[h]
                }
                None => {
                    misses.push(ms);
                    l.misses[s.miss].wall_ms
                }
            };
            wire.push(ms - wall);
        }
    }
    for v in [&mut all, &mut hits, &mut misses, &mut wire] {
        v.sort_by(f64::total_cmp);
    }
    out.inputs.push(("rtt_samples", all.len().to_string()));
    out.inputs.push((
        "supported_tail_pct",
        supported_tail_pct(all.len()).to_string(),
    ));
    // Throughput over the process's CPU time (server and clients):
    // `requests × nproc / CPU seconds`. It equals requests per wall second
    // while every CPU is busy, and leaves out time the hypervisor
    // withholds.
    let nproc = cfg.threads as f64;
    out.inputs.push((
        "wall_requests_per_s",
        format!("{}", all.len() as f64 / loop_wall_s),
    ));
    out.metrics = vec![Metric::rate(
        "requests_per_s",
        "req/s",
        &[(all.len() as f64 * nproc, loop_cpu_s)],
    )];
    // The client round trips: measured like end-to-end metrics but
    // reported with the layers, without a bound (see README).
    out.layers = vec![
        Metric::repeated("kernels.generate_ms", "ms", &generate_ms),
        Metric::once("p50_ms", "ms", quantile(&all, 0.50), all.len()),
        Metric::once("p99_ms", "ms", quantile(&all, 0.99), all.len()),
    ];
    if cfg.trace {
        let d = |f: fn(&ServerMetrics) -> f64| f(&after) - f(&before);
        out.layers.extend([
            Metric::once(
                "serve.response_hit_ratio",
                "ratio",
                d(|m| m.hits) / (d(|m| m.hits) + d(|m| m.misses)),
                requests,
            ),
            Metric::once(
                "serve.coalesce_ratio",
                "ratio",
                d(|m| m.coalesced) / d(|m| m.analyze),
                requests,
            ),
            Metric::once("serve.overloaded", "count", d(|m| m.overloaded), requests),
            Metric::once("serve.service_p50_us", "us", after.service_p50_us, requests),
            Metric::once("serve.service_p99_us", "us", after.service_p99_us, requests),
            Metric::once(
                "serve.hit_rtt_p50_ms",
                "ms",
                quantile(&hits, 0.5),
                hits.len(),
            ),
            Metric::once(
                "serve.miss_rtt_p50_ms",
                "ms",
                quantile(&misses, 0.5),
                misses.len(),
            ),
            Metric::once("serve.wire_ms", "ms", quantile(&wire, 0.5), wire.len()),
            Metric::once(
                "serve.utilization",
                "ratio",
                loop_cpu_s / (loop_wall_s * nproc),
                all.len(),
            ),
        ]);
        tracer
            .write(&cfg.work.join("trace-serve.ndjson"))
            .map_err(|e| format!("trace: {e}"))?;
    }
    Ok(out)
}
