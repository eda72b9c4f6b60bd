//! The request mix and the loopback HTTP load generators.
//!
//! Every request opens its own connection and sends `connection: close`,
//! as the repository's own client does. Keep-alive is avoided on purpose:
//! the server writes a response head and body in two writes without
//! `TCP_NODELAY`, so a reused connection stalls on the peer's delayed ACK
//! (about 40 ms per request on Linux loopback) and would measure that
//! stall instead of the server.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sandwich_bench::scale::Zipf;
use sandwich_query::{Engine, QueryIndex, QueryRequest};
use sandwich_store::fnv1a64;
use sandwich_types::Keypair;

use crate::spec::{COLD_RANGE_SLOTS, COLD_SHARE, LOAD_THREADS};
use crate::trace::{SpanId, Tracer};

/// One API request: its path, its typed form for the uncached reference,
/// and whether it is a deliberate 404 probe.
#[derive(Clone, Debug)]
pub struct Request {
    pub path: String,
    pub typed: QueryRequest,
    pub hot: bool,
    pub expect_404: bool,
}

/// What one sent request came back with. `status` 0 is a transport error.
#[derive(Clone, Copy, Debug)]
pub struct Sent {
    pub req: usize,
    pub status: u16,
    pub body: u64,
    pub latency_s: f64,
    pub late_s: f64,
}

impl Sent {
    pub fn ok(&self, reqs: &[Request]) -> bool {
        self.status == 200 || (self.status == 404 && reqs[self.req].expect_404)
    }
}

/// `GET path` over a fresh loopback connection.
pub fn get(addr: SocketAddr, path: &str) -> std::io::Result<(u16, Vec<u8>)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    stream.write_all(
        format!("GET {path} HTTP/1.1\r\nhost: bench\r\nconnection: close\r\n\r\n").as_bytes(),
    )?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line)?;
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "bad status line"))?;
    let mut length = None;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 || line == "\r\n" {
            break;
        }
        if let Some((k, v)) = line.split_once(':') {
            if k.eq_ignore_ascii_case("content-length") {
                length = v.trim().parse::<usize>().ok();
            }
        }
    }
    let length = length
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "no content-length"))?;
    let mut body = vec![0u8; length];
    reader.read_exact(&mut body)?;
    Ok((status, body))
}

fn send(addr: SocketAddr, reqs: &[Request], req: usize, due: Instant) -> Sent {
    let started = Instant::now();
    let (status, body) = match get(addr, &reqs[req].path) {
        Ok((status, body)) => (status, fnv1a64(&body)),
        Err(_) => (0, 0),
    };
    Sent {
        req,
        status,
        body,
        latency_s: due.elapsed().as_secs_f64(),
        late_s: started.saturating_duration_since(due).as_secs_f64(),
    }
}

/// The fixed request mix over `index`: zipf-hot keys (summary, days,
/// leaderboards and the top detail pages, one deliberate 404) plus, unless
/// `hot_only`, a `COLD_SHARE` of distinct one-hour slot-range scans.
pub fn mix(index: &QueryIndex, seed: u64, n: usize, hot_only: bool) -> Vec<Request> {
    let req = |path: String, typed: QueryRequest| Request {
        path,
        typed,
        hot: true,
        expect_404: false,
    };
    let mut hot = vec![
        req("/api/summary".into(), QueryRequest::Summary),
        req(
            "/api/attackers?limit=20".into(),
            QueryRequest::Attackers {
                limit: 20,
                after: 0,
            },
        ),
        req("/api/days".into(), QueryRequest::Days),
    ];
    if index.validators.is_some() {
        hot.push(req(
            "/api/validators?limit=20".into(),
            QueryRequest::Validators {
                limit: 20,
                after: 0,
            },
        ));
    }
    for i in 0..8 {
        if let Some(a) = index.attackers.get(i) {
            hot.push(req(
                format!("/api/attacker/{}", a.attacker),
                QueryRequest::Attacker { pubkey: a.attacker },
            ));
        }
        if let Some(p) = index.pools.get(i) {
            hot.push(req(
                format!("/api/pool/{}", p.mint),
                QueryRequest::Pool { mint: p.mint },
            ));
        }
        if let Some(v) = index
            .validators
            .as_ref()
            .and_then(|v| v.get(i / 2))
            .filter(|_| i % 2 == 0)
        {
            hot.push(req(
                format!("/api/validator/{}", v.pubkey),
                QueryRequest::Validator { pubkey: v.pubkey },
            ));
        }
    }
    hot.push(req(
        "/api/attackers?limit=20&after=20".into(),
        QueryRequest::Attackers {
            limit: 20,
            after: 20,
        },
    ));
    let nobody = Keypair::from_label("perfbench-nobody").pubkey();
    hot.push(Request {
        expect_404: true,
        ..req(
            format!("/api/attacker/{nobody}"),
            QueryRequest::Attacker { pubkey: nobody },
        )
    });

    let mut rng = StdRng::seed_from_u64(seed ^ 0x6d69_7865_645f_6c6f);
    let zipf = Zipf::new(hot.len());
    let max_slot = index.totals.max_slot.max(1);
    (0..n)
        .map(|_| {
            if !hot_only && rng.gen_bool(COLD_SHARE) {
                let from = rng.gen_range(0..max_slot);
                let to = from + COLD_RANGE_SLOTS;
                Request {
                    path: format!("/api/sandwiches?from_slot={from}&to_slot={to}&limit=50"),
                    typed: QueryRequest::Sandwiches {
                        from_slot: from,
                        to_slot: to,
                        limit: 50,
                        after: 0,
                    },
                    hot: false,
                    expect_404: false,
                }
            } else {
                hot[zipf.sample(&mut rng)].clone()
            }
        })
        .collect()
}

/// Open loop: request `j` is due at `j / rate` seconds and is sent then,
/// however far behind earlier requests are. `threads` threads split the
/// schedule; latency counts from the due time.
pub fn open_loop(
    addr: SocketAddr,
    reqs: &[Request],
    rate: f64,
    threads: usize,
    tracer: &Tracer,
    parent: SpanId,
    span: &'static str,
) -> Vec<Sent> {
    let t0 = Instant::now() + Duration::from_millis(5);
    let per_thread: Vec<Vec<Sent>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                scope.spawn(move || {
                    let mut out = Vec::new();
                    for j in (t..reqs.len()).step_by(threads) {
                        let due = t0 + Duration::from_secs_f64(j as f64 / rate);
                        if let Some(wait) = due.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        let sent = send(addr, reqs, j, due);
                        tracer.record(span, parent, j as u64, due, Instant::now());
                        out.push(sent);
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    per_thread.into_iter().flatten().collect()
}

/// Closed loop: `LOAD_THREADS` connections in turn, each sending its next
/// request as soon as the previous answer is in, for `seconds`. Returns the
/// answers and the wall time.
pub fn closed_loop(
    addr: SocketAddr,
    reqs: &[Request],
    seconds: f64,
    tracer: &Tracer,
    parent: SpanId,
    span: &'static str,
) -> (Vec<Sent>, f64) {
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    let per_thread: Vec<Vec<Sent>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..LOAD_THREADS)
            .map(|t| {
                scope.spawn(move || {
                    let mut out = Vec::new();
                    let mut j = t;
                    while Instant::now() < deadline {
                        let now = Instant::now();
                        let sent = send(addr, reqs, j % reqs.len(), now);
                        tracer.record(span, parent, j as u64, now, Instant::now());
                        out.push(sent);
                        j += LOAD_THREADS;
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    (
        per_thread.into_iter().flatten().collect(),
        started.elapsed().as_secs_f64(),
    )
}

/// Uncached reference answers, one per distinct request.
pub struct Reference<'a> {
    engine: &'a Engine,
    reqs: &'a [Request],
    cache: HashMap<String, (u16, u64)>,
}

impl<'a> Reference<'a> {
    pub fn new(engine: &'a Engine, reqs: &'a [Request]) -> Self {
        Reference {
            engine,
            reqs,
            cache: HashMap::new(),
        }
    }

    /// Answers in `sent` that differ from uncached `Engine::evaluate`.
    /// Transport errors are failures, not mismatches, and are skipped.
    pub fn mismatches(&mut self, sent: &[Sent]) -> u64 {
        let mut bad = 0;
        for s in sent.iter().filter(|s| s.status != 0) {
            let r = &self.reqs[s.req];
            let engine = self.engine;
            let want = *self.cache.entry(r.path.clone()).or_insert_with(|| {
                let answer = engine.evaluate(&r.typed);
                (answer.status, fnv1a64(&answer.body))
            });
            if (s.status, s.body) != want {
                bad += 1;
            }
        }
        bad
    }
}

/// Latencies in ms of the answers that succeeded, optionally of one class.
pub fn latencies_ms(sent: &[Sent], reqs: &[Request], hot: Option<bool>) -> Vec<f64> {
    sent.iter()
        .filter(|s| s.ok(reqs) && hot.is_none_or(|h| reqs[s.req].hot == h))
        .map(|s| s.latency_s * 1e3)
        .collect()
}

/// Answers that failed or were refused (transport errors, 503 sheds,
/// non-2xx other than the deliberate 404 probe).
pub fn failures(sent: &[Sent], reqs: &[Request]) -> u64 {
    sent.iter().filter(|s| !s.ok(reqs)).count() as u64
}
