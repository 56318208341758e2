//! `decide_hot` and `decide_mix`: one closed-loop client asking the
//! decision service, the way a job runtime asks at each task boundary.
//!
//! * `decide_hot` calls the framed fast path's handler in-process with
//!   distinct seeded exponential queries that the lattice serves: parse,
//!   admit, lookup and render dominate; no exact solve runs. No socket:
//!   loopback round trips on a shared 2-core host flipped between ~12 and
//!   ~19 µs from run to run, wider than any bound the metric could keep.
//! * `decide_mix` drives an HTTP keep-alive daemon on loopback with
//!   interleaved job sessions over all four families: the exact fallback
//!   dominates.

use crate::adapter::{
    self, Answer, Counters, Daemon, ExactCache, Lattice, Proto, Service, SpanProbe,
};
use crate::gen::{self, Axis, MixStream, Placement, Query, Rng};
use crate::setup::{self, Sampler};
use crate::stats::{Slice, Slicer};
use crate::trace::Recorder;
use crate::wire::{self, HttpClient};
use crate::{lattices, nproc, overhead_share, stats, Opts, Outcome, Perturb};
use std::path::Path;
use std::time::{Duration, Instant};

/// Set-ups per `setup_s` sample.
const SETUP_BLOCK: usize = 16;
/// `decide_hot` reports its fastest slices of this many seconds (see
/// [`Slicer`]): its ops take microseconds, and how fast the host runs
/// them changes from second to second.
const HOT_SLICE_S: f64 = 0.25;
/// `decide_mix` asks the seed's first sessions this many times, each
/// pass against a fresh service, and an op is a request's fastest answer.
const MIX_PASSES: usize = 2;

/// Sessions per `decide_mix` pass, all asked to their end: 64 at 15 s,
/// two whole Latin-hypercube blocks of each family, so the costs a run
/// covers barely depend on the seed. A count, not a time limit, so the
/// requests a run covers depend on the seed only.
fn mix_sessions(seconds: f64) -> u64 {
    4 * (seconds * 16.0 / 15.0).round().max(1.0) as u64
}

/// Distinct lattice-served queries `decide_hot` cycles through.
const HOT_QUERIES: usize = 1024;
/// Answers re-checked in-process per run.
const CHECK_SAMPLE: usize = 32;

/// Where the closed loop sends its requests: the service itself, plus a
/// loopback daemon on the HTTP path.
enum Endpoint {
    InProcess(Service),
    Http(Service, Daemon),
}

impl Endpoint {
    /// Loads and verifies the artifacts and, for HTTP, binds the daemon:
    /// the set-up a user pays.
    fn open(proto: Proto, dir: &Path, workers: usize) -> Result<Self, String> {
        let service = Service::load(dir)?;
        Ok(match proto {
            Proto::InProcess => Endpoint::InProcess(service),
            Proto::Http => {
                let daemon = Daemon::bind(&service, workers)?;
                Endpoint::Http(service, daemon)
            }
        })
    }

    fn proto(&self) -> Proto {
        match self {
            Endpoint::InProcess(_) => Proto::InProcess,
            Endpoint::Http(..) => Proto::Http,
        }
    }

    fn service(&self) -> &Service {
        match self {
            Endpoint::InProcess(s) | Endpoint::Http(s, _) => s,
        }
    }

    fn close(self) {
        if let Endpoint::Http(_, daemon) = self {
            daemon.stop();
        }
    }
}

enum Client<'a> {
    InProcess(&'a Service),
    Http(HttpClient),
}

impl<'a> Client<'a> {
    fn connect(endpoint: &'a Endpoint) -> Result<Self, String> {
        Ok(match endpoint {
            Endpoint::InProcess(service) => Client::InProcess(service),
            Endpoint::Http(_, daemon) => Client::Http(
                HttpClient::connect(daemon.addr())
                    .map_err(|e| format!("connecting to the daemon: {e}"))?,
            ),
        })
    }

    /// One blocking request. A typed error answer, a transport error or a
    /// non-200 status (429 shed, 504 timeout, …) is a failed operation.
    fn call(&mut self, body: &[u8], out: &mut Vec<u8>) -> Result<(), String> {
        match self {
            Client::InProcess(service) => {
                let answer = service.answer_frame(body);
                out.clear();
                out.extend_from_slice(answer.as_bytes());
                if answer.starts_with("{\"error\"") {
                    Err(answer)
                } else {
                    Ok(())
                }
            }
            Client::Http(c) => match c.call(body, out).map_err(|e| e.to_string())? {
                200 => Ok(()),
                s => Err(format!("HTTP {s}: {}", String::from_utf8_lossy(out))),
            },
        }
    }
}

/// Every distinct request of the run and the first answer to it.
#[derive(Default)]
struct Table {
    queries: Vec<Query>,
    bodies: Vec<String>,
    placements: Vec<Option<Placement>>,
    answers: Vec<Option<Vec<u8>>>,
}

impl Table {
    fn push(&mut self, q: Query, placement: Option<Placement>) -> u32 {
        self.bodies.push(q.body());
        self.queries.push(q);
        self.placements.push(placement);
        self.answers.push(None);
        (self.queries.len() - 1) as u32
    }
}

enum Source {
    /// Cycles over the table's fixed served queries.
    Hot {
        next: usize,
    },
    Mix(Box<MixStream>),
}

impl Source {
    /// The next request's table key (`None`: the stream has ended).
    fn next(&mut self, table: &mut Table) -> Option<u32> {
        match self {
            Source::Hot { next } => {
                let k = *next % table.queries.len();
                *next += 1;
                Some(k as u32)
            }
            Source::Mix(stream) => {
                let r = stream.next_request()?;
                Some(table.push(r.query, Some(r.placement)))
            }
        }
    }
}

/// One measured window of the closed loop.
#[derive(Default)]
struct Window {
    /// Round-trip times of answered requests, by slice (`decide_hot`).
    slices: Vec<Slice>,
    /// Per-operation request keys and round trips (`NaN` when failed),
    /// kept on `decide_mix` and when traced (the trace replay pairs them
    /// with handler spans).
    keys: Vec<u32>,
    rtt_ns: Vec<f64>,
    attempted: u64,
    ok: u64,
    failed: u64,
    /// Repeats of a query whose answer bytes differed from its first.
    mismatches: u64,
    first_error: Option<String>,
    elapsed_s: f64,
}

/// The tail percentile: p99 on `decide_hot`; `decide_mix` makes about
/// 50 decisions a second, and p99 needs 1000.
fn tail_q(proto: Proto) -> f64 {
    match proto {
        Proto::InProcess => 0.99,
        Proto::Http => 0.9,
    }
}

/// When a window ends.
#[derive(Clone, Copy)]
enum Until {
    Seconds(f64),
    /// When the request stream ends.
    Drained,
}

fn window(
    endpoint: &Endpoint,
    source: &mut Source,
    table: &mut Table,
    until: Until,
    mut rec: Option<&mut Recorder>,
    sampler: &mut Option<Sampler>,
) -> Result<Window, String> {
    let mut client = Client::connect(endpoint)?;
    let mut w = Window::default();
    let proto = endpoint.proto();
    let mut slicer = (proto == Proto::InProcess).then(|| Slicer::new(HOT_SLICE_S, tail_q(proto)));
    // decide_mix keeps every round trip: each pass replays the same ops.
    let keep_each = rec.is_some() || proto == Proto::Http;
    let mut buf = Vec::with_capacity(512);
    let start = Instant::now();
    let mut paused = Duration::ZERO;
    loop {
        let active_s = (start.elapsed() - paused).as_secs_f64();
        if let Until::Seconds(s) = until {
            if active_s >= s {
                break;
            }
        }
        if let Some(s) = slicer.as_mut() {
            s.tick(active_s);
        }
        paused += setup::tick(sampler)?;
        let Some(key) = source.next(table) else {
            break;
        };
        let op = w.attempted;
        let t0 = Instant::now();
        let span_start = rec.as_ref().map(|r| r.now());
        let result = client.call(table.bodies[key as usize].as_bytes(), &mut buf);
        let rtt = t0.elapsed().as_nanos() as f64;
        if let (Some(r), Some(s)) = (rec.as_deref_mut(), span_start) {
            let e = r.now();
            r.record("client.request", s, e, None, op);
        }
        w.attempted += 1;
        if keep_each {
            w.keys.push(key);
            w.rtt_ns.push(if result.is_ok() { rtt } else { f64::NAN });
        }
        match result {
            Ok(()) => {
                w.ok += 1;
                if let Some(s) = slicer.as_mut() {
                    s.add(rtt, 1);
                }
                match &table.answers[key as usize] {
                    None => table.answers[key as usize] = Some(buf.clone()),
                    Some(first) if *first != buf => w.mismatches += 1,
                    Some(_) => {}
                }
            }
            Err(e) => {
                w.failed += 1;
                w.first_error.get_or_insert(e);
                client = Client::connect(endpoint)?;
            }
        }
    }
    w.elapsed_s = (start.elapsed() - paused).as_secs_f64();
    w.slices = slicer.map_or_else(Vec::new, |s| s.finish(w.elapsed_s));
    Ok(w)
}

fn family_axes(dir: &Path) -> Result<Vec<Vec<Axis>>, String> {
    gen::FAMILIES
        .iter()
        .map(|f| Ok(Lattice::load(&dir.join(adapter::artifact_file_name(f)?))?.axes()))
        .collect()
}

/// Relative error with the lattice's floor (`REL_FLOOR · R`).
fn within_tolerance(got: &Answer, want: &Answer, r: f64, tol: f64) -> Result<(), String> {
    let floor = adapter::rel_floor() * r;
    let rel = |a: f64, b: f64| (a - b).abs() / b.abs().max(floor);
    let mut worst = rel(got.x_opt, want.x_opt).max(rel(got.expected_work, want.expected_work));
    match (got.w_int, want.w_int) {
        (Some(a), Some(b)) => worst = worst.max(rel(a, b)),
        (None, None) => {}
        _ => return Err(format!("w_int {:?} vs exact {:?}", got.w_int, want.w_int)),
    }
    if got.n_opt.abs_diff(want.n_opt) > 1 {
        return Err(format!("n_opt {} vs exact {}", got.n_opt, want.n_opt));
    }
    if worst > tol {
        return Err(format!("relative error {worst:.4} > tolerance {tol}"));
    }
    Ok(())
}

/// The correctness checks, run after the window with the daemon stopped.
fn check(
    opts: &Opts,
    proto: Proto,
    dir: &Path,
    table: &mut Table,
    out: &mut Outcome,
) -> Result<(), String> {
    let answered: Vec<usize> = (0..table.queries.len())
        .filter(|&k| table.answers[k].is_some())
        .collect();
    if answered.is_empty() {
        out.fail("no request was answered");
        return Ok(());
    }
    let mut rng = Rng::new(gen::mix(opts.seed, 0xC4EC));
    let sample: Vec<usize> = (0..CHECK_SAMPLE.min(answered.len()))
        .map(|_| answered[rng.below(answered.len())])
        .collect();
    if opts.perturb == Some(Perturb::AnswerByte) {
        let bytes = table.answers[sample[0]]
            .as_mut()
            .expect("sampled answers exist");
        let at = bytes
            .iter()
            .position(u8::is_ascii_digit)
            .expect("answers hold digits");
        bytes[at] = if bytes[at] == b'9' {
            b'8'
        } else {
            bytes[at] + 1
        };
    }
    // Every answer parses, with finite fields, a source and a
    // `checkpoint_now` that agrees with its own threshold.
    for &k in &answered {
        let text = String::from_utf8_lossy(table.answers[k].as_deref().expect("answered"));
        match wire::parse_answer(&text) {
            Err(e) => out.fail(format!("request {k}: {e}")),
            Ok(a) => {
                let work = table.queries[k].work;
                let expect = a.answer.w_int.is_some_and(|w| work >= w);
                if a.checkpoint_now != Some(expect) {
                    out.fail(format!(
                        "request {k}: checkpoint_now {:?} at work {work} with w_int {:?}",
                        a.checkpoint_now, a.answer.w_int
                    ));
                }
                if proto == Proto::InProcess && !a.answer.lattice {
                    out.fail(format!(
                        "request {k}: decide_hot query answered exactly: {text}"
                    ));
                }
            }
        }
    }
    // A seeded sample re-answered in-process is byte-identical, and its
    // lattice answers lie within the artifact tolerance of the exact solve.
    let service = Service::load(dir)?;
    let mut cache = ExactCache::new();
    for &k in &sample {
        let body = &table.bodies[k];
        let again = match proto {
            Proto::InProcess => service.answer_frame(body.as_bytes()),
            Proto::Http => service.answer_http(body).1,
        };
        let wire_bytes = table.answers[k].as_deref().expect("answered");
        if again.as_bytes() != wire_bytes {
            out.fail(format!(
                "request {k}: wire answer {:?} differs from in-process {again:?}",
                String::from_utf8_lossy(wire_bytes)
            ));
            continue;
        }
        let Ok(got) = wire::parse_answer(&again) else {
            continue;
        };
        if got.answer.lattice {
            let q = &table.queries[k];
            let want = adapter::solve_exact(q, &mut cache)?;
            if let Err(e) =
                within_tolerance(&got.answer, &want, q.reservation, service.tolerance(q)?)
            {
                out.fail(format!("request {k}: lattice answer vs solve_exact: {e}"));
            }
        }
    }
    Ok(())
}

/// Candidates probed for the `decide_hot` pool.
const HOT_POOL_CANDIDATES: usize = 2560;
/// The served pool's cache file, next to the artifacts.
const HOT_POOL_FILE: &str = "hot_pool.txt";

/// The lattice-served `decide_hot` pool, probed once per artifact set
/// (a served query costs ~1 µs to probe, an unserved one an exact solve)
/// and cached next to the artifacts as candidate indices.
fn hot_pool(dir: &Path, service: &Service, exp_axes: &[Axis]) -> Result<Vec<Query>, String> {
    let candidates = gen::hot_pool_candidates(exp_axes, HOT_POOL_CANDIDATES);
    let path = dir.join(HOT_POOL_FILE);
    let cached: Option<Vec<usize>> = std::fs::read_to_string(&path)
        .ok()
        .and_then(|t| t.lines().map(|l| l.parse().ok()).collect())
        .filter(|v: &Vec<usize>| v.iter().all(|&i| i < candidates.len()));
    let served = match cached {
        Some(v) => v,
        None => {
            let threads = nproc();
            let probed: Vec<Result<Vec<usize>, String>> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..threads)
                    .map(|t| {
                        let candidates = &candidates;
                        scope.spawn(move || {
                            let mut cache = ExactCache::new();
                            let mut keep = Vec::new();
                            for i in (t..candidates.len()).step_by(threads) {
                                if service.lattice_serves(&candidates[i], &mut cache)? {
                                    keep.push(i);
                                }
                            }
                            Ok(keep)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("pool probe thread panicked"))
                    .collect()
            });
            let mut v = Vec::new();
            for p in probed {
                v.extend(p?);
            }
            v.sort_unstable();
            let text: String = v.iter().map(|i| format!("{i}\n")).collect();
            std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
            v
        }
    };
    if served.len() < HOT_QUERIES {
        return Err(format!(
            "only {} of {HOT_POOL_CANDIDATES} pool candidates are lattice-served",
            served.len()
        ));
    }
    Ok(served.into_iter().map(|i| candidates[i]).collect())
}

/// `decide_hot` inputs: distinct seeded queries from the served pool.
fn hot_table(opts: &Opts, pool: &[Query]) -> Table {
    let mut table = Table::default();
    for q in gen::hot_queries(opts.seed, pool, HOT_QUERIES) {
        table.push(q, None);
    }
    table
}

/// Per-request layer spans from replaying the traced window in order
/// through a second, identically built service.
fn replay(
    proto: Proto,
    dir: &Path,
    table: &Table,
    keys: &[u32],
    rtt_ns: &[f64],
    rec: &mut Recorder,
    out: &mut Outcome,
) -> Result<(), String> {
    let service = Service::load(dir)?;
    let probe = SpanProbe::install();
    let (mut handler, mut parse, mut render, mut self_t, mut wire_t) =
        (vec![], vec![], vec![], vec![], vec![]);
    let (mut lookup, mut solve) = (vec![], vec![]);
    let (mut attributed, mut total_rtt, mut quad) = (0.0, 0.0, 0.0);
    for (op, (&key, &rtt)) in keys.iter().zip(rtt_ns).enumerate() {
        if rtt.is_nan() {
            continue; // failed on the wire: no round trip to attribute
        }
        let op = op as u64;
        let body = &table.bodies[key as usize];
        let t0 = rec.now();
        let parsed = adapter::json_parse(body);
        let t1 = rec.now();
        let answer = match proto {
            Proto::InProcess => service.answer_frame(body.as_bytes()),
            Proto::Http => service.answer_http(body).1,
        };
        let t2 = rec.now();
        let spans = probe.drain();
        let decide_ns = spans
            .iter()
            .filter(|(p, _, _)| p == "serve/decide")
            .map(|(_, _, n)| *n as f64)
            .sum::<f64>();
        quad += spans
            .iter()
            .filter(|(p, _, _)| p.ends_with("quad") && p.matches("quad").count() == 1)
            .map(|(_, _, n)| *n as f64)
            .sum::<f64>();
        let a = wire::parse_answer(&answer).map_err(|e| format!("replay: {e}"))?;
        let t3 = rec.now();
        let rendered = adapter::render_answer(&a.answer, table.queries[key as usize].work);
        let t4 = rec.now();
        if !parsed || rendered != answer {
            out.fail(format!(
                "replay of request {key}: render_answer {rendered:?} != handler {answer:?}"
            ));
        }
        let h = rec.record("replay.handler", t1, t2, None, op);
        rec.record("replay.parse", t0, t1, Some(h), op);
        rec.record("replay.decide", t1, t1 + decide_ns as u64, Some(h), op);
        rec.record("replay.render", t3, t4, Some(h), op);
        let (p, hd, rd) = ((t1 - t0) as f64, (t2 - t1) as f64, (t4 - t3) as f64);
        handler.push(hd);
        parse.push(p);
        render.push(rd);
        self_t.push(hd - p - decide_ns - rd);
        wire_t.push(rtt - hd);
        if a.answer.lattice {
            lookup.push(decide_ns);
        } else {
            solve.push(decide_ns);
        }
        attributed += p + decide_ns + rd + (rtt - hd);
        total_rtt += rtt;
    }
    let med = |v: &mut Vec<f64>| if v.is_empty() { 0.0 } else { stats::median(v) };
    out.metric("http.wire_p50_us", med(&mut wire_t) / 1e3);
    out.metric("http.wire_p99_us", stats::quantile(&mut wire_t, 0.99) / 1e3);
    out.metric("serve.handler_us", med(&mut handler) / 1e3);
    out.metric("serve.parse_us", med(&mut parse) / 1e3);
    out.metric("serve.render_us", med(&mut render) / 1e3);
    out.metric("serve.self_us", med(&mut self_t) / 1e3);
    out.metric("serve.attributed_share", attributed / total_rtt);
    out.metric("lattice.lookup_us", med(&mut lookup) / 1e3);
    out.metric("planner.solve_exact_ms", med(&mut solve) / 1e6);
    out.metric(
        "numerics.quad_self_share",
        quad / handler.iter().sum::<f64>(),
    );
    out.fact(format!(
        "replay: {} requests ({} lattice, {} exact) through a second service",
        keys.len(),
        lookup.len(),
        solve.len()
    ));
    Ok(())
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The lattice artifacts (built once per benchmark executable).
fn artifacts(opts: &Opts) -> Result<lattices::Artifacts, String> {
    let root = match &opts.lattice_root {
        Some(r) => r.clone(),
        None => lattices::default_root()?,
    };
    let key = match opts.lattice_points {
        Some(p) => format!("points-{p}"),
        None => lattices::exe_hash()?,
    };
    let points = opts.lattice_points;
    lattices::ensure(&root, &key, &gen::FAMILIES, nproc(), &|f| {
        Lattice::build(f, points)
    })
}

/// Builds the offline inputs unless cached: the artifacts and, for
/// `decide_hot`, the served pool.
pub fn prepare(opts: &Opts, proto: Proto) -> Result<(), String> {
    let dir = artifacts(opts)?.dir;
    if proto == Proto::InProcess && !dir.join(HOT_POOL_FILE).is_file() {
        hot_pool(&dir, &Service::load(&dir)?, &family_axes(&dir)?[1])?;
    }
    Ok(())
}

pub fn run(opts: &Opts, proto: Proto) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let workers = nproc().saturating_sub(1).max(1);
    // Offline input, normally prepared by an earlier process.
    let artifacts = artifacts(opts)?;
    let dir = artifacts.dir.clone();

    let endpoint = Endpoint::open(proto, &dir, workers)?;

    let axes = family_axes(&dir)?;
    let mut table = match proto {
        Proto::InProcess => hot_table(opts, &hot_pool(&dir, endpoint.service(), &axes[1])?),
        Proto::Http => Table::default(),
    };
    // Each measured window starts the seed's request stream from its
    // beginning against a freshly built service.
    let source = |until: Until| match proto {
        Proto::InProcess => Source::Hot { next: 0 },
        Proto::Http => Source::Mix(Box::new(match until {
            Until::Seconds(_) => MixStream::new(opts.seed, axes.clone()),
            Until::Drained => {
                MixStream::sessions(opts.seed, axes.clone(), mix_sessions(opts.seconds))
            }
        })),
    };

    let mut rec = Recorder::new();
    let (windows, mut setup, traced) = if opts.trace {
        // Traced mode: an untraced half (the overhead baseline), then an
        // identical traced half on a fresh service.
        let half = Until::Seconds(opts.seconds / 2.0);
        let untraced = window(
            &endpoint,
            &mut source(half),
            &mut table,
            half,
            None,
            &mut None,
        )?;
        endpoint.close();
        let endpoint = Endpoint::open(proto, &dir, workers)?;
        let before = Counters::capture();
        let traced = window(
            &endpoint,
            &mut source(half),
            &mut table,
            half,
            Some(&mut rec),
            &mut None,
        )?;
        let delta = Counters::capture().since(&before);
        endpoint.close();
        (vec![untraced], Vec::new(), Some((traced, delta)))
    } else {
        // Set-up a user pays: load + verify the artifacts (and bind the
        // daemon on the HTTP path), on a second endpoint closed again.
        let mut sampler = Some(Sampler::new(opts.seconds, SETUP_BLOCK, || {
            let t = Instant::now();
            let side = Endpoint::open(proto, &dir, workers)?;
            let paid = t.elapsed();
            side.close();
            Ok(paid)
        }));
        let (passes, until) = match proto {
            Proto::InProcess => (1, Until::Seconds(opts.seconds)),
            Proto::Http => (MIX_PASSES, Until::Drained),
        };
        let mut endpoint = endpoint;
        let mut windows = Vec::new();
        for pass in 0..passes {
            if pass > 0 {
                endpoint.close();
                endpoint = Endpoint::open(proto, &dir, workers)?;
            }
            let w = window(
                &endpoint,
                &mut source(until),
                &mut table,
                until,
                None,
                &mut sampler,
            )?;
            windows.push(w);
        }
        out.metric("peak_rss_mb", crate::peak_rss_mb()?);
        endpoint.close();
        let setup = sampler.map_or_else(Vec::new, Sampler::samples);
        (windows, setup, None)
    };

    let w = &windows[0];
    let all: Vec<&Window> = windows
        .iter()
        .chain(traced.as_ref().map(|(t, _)| t))
        .collect();
    out.attempted = all.iter().map(|w| w.attempted).sum();
    out.failed = all.iter().map(|w| w.failed).sum();
    if let Some(e) = all.iter().find_map(|w| w.first_error.clone()) {
        out.fail(format!("first failed request: {e}"));
    }
    let mismatches: u64 = all.iter().map(|w| w.mismatches).sum();
    if mismatches > 0 {
        out.fail(format!(
            "{mismatches} repeated queries got answers that differ from their first"
        ));
    }
    check(opts, proto, &dir, &mut table, &mut out)?;

    let transport = match proto {
        Proto::InProcess => "in-process framed handler, no socket".to_string(),
        Proto::Http => format!("HTTP keep-alive, connections=1 daemon_workers={workers}"),
    };
    out.fact(format!(
        "host: nproc={} cpus_online={} client_threads=1 transport={transport}",
        nproc(),
        crate::cpus_online()
    ));
    if proto == Proto::Http {
        // Every decide_mix request is a distinct table entry.
        let mut shares = [0u64; 4];
        for (answer, placement) in table.answers.iter().zip(&table.placements) {
            let lattice = answer
                .as_deref()
                .and_then(|a| wire::parse_answer(&String::from_utf8_lossy(a)).ok())
                .is_some_and(|a| a.answer.lattice);
            let slot = match placement {
                Some(Placement::InGrid) if lattice => 0,
                Some(Placement::InGrid) => 1,
                Some(Placement::OutOfGrid) => 2,
                _ => 3,
            };
            shares[slot] += 1;
        }
        let n = shares.iter().sum::<u64>().max(1) as f64;
        out.fact(format!(
            "population: hit={:.3} uncalibrated={:.3} out_of_grid={:.3} off_ratio={:.3} over {} requests",
            shares[0] as f64 / n,
            shares[1] as f64 / n,
            shares[2] as f64 / n,
            shares[3] as f64 / n,
            n
        ));
    }

    match traced {
        None => {
            let q = tail_q(proto);
            let (best, how) = match proto {
                Proto::InProcess => (
                    stats::best(&w.slices),
                    format!("{} slices of {HOT_SLICE_S} s", w.slices.len()),
                ),
                Proto::Http => {
                    let rtt: Vec<f64> = windows.iter().flat_map(|w| w.rtt_ns.clone()).collect();
                    (
                        stats::fastest_each(&rtt, w.attempted as usize, q),
                        format!("{MIX_PASSES} passes, op = a request's fastest answer"),
                    )
                }
            };
            out.metric("setup_s", stats::median(&mut setup));
            out.metric("op_p50_us", best.p50_ns / 1e3);
            out.metric("op_tail_us", best.tail_ns / 1e3);
            out.metric("ops_per_s", best.ops_per_s);
            out.fact(format!(
                "samples: decisions={} in {how}, at least {} per percentile op_tail={}; setup samples={}x{SETUP_BLOCK} {}",
                all.iter().map(|w| w.ok).sum::<u64>(),
                best.samples,
                stats::tail_note(best.samples as usize, q),
                setup.len(),
                stats::spread_note(&mut setup)
            ));
        }
        Some((t, delta)) => {
            replay(proto, &dir, &table, &t.keys, &t.rtt_ns, &mut rec, &mut out)?;
            let requests = delta.get("decide_requests_total");
            out.metric(
                "lattice.hit_ratio",
                ratio(delta.get("decide_lattice_hits_total"), requests),
            );
            out.metric(
                "lattice.out_of_grid_share",
                ratio(delta.get("lattice_lookup_misses_total"), requests),
            );
            out.metric(
                "lattice.uncalibrated_share",
                ratio(delta.get("lattice_fallbacks_total"), requests),
            );
            let (hits, misses) = (
                delta.get("solver_cache_hits_total"),
                delta.get("solver_cache_misses_total"),
            );
            out.metric("planner.kernel_cache_hit_ratio", ratio(hits, hits + misses));
            out.metric(
                "numerics.quad_evals_per_op",
                ratio(delta.get("quadrature_evals"), t.ok),
            );
            out.metric(
                "numerics.root_iters_per_op",
                ratio(delta.get("root_iterations"), t.ok),
            );
            out.metric(
                "numerics.optimizer_iters_per_op",
                ratio(delta.get("optimizer_iterations"), t.ok),
            );
            out.metric("serve.rejected", delta.get("decide_rejected_total") as f64);
            out.metric("serve.timeouts", delta.get("decide_timeouts_total") as f64);
            for f in gen::FAMILIES {
                let l = Lattice::load(&dir.join(adapter::artifact_file_name(f)?))?;
                let (ok, total) = l.coverage();
                out.metric(
                    &format!("lattice.served_cells_share.{f}"),
                    ratio(ok as u64, total as u64),
                );
                out.metric(
                    &format!("lattice.build_s.{f}"),
                    artifacts.build_s.get(f).copied().unwrap_or(0.0),
                );
            }
            out.metric(
                "trace.overhead_share",
                overhead_share(w.ok as f64 / w.elapsed_s, t.ok as f64 / t.elapsed_s),
            );
            crate::trace::write_for(&rec, opts, &mut out)?;
        }
    }
    Ok(out)
}
