//! End-to-end and per-layer benchmark of the AdaptivFloat serving stack.
//!
//! ```text
//! cargo run --release --offline --manifest-path e2ebench/Cargo.toml -- \
//!     --workload http-batched --seed 1 --seconds 30 --trace 0
//! cargo run --release --offline --manifest-path e2ebench/Cargo.toml -- \
//!     --steady 10 [--other ../parent-checkout]
//! ```
//!
//! Each run sets its workload up several times (the median is
//! `setup_s`), drives open-loop load at a light and a heavy rate, runs
//! whole fleet lifecycle cycles, checks every answer against references
//! kept apart from the paths under test, and prints one JSON object as
//! the last line of stdout. `--trace 1` adds spans around the calls into
//! each layer and reports the per-layer metrics instead. See README.md.

mod check;
mod lifecycle;
mod load;
mod steady;
mod trace;
mod util;

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use adaptivfloat::FormatKind;
use af_models::ModelFamily;
use af_serve::{Client, Engine, EngineConfig, ModelRegistry, Server, VariantSpec};

use check::{check_replies, check_weights, RefBook, Verdict};
use lifecycle::{cycle, CycleSpecs, Fleet, LifeOut};
use load::{run_phase, Phase, PhaseOut, Stream, Target};
use trace::{serve_replay, Tracer};
use util::{json_num, json_str, median, percentile, Json, Rng};

const SMALL: [usize; 4] = [96, 192, 192, 48];
const WIDE: [usize; 4] = [256, 512, 512, 128];
/// Model synthesis seed: fixed, so `--seed` changes only the requests.
const MODEL_SEED: u64 = 0xAF_2020;
/// Distinct inputs per run; every request draws one.
const INPUT_POOL: usize = 64;
/// How often the workload is set up to take the median `setup_s`.
const SETUP_REPS: usize = 5;
/// Rounds of light load, heavy load and lifecycle cycles per run.
const ROUNDS: usize = 8;
const WARMUP_S: f64 = 0.5;
/// The p99 limit the accounting reports the highest passing rate for.
const P99_LIMIT_US: f64 = 5000.0;
/// Replayed requests per variant in a trace run.
const REPLAY_ROUNDS: usize = 40;

/// One workload: what serves, at which rates, and how the run's time is
/// split between open-loop load and lifecycle cycles.
struct Mix {
    name: &'static str,
    dims: &'static [usize],
    /// `(label, weight format, fused, protected)` of each served variant.
    variants: &'static [(&'static str, Option<FormatKind>, bool, bool)],
    engine: EngineConfig,
    /// Served over HTTP by the epoll `Server` (otherwise routed
    /// in-process through a `FleetRouter`).
    http: bool,
    light_rps: f64,
    heavy_rps: f64,
    /// Share of `--seconds` spent in the light and heavy phases.
    light_share: f64,
    heavy_share: f64,
}

const AF: Option<FormatKind> = Some(FormatKind::AdaptivFloat);
const UNI: Option<FormatKind> = Some(FormatKind::Uniform);
const POSIT: Option<FormatKind> = Some(FormatKind::Posit);

fn mix(name: &str) -> Option<Mix> {
    let default = EngineConfig::default();
    let unbatched = EngineConfig {
        max_batch: 1,
        ..default
    };
    Some(match name {
        "http-batched" => Mix {
            name: "http-batched",
            dims: &SMALL,
            variants: &[
                ("fp32", None, false, false),
                ("adaptivfloat8", AF, false, false),
                ("adaptivfloat8-fused", AF, true, false),
                ("uniform8-protected", UNI, false, true),
                ("posit8", POSIT, false, false),
            ],
            engine: EngineConfig {
                scrub_period: Some(Duration::from_millis(50)),
                ..default
            },
            http: true,
            light_rps: 150.0,
            heavy_rps: 450.0,
            light_share: 0.3,
            heavy_share: 0.45,
        },
        "http-wide" => Mix {
            name: "http-wide",
            dims: &WIDE,
            variants: &[
                ("fp32", None, false, false),
                ("adaptivfloat8", AF, false, false),
                ("adaptivfloat8-fused", AF, true, false),
                ("uniform8", UNI, false, false),
                ("uniform8-fused", UNI, true, false),
                ("uniform8-protected", UNI, false, true),
                ("posit8", POSIT, false, false),
            ],
            engine: unbatched,
            http: true,
            light_rps: 150.0,
            heavy_rps: 450.0,
            light_share: 0.25,
            heavy_share: 0.4,
        },
        "fleet-lifecycle" => Mix {
            name: "fleet-lifecycle",
            dims: &SMALL,
            variants: &[
                ("fp32", None, false, false),
                ("adaptivfloat8", AF, false, false),
                ("adaptivfloat8-fused", AF, true, false),
                ("uniform8-protected", UNI, false, true),
            ],
            engine: unbatched,
            http: false,
            light_rps: 300.0,
            heavy_rps: 1000.0,
            light_share: 0.2,
            heavy_share: 0.3,
        },
        _ => return None,
    })
}

/// The variant kinds every lifecycle cycle registers, on the workload's
/// own model: a dense and a fused quantized twin, and a protected one.
/// FP32 stays out: its raw containers are four times the bytes, and every
/// byte a cycle writes and syncs adds to the run-to-run noise of the
/// shared disk.
const LIFECYCLE_KINDS: [&str; 3] = ["adaptivfloat8", "adaptivfloat8-fused", "uniform8-protected"];

impl Mix {
    fn specs(&self, prefix: &str) -> Vec<VariantSpec> {
        self.specs_where(prefix, |_| true)
    }

    fn lifecycle_specs(&self) -> Vec<VariantSpec> {
        self.specs_where("cycle", |label| LIFECYCLE_KINDS.contains(&label))
    }

    fn specs_where(&self, prefix: &str, keep: impl Fn(&str) -> bool) -> Vec<VariantSpec> {
        self.variants
            .iter()
            .filter(|v| keep(v.0))
            .map(|&(label, fmt, fused, protected)| {
                let id = format!("{prefix}/{label}");
                let mut spec = match fmt {
                    None => VariantSpec::fp32(&id, ModelFamily::Transformer, MODEL_SEED, self.dims),
                    Some(kind) => VariantSpec::quantized(
                        &id,
                        ModelFamily::Transformer,
                        kind,
                        8,
                        MODEL_SEED,
                        self.dims,
                    ),
                };
                spec.fused = fused;
                spec.protected = protected;
                spec
            })
            .collect()
    }
}

/// The serving front end a workload drives.
enum Front {
    Http { engine: Arc<Engine>, server: Server },
    Fleet(Fleet),
}

impl Front {
    fn open(mix: &Mix, specs: &[VariantSpec], root: &Path) -> Front {
        if mix.http {
            let registry = Arc::new(ModelRegistry::new());
            for spec in specs {
                registry.register(spec).expect("register served variant");
            }
            let engine = Arc::new(Engine::start(registry, mix.engine));
            let server = Server::bind("127.0.0.1:0", Arc::clone(&engine)).expect("bind server");
            Front::Http { engine, server }
        } else {
            let fleet = Fleet::open(root, mix.engine);
            for spec in specs {
                fleet
                    .router
                    .register_model(spec)
                    .expect("register served variant");
            }
            Front::Fleet(fleet)
        }
    }

    fn targets(&self, threads: usize) -> Vec<Target<'_>> {
        match self {
            Front::Http { server, .. } => (0..threads)
                .map(|_| Target::Http(Client::connect(server.addr()).expect("connect client")))
                .collect(),
            Front::Fleet(fleet) => vec![Target::Router(&fleet.router)],
        }
    }

    fn close(self) {
        match self {
            Front::Http { engine, server } => {
                server.shutdown();
                engine.shutdown();
            }
            Front::Fleet(fleet) => fleet.close(),
        }
    }
}

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 30u64, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(1..=600).contains(&seconds) {
        return Err("--seconds must be between 1 and 600".to_string());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--steady") {
        std::process::exit(steady::main(&argv));
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: --workload <http-batched|http-wide|fleet-lifecycle> --seed N --seconds S --trace 0|1");
            std::process::exit(2);
        }
    };
    let Some(mix) = mix(&args.workload) else {
        eprintln!("error: unknown workload {}", args.workload);
        std::process::exit(2);
    };
    let Ok(cwd) = std::env::current_dir() else {
        eprintln!("error: no working directory");
        std::process::exit(2);
    };
    if !cwd.join("BENCHMARK.json").is_file() {
        eprintln!("error: run from the repository root (no BENCHMARK.json here)");
        std::process::exit(2);
    }
    let tmp = cwd
        .join(".bench_tmp")
        .join(format!("{}-{}", mix.name, std::process::id()));
    let code = run(&mix, &args, &tmp);
    let _ = std::fs::remove_dir_all(&tmp);
    std::process::exit(code);
}

struct PhaseReport {
    name: &'static str,
    rate: f64,
    out: PhaseOut,
}

fn run(mix: &Mix, args: &Args, tmp: &Path) -> i32 {
    let run_start = Instant::now();
    let steal_before = util::cpu_jiffies();
    let seconds = args.seconds as f64;
    let specs = mix.specs(if mix.http { "serve" } else { "fleet" });
    let ids: Vec<String> = specs.iter().map(|s| s.id.clone()).collect();
    let stream = Stream::new(args.seed, ids, mix.dims[0], INPUT_POOL);
    let threads = generator_threads(mix);

    // Set up several times; the last front end stays up.
    let mut setup_s = Vec::new();
    let mut front = None;
    for rep in 0..SETUP_REPS {
        if let Some(old) = front.take() {
            Front::close(old);
        }
        let t = Instant::now();
        let f = Front::open(mix, &specs, &tmp.join(format!("front-{rep}")));
        let targets = f.targets(threads);
        setup_s.push(t.elapsed().as_secs_f64());
        drop(targets);
        front = Some(f);
    }
    let front = front.expect("at least one setup");
    let mut targets = front.targets(threads);

    let mut verdict = Verdict::default();
    let mut refs = RefBook::default();
    let mut tracer = args.trace.then(|| Tracer::new(run_start));
    // The cycles' own fleet runs no background scrubber: `scrub_all` is
    // then the only scrub, and no periodic WAL appends land mid-cycle.
    let cycle_engine = EngineConfig {
        scrub_period: None,
        ..mix.engine
    };
    let own_fleet = mix
        .http
        .then(|| Fleet::open(&tmp.join("lifecycle"), cycle_engine));
    let life_fleet = match (&front, &own_fleet) {
        (Front::Fleet(f), _) | (_, Some(f)) => f,
        _ => unreachable!("an HTTP front end opens its own lifecycle fleet"),
    };
    let cycle_specs = CycleSpecs::new(&mix.lifecycle_specs());
    let mut life = LifeOut::default();
    let mut rng = Rng::new(args.seed ^ 0x11FE);

    // A warm-up, then rounds of open-loop load (light rate, heavy rate)
    // and whole lifecycle cycles, interleaved so that every metric
    // samples the whole run rather than one stretch of it.
    let phase = |rate: f64, seconds: f64, first: u64, trace: Option<Instant>| Phase {
        rate,
        seconds,
        first,
        trace,
        stats_every: mix.http.then_some(Duration::from_millis(250)),
    };
    let warmup = run_phase(
        &mut targets,
        &stream,
        phase(mix.light_rps, WARMUP_S, 0, None),
    );
    let mut reports = vec![
        PhaseReport {
            name: "warmup",
            rate: mix.light_rps,
            out: warmup,
        },
        PhaseReport {
            name: "light",
            rate: mix.light_rps,
            out: PhaseOut::default(),
        },
        PhaseReport {
            name: "heavy",
            rate: mix.heavy_rps,
            out: PhaseOut::default(),
        },
    ];
    // Per round, each timed metric's median; a run reports the median of
    // its rounds, which a busy spell of the host over one or two rounds
    // does not move.
    let mut per_round: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let round_s = seconds / ROUNDS as f64;
    let life_budget = Duration::from_secs_f64(round_s * (1.0 - mix.light_share - mix.heavy_share));
    for round in 0..ROUNDS as u64 {
        let first = (2 * round + 1) << 20;
        let light = phase(mix.light_rps, round_s * mix.light_share, first, None);
        let out = run_phase(&mut targets, &stream, light);
        per_round
            .entry("light.latency_p50_us")
            .or_default()
            .push(median(&out.latency_us));
        reports[1].out.merge(out);
        let heavy = phase(
            mix.heavy_rps,
            round_s * mix.heavy_share,
            first + (1 << 20),
            args.trace.then_some(run_start),
        );
        let cpu0 = util::process_cpu_s();
        let out = run_phase(&mut targets, &stream, heavy);
        let cpu_us = (util::process_cpu_s() - cpu0) * 1e6 / out.replies.len().max(1) as f64;
        per_round.entry("cpu_us_per_req").or_default().push(cpu_us);
        per_round
            .entry("latency_p50_us")
            .or_default()
            .push(median(&out.latency_us));
        reports[2].out.merge(out);
        let seen = [
            life.register_ms.len(),
            life.swap_ms.len(),
            life.scrub_ms.len(),
            life.revive_ms.len(),
        ];
        let started = Instant::now();
        let at_least = life.cycles + 1;
        while life.cycles < at_least || started.elapsed() < life_budget {
            cycle(
                life_fleet,
                &cycle_specs,
                &stream.inputs,
                &mut rng,
                &mut life,
                &mut verdict,
                tracer.as_mut(),
            );
        }
        for ((name, samples), from) in [
            ("register_ms", &life.register_ms),
            ("swap_ms", &life.swap_ms),
            ("scrub_ms", &life.scrub_ms),
            ("revive_ms", &life.revive_ms),
        ]
        .into_iter()
        .zip(seen)
        {
            per_round
                .entry(name)
                .or_default()
                .push(median(&samples[from..]));
        }
    }
    // Peak RSS of the timed work alone: the checks below build reference
    // copies of every model, which must not count.
    let rss_peak_mb = util::rss_peak_mb();
    let fleet_snap = life_fleet.router.stats().snapshot();

    // The front end's own account: /stats must parse and reconcile.
    let mut serve_counts = (0.0, 0.0, 0.0, 0.0); // batches, batched, shed, expired
    if let (Front::Http { .. }, Some(Target::Http(client))) = (&front, targets.first_mut()) {
        let replies: usize = reports.iter().map(|r| r.out.replies.len()).sum();
        let mut docs: Vec<String> = reports
            .iter()
            .flat_map(|r| r.out.stats_docs.clone())
            .collect();
        match client.stats_json() {
            Ok(doc) => docs.push(doc),
            Err(e) => verdict.expect(false, || format!("final GET /stats failed: {e}")),
        }
        for (k, doc) in docs.iter().enumerate() {
            let parsed = Json::parse(doc);
            verdict.expect(parsed.is_ok(), || {
                format!("/stats document {k} is not JSON: {parsed:?}")
            });
            if k + 1 == docs.len() {
                if let Ok(stats) = parsed {
                    let field = |key: &str| stats.get(key).and_then(Json::num).unwrap_or(f64::NAN);
                    verdict.expect(field("completed") == replies as f64, || {
                        format!(
                            "/stats completed {} but the client received {replies} replies",
                            field("completed")
                        )
                    });
                    serve_counts = (
                        field("batches"),
                        field("batched_requests"),
                        field("shed"),
                        field("expired"),
                    );
                }
            }
        }
    }
    if let Front::Fleet(fleet) = &front {
        for i in fleet.router.live_shards() {
            if let Some(shard) = fleet.router.shard(i) {
                let s = shard.engine().stats().snapshot();
                serve_counts.0 += s.batches as f64;
                serve_counts.1 += s.batched_requests as f64;
                serve_counts.2 += s.shed as f64;
                serve_counts.3 += s.expired as f64;
            }
        }
    }

    // Trace runs replay requests one layer down against the live front end.
    if let Some(tr) = tracer.as_mut() {
        replay_front(&front, &mut targets, &specs, &stream, tr, &mut verdict);
    }

    // Correctness of everything served.
    let served: Vec<_> = reports
        .iter()
        .flat_map(|r| r.out.replies.iter().copied())
        .collect();
    check_replies(&specs, &stream.inputs, &served, &mut refs, &mut verdict);
    check_replies(
        &cycle_specs.table,
        &stream.inputs,
        &life.replies,
        &mut refs,
        &mut verdict,
    );
    for spec in &specs {
        let served = match &front {
            Front::Http { engine, .. } => engine.registry().get(&spec.id),
            Front::Fleet(f) => f
                .router
                .selection(&spec.id)
                .first()
                .and_then(|s| s.engine().registry().get(&spec.id)),
        };
        match served {
            Some(v) => {
                verdict.expect(v.generation == 0, || {
                    format!("{}: served generation moved to {}", spec.id, v.generation)
                });
                check_weights(&v, &mut verdict);
            }
            None => verdict.expect(false, || format!("{}: no longer served", spec.id)),
        }
    }

    drop(targets);
    if let Some(f) = own_fleet {
        f.close();
    }
    front.close();
    let steal = util::steal_share(steal_before, util::cpu_jiffies());

    // Report.
    let attempted: u64 = reports.iter().map(|r| r.out.attempted).sum::<u64>() + life.attempted;
    let failed: u64 = reports.iter().map(|r| r.out.failed).sum::<u64>() + life.failed;
    let of_rounds = |name: &str| per_round.get(name).map_or(f64::NAN, |v| median(v));
    let e2e: Vec<(&str, f64, &str)> = vec![
        ("setup_s", median(&setup_s), "s"),
        ("latency_p50_us", of_rounds("latency_p50_us"), "us"),
        (
            "light.latency_p50_us",
            of_rounds("light.latency_p50_us"),
            "us",
        ),
        ("cpu_us_per_req", of_rounds("cpu_us_per_req"), "us"),
        ("rss_peak_mb", rss_peak_mb, "MiB"),
        ("register_ms", of_rounds("register_ms"), "ms"),
        ("swap_ms", of_rounds("swap_ms"), "ms"),
        ("scrub_ms", of_rounds("scrub_ms"), "ms"),
        ("revive_ms", of_rounds("revive_ms"), "ms"),
    ];
    let metrics = match tracer.as_mut() {
        None => e2e,
        Some(tr) => {
            let out = per_layer(tr, &reports[2].out, serve_counts, fleet_snap);
            let dir = Path::new(".bench_out");
            let _ = std::fs::create_dir_all(dir);
            tr.absorb(&reports[2].out.spans);
            if let Err(e) = tr.write(&dir.join(format!("spans-{}.tsv", mix.name))) {
                eprintln!("warning: could not write spans: {e}");
            }
            out
        }
    };

    let accounting = accounting_json(mix, args, steal, &per_round, &reports, &life, &verdict);
    println!("{accounting}");
    for f in verdict.failures.iter().take(20) {
        eprintln!("CHECK FAILED: {f}");
    }
    for r in &reports {
        for e in r.out.errors.iter().take(5) {
            eprintln!("{} phase error: {e}", r.name);
        }
    }
    for e in life.errors.iter().take(5) {
        eprintln!("lifecycle error: {e}");
    }
    let correct = verdict.failures.is_empty();
    let mut body = String::new();
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            body.push_str(", ");
        }
        body.push_str(&format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_str(name),
            json_num(*value),
            json_str(unit)
        ));
    }
    println!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}");
    if correct {
        0
    } else {
        1
    }
}

/// Replay [`REPLAY_ROUNDS`] requests per variant one layer down, over
/// HTTP against the engine that serves the variant: for `http-*` on the
/// first generator connection, for the fleet through a `Server` bound to
/// the engine of the shard the router would pick (one at a time, so no
/// more connections are open than the generator may use).
fn replay_front(
    front: &Front,
    targets: &mut [Target<'_>],
    specs: &[VariantSpec],
    stream: &Stream,
    tr: &mut Tracer,
    verdict: &mut Verdict,
) {
    let base = |v: usize| (v * REPLAY_ROUNDS) as u64;
    match (front, targets.first_mut()) {
        (Front::Http { engine, .. }, Some(Target::Http(client))) => {
            for (v, spec) in specs.iter().enumerate() {
                let inputs = &stream.inputs;
                serve_replay(
                    client,
                    engine,
                    spec,
                    inputs,
                    REPLAY_ROUNDS,
                    base(v),
                    tr,
                    verdict,
                );
            }
        }
        (Front::Fleet(fleet), _) => {
            let mut by_shard = BTreeMap::new();
            for (v, spec) in specs.iter().enumerate() {
                match fleet.router.selection(&spec.id).into_iter().next() {
                    Some(shard) => by_shard
                        .entry(shard.index())
                        .or_insert_with(|| (shard, Vec::new()))
                        .1
                        .push(v),
                    None => verdict.expect(false, || {
                        format!("{}: no live holder to replay against", spec.id)
                    }),
                }
            }
            for (shard, vs) in by_shard.into_values() {
                let server = Server::bind("127.0.0.1:0", Arc::clone(shard.engine()))
                    .expect("bind replay server");
                let mut client = Client::connect(server.addr()).expect("connect replay client");
                for v in vs {
                    let inputs = &stream.inputs;
                    let engine = shard.engine();
                    serve_replay(
                        &mut client,
                        engine,
                        &specs[v],
                        inputs,
                        REPLAY_ROUNDS,
                        base(v),
                        tr,
                        verdict,
                    );
                }
                drop(client);
                server.shutdown();
            }
        }
        _ => verdict.expect(false, || "no connection to replay over".to_string()),
    }
}

/// Per-layer metrics from the spans and counters of a trace run.
fn per_layer(
    tr: &Tracer,
    heavy: &PhaseOut,
    serve_counts: (f64, f64, f64, f64),
    fleet: af_fleet::FleetSnapshot,
) -> Vec<(&'static str, f64, &'static str)> {
    let med = |v: Vec<f64>| median(&v);
    let sum = |name: &str| tr.durations_us(name).iter().sum::<f64>();
    let per_request = |child: &str| {
        let mut v = Vec::new();
        for parent in [
            "models.evaluate.fp32",
            "models.evaluate.quantized",
            "models.evaluate.protected",
            "models.evaluate.fused",
        ] {
            v.extend(tr.child_sums_us(parent, child));
        }
        median(&v)
    };
    let (batches, batched, shed, expired) = serve_counts;
    let gemm_us = sum("tensor.gemm");
    let gate_n = tr.total("fleet.revive_gate_n").max(1.0);
    vec![
        ("serve.http.self_us", med(tr.self_us("serve.http")), "us"),
        ("serve.batch.wait_us", med(tr.self_us("serve.engine")), "us"),
        ("serve.batch.mean_size", batched / batches.max(1.0), "rows"),
        ("serve.engine_us", tr.median_us("serve.engine"), "us"),
        ("serve.shed", shed, "count"),
        ("serve.expired", expired, "count"),
        (
            "models.evaluate_us.fp32",
            tr.median_us("models.evaluate.fp32"),
            "us",
        ),
        (
            "models.evaluate_us.quantized",
            tr.median_us("models.evaluate.quantized"),
            "us",
        ),
        (
            "models.evaluate_us.fused",
            tr.median_us("models.evaluate.fused"),
            "us",
        ),
        (
            "models.synthesize_ms",
            tr.median_us("models.synthesize") / 1e3,
            "ms",
        ),
        ("tensor.gemm_us", per_request("tensor.gemm"), "us"),
        (
            "tensor.gemm_gmacs",
            tr.total("tensor.gemm_macs") / (gemm_us * 1e3).max(1.0),
            "GMAC/s",
        ),
        (
            "tensor.packed_gemm_us",
            per_request("tensor.packed_gemm"),
            "us",
        ),
        (
            "core.quantize_ns_per_elem",
            sum("core.quantize") * 1e3 / tr.total("core.quantize_elems").max(1.0),
            "ns",
        ),
        ("core.act_quant_us", per_request("core.act_quant"), "us"),
        (
            "resilience.protect_ms",
            tr.median_us("resilience.protect") / 1e3,
            "ms",
        ),
        (
            "resilience.scrub_ms",
            tr.median_us("resilience.scrub") / 1e3,
            "ms",
        ),
        ("store.export_ms", tr.median_us("store.export") / 1e3, "ms"),
        (
            "store.wal_append_us",
            tr.median_us("store.wal_append"),
            "us",
        ),
        ("store.open_ms", tr.median_us("store.open") / 1e3, "ms"),
        (
            "store.checkpoint_ms",
            tr.median_us("store.checkpoint") / 1e3,
            "ms",
        ),
        ("fleet.route_self_us", med(tr.self_us("fleet.infer")), "us"),
        (
            "fleet.revive_gate_ms",
            tr.total("fleet.revive_gate_ms") / gate_n,
            "ms",
        ),
        ("fleet.hedges", fleet.hedges as f64, "count"),
        ("fleet.failovers", fleet.failovers as f64, "count"),
        ("fleet.degraded", fleet.degraded as f64, "count"),
        (
            "trace.overhead_us",
            median(&heavy.traced_latency_us) - median(&heavy.latency_us),
            "us",
        ),
    ]
}

/// Load generator threads (one connection each): two for HTTP, never
/// more than `available_parallelism`; one for the in-process router.
fn generator_threads(mix: &Mix) -> usize {
    if mix.http {
        std::thread::available_parallelism()
            .map_or(1, |n| n.get())
            .min(2)
    } else {
        1
    }
}

/// The run's accounting line: operations per phase, generator lateness,
/// threads, host steal and the seed.
fn accounting_json(
    mix: &Mix,
    args: &Args,
    steal: f64,
    per_round: &BTreeMap<&str, Vec<f64>>,
    reports: &[PhaseReport],
    life: &LifeOut,
    verdict: &Verdict,
) -> String {
    let mut phases = Vec::new();
    let mut best_rate = 0.0f64;
    for r in reports {
        let all: Vec<f64> = r
            .out
            .latency_us
            .iter()
            .chain(&r.out.traced_latency_us)
            .copied()
            .collect();
        let p99 = percentile(&all, 0.99);
        if r.name != "warmup" && r.out.failed == 0 && p99 <= P99_LIMIT_US {
            best_rate = best_rate.max(r.rate);
        }
        phases.push(format!(
            "{{\"phase\": {}, \"rate_rps\": {}, \"attempted\": {}, \"failed\": {}, \"p50_us\": {}, \"p99_us\": {}, \"lateness_p50_us\": {}, \"lateness_max_us\": {}}}",
            json_str(r.name),
            r.rate,
            r.out.attempted,
            r.out.failed,
            json_num(median(&all)),
            json_num(p99),
            json_num(median(&r.out.lateness_us)),
            json_num(r.out.lateness_us.iter().copied().fold(0.0, f64::max)),
        ));
    }
    let rounds: Vec<String> = per_round
        .iter()
        .map(|(name, v)| {
            let values: Vec<String> = v.iter().map(|&x| json_num(x)).collect();
            format!("{}: [{}]", json_str(name), values.join(", "))
        })
        .collect();
    let threads = generator_threads(mix);
    let af_threads = std::env::var("AF_NUM_THREADS").map_or("null".to_string(), |v| json_str(&v));
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"accounting\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"generator_threads\": {threads}, \"AF_NUM_THREADS\": {af_threads}, \"available_parallelism\": {parallelism}, \"steal_share\": {}, \"write_mb\": {}, \"round_medians\": {{{}}}, \"phases\": [{}], \"lifecycle\": {{\"cycles\": {}, \"attempted\": {}, \"failed\": {}, \"routed_p50_us\": {}}}, \"p99_limit_us\": {P99_LIMIT_US}, \"highest_rate_within_p99_limit\": {best_rate}, \"checks\": {}, \"check_failures\": {}}}}}",
        json_str(mix.name),
        args.seed,
        args.seconds,
        args.trace,
        json_num(steal),
        json_num(util::write_bytes() / (1 << 20) as f64),
        rounds.join(", "),
        phases.join(", "),
        life.cycles,
        life.attempted,
        life.failed,
        json_num(median(&life.routed_us)),
        verdict.checked,
        verdict.failures.len(),
    )
}
