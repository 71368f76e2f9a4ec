//! The fleet write-and-recovery cycle: register, route, hot-swap, scrub,
//! kill a shard, route through the failover, revive (warm start plus the
//! bit-identity gate), checkpoint, and unregister so every cycle starts
//! from the same catalog.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use adaptivfloat::QuantStats;
use af_fleet::{FleetConfig, FleetRouter, ShardConfig};
use af_models::FrozenMlp;
use af_serve::durable::export_variant;
use af_serve::{DurableStore, EngineConfig, ProtectedWeights, VariantSpec};
use af_store::{shard_root, write_container, SyncPolicy, WalOp, WalWriter};

use crate::check::{Reply, Verdict};
use crate::trace::Tracer;
use crate::util::{bits_hash, ms_since, Rng};

const SHARDS: usize = 3;
const REPLICAS: usize = 2;
/// Requests routed before the kill and again after it, per cycle.
const ROUTED_PER_STEP: u64 = 24;
/// Hot swaps and `scrub_all` sweeps per cycle: each is timed on its
/// own, so the medians rest on several samples per cycle.
const SWAPS_PER_CYCLE: usize = 3;
const SCRUBS_PER_CYCLE: usize = 10;
/// The shards' WAL policy: fsync every 16th record. Containers and
/// checkpoints are synced on every write whatever the policy; syncing
/// each small WAL record as well would let the shared disk's fsync
/// latency, which wanders from run to run, set `scrub_ms` (one WAL
/// record per protected replica per pass) rather than the scrub.
const WAL_SYNC: SyncPolicy = SyncPolicy::Batch(16);
/// The shard every cycle kills: a fixed victim keeps each cycle's
/// revive the same amount of work.
const VICTIM: usize = 0;

/// A fleet of [`SHARDS`] durable shards under `root`.
pub struct Fleet {
    pub router: Arc<FleetRouter>,
    pub shard_cfg: ShardConfig,
    pub root: PathBuf,
}

impl Fleet {
    pub fn open(root: &Path, engine: EngineConfig) -> Fleet {
        let _ = std::fs::remove_dir_all(root);
        std::fs::create_dir_all(root).expect("create fleet root");
        let router = Arc::new(FleetRouter::new(
            root,
            FleetConfig {
                replicas: REPLICAS,
                ..FleetConfig::default()
            },
        ));
        let shard_cfg = ShardConfig {
            engine,
            sync: WAL_SYNC,
            ..ShardConfig::default()
        };
        for i in 0..SHARDS {
            router.join(i, shard_cfg).expect("join shard");
        }
        Fleet {
            router,
            shard_cfg,
            root: root.to_path_buf(),
        }
    }

    pub fn close(self) {
        self.router.shutdown();
        drop(self.router);
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// Medians come from these per-cycle samples.
#[derive(Debug, Default)]
pub struct LifeOut {
    /// Mean `register_model` time per new variant, one per cycle.
    pub register_ms: Vec<f64>,
    pub swap_ms: Vec<f64>,
    pub scrub_ms: Vec<f64>,
    pub revive_ms: Vec<f64>,
    pub cycles: u64,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// Routed replies, indexed into the cycle spec table.
    pub replies: Vec<Reply>,
    /// `FleetRouter::infer` latencies of the routed steps (µs).
    pub routed_us: Vec<f64>,
}

impl LifeOut {
    fn op<T, E: std::fmt::Display>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                if self.errors.len() < 10 {
                    self.errors.push(format!("{what}: {e}"));
                }
                None
            }
        }
    }
}

/// The spec table a cycle works from: the variants it registers, then
/// the hot-swap replacement of the first quantized dense one (same id,
/// new weights).
pub struct CycleSpecs {
    pub table: Vec<VariantSpec>,
    /// Index of the variant the replacement swaps out.
    pub swapped: usize,
}

impl CycleSpecs {
    pub fn new(specs: &[VariantSpec]) -> CycleSpecs {
        let mut table = specs.to_vec();
        let swapped = specs
            .iter()
            .position(|s| s.weight_format.is_some() && !s.fused && !s.protected)
            .unwrap_or(0);
        let mut replacement = specs[swapped].clone();
        replacement.seed += 1;
        table.push(replacement);
        CycleSpecs { table, swapped }
    }
}

/// Run one cycle over `specs`, routing requests
/// drawn from `inputs`.
pub fn cycle(
    fleet: &Fleet,
    specs: &CycleSpecs,
    inputs: &[Vec<f32>],
    rng: &mut Rng,
    out: &mut LifeOut,
    verdict: &mut Verdict,
    mut tracer: Option<&mut Tracer>,
) {
    let (table, swapped) = (&specs.table, specs.swapped);
    let router = &fleet.router;
    let registered = table.len() - 1;
    let swap_idx = (table.len() - 1) as u16;

    // 1. Register every variant under a new id.
    let t = Instant::now();
    for spec in &table[..registered] {
        let t0 = Instant::now();
        out.op("register_model", router.register_model(spec));
        if let Some(tr) = tracer.as_deref_mut() {
            tr.record("fleet.register", 0, out.cycles, t0, Instant::now());
        }
    }
    out.register_ms.push(ms_since(t) / registered as f64);
    if let Some(tr) = tracer.as_deref_mut() {
        layer_replays(fleet, &table[..registered], tr);
    }

    // 2. Route a fixed stream from one thread.
    route(fleet, table, None, inputs, rng, out, tracer.as_deref_mut());

    // 3. Hot-swap one id to new weights, then re-register the live
    // replacement (each a swap of a live id).
    for _ in 0..SWAPS_PER_CYCLE {
        let t = Instant::now();
        out.op(
            "register_model (swap)",
            router.register_model(&table[registered]),
        );
        out.swap_ms.push(ms_since(t));
    }

    // 4. Scrub every protected variant.
    for _ in 0..SCRUBS_PER_CYCLE {
        let t = Instant::now();
        let summary = router.scrub_all();
        out.attempted += 1;
        out.scrub_ms.push(ms_since(t));
        verdict.expect(summary.uncorrectable == 0 && summary.corrected == 0, || {
            format!("scrub_all found faults on clean storage: {summary:?}")
        });
    }
    if let Some(tr) = tracer.as_deref_mut() {
        for shard in router
            .live_shards()
            .into_iter()
            .filter_map(|i| router.shard(i))
        {
            for id in shard.ids() {
                let Some(v) = shard.engine().registry().get(&id) else {
                    continue;
                };
                if let Some(p) = &v.protected {
                    let mut guard = p.lock().expect("protected store lock");
                    tr.span("resilience.scrub", 0, out.cycles, || guard.scrub());
                }
            }
        }
    }

    // 5. Kill a shard, remembering what it answered.
    let probe = &inputs[0];
    let before: Vec<(String, u64)> = router.shard(VICTIM).map_or_else(Vec::new, |shard| {
        shard
            .ids()
            .into_iter()
            .filter_map(|id| {
                let y = shard.engine().infer(&id, probe.clone()).ok()?;
                Some((id, bits_hash(&y)))
            })
            .collect()
    });
    out.attempted += 1;
    if !router.kill(VICTIM) {
        out.failed += 1;
    }

    // 6. Route again, through the failover.
    route(
        fleet,
        table,
        Some((swapped, swap_idx)),
        inputs,
        rng,
        out,
        tracer.as_deref_mut(),
    );

    // 7. Revive: warm start plus the bit-identity gate.
    // The warm open is timed on its own first: opened once to warm the
    // page cache the way the revive's own open finds it, then timed.
    let open_ms = tracer.as_deref_mut().map(|tr| {
        let root = shard_root(&fleet.root, VICTIM);
        drop(DurableStore::open(&root, WAL_SYNC, 0));
        let t0 = Instant::now();
        let opened = DurableStore::open(&root, WAL_SYNC, 0);
        let t1 = Instant::now();
        drop(opened); // closing is not part of the open
        tr.record("store.open", 0, out.cycles, t0, t1);
        t1.duration_since(t0).as_secs_f64() * 1e3
    });
    let t = Instant::now();
    let revived = out.op("revive", router.revive(VICTIM, fleet.shard_cfg));
    let revive_ms = ms_since(t);
    out.revive_ms.push(revive_ms);
    if let (Some(tr), Some(open_ms)) = (tracer.as_deref_mut(), open_ms) {
        tr.add("fleet.revive_gate_ms", revive_ms - open_ms);
        tr.add("fleet.revive_gate_n", 1.0);
    }
    if let Some(shard) = revived {
        for (id, want) in &before {
            let got = shard
                .engine()
                .infer(id, probe.clone())
                .map(|y| bits_hash(&y));
            verdict.expect(got == Ok(*want), || {
                format!("{id}: revived shard answers differently than before the kill")
            });
        }
    }

    // 8. Checkpoint every shard.
    for shard in router
        .live_shards()
        .into_iter()
        .filter_map(|i| router.shard(i))
    {
        let t0 = Instant::now();
        out.op("checkpoint", shard.checkpoint());
        if let Some(tr) = tracer.as_deref_mut() {
            tr.record("store.checkpoint", 0, out.cycles, t0, Instant::now());
        }
    }

    // Leave the catalog as the cycle found it.
    for spec in &table[..registered] {
        out.attempted += 1;
        if !router.unregister_model(&spec.id) {
            out.failed += 1;
        }
    }
    out.cycles += 1;
}

/// Route [`ROUTED_PER_STEP`] requests from this thread, one at a time.
/// After the swap, requests for the swapped id are checked against the
/// replacement spec.
fn route(
    fleet: &Fleet,
    table: &[VariantSpec],
    swap: Option<(usize, u16)>,
    inputs: &[Vec<f32>],
    rng: &mut Rng,
    out: &mut LifeOut,
    mut tracer: Option<&mut Tracer>,
) {
    let registered = table.len() - 1;
    for _ in 0..ROUTED_PER_STEP {
        let v = rng.below(registered);
        let i = rng.below(inputs.len());
        let id = &table[v].id;
        let input = &inputs[i];
        let t0 = Instant::now();
        let r = fleet.router.infer(id, input.clone());
        let t1 = Instant::now();
        out.routed_us
            .push(t1.duration_since(t0).as_secs_f64() * 1e6);
        let variant = match swap {
            Some((s, idx)) if s == v => idx,
            _ => v as u16,
        };
        if let Some(y) = out.op("FleetRouter::infer", r) {
            out.replies.push(Reply {
                variant,
                input: i as u16,
                hash: bits_hash(&y),
            });
        }
        if let Some(tr) = tracer.as_deref_mut() {
            let route_id = tr.record("fleet.infer", 0, out.cycles, t0, t1);
            if let Some(shard) = fleet.router.selection(id).first() {
                let _ = tr.span("serve.engine.routed", route_id, out.cycles, || {
                    shard.engine().infer(id, input.clone())
                });
            }
        }
    }
}

/// Replay the registration path one layer down for each spec:
/// synthesis, weight quantization, SEC-DED encoding, container export
/// and a WAL append.
fn layer_replays(fleet: &Fleet, specs: &[VariantSpec], tr: &mut Tracer) {
    let scratch = fleet.root.join("replay");
    std::fs::create_dir_all(&scratch).expect("create replay dir");
    for spec in specs {
        let (master, _) = tr.span("models.synthesize", 0, 0, || {
            FrozenMlp::synthesize(spec.family, spec.seed, &spec.dims)
        });
        if let Some((kind, n)) = spec.weight_format {
            let fmt = kind.build(n).expect("served format builds");
            for l in 0..master.depth() {
                let (w, _) = master.weight_data(l);
                let plan = fmt.plan(&QuantStats::from_slice(w));
                let mut q = vec![0.0f32; w.len()];
                tr.span("core.quantize", 0, 0, || plan.execute_into(w, &mut q));
                tr.add("core.quantize_elems", w.len() as f64);
            }
            if spec.protected {
                let (r, _) = tr.span("resilience.protect", 0, 0, || {
                    ProtectedWeights::build(&master, kind, n)
                });
                r.expect("protect a served format");
            }
        }
        let holder = fleet
            .router
            .selection(&spec.id)
            .into_iter()
            .find_map(|s| s.engine().registry().get(&spec.id));
        if let Some(variant) = holder {
            let path = scratch.join("variant.afc");
            let (r, _) = tr.span("store.export", 0, 0, || {
                export_variant(&variant).and_then(|stored| write_container(&path, &stored))
            });
            r.expect("export a registered variant");
        }
    }
    let wal = scratch.join("replay.wal");
    let _ = std::fs::remove_file(&wal);
    let mut writer = WalWriter::create(&wal, WAL_SYNC).expect("create WAL");
    for generation in 0..8 {
        let op = WalOp::Swap {
            id: specs[0].id.clone(),
            generation,
        };
        let (r, _) = tr.span("store.wal_append", 0, 0, || writer.append(&op));
        r.expect("append to a fresh WAL");
    }
}
