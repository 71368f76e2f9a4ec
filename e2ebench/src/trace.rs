//! In-memory spans recorded around the benchmark's calls into each
//! layer, and the layer replays that produce them.
//!
//! A span is `(id, parent, name, request, start, end)`. The replays call
//! a layer's public function with the inputs the layer above just
//! handled (an HTTP request, then `Engine::infer`, then
//! `FrozenMlp::evaluate_batch_into`, then one call per layer into the
//! tensor and core kernels), recording the lower call as a child of the
//! upper one. A span's self time is its duration minus the durations of
//! its children, so `serve.http` self time is client latency minus the
//! in-process `Engine::infer` latency for the same input.

use std::collections::HashMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use adaptivfloat::{
    AdaptivFloat, AdaptivParams, FormatKind, PlanParams, QuantPlan, QuantStats, Uniform,
};
use af_models::BatchScratch;
use af_serve::{Client, Engine, ModelVariant, VariantSpec};
use af_tensor::{PackedDecode, PackedGemm, PackedGemmScratch, Tensor};

use crate::check::Verdict;
use crate::util::{bits_hash, median};

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    pub req: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Spans kept in memory until the run ends, plus named totals (work
/// counts such as elements quantized or MACs) recorded beside them.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    totals: HashMap<&'static str, f64>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
            totals: HashMap::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Record a finished span; returns its id (ids start at 1, 0 means
    /// "no parent").
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u32,
        req: u64,
        start: Instant,
        end: Instant,
    ) -> u32 {
        let id = self.spans.len() as u32 + 1;
        let span = Span {
            id,
            parent,
            name,
            req,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans.push(span);
        id
    }

    /// Time `f` as a span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: u32,
        req: u64,
        f: impl FnOnce() -> R,
    ) -> (R, u32) {
        let t0 = Instant::now();
        let r = f();
        let id = self.record(name, parent, req, t0, Instant::now());
        (r, id)
    }

    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.totals.entry(name).or_insert(0.0) += v;
    }

    pub fn total(&self, name: &str) -> f64 {
        self.totals.get(name).copied().unwrap_or(0.0)
    }

    /// Take in spans recorded by another tracer with the same origin.
    pub fn absorb(&mut self, spans: &[Span]) {
        append_spans(&mut self.spans, spans);
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }

    /// Durations in microseconds of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e3)
            .collect()
    }

    fn child_ns(&self) -> HashMap<u32, u64> {
        let mut sums = HashMap::new();
        for s in &self.spans {
            if s.parent != 0 {
                *sums.entry(s.parent).or_insert(0u64) += s.dur_ns();
            }
        }
        sums
    }

    /// Self times in microseconds of every span called `name`.
    pub fn self_us(&self, name: &str) -> Vec<f64> {
        let children = self.child_ns();
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| {
                s.dur_ns()
                    .saturating_sub(children.get(&s.id).copied().unwrap_or(0))
                    as f64
                    / 1e3
            })
            .collect()
    }

    /// For every span called `parent`, the summed duration (µs) of its
    /// children called `child`; parents without such children are
    /// skipped.
    pub fn child_sums_us(&self, parent: &str, child: &str) -> Vec<f64> {
        let mut sums: HashMap<u32, u64> = HashMap::new();
        for s in self.spans.iter().filter(|s| s.name == child) {
            *sums.entry(s.parent).or_insert(0) += s.dur_ns();
        }
        self.spans
            .iter()
            .filter(|s| s.name == parent)
            .filter_map(|s| sums.get(&s.id).map(|&ns| ns as f64 / 1e3))
            .collect()
    }

    pub fn median_us(&self, name: &str) -> f64 {
        median(&self.durations_us(name))
    }

    /// Write every span as tab-separated text, self time included.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let children = self.child_ns();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\treq\tname\tstart_ns\tend_ns\tself_ns")?;
        for s in &self.spans {
            let own = s
                .dur_ns()
                .saturating_sub(children.get(&s.id).copied().unwrap_or(0));
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.id, s.parent, s.req, s.name, s.start_ns, s.end_ns, own
            )?;
        }
        out.flush()
    }
}

/// Append `src` (ids 1..=len) to `dst` (the same), renumbering `src`'s
/// ids and parents so both stay unique.
pub fn append_spans(dst: &mut Vec<Span>, src: &[Span]) {
    let offset = dst.len() as u32;
    dst.extend(src.iter().map(|&s| Span {
        id: s.id + offset,
        parent: if s.parent == 0 { 0 } else { s.parent + offset },
        ..s
    }));
}

/// The class a variant's evaluate span is filed under.
pub fn evaluate_span(spec: &VariantSpec) -> &'static str {
    if spec.weight_format.is_none() {
        "models.evaluate.fp32"
    } else if spec.fused {
        "models.evaluate.fused"
    } else if spec.protected {
        "models.evaluate.protected"
    } else {
        "models.evaluate.quantized"
    }
}

/// One served variant taken apart for the layer-down replay: its
/// activation plans (rebuilt from the frozen recipe), dense weight
/// tensors, and for fused variants the packed GEMMs (rebuilt from the
/// weight recipe the way the fused path builds them).
pub struct LayerProbe {
    acts: Vec<Option<QuantPlan>>,
    weights: Vec<Tensor>,
    packed: Vec<Option<PackedGemm>>,
    widest: usize,
}

impl LayerProbe {
    pub fn new(variant: &ModelVariant) -> LayerProbe {
        let model = &variant.model;
        let depth = model.depth();
        let acts = match model.act_recipe() {
            Some((kind, n, maxes)) => {
                let fmt = kind.build(n).expect("served activation format builds");
                maxes
                    .iter()
                    .map(|&m| Some(fmt.plan(&QuantStats::calibrated(m))))
                    .collect()
            }
            None => vec![None; depth],
        };
        let weights: Vec<Tensor> = (0..depth)
            .map(|l| {
                let (w, shape) = model.weight_data(l);
                Tensor::from_vec(w.to_vec(), shape)
            })
            .collect();
        let packed = (0..depth)
            .map(|l| {
                if !variant.spec.fused {
                    return None;
                }
                let (kind, n, params) = model.weight_quant_recipe()?;
                let (w, shape) = model.weight_data(l);
                pack_layer(kind, n, &params[l], w, shape[0], shape[1])
            })
            .collect();
        let widest = weights
            .iter()
            .flat_map(|w| w.shape().to_vec())
            .max()
            .unwrap_or(1);
        LayerProbe {
            acts,
            weights,
            packed,
            widest,
        }
    }

    /// Replay one input through the layers: activation quantization
    /// (`QuantPlan::execute_into`) and GEMM (`Tensor::matmul_slice_into`
    /// or `PackedGemm::matmul_into`) per layer, each as a child span of
    /// `parent`. Biases are private to the model, so later layers see
    /// pre-bias activations; the work per call is the same.
    pub fn replay(&self, input: &[f32], tracer: &mut Tracer, parent: u32, req: u64) {
        let mut x = input.to_vec();
        let mut q = vec![0.0f32; self.widest];
        let mut y = vec![0.0f32; self.widest];
        let mut scratch = PackedGemmScratch::default();
        for (l, w) in self.weights.iter().enumerate() {
            let (k, n) = (w.shape()[0], w.shape()[1]);
            if let Some(plan) = &self.acts[l] {
                tracer.span("core.act_quant", parent, req, || {
                    plan.execute_into(&x, &mut q[..k])
                });
                x.copy_from_slice(&q[..k]);
            }
            match &self.packed[l] {
                Some(pg) => {
                    tracer.span("tensor.packed_gemm", parent, req, || {
                        pg.matmul_into(&x, 1, &mut y[..n], &mut scratch)
                    });
                }
                None => {
                    tracer.span("tensor.gemm", parent, req, || {
                        Tensor::matmul_slice_into(&x, 1, k, w, &mut y[..n])
                    });
                    tracer.add("tensor.gemm_macs", (k * n) as f64);
                }
            }
            x = y[..n].iter().map(|v| v.max(0.0)).collect();
        }
        std::hint::black_box(&x);
    }
}

/// The packed GEMM the fused path would build for one layer.
fn pack_layer(
    kind: FormatKind,
    n: u32,
    params: &PlanParams,
    w: &[f32],
    k: usize,
    cols: usize,
) -> Option<PackedGemm> {
    let (table, codes, decode): (Vec<f32>, Vec<u32>, PackedDecode) = match (kind, *params) {
        (FormatKind::AdaptivFloat, PlanParams::AdaptivFloat { exp_bias }) => {
            let e = 3.min(n - 1);
            let af = AdaptivFloat::new(n, e).ok()?;
            let ap = AdaptivParams { n, e, exp_bias };
            (
                (0..1u32 << n).map(|c| af.decode_with(&ap, c)).collect(),
                w.iter().map(|&v| af.encode_with(&ap, v)).collect(),
                PackedDecode::AdaptivFloat {
                    m: n - e - 1,
                    exp_bias,
                },
            )
        }
        (FormatKind::Uniform, PlanParams::Uniform { scale }) => {
            let uni = Uniform::new(n).ok()?;
            (
                (0..1u32 << n).map(|c| uni.decode_code(scale, c)).collect(),
                w.iter().map(|&v| uni.encode_code(scale, v)).collect(),
                PackedDecode::Uniform { scale },
            )
        }
        _ => return None,
    };
    Some(PackedGemm::build(k, cols, n, &codes, table, decode))
}

/// Replay `rounds` requests one layer at a time: over HTTP, through
/// `Engine::infer`, through `evaluate_batch_into` at batch 1, and per
/// layer through the kernels. Each pair of adjacent layers must answer
/// bit-identically.
#[allow(clippy::too_many_arguments)]
pub fn serve_replay(
    client: &mut Client,
    engine: &Engine,
    spec: &VariantSpec,
    inputs: &[Vec<f32>],
    rounds: usize,
    req_base: u64,
    tracer: &mut Tracer,
    verdict: &mut Verdict,
) {
    let Some(variant) = engine.registry().get(&spec.id) else {
        verdict.expect(false, || {
            format!("{}: not registered for the replay", spec.id)
        });
        return;
    };
    let probe = LayerProbe::new(&variant);
    let eval_name = evaluate_span(spec);
    let mut scratch = BatchScratch::new();
    for r in 0..rounds {
        let req = req_base + r as u64;
        let input = &inputs[r % inputs.len()];
        let (http, http_id) = tracer.span("serve.http", 0, req, || client.infer(&spec.id, input));
        let (local, engine_id) = tracer.span("serve.engine", http_id, req, || {
            engine.infer(&spec.id, input.clone())
        });
        let (direct, eval_id) = tracer.span(eval_name, engine_id, req, || {
            bits_hash(variant.model.evaluate_batch_into(input, 1, &mut scratch))
        });
        probe.replay(input, tracer, eval_id, req);
        let same = matches!((&http, &local), (Ok(a), Ok(b)) if bits_hash(a) == direct && bits_hash(b) == direct);
        verdict.expect(same, || {
            format!(
                "{}: replay {r} differs between HTTP, Engine::infer and evaluate_batch_into",
                spec.id
            )
        });
    }
}
