//! Correctness references kept apart from the paths under test.
//!
//! * [`RefBook`] builds every variant a second time in a private
//!   registry and answers with `FrozenMlp::evaluate`, the per-sample
//!   reference, so a served or routed reply is compared against a model
//!   that never went through batching, routing, the WAL or a restore.
//! * [`adaptivfloat_reference`] is the paper's Algorithm 1 written out
//!   here from scratch (nearest point of the enumerated grid), checked
//!   against the weights each AdaptivFloat variant serves.
//! * [`check_weights`] also checks that every quantized weight is a fixed
//!   point of its format's quantizer.

use std::collections::HashMap;
use std::sync::Arc;

use adaptivfloat::{FormatKind, PlanParams, QuantStats};
use af_models::FrozenMlp;
use af_serve::{ModelRegistry, ModelVariant, VariantSpec};

use crate::util::bits_hash;

/// Accumulated check failures; any entry fails the run.
#[derive(Debug, Default)]
pub struct Verdict {
    pub failures: Vec<String>,
    pub checked: u64,
}

impl Verdict {
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.checked += 1;
        if !ok && self.failures.len() < 1000 {
            self.failures.push(what());
        }
    }
}

/// Reference models keyed by `(id, seed)`, each built once in a private
/// registry, plus memoized reference output hashes.
#[derive(Debug, Default)]
pub struct RefBook {
    models: HashMap<(String, u64), Arc<ModelVariant>>,
    outputs: HashMap<(String, u64, usize), u64>,
}

impl RefBook {
    pub fn model(&mut self, spec: &VariantSpec) -> Arc<ModelVariant> {
        let key = (spec.id.clone(), spec.seed);
        Arc::clone(self.models.entry(key).or_insert_with(|| {
            ModelRegistry::new()
                .register(spec)
                .expect("reference registration of a valid spec")
        }))
    }

    /// Hash of the reference output for input `idx` of `inputs`.
    pub fn expected(&mut self, spec: &VariantSpec, inputs: &[Vec<f32>], idx: usize) -> u64 {
        let key = (spec.id.clone(), spec.seed, idx);
        if let Some(&h) = self.outputs.get(&key) {
            return h;
        }
        let h = bits_hash(&self.model(spec).model.evaluate(&inputs[idx]));
        self.outputs.insert(key, h);
        h
    }
}

/// One reply to verify: which spec served it, which pooled input, and
/// the hash of the bits that came back.
#[derive(Debug, Clone, Copy)]
pub struct Reply {
    pub variant: u16,
    pub input: u16,
    pub hash: u64,
}

/// Check every reply against the reference, and each fused variant's
/// replies against its dense twin's.
pub fn check_replies(
    specs: &[VariantSpec],
    inputs: &[Vec<f32>],
    replies: &[Reply],
    refs: &mut RefBook,
    verdict: &mut Verdict,
) {
    let mut seen: HashMap<(u16, u16), u64> = HashMap::new();
    for r in replies {
        let spec = &specs[r.variant as usize];
        let want = refs.expected(spec, inputs, r.input as usize);
        verdict.expect(r.hash == want, || {
            format!(
                "{}: reply for input {} differs from FrozenMlp::evaluate",
                spec.id, r.input
            )
        });
        seen.insert((r.variant, r.input), r.hash);
    }
    for (v, spec) in specs.iter().enumerate() {
        let Some(twin) = dense_twin(specs, spec) else {
            continue;
        };
        for (&(sv, input), &hash) in &seen {
            if sv as usize != v {
                continue;
            }
            if let Some(&twin_hash) = seen.get(&(twin as u16, input)) {
                verdict.expect(hash == twin_hash, || {
                    format!(
                        "{}: fused reply for input {input} differs from its dense twin",
                        spec.id
                    )
                });
            }
        }
    }
}

/// Index of the dense variant a fused spec twins (same model and
/// formats, `fused` off).
fn dense_twin(specs: &[VariantSpec], spec: &VariantSpec) -> Option<usize> {
    if !spec.fused {
        return None;
    }
    specs.iter().position(|s| {
        !s.fused
            && !s.protected
            && s.dims == spec.dims
            && s.seed == spec.seed
            && s.family == spec.family
            && s.weight_format == spec.weight_format
            && s.act_format == spec.act_format
    })
}

/// AdaptivFloat<n, e> quantization of one tensor by the paper's
/// Algorithm 1: `exp_max = floor(log2 max|w|)`,
/// `exp_bias = exp_max - (2^e - 1)`, no denormals, the all-zero code is
/// zero (so the smallest magnitude is `2^exp_bias (1 + 2^-m)`), values
/// round to the nearest grid point (ties away from zero) and clamp at
/// `2^exp_max (2 - 2^-m)`. Returns the bias and the quantized tensor.
pub fn adaptivfloat_reference(w: &[f32], n: u32, e: u32) -> (i32, Vec<f32>) {
    let m = n - e - 1;
    let max = w
        .iter()
        .filter(|v| v.is_finite())
        .fold(0.0f64, |a, &v| a.max(f64::from(v.abs())));
    let exp_max = if max == 0.0 {
        0
    } else {
        let mut x = 0i32;
        while 2f64.powi(x + 1) <= max {
            x += 1;
        }
        while 2f64.powi(x) > max {
            x -= 1;
        }
        x
    };
    let exp_bias = exp_max - ((1i32 << e) - 1);
    let mut grid = vec![0.0f64];
    for ef in 0..(1i32 << e) {
        for mf in 0..(1u32 << m) {
            if ef == 0 && mf == 0 {
                continue; // the all-zero code is zero, not 2^exp_bias
            }
            grid.push(2f64.powi(exp_bias + ef) * (1.0 + f64::from(mf) / f64::from(1u32 << m)));
        }
    }
    let top = *grid.last().expect("non-empty grid");
    let q = w
        .iter()
        .map(|&v| {
            let a = f64::from(v.abs());
            let mag = if a >= top {
                top
            } else {
                let hi = grid.partition_point(|&g| g < a);
                if grid[hi] == a || hi == 0 {
                    grid[hi]
                } else {
                    let (lo, up) = (grid[hi - 1], grid[hi]);
                    if a - lo < up - a {
                        lo
                    } else {
                        up
                    }
                }
            };
            if mag == 0.0 {
                0.0
            } else if v.is_sign_negative() {
                -mag as f32
            } else {
                mag as f32
            }
        })
        .collect();
    (exp_bias, q)
}

/// Check a served variant's weights: AdaptivFloat weights against
/// [`adaptivfloat_reference`] on the FP32 master, and every quantized
/// weight tensor as a fixed point of its format's quantizer.
pub fn check_weights(variant: &ModelVariant, verdict: &mut Verdict) {
    let spec = &variant.spec;
    let Some((kind, n)) = spec.weight_format else {
        return;
    };
    let model = &variant.model;
    let master = FrozenMlp::synthesize(spec.family, spec.seed, &spec.dims);
    let fmt = kind.build(n).expect("served format builds");
    let recipe = model.weight_quant_recipe();
    for l in 0..model.depth() {
        let (served, _) = model.weight_data(l);
        if kind == FormatKind::AdaptivFloat {
            let (bias, want) = adaptivfloat_reference(master.weight_data(l).0, n, 3.min(n - 1));
            let same = want
                .iter()
                .zip(served)
                .all(|(a, b)| a.to_bits() == b.to_bits());
            verdict.expect(same, || {
                format!("{}: layer {l} weights differ from Algorithm 1", spec.id)
            });
            if let Some((_, _, params)) = recipe {
                verdict.expect(
                    params[l] == PlanParams::AdaptivFloat { exp_bias: bias },
                    || {
                        format!(
                            "{}: layer {l} has {:?}, Algorithm 1 gives exp_bias {bias}",
                            spec.id, params[l]
                        )
                    },
                );
            }
        }
        let again = fmt.plan(&QuantStats::from_slice(served)).execute(served);
        let fixed = again
            .iter()
            .zip(served)
            .all(|(a, b)| a.to_bits() == b.to_bits());
        verdict.expect(fixed, || {
            format!(
                "{}: layer {l} weights are not a fixed point of {}",
                spec.id,
                fmt.name()
            )
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptivfloat::{AdaptivFloat, NumberFormat};
    use af_models::ModelFamily;

    #[test]
    fn one_wrong_bit_in_a_reply_fails_the_check() {
        let spec = VariantSpec::quantized(
            "t/adaptivfloat8",
            ModelFamily::Transformer,
            FormatKind::AdaptivFloat,
            8,
            7,
            &[8, 16, 4],
        );
        let specs = [spec.clone()];
        let inputs = vec![vec![0.5f32; 8], vec![-1.25f32; 8]];
        let mut refs = RefBook::default();
        let mut y = refs.model(&spec).model.evaluate(&inputs[1]);
        let good = Reply {
            variant: 0,
            input: 1,
            hash: bits_hash(&y),
        };
        let mut verdict = Verdict::default();
        check_replies(&specs, &inputs, &[good], &mut refs, &mut verdict);
        assert!(verdict.failures.is_empty(), "{:?}", verdict.failures);
        y[0] = f32::from_bits(y[0].to_bits() ^ 1);
        let bad = Reply {
            hash: bits_hash(&y),
            ..good
        };
        check_replies(&specs, &inputs, &[bad], &mut refs, &mut verdict);
        assert_eq!(verdict.failures.len(), 1);
    }

    #[test]
    fn algorithm1_matches_the_paper_worked_example() {
        // Figure 3 of the paper: AdaptivFloat<4,2> on its 4x4 matrix.
        #[rustfmt::skip]
        let w = [
            -1.17f32, 2.71, -1.60, 0.43, -1.14, 2.05, 1.01, 0.07,
            0.16, -0.03, -0.89, -0.87, -0.04, -0.39, 0.64, -2.89,
        ];
        #[rustfmt::skip]
        let want = [
            -1.0f32, 3.0, -1.5, 0.375, -1.0, 2.0, 1.0, 0.0,
            0.0, 0.0, -1.0, -0.75, 0.0, -0.375, 0.75, -3.0,
        ];
        let (bias, q) = adaptivfloat_reference(&w, 4, 2);
        assert_eq!(bias, -2);
        assert_eq!(q, want);
        assert_eq!(
            q,
            AdaptivFloat::new(4, 2).expect("valid").quantize_slice(&w)
        );
    }
}
