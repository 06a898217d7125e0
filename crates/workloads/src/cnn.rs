//! Minimal convolutional-network substrate shared by the MNIST and YOLO
//! workloads: tensors, conv/pool/dense layers with deterministic
//! pseudo-random weights, and a fault-injectable forward pass.
//!
//! The networks are *fixed-weight* (seeded) rather than trained — the
//! paper's reliability question is about fault propagation through the
//! arithmetic of a CNN forward pass, not about accuracy, and seeded
//! weights make every run bit-reproducible.
//!
//! A faulted inference does not re-run the whole network. It starts at
//! the fault's layer from the fault-free activation recorded in a
//! [`GoldenTrace`], and stops as soon as an activation is bit-identical
//! to the recorded one: every later layer then sees exactly its
//! fault-free input, so the output is the fault-free output.

use std::borrow::Cow;

use crate::mxm::{splitmix, unit_f64};
use crate::workload::Fault;

/// A dense CHW tensor.
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    /// Channels.
    pub c: usize,
    /// Height.
    pub h: usize,
    /// Width.
    pub w: usize,
    /// Row-major CHW data.
    pub data: Vec<f64>,
}

impl Tensor {
    /// Creates a zero tensor.
    pub fn zeros(c: usize, h: usize, w: usize) -> Self {
        Self {
            c,
            h,
            w,
            data: vec![0.0; c * h * w],
        }
    }

    /// Element accessor.
    #[inline]
    pub fn at(&self, c: usize, y: usize, x: usize) -> f64 {
        self.data[(c * self.h + y) * self.w + x]
    }

    /// Mutable element accessor.
    #[inline]
    pub fn at_mut(&mut self, c: usize, y: usize, x: usize) -> &mut f64 {
        &mut self.data[(c * self.h + y) * self.w + x]
    }

    /// Total element count.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

/// One layer of the network.
#[derive(Debug, Clone, PartialEq)]
pub enum Layer {
    /// 3×3 same-padding convolution + ReLU; weights `[out][in][9]`.
    Conv3x3 {
        /// Input channels.
        in_c: usize,
        /// Output channels.
        out_c: usize,
        /// Kernel weights, `out_c * in_c * 9` values.
        weights: Vec<f64>,
        /// Per-output-channel bias.
        bias: Vec<f64>,
    },
    /// 2×2 max pooling (stride 2).
    MaxPool2,
    /// Fully connected + optional ReLU; weights `[out][in]`.
    Dense {
        /// Input features (flattened).
        in_f: usize,
        /// Output features.
        out_f: usize,
        /// Weights, `out_f * in_f` values.
        weights: Vec<f64>,
        /// Per-output bias.
        bias: Vec<f64>,
        /// Apply ReLU to the output.
        relu: bool,
    },
}

impl Layer {
    /// Builds a conv layer with seeded weights in `[-s, s]`.
    pub fn conv(in_c: usize, out_c: usize, seed: u64) -> Self {
        let mut gen = splitmix(seed);
        let scale = (2.0 / (in_c as f64 * 9.0)).sqrt();
        let weights = (0..out_c * in_c * 9)
            .map(|_| (unit_f64(&mut gen) * 2.0 - 1.0) * scale)
            .collect();
        let bias = (0..out_c)
            .map(|_| (unit_f64(&mut gen) - 0.5) * 0.1)
            .collect();
        Layer::Conv3x3 {
            in_c,
            out_c,
            weights,
            bias,
        }
    }

    /// Builds a dense layer with seeded weights.
    pub fn dense(in_f: usize, out_f: usize, relu: bool, seed: u64) -> Self {
        let mut gen = splitmix(seed);
        let scale = (2.0 / in_f as f64).sqrt();
        let weights = (0..out_f * in_f)
            .map(|_| (unit_f64(&mut gen) * 2.0 - 1.0) * scale)
            .collect();
        let bias = (0..out_f)
            .map(|_| (unit_f64(&mut gen) - 0.5) * 0.1)
            .collect();
        Layer::Dense {
            in_f,
            out_f,
            weights,
            bias,
            relu,
        }
    }

    /// Number of injectable parameter words in this layer.
    pub fn parameter_count(&self) -> usize {
        match self {
            Layer::Conv3x3 { weights, bias, .. } => weights.len() + bias.len(),
            Layer::MaxPool2 => 0,
            Layer::Dense { weights, bias, .. } => weights.len() + bias.len(),
        }
    }

    fn flip_parameter(&mut self, site: usize, fault: &Fault) {
        let flip = |v: &mut f64| *v = fault.apply_to_f64(*v);
        match self {
            Layer::Conv3x3 { weights, bias, .. } | Layer::Dense { weights, bias, .. } => {
                if site < weights.len() {
                    flip(&mut weights[site]);
                } else {
                    let b = (site - weights.len()) % bias.len().max(1);
                    flip(&mut bias[b]);
                }
            }
            Layer::MaxPool2 => {}
        }
    }

    fn forward(&self, input: &Tensor) -> Tensor {
        match self {
            Layer::Conv3x3 {
                in_c,
                out_c,
                weights,
                bias,
            } => {
                let (h, w) = (input.h, input.w);
                let mut out = Tensor::zeros(*out_c, h, w);
                // A whole output row at a time, so the inner loops
                // vectorise; every pixel still sums bias, then its terms
                // in (ic, ky, kx) order. Padded terms are skipped by
                // clamping the ranges, never multiplied by zero: a
                // faulted infinite weight times a padding zero is NaN.
                let kernels = weights.chunks_exact(in_c * 9);
                for ((out_ch, kernel), &b) in
                    out.data.chunks_exact_mut(h * w).zip(kernels).zip(bias)
                {
                    for (y, acc) in out_ch.chunks_exact_mut(w).enumerate() {
                        acc.fill(b);
                        for (ic, k) in kernel.chunks_exact(9).enumerate() {
                            // Source row y + ky - 1 must lie inside 0..h.
                            for ky in usize::from(y == 0)..(h + 1 - y).min(3) {
                                let src = &input.data[(ic * h + y + ky - 1) * w..][..w];
                                let k = &k[ky * 3..ky * 3 + 3];
                                // Source column x + kx - 1 must lie inside 0..w.
                                for (a, &v) in acc[1..].iter_mut().zip(&src[..w - 1]) {
                                    *a += v * k[0];
                                }
                                for (a, &v) in acc.iter_mut().zip(src) {
                                    *a += v * k[1];
                                }
                                for (a, &v) in acc[..w - 1].iter_mut().zip(&src[1..]) {
                                    *a += v * k[2];
                                }
                            }
                        }
                        for a in acc.iter_mut() {
                            *a = a.max(0.0); // ReLU
                        }
                    }
                }
                out
            }
            Layer::MaxPool2 => {
                let (c, h, w) = (input.c, input.h / 2, input.w / 2);
                let mut out = Tensor::zeros(c, h, w);
                for ch in 0..c {
                    for y in 0..h {
                        for x in 0..w {
                            let m = input
                                .at(ch, 2 * y, 2 * x)
                                .max(input.at(ch, 2 * y, 2 * x + 1))
                                .max(input.at(ch, 2 * y + 1, 2 * x))
                                .max(input.at(ch, 2 * y + 1, 2 * x + 1));
                            *out.at_mut(ch, y, x) = m;
                        }
                    }
                }
                out
            }
            Layer::Dense {
                in_f,
                out_f,
                weights,
                bias,
                relu,
            } => {
                assert_eq!(
                    input.len(),
                    *in_f,
                    "dense layer expects {in_f} inputs, got {}",
                    input.len()
                );
                let mut out = Tensor::zeros(1, 1, *out_f);
                for o in 0..*out_f {
                    let mut acc = bias[o];
                    for (i, &v) in input.data.iter().enumerate() {
                        acc += v * weights[o * in_f + i];
                    }
                    out.data[o] = if *relu { acc.max(0.0) } else { acc };
                }
                out
            }
        }
    }

    /// The pixel-at-a-time forward pass, with the padding test inside the
    /// multiply-accumulate loop: the oracle the production kernel must
    /// match bit for bit.
    #[cfg(test)]
    fn forward_reference(&self, input: &Tensor) -> Tensor {
        let Layer::Conv3x3 {
            in_c,
            out_c,
            weights,
            bias,
        } = self
        else {
            return self.forward(input);
        };
        let (h, w) = (input.h, input.w);
        let mut out = Tensor::zeros(*out_c, h, w);
        for oc in 0..*out_c {
            for y in 0..h {
                for x in 0..w {
                    let mut acc = bias[oc];
                    for ic in 0..*in_c {
                        for ky in 0..3usize {
                            for kx in 0..3usize {
                                let sy = y + ky;
                                let sx = x + kx;
                                if sy == 0 || sx == 0 || sy > h || sx > w {
                                    continue; // zero padding
                                }
                                let v = input.at(ic, sy - 1, sx - 1);
                                acc += v * weights[(oc * in_c + ic) * 9 + ky * 3 + kx];
                            }
                        }
                    }
                    *out.at_mut(oc, y, x) = acc.max(0.0); // ReLU
                }
            }
        }
        out
    }
}

/// The fault-free activations of one inference at every layer boundary:
/// entry `i` is the input of layer `i`, the last entry the network
/// output.
#[derive(Debug, Clone, PartialEq)]
pub struct GoldenTrace(Vec<Tensor>);

impl GoldenTrace {
    /// The fault-free network output.
    pub fn output(&self) -> &Tensor {
        self.0.last().expect("a trace holds at least the input")
    }
}

/// How a resumed faulted inference ended.
#[derive(Debug, Clone, PartialEq)]
enum Resumed {
    /// The activation entering layer `.0` (or, at the network depth, the
    /// output) was bit-identical to the fault-free one.
    Converged(usize),
    /// The output differs from the fault-free one.
    Diverged(Tensor),
}

/// Bit-for-bit equality: `-0.0 ≠ 0.0`, and a NaN equals only the same NaN.
fn bit_identical(a: &Tensor, b: &Tensor) -> bool {
    a.data.len() == b.data.len()
        && a.data
            .iter()
            .zip(&b.data)
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// A sequential network with a fault-injectable forward pass.
#[derive(Debug, Clone, PartialEq)]
pub struct Network {
    layers: Vec<Layer>,
}

impl Network {
    /// Builds a network from layers.
    ///
    /// # Panics
    ///
    /// Panics if `layers` is empty.
    pub fn new(layers: Vec<Layer>) -> Self {
        assert!(!layers.is_empty(), "network needs at least one layer");
        Self { layers }
    }

    /// Number of layers (the injection step granularity).
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// Total injectable words: every parameter plus the input activations
    /// (handled by the caller).
    pub fn parameter_count(&self) -> usize {
        self.layers.iter().map(Layer::parameter_count).sum()
    }

    /// Runs the fault-free inference of `input`, keeping the activation
    /// at every layer boundary.
    pub fn golden_trace(&self, input: Tensor) -> GoldenTrace {
        let mut activations = Vec::with_capacity(self.layers.len() + 1);
        activations.push(input);
        for layer in &self.layers {
            let next = layer.forward(activations.last().expect("starts with the input"));
            activations.push(next);
        }
        GoldenTrace(activations)
    }

    /// Runs the inference whose fault-free run is `golden`. If a fault is
    /// given, it strikes before its target layer: either a parameter of
    /// that layer (site inside the layer's parameter span) or the layer's
    /// input activation. Without a fault, or when the fault is masked,
    /// the result borrows the traced output.
    pub fn run<'t>(&self, golden: &'t GoldenTrace, fault: Option<Fault>) -> Cow<'t, Tensor> {
        match fault.map(|f| self.resume(golden, f)) {
            None | Some(Resumed::Converged(_)) => Cow::Borrowed(golden.output()),
            Some(Resumed::Diverged(output)) => Cow::Owned(output),
        }
    }

    /// Runs the faulted inference from the fault's layer only: the
    /// traced input of that layer, with the one faulted parameter or
    /// activation patched in, through the remaining layers until an
    /// activation is bit-identical to the traced one. Stopping there is
    /// exact, because every later layer and its input are then
    /// bit-identical to the fault-free run.
    fn resume(&self, golden: &GoldenTrace, fault: Fault) -> Resumed {
        let start = fault.step(self.layers.len());
        let layer = &self.layers[start];
        let input = &golden.0[start];
        let params = layer.parameter_count();
        let site = fault.site % (params + input.len()).max(1);
        let mut activation = if site < params {
            let mut faulted = layer.clone();
            faulted.flip_parameter(site, &fault);
            faulted.forward(input)
        } else {
            let mut faulted = input.clone();
            let a = &mut faulted.data[site - params];
            *a = fault.apply_to_f64(*a);
            layer.forward(&faulted)
        };
        for (i, layer) in self.layers.iter().enumerate().skip(start + 1) {
            if bit_identical(&activation, &golden.0[i]) {
                return Resumed::Converged(i);
            }
            activation = layer.forward(&activation);
        }
        if bit_identical(&activation, golden.output()) {
            Resumed::Converged(self.layers.len())
        } else {
            Resumed::Diverged(activation)
        }
    }

    /// The reference forward pass: every layer from the input, with the
    /// pixel-at-a-time conv kernel. If a fault is given, it strikes
    /// before its target layer, as in [`Network::run`].
    #[cfg(test)]
    pub(crate) fn forward(&self, input: Tensor, fault: Option<Fault>) -> Tensor {
        let mut layers = self.layers.clone();
        let total = layers.len();
        let mut activation = input;
        for (i, layer) in layers.iter_mut().enumerate() {
            if let Some(f) = crate::workload::fault_due_at(fault, i, total) {
                let params = layer.parameter_count();
                let span = params + activation.len();
                let site = f.site % span.max(1);
                if site < params {
                    layer.flip_parameter(site, &f);
                } else {
                    let a = site - params;
                    activation.data[a] = f.apply_to_f64(activation.data[a]);
                }
            }
            activation = layer.forward_reference(&activation);
        }
        activation
    }
}

/// Quantises network outputs for comparison the way a detection pipeline
/// does (absolute tolerances, not bit equality): fixed-point at 1e-3.
pub fn quantise(outputs: &[f64]) -> Vec<u64> {
    outputs
        .iter()
        .map(|&x| {
            if x.is_nan() {
                u64::MAX // NaN is always an observable corruption
            } else {
                (x * 1000.0).round().clamp(-1e15, 1e15) as i64 as u64
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mnist::{Mnist, Precision};
    use crate::workload::{RunOutcome, Workload};
    use crate::yolo::Yolo;

    fn tiny_net() -> Network {
        Network::new(vec![
            Layer::conv(1, 2, 10),
            Layer::MaxPool2,
            Layer::dense(2 * 4 * 4, 4, false, 11),
        ])
    }

    fn input() -> Tensor {
        let mut t = Tensor::zeros(1, 8, 8);
        for (i, v) in t.data.iter_mut().enumerate() {
            *v = (i % 7) as f64 / 7.0;
        }
        t
    }

    #[test]
    fn forward_is_deterministic() {
        let net = tiny_net();
        let a = net.forward(input(), None);
        let b = net.forward(input(), None);
        assert_eq!(a, b);
    }

    #[test]
    fn output_shape_matches_head() {
        let out = tiny_net().forward(input(), None);
        assert_eq!((out.c, out.h, out.w), (1, 1, 4));
    }

    #[test]
    fn maxpool_halves_dimensions() {
        let out = Layer::MaxPool2.forward(&input());
        assert_eq!((out.c, out.h, out.w), (1, 4, 4));
        // Pooled value dominates its quad.
        assert!(out.at(0, 0, 0) >= input().at(0, 0, 0));
    }

    #[test]
    fn conv_relu_output_is_nonnegative() {
        let out = Layer::conv(1, 3, 5).forward(&input());
        assert!(out.data.iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn weight_fault_changes_output() {
        let net = tiny_net();
        let clean = net.forward(input(), None);
        let f = Fault::new(0.0, 3, 55);
        let faulty = net.forward(input(), Some(f));
        assert_ne!(quantise(&clean.data), quantise(&faulty.data));
    }

    #[test]
    fn low_bit_faults_are_quantised_away() {
        let net = tiny_net();
        let clean = quantise(&net.forward(input(), None).data);
        let masked = (0..10).filter(|&site| {
            let f = Fault::new(0.0, site, 0);
            quantise(&net.forward(input(), Some(f)).data) == clean
        });
        assert!(masked.count() >= 8, "quantisation should absorb LSB flips");
    }

    #[test]
    fn quantise_flags_nan() {
        assert_eq!(quantise(&[f64::NAN])[0], u64::MAX);
        assert_eq!(quantise(&[1.0005])[0], 1001u64);
    }

    #[test]
    fn parameter_count_sums_layers() {
        let net = tiny_net();
        // conv: 2*1*9 + 2 = 20; dense: 4*32 + 4 = 132.
        assert_eq!(net.parameter_count(), 20 + 132);
    }

    #[test]
    #[should_panic(expected = "at least one layer")]
    fn empty_network_rejected() {
        let _ = Network::new(vec![]);
    }

    #[test]
    fn conv_kernel_matches_the_reference_bit_for_bit() {
        let mut rng = tn_rng::Rng::seed_from_u64(0xc0de);
        let specials = [f64::INFINITY, f64::NEG_INFINITY, f64::NAN, -0.0, 0.0, 1e308];
        for (h, w) in [(1, 1), (1, 5), (2, 2), (3, 7), (8, 8), (5, 1)] {
            for in_c in [1, 3] {
                let mut layer = Layer::conv(in_c, 2, rng.next_u64());
                let mut input = Tensor::zeros(in_c, h, w);
                for v in input.data.iter_mut() {
                    *v = rng.gen_range(-1.0..1.0);
                }
                // Faulted weights (bit 62 makes them huge) and special
                // inputs: padded terms must be skipped, not multiplied.
                for _ in 0..3 {
                    let site = rng.gen_range(0..layer.parameter_count());
                    layer.flip_parameter(site, &Fault::new(0.0, 0, 62));
                    let a = rng.gen_range(0..input.len());
                    input.data[a] = specials[rng.gen_range(0..specials.len())];
                }
                if let Layer::Conv3x3 { weights, .. } = &mut layer {
                    weights[0] = f64::INFINITY; // 0 × ∞ would be NaN
                }
                let fast = layer.forward(&input);
                let reference = layer.forward_reference(&input);
                assert!(bit_identical(&fast, &reference), "{in_c}x{h}x{w}");
            }
        }
    }

    #[test]
    fn golden_trace_ends_at_the_reference_output() {
        let net = tiny_net();
        let trace = net.golden_trace(input());
        assert_eq!(trace.0.len(), net.depth() + 1);
        assert_eq!(trace.0[0], input());
        assert!(bit_identical(trace.output(), &net.forward(input(), None)));
        assert!(matches!(net.run(&trace, None), Cow::Borrowed(_)));
    }

    /// Draws 2,000 faults the way an injection campaign does and checks
    /// that the checkpointed run equals the reference forward pass for
    /// every one; the draws must reach every layer, both parameter and
    /// activation sites, all 64 bits, and both ways a run can end.
    fn differential(
        workload: &dyn Workload,
        network: &Network,
        golden: &GoldenTrace,
        reference: impl Fn(Option<Fault>) -> RunOutcome,
        seed: u64,
    ) {
        let name = workload.name();
        let depth = network.depth();
        let mut rng = tn_rng::Rng::seed_from_u64(seed);
        let mut sites = std::collections::BTreeSet::new();
        let mut bits = [false; 64];
        let (mut converged, mut diverged) = (0, 0);
        for _ in 0..2_000 {
            let fault = Fault::new(
                rng.gen_range(0.0..1.0),
                rng.gen_range(0..workload.state_words()),
                rng.gen_range(0..64u8),
            );
            assert_eq!(
                workload.run(Some(fault)),
                reference(Some(fault)),
                "{name} {fault:?}"
            );
            let layer = fault.step(depth);
            let params = network.layers[layer].parameter_count();
            let span = params + golden.0[layer].len();
            sites.insert((layer, fault.site % span < params));
            bits[fault.bit as usize] = true;
            match network.resume(golden, fault) {
                Resumed::Converged(_) => converged += 1,
                Resumed::Diverged(_) => diverged += 1,
            }
        }
        assert_eq!(workload.run(None), reference(None), "{name}");
        for (layer, l) in network.layers.iter().enumerate() {
            assert!(
                sites.contains(&(layer, false)),
                "{name}: no activation fault at layer {layer}"
            );
            if l.parameter_count() > 0 {
                assert!(
                    sites.contains(&(layer, true)),
                    "{name}: no parameter fault at layer {layer}"
                );
            }
        }
        assert!(bits.iter().all(|&hit| hit), "{name}: not every bit drawn");
        assert!(
            converged > 0 && diverged > 0,
            "{name}: {converged} converged, {diverged} diverged"
        );
    }

    #[test]
    fn checkpointed_yolo_matches_the_reference_forward_pass() {
        let w = Yolo::new(2020 ^ 4);
        differential(
            &w,
            w.network(),
            w.golden_trace(),
            |f| w.run_reference(f),
            0xd1f,
        );
    }

    fn mnist_differential(precision: Precision, batch: usize, seed: u64) {
        let w = Mnist::new(batch, 2020 ^ 8).with_precision(precision);
        let golden = &w.golden_traces()[0];
        differential(&w, w.network(), golden, |f| w.run_reference(f), seed);
    }

    #[test]
    fn checkpointed_mnist_matches_the_reference_forward_pass() {
        mnist_differential(Precision::Double, 1, 0xd2f);
    }

    #[test]
    fn checkpointed_single_precision_mnist_matches_the_reference_forward_pass() {
        mnist_differential(Precision::Single, 1, 0xd3f);
    }

    #[test]
    fn checkpointed_mnist_batch_matches_the_reference_forward_pass() {
        // Images after the first keep their fault-free logits.
        mnist_differential(Precision::Double, 3, 0xd4f);
    }

    #[test]
    fn max_pool_masked_flip_stops_at_the_next_layer() {
        let w = Yolo::new(2020 ^ 4);
        let (net, golden) = (w.network(), w.golden_trace());
        assert_eq!(net.layers[1], Layer::MaxPool2);
        // A positive activation below the maximum of its 2×2 window:
        // flipping its sign leaves the pooled value unchanged.
        let a = &golden.0[1];
        let site = (0..a.len())
            .find(|&i| {
                let (c, y, x) = (i / (a.h * a.w), i / a.w % a.h, i % a.w);
                let max = [(0, 0), (0, 1), (1, 0), (1, 1)]
                    .iter()
                    .map(|&(dy, dx)| a.at(c, (y & !1) + dy, (x & !1) + dx))
                    .fold(f64::NEG_INFINITY, f64::max);
                a.data[i] > 0.0 && a.data[i] < max
            })
            .expect("some activation is not its window's maximum");
        let fault = Fault::new(1.5 / net.depth() as f64, site, 63);
        assert_eq!(fault.step(net.depth()), 1);
        assert_eq!(net.resume(golden, fault), Resumed::Converged(2));
        assert_eq!(w.run(Some(fault)), RunOutcome::Completed(w.golden()));
        assert_eq!(
            w.run_reference(Some(fault)),
            RunOutcome::Completed(w.golden())
        );
    }

    #[test]
    fn nan_producing_exponent_flip_does_not_stop_early() {
        // Activations in [1, 2) have the exponent 0x3ff: flipping bit 62
        // sets it to 0x7ff with a non-zero mantissa, a NaN. Entering the
        // linear head it poisons every output.
        let net = Network::new(vec![Layer::MaxPool2, Layer::dense(16, 4, false, 11)]);
        let mut image = input();
        for v in image.data.iter_mut() {
            *v += 1.0 + 1.0 / 64.0;
        }
        let golden = net.golden_trace(image.clone());
        let fault = Fault::new(0.75, net.layers[1].parameter_count() + 5, 62);
        assert_eq!(fault.step(net.depth()), 1);
        assert!(fault.apply_to_f64(golden.0[1].data[5]).is_nan());
        let Resumed::Diverged(out) = net.resume(&golden, fault) else {
            panic!("a NaN activation must not count as re-converged");
        };
        assert!(out.data.iter().all(|v| v.is_nan()));
        assert!(bit_identical(
            &net.run(&golden, Some(fault)),
            &net.forward(image, Some(fault))
        ));
        assert_ne!(quantise(&out.data), quantise(&golden.output().data));
    }
}
