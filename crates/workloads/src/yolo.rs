//! YOLO — the object-detection CNN of the paper's automotive motivation,
//! implemented as a compact single-shot detector ("YOLO-lite"): a conv
//! backbone over a synthetic road scene and a grid-cell detection head
//! emitting box coordinates, objectness and class scores.

use std::sync::OnceLock;

use crate::cnn::{quantise, GoldenTrace, Layer, Network, Tensor};
use crate::workload::{Fault, RunOutcome, Workload, WorkloadClass};

/// Detection grid side (S×S cells).
const GRID: usize = 2;
/// Values per cell: x, y, w, h, objectness + 3 class scores.
const PER_CELL: usize = 8;

/// A single-shot detector over a 32×32 synthetic road scene.
#[derive(Debug, Clone)]
pub struct Yolo {
    network: Network,
    scene: Tensor,
    /// Fault-free activations over the scene, computed on first use.
    golden: OnceLock<GoldenTrace>,
}

impl Yolo {
    /// Objectness threshold above which a cell reports a detection.
    pub const OBJECTNESS_THRESHOLD: f64 = 0.0;

    /// Builds the detector and a synthetic scene from `seed`.
    pub fn new(seed: u64) -> Self {
        let network = Network::new(vec![
            Layer::conv(1, 4, seed ^ 0xa1),
            Layer::MaxPool2, // 16x16
            Layer::conv(4, 8, seed ^ 0xa2),
            Layer::MaxPool2, // 8x8
            Layer::conv(8, 8, seed ^ 0xa3),
            Layer::MaxPool2, // 4x4
            Layer::dense(8 * 4 * 4, GRID * GRID * PER_CELL, false, seed ^ 0xa4),
        ]);
        Self {
            network,
            scene: synthetic_scene(seed),
            golden: OnceLock::new(),
        }
    }

    /// The underlying network.
    pub fn network(&self) -> &Network {
        &self.network
    }

    pub(crate) fn golden_trace(&self) -> &GoldenTrace {
        self.golden
            .get_or_init(|| self.network.golden_trace(self.scene.clone()))
    }

    /// A detection pipeline compares *detections*, not raw floats: the
    /// signature is the quantised decoded boxes (plus the full head at
    /// coarse quantisation to catch class-score corruption).
    fn signature(head: &[f64]) -> Vec<u64> {
        let detections = Self::decode(head);
        let mut signature = Vec::new();
        signature.push(detections.len() as u64);
        for (cell, x, y, w, h) in detections {
            signature.push(cell as u64);
            signature.extend(quantise(&[x, y, w, h]));
        }
        signature.extend(quantise(head));
        signature
    }

    /// [`Workload::run`] through the reference forward pass.
    #[cfg(test)]
    pub(crate) fn run_reference(&self, fault: Option<Fault>) -> RunOutcome {
        let head = self.network.forward(self.scene.clone(), fault);
        RunOutcome::Completed(Self::signature(&head.data))
    }

    /// Decodes a raw head output into per-cell detections
    /// `(cell, x, y, w, h)` for cells whose objectness clears the
    /// threshold.
    pub fn decode(head: &[f64]) -> Vec<(usize, f64, f64, f64, f64)> {
        let mut out = Vec::new();
        for cell in 0..GRID * GRID {
            let base = cell * PER_CELL;
            let objectness = head[base + 4];
            if objectness > Self::OBJECTNESS_THRESHOLD {
                out.push((
                    cell,
                    head[base],
                    head[base + 1],
                    head[base + 2],
                    head[base + 3],
                ));
            }
        }
        out
    }
}

/// A synthetic "road scene": horizon gradient, a road trapezoid and two
/// bright blobs (vehicles).
fn synthetic_scene(seed: u64) -> Tensor {
    let mut t = Tensor::zeros(1, 32, 32);
    let mut gen = crate::mxm::splitmix(seed);
    for y in 0..32 {
        for x in 0..32 {
            let sky = if y < 12 { 0.7 } else { 0.3 };
            let noise = ((gen() % 32) as f64) / 255.0;
            *t.at_mut(0, y, x) = sky + noise;
        }
    }
    // Vehicle blobs.
    for (cy, cx) in [(20usize, 10usize), (22, 24)] {
        for dy in 0..4 {
            for dx in 0..5 {
                *t.at_mut(0, cy + dy, cx + dx) = 0.95;
            }
        }
    }
    t
}

impl Workload for Yolo {
    fn name(&self) -> &'static str {
        "YOLO"
    }

    fn class(&self) -> WorkloadClass {
        WorkloadClass::NeuralNetwork
    }

    fn state_words(&self) -> usize {
        self.network.parameter_count() + 32 * 32
    }

    fn run(&self, fault: Option<Fault>) -> RunOutcome {
        let head = self.network.run(self.golden_trace(), fault);
        RunOutcome::Completed(Self::signature(&head.data))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_is_deterministic() {
        let w = Yolo::new(17);
        assert_eq!(w.golden(), w.golden());
    }

    #[test]
    fn head_emits_grid_times_per_cell_values() {
        let w = Yolo::new(17);
        let head = w.network.forward(w.scene.clone(), None);
        assert_eq!(head.len(), GRID * GRID * PER_CELL);
    }

    #[test]
    fn decode_respects_threshold() {
        let mut head = vec![0.0; GRID * GRID * PER_CELL];
        head[4] = 1.0; // cell 0 fires
        head[PER_CELL + 4] = -1.0; // cell 1 silent
        let det = Yolo::decode(&head);
        assert_eq!(det.len(), 1);
        assert_eq!(det[0].0, 0);
    }

    #[test]
    fn severe_weight_fault_changes_detections() {
        let w = Yolo::new(17);
        let changed = (0..12).any(|site| {
            let f = Fault::new(0.0, site, 62);
            w.run(Some(f)).output().unwrap() != w.golden().as_slice()
        });
        assert!(changed, "severe faults must corrupt detections");
    }

    #[test]
    fn scene_contains_bright_vehicles() {
        let scene = synthetic_scene(17);
        assert!(scene.at(0, 21, 12) > 0.9);
        assert!(scene.at(0, 23, 26) > 0.9);
        assert!(scene.at(0, 2, 2) < 0.9);
    }

    #[test]
    fn different_seeds_different_scenes_and_weights() {
        assert_ne!(Yolo::new(1).golden(), Yolo::new(2).golden());
    }
}
