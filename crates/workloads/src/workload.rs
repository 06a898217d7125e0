//! The [`Workload`] abstraction: a deterministic benchmark with a
//! fault-injection hook.
//!
//! A workload executes in discrete *steps* over a mutable *state* of
//! 64-bit words. A [`Fault`] names a point of progress, a state word and a
//! bit; the harness flips that bit mid-run, exactly the way an ionising
//! particle flips a latch mid-computation. The run then either completes
//! with an output signature (compared against the golden copy → SDC or
//! masked), crashes (→ DUE), or exceeds its step budget (hang → DUE).


/// Benchmark family, mirroring the paper's grouping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadClass {
    /// HPC codes run on Xeon Phi and the GPUs (MxM, LUD, LavaMD, HotSpot).
    Hpc,
    /// Heterogeneous codes for the APU (SC, CED, BFS).
    Heterogeneous,
    /// CNNs for GPUs and the FPGA (YOLO, MNIST).
    NeuralNetwork,
}

impl std::fmt::Display for WorkloadClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            WorkloadClass::Hpc => "HPC",
            WorkloadClass::Heterogeneous => "heterogeneous",
            WorkloadClass::NeuralNetwork => "neural network",
        })
    }
}

/// A single-bit fault to inject during a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fault {
    /// Execution progress in `[0, 1)` at which the flip lands.
    pub progress: f64,
    /// Index into the workload's injectable state (wrapped modulo the
    /// live state length at injection time).
    pub site: usize,
    /// Bit position within the 64-bit word (0–63).
    pub bit: u8,
}

impl Fault {
    /// Creates a fault.
    ///
    /// # Panics
    ///
    /// Panics if `progress` is outside `[0, 1)` or `bit > 63`.
    pub fn new(progress: f64, site: usize, bit: u8) -> Self {
        assert!(
            (0.0..1.0).contains(&progress),
            "progress must be in [0,1), got {progress}"
        );
        assert!(bit < 64, "bit must be 0..64, got {bit}");
        Self {
            progress,
            site,
            bit,
        }
    }

    /// Flips this fault's bit in `word`.
    pub fn apply_to_word(&self, word: u64) -> u64 {
        word ^ (1u64 << self.bit)
    }

    /// Flips this fault's bit in an `f64` (via its IEEE-754 bits).
    pub fn apply_to_f64(&self, x: f64) -> f64 {
        f64::from_bits(self.apply_to_word(x.to_bits()))
    }

    /// Flips this fault's bit in a `usize` index (bit wrapped into range).
    pub fn apply_to_index(&self, idx: usize) -> usize {
        idx ^ (1usize << (self.bit as usize % usize::BITS as usize))
    }

    /// The step of a `total_steps`-step run at whose boundary this fault
    /// lands (its progress point, clamped to the last step).
    pub fn step(&self, total_steps: usize) -> usize {
        ((self.progress * total_steps as f64) as usize).min(total_steps - 1)
    }
}

/// Result of one (possibly faulted) run.
#[derive(Debug, Clone, PartialEq)]
pub enum RunOutcome {
    /// Ran to completion; carries the output signature.
    Completed(Vec<u64>),
    /// Aborted with an error (out-of-bounds access, allocation blow-up…).
    Crashed(String),
    /// Exceeded the step budget.
    Hung,
}

impl RunOutcome {
    /// The output signature, if the run completed.
    pub fn output(&self) -> Option<&[u64]> {
        match self {
            RunOutcome::Completed(v) => Some(v),
            _ => None,
        }
    }

    /// True if the run ended in a DUE-class event (crash or hang).
    pub fn is_due(&self) -> bool {
        matches!(self, RunOutcome::Crashed(_) | RunOutcome::Hung)
    }
}

/// A deterministic, injectable benchmark.
///
/// Implementations must be deterministic: `run(None)` always produces the
/// same `Completed` output, and `run(Some(f))` is a pure function of `f`.
pub trait Workload: Send + Sync {
    /// Benchmark name as the paper spells it.
    fn name(&self) -> &'static str;

    /// Benchmark family.
    fn class(&self) -> WorkloadClass;

    /// Number of injectable state words (used to draw fault sites).
    fn state_words(&self) -> usize;

    /// Executes the workload, flipping the fault's bit at the requested
    /// progress point if one is given.
    fn run(&self, fault: Option<Fault>) -> RunOutcome;

    /// The fault-free output signature.
    ///
    /// # Panics
    ///
    /// Panics if the fault-free run does not complete — that is a bug in
    /// the workload, not a radiation effect.
    fn golden(&self) -> Vec<u64> {
        match self.run(None) {
            RunOutcome::Completed(v) => v,
            other => panic!("{}: fault-free run must complete, got {other:?}", self.name()),
        }
    }
}

impl<W: Workload + ?Sized> Workload for &W {
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn class(&self) -> WorkloadClass {
        (**self).class()
    }
    fn state_words(&self) -> usize {
        (**self).state_words()
    }
    fn run(&self, fault: Option<Fault>) -> RunOutcome {
        (**self).run(fault)
    }
}

/// Helper: should the fault fire before step `step` of `total_steps`?
/// Returns the fault if it lands exactly on this step boundary.
pub fn fault_due_at(fault: Option<Fault>, step: usize, total_steps: usize) -> Option<Fault> {
    fault.filter(|f| f.step(total_steps) == step)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_bit_flip_round_trips() {
        let f = Fault::new(0.5, 3, 17);
        let x = 0xdead_beef_u64;
        assert_eq!(f.apply_to_word(f.apply_to_word(x)), x);
        let y = 3.25_f64;
        assert_eq!(f.apply_to_f64(f.apply_to_f64(y)), y);
    }

    #[test]
    fn fault_changes_the_value() {
        let f = Fault::new(0.0, 0, 52);
        assert_ne!(f.apply_to_f64(1.0), 1.0);
        assert_ne!(f.apply_to_word(0), 0);
    }

    #[test]
    #[should_panic(expected = "progress must be in")]
    fn fault_rejects_progress_one() {
        let _ = Fault::new(1.0, 0, 0);
    }

    #[test]
    #[should_panic(expected = "bit must be")]
    fn fault_rejects_bit_64() {
        let _ = Fault::new(0.0, 0, 64);
    }

    #[test]
    fn fault_due_at_fires_once() {
        let f = Fault::new(0.5, 0, 0);
        let fired: Vec<usize> = (0..10)
            .filter(|&s| fault_due_at(Some(f), s, 10).is_some())
            .collect();
        assert_eq!(fired, vec![5]);
    }

    #[test]
    fn fault_due_at_clamps_to_last_step() {
        let f = Fault::new(0.999, 0, 0);
        assert!(fault_due_at(Some(f), 9, 10).is_some());
        assert!(fault_due_at(None, 0, 10).is_none());
    }

    #[test]
    fn outcome_helpers() {
        assert!(RunOutcome::Hung.is_due());
        assert!(RunOutcome::Crashed("x".into()).is_due());
        let done = RunOutcome::Completed(vec![1, 2]);
        assert!(!done.is_due());
        assert_eq!(done.output(), Some(&[1u64, 2][..]));
        assert_eq!(RunOutcome::Hung.output(), None);
    }

    #[test]
    fn class_display() {
        assert_eq!(WorkloadClass::Hpc.to_string(), "HPC");
        assert_eq!(WorkloadClass::NeuralNetwork.to_string(), "neural network");
    }
}
