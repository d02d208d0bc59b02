//! Fixture for the hot-path-alloc analysis: allocation in the
//! monomorphized kernel/lane-fill path.

/// BAD: collect inside the batch runner.
fn run_lane_batch<K: LaneKernel, const L: usize>(kernel: &K, count: u64) -> Vec<u64> {
    (0..count).map(|i| kernel.score(i)).collect()
}

impl<const L: usize> LaneUniforms<L> {
    /// BAD: clone and a vec! literal in the plane fill.
    fn fill(&mut self, trial0: u64) {
        let staged = self.rows.clone();
        let scratch = vec![0.0f64; 4];
        let _ = (staged, scratch, trial0);
    }

    /// GOOD: the row accessor allocates nothing.
    fn input(&self, player: usize) -> [f64; L] {
        self.rows[player]
    }
}

impl ThresholdKernel {
    /// BAD: Vec::new inside a decision method.
    fn decide(&self, player: usize, input: f64) -> Bin {
        let mut trace: Vec<f64> = Vec::new();
        trace.push(input);
        Bin::Zero
    }

    /// GOOD: construction happens once per run, off the hot path.
    fn build(thresholds: &[Rational]) -> ThresholdKernel {
        let converted: Vec<f64> = thresholds.iter().map(Rational::to_f64).collect();
        ThresholdKernel { thresholds: converted }
    }
}

/// GOOD: cold helpers may allocate freely.
fn summarize(totals: &[u64]) -> Vec<u64> {
    totals.to_vec()
}

impl LaneKernel for ObliviousKernel {
    /// Waived: a justified exception inside the hot path stays silent.
    fn sends_to_zero(&self, player: usize, _input: f64, coin: f64) -> bool {
        // xtask:allow(hot-path-alloc): fixture waiver — audit probe clones a 2-element array
        let probe = self.audit.clone();
        let _ = probe;
        coin < self.alpha[player]
    }
}
