//! Monomorphized decision kernels and the counter-addressed uniform
//! source: the building blocks of the engine's trial loop.
//!
//! A [`LaneKernel`] is the hot-loop view of a [`LocalRule`]: the lane
//! runner is generic over it, so the compiler emits one specialized
//! trial loop per kernel type with the decision inlined — no virtual
//! call and no `Rational → f64` conversion per player per trial. The
//! decision is a bool (`true` = bin 0) rather than a [`Bin`], so the
//! loop turns it into a `{0.0, 1.0}` mask and accumulates both bin
//! sums without a branch per player. The engine picks the kernel once
//! per run from [`decision::KernelHint`]; rules without a hint fall
//! back to [`GenericKernel`], which is still monomorphized over the
//! concrete rule type when one is known and degrades to per-decision
//! dynamic dispatch only for `dyn LocalRule`.
//!
//! [`LaneUniforms`] addresses uniforms by `(batch, trial, kind,
//! player)` on the counter-based Threefry generator — no sequential
//! stream at all, so `LANES` trials fill in one elementwise sweep and
//! every lane width produces bit-identical results by construction
//! (see the engine module docs, stream v4).

use decision::{Bin, LocalRule};
use rand::counter::{threefry4x64, threefry4x64_lanes, word_to_unit, CounterKey};

/// The hot-loop view of a decision rule. Implementations must be
/// pure: `sends_to_zero` may depend only on its arguments and the
/// kernel's construction-time parameters, never on mutable state.
///
/// The two hinted kernels and the [`GenericKernel`] fallback all
/// implement it; the engine runs every rule through this one trait.
pub(crate) trait LaneKernel: Sync {
    /// Whether `sends_to_zero` reads its `coin` argument. When
    /// `false` the lane runner never *generates* the coin plane —
    /// the draws still exist in the addressed stream (replay can
    /// produce them), they are simply never evaluated, which is the
    /// core payoff of counter-based generation. Implementations must
    /// uphold the contract: reading `coin` with `USES_COINS = false`
    /// would observe the runner's constant placeholder.
    const USES_COINS: bool;

    /// Number of players in the system.
    fn players(&self) -> usize;

    /// True iff `player` sends its input to bin 0 on `(input, coin)`.
    fn sends_to_zero(&self, player: usize, input: f64, coin: f64) -> bool;
}

/// Fast path for [`decision::SingleThresholdAlgorithm`]-shaped rules:
/// bin 0 iff `input ≤ thresholds[player]`, with the thresholds
/// pre-converted to `f64` once per run.
pub(crate) struct ThresholdKernel {
    thresholds: Vec<f64>,
}

impl ThresholdKernel {
    pub(crate) fn new(thresholds: Vec<f64>) -> ThresholdKernel {
        ThresholdKernel { thresholds }
    }
}

impl LaneKernel for ThresholdKernel {
    const USES_COINS: bool = false;

    fn players(&self) -> usize {
        self.thresholds.len()
    }

    #[inline]
    fn sends_to_zero(&self, player: usize, input: f64, _coin: f64) -> bool {
        input <= self.thresholds[player]
    }
}

/// Fast path for [`decision::ObliviousAlgorithm`]-shaped rules: bin 0
/// iff `coin < alpha[player]`, with the probabilities pre-converted
/// to `f64` once per run.
pub(crate) struct ObliviousKernel {
    alpha: Vec<f64>,
}

impl ObliviousKernel {
    pub(crate) fn new(alpha: Vec<f64>) -> ObliviousKernel {
        ObliviousKernel { alpha }
    }
}

impl LaneKernel for ObliviousKernel {
    const USES_COINS: bool = true;

    fn players(&self) -> usize {
        self.alpha.len()
    }

    #[inline]
    fn sends_to_zero(&self, player: usize, _input: f64, coin: f64) -> bool {
        coin < self.alpha[player]
    }
}

/// Fallback kernel: one [`LocalRule::decide`] call per decision.
/// Monomorphized over `R` when the rule type is concrete; for
/// `R = dyn LocalRule` every decision is a virtual call. An opaque
/// rule may read its coin, so the coin plane is always generated.
pub(crate) struct GenericKernel<'a, R: LocalRule + ?Sized>(pub(crate) &'a R);

impl<R: LocalRule + ?Sized> LaneKernel for GenericKernel<'_, R> {
    const USES_COINS: bool = true;

    fn players(&self) -> usize {
        self.0.n()
    }

    #[inline]
    fn sends_to_zero(&self, player: usize, input: f64, coin: f64) -> bool {
        self.0.decide(player, input, coin) == Bin::Zero
    }
}

/// Domain tag occupying counter word 3 of every lane-stream block
/// (ASCII `nocomm-3`, fixed since stream v3): counters used by this
/// engine can never collide with counters another subsystem might
/// derive from the same key.
pub(crate) const LANE_STREAM_DOMAIN: u64 = 0x6e6f_636f_6d6d_2d33;

/// The role a uniform plays in one trial. The lane stream addresses draws
/// by `(kind, player)` rather than by a flat per-trial index: each
/// kind occupies its own **plane** of counter blocks, so a kernel
/// that never reads a kind (thresholds ignore coins; crash-free runs
/// draw no fault coins) skips generating that plane outright instead
/// of computing and discarding it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum DrawKind {
    /// The player's private input value (always consumed: payoffs
    /// sum inputs whatever the rule does).
    Input = 0,
    /// The player's private coin (consumed only by coin-driven
    /// rules, e.g. oblivious mixes).
    Coin = 1,
    /// The player's crash coin (consumed only when the run draws
    /// fault randomness).
    Fault = 2,
}

/// Shift positioning the kind tag above any realistic player-block
/// index in counter word 2: planes of different kinds can never
/// collide.
const KIND_SHIFT: u32 = 32;

/// The engine's uniform source: draws addressed by
/// `(batch, trial, kind, player)` on the Threefry counter generator,
/// filled `L` trials (lanes) at a time.
///
/// Uniform `(kind, p)` of trial `t` is word `p mod 4` of the block at
/// counter `[batch, t, kind · 2³² + p / 4, LANE_STREAM_DOMAIN]` — a
/// pure function of the key and the draw's own coordinates. Lane `j`
/// of a wide fill and a scalar [`lane_draw`] therefore produce
/// identical bits, which is what makes lane-width, thread-count, and
/// replay invariance structural rather than bookkept.
///
/// The plane scratch (players rounded up to whole blocks, times the
/// planes requested at construction, lane-major) is allocated once
/// per batch in [`LaneUniforms::new`]; [`LaneUniforms::fill`] and the
/// row accessors are allocation-free, which the `hot-path-alloc`
/// analysis enforces.
pub(crate) struct LaneUniforms<const L: usize> {
    key: CounterKey,
    batch: u64,
    /// Player count rounded up to whole 4-word blocks: rows per
    /// plane.
    padded: usize,
    /// The planes this source generates, in row order.
    kinds: [Option<DrawKind>; 3],
    /// `rows[plane · padded + p][j]` is uniform `(kind, p)` of lane
    /// `j`'s trial after a fill.
    rows: Vec<[f64; L]>,
}

impl<const L: usize> LaneUniforms<L> {
    /// A source for one batch generating the input plane, plus the
    /// coin and fault planes on request.
    pub(crate) fn new(
        key: CounterKey,
        batch: u64,
        players: usize,
        coins: bool,
        faults: bool,
    ) -> LaneUniforms<L> {
        let kinds = [
            Some(DrawKind::Input),
            coins.then_some(DrawKind::Coin),
            faults.then_some(DrawKind::Fault),
        ];
        let padded = players.div_ceil(4) * 4;
        let planes = 1 + usize::from(coins) + usize::from(faults);
        LaneUniforms {
            key,
            batch,
            padded,
            kinds,
            rows: vec![[0.0; L]; padded * planes],
        }
    }

    /// Number of Threefry blocks one fill computes (per lane group).
    pub(crate) fn blocks_per_group(&self) -> u64 {
        (self.rows.len() / 4) as u64
    }

    /// Fills every generated plane for the lane group whose first
    /// trial is `trial0`: lane `j` holds the draws of trial
    /// `trial0 + j`.
    #[inline]
    pub(crate) fn fill(&mut self, trial0: u64) {
        // `new` sized `rows` as one `padded` chunk per generated kind,
        // so the zip is exact.
        let planes = self.rows.chunks_exact_mut(self.padded);
        for (kind, plane) in self.kinds.into_iter().flatten().zip(planes) {
            for (k, rows) in plane.chunks_exact_mut(4).enumerate() {
                let mut trials = [0u64; L];
                for (j, trial) in trials.iter_mut().enumerate() {
                    *trial = trial0 + j as u64;
                }
                let ctr = [
                    [self.batch; L],
                    trials,
                    [((kind as u64) << KIND_SHIFT) | k as u64; L],
                    [LANE_STREAM_DOMAIN; L],
                ];
                let block = threefry4x64_lanes::<L>(&self.key, &ctr);
                for (row, word) in rows.iter_mut().zip(block) {
                    for j in 0..L {
                        row[j] = word_to_unit(word[j]);
                    }
                }
            }
        }
    }

    /// The filled input row of `player` (one `[f64; L]` copy).
    #[inline]
    pub(crate) fn input(&self, player: usize) -> [f64; L] {
        self.rows[player]
    }

    /// The filled coin row of `player`. The coin plane must have been
    /// requested at construction (it is always the second plane).
    #[inline]
    pub(crate) fn coin(&self, player: usize) -> [f64; L] {
        debug_assert_eq!(self.kinds[1], Some(DrawKind::Coin));
        self.rows[self.padded + player]
    }

    /// The filled fault-coin row of `player` (always the last plane).
    #[inline]
    pub(crate) fn fault(&self, player: usize) -> [f64; L] {
        debug_assert_eq!(self.kinds[2], Some(DrawKind::Fault));
        self.rows[self.rows.len() - self.padded + player]
    }
}

/// Scalar lane-stream replay: uniform `(kind, player)` of trial `trial`
/// in batch `batch`, bit-identical to lane `j = trial − trial0` of a
/// wide [`LaneUniforms::fill`]. This is what `load_stats` and the
/// invariance tests rebuild engine streams from — one block per call,
/// so it is replay-grade, not hot-loop-grade.
pub(crate) fn lane_draw(
    key: &CounterKey,
    batch: u64,
    trial: u64,
    kind: DrawKind,
    player: usize,
) -> f64 {
    let word2 = ((kind as u64) << KIND_SHIFT) | (player / 4) as u64;
    let block = threefry4x64(key, [batch, trial, word2, LANE_STREAM_DOMAIN]);
    word_to_unit(block[player % 4])
}

#[cfg(test)]
mod tests {
    use super::*;
    use decision::{ObliviousAlgorithm, SingleThresholdAlgorithm};
    use rational::Rational;

    #[test]
    fn lane_rows_match_scalar_replay() {
        // Every (lane width, lane, kind, player) coordinate of a wide
        // fill equals the scalar lane_draw at the same coordinates —
        // the property the whole lane design rests on.
        fn check<const L: usize>() {
            let key = CounterKey::from_seed(123);
            let mut lanes = LaneUniforms::<L>::new(key, 9, 6, true, true);
            lanes.fill(40);
            for player in 0..6 {
                let rows = [
                    (DrawKind::Input, lanes.input(player)),
                    (DrawKind::Coin, lanes.coin(player)),
                    (DrawKind::Fault, lanes.fault(player)),
                ];
                for (kind, row) in rows {
                    for (j, &value) in row.iter().enumerate() {
                        assert_eq!(
                            value,
                            lane_draw(&key, 9, 40 + j as u64, kind, player),
                            "L={L} lane {j} {kind:?} player {player}"
                        );
                    }
                }
            }
        }
        check::<1>();
        check::<8>();
        check::<16>();
    }

    #[test]
    fn skipped_planes_leave_generated_planes_unchanged() {
        // The input plane's bits do not depend on which other planes
        // the source generates — planes live in disjoint counter
        // ranges.
        let key = CounterKey::from_seed(77);
        let mut all = LaneUniforms::<8>::new(key, 3, 5, true, true);
        let mut input_only = LaneUniforms::<8>::new(key, 3, 5, false, false);
        let mut with_faults = LaneUniforms::<8>::new(key, 3, 5, false, true);
        all.fill(8);
        input_only.fill(8);
        with_faults.fill(8);
        for player in 0..5 {
            assert_eq!(all.input(player), input_only.input(player));
            assert_eq!(all.input(player), with_faults.input(player));
            assert_eq!(all.fault(player), with_faults.fault(player));
        }
    }

    #[test]
    fn lane_draws_are_pure_in_their_coordinates() {
        let key = CounterKey::from_seed(5);
        // Refilling at a different group start must reproduce a
        // trial's draws wherever the trial lands in the group.
        let mut a = LaneUniforms::<8>::new(key, 2, 8, true, false);
        let mut b = LaneUniforms::<8>::new(key, 2, 8, true, false);
        a.fill(16); // trial 19 is lane 3
        b.fill(19); // trial 19 is lane 0
        for player in 0..8 {
            assert_eq!(a.input(player)[3], b.input(player)[0], "player {player}");
            assert_eq!(a.coin(player)[3], b.coin(player)[0], "player {player}");
        }
    }

    #[test]
    fn threshold_kernel_matches_rule_decisions() {
        let rule = SingleThresholdAlgorithm::new(vec![
            Rational::ratio(1, 4),
            Rational::ratio(5, 8),
            Rational::ratio(1, 1),
        ])
        .unwrap();
        let kernel = ThresholdKernel::new(rule.thresholds_f64());
        assert_eq!(kernel.players(), 3);
        for player in 0..3 {
            for x in [0.0, 0.2, 0.25, 0.26, 0.625, 0.99, 1.0] {
                for c in [0.0, 0.5, 1.0 - 1e-9] {
                    assert_eq!(
                        kernel.sends_to_zero(player, x, c),
                        rule.decide(player, x, c) == Bin::Zero
                    );
                }
            }
        }
    }

    #[test]
    fn oblivious_kernel_matches_rule_decisions() {
        let rule =
            ObliviousAlgorithm::new(vec![Rational::ratio(1, 3), Rational::ratio(3, 4)]).unwrap();
        let kernel = ObliviousKernel::new(rule.probabilities_f64());
        assert_eq!(kernel.players(), 2);
        for player in 0..2 {
            for c in [0.0, 0.3, 1.0 / 3.0, 0.5, 0.7499, 0.75, 0.9] {
                for x in [0.0, 0.5, 0.99] {
                    assert_eq!(
                        kernel.sends_to_zero(player, x, c),
                        rule.decide(player, x, c) == Bin::Zero
                    );
                }
            }
        }
    }

    #[test]
    fn generic_kernel_forwards_to_the_rule() {
        let rule = ObliviousAlgorithm::fair(4);
        let kernel = GenericKernel(&rule);
        assert_eq!(kernel.players(), 4);
        assert!(kernel.sends_to_zero(0, 0.9, 0.1));
        assert!(!kernel.sends_to_zero(0, 0.1, 0.9));
        // And through a trait object, exercising the dyn instantiation.
        let dynamic: &dyn decision::LocalRule = &rule;
        let kernel = GenericKernel(dynamic);
        assert_eq!(
            kernel.sends_to_zero(1, 0.2, 0.8),
            rule.decide(1, 0.2, 0.8) == Bin::Zero
        );
    }
}
