//! Versioned stream fixtures and replay identities for RNG stream v4
//! (every rule on the counter-addressed lane stream).
//!
//! The golden values below are **self-pinned fixtures**: they were
//! produced by this implementation and exist to detect silent stream
//! drift, not to claim byte-compatibility with any external Threefry
//! implementation (none is vendored to compare against). If
//! `RNG_STREAM_VERSION` is deliberately bumped, regenerate them
//! alongside the fingerprint re-attestation
//! (`cargo xtask analyze --update-fingerprint`).

use decision::{Bin, LocalRule, ObliviousAlgorithm};
use rand::counter::{threefry4x64, word_to_unit, CounterKey};
use simulator::{
    resume_sweep, sweep_threshold, sweep_threshold_checkpointed, ChaosPlan, FaultKind, Simulation,
    RNG_STREAM_VERSION,
};

fn rule() -> ObliviousAlgorithm {
    ObliviousAlgorithm::fair(3)
}

/// The fixture rule with its kernel hint hidden: the opaque path.
struct Opaque(ObliviousAlgorithm);

impl LocalRule for Opaque {
    fn n(&self) -> usize {
        self.0.n()
    }
    fn decide(&self, player: usize, input: f64, coin: f64) -> Bin {
        self.0.decide(player, input, coin)
    }
}

#[test]
fn stream_version_is_four() {
    assert_eq!(RNG_STREAM_VERSION, 4);
}

#[test]
fn v3_golden_counter_block_is_pinned() {
    // One Threefry-4×64-12 block, key from seed 42, counter
    // [1, 2, 3, 4] — the raw bijection under everything the lane
    // stream draws. Fixture version: stream v3, unchanged in v4.
    let key = CounterKey::from_seed(42);
    let block = threefry4x64(&key, [1, 2, 3, 4]);
    assert_eq!(
        block,
        [
            0x1f01_5ed2_e897_deaf,
            0x58d9_78f3_2c5c_06c0,
            0x987d_f244_41c7_f143,
            0xff73_f0b6_c32e_07bd,
        ]
    );
    // And the unit-interval mapping of its first word (53-bit
    // mantissa convention).
    assert!((word_to_unit(block[0]) - 0.121_114_660_731_648_78).abs() < 1e-18);
}

#[test]
fn hinted_engine_reports_are_pinned() {
    // End-to-end fixtures through the lane path: any change to
    // counter addressing, draw layout, or the lane kernel's
    // accumulation moves these counts. Fixture version: stream v3,
    // unchanged in v4.
    let crash_free = Simulation::new(4_096, 7).run(&rule(), 1.0);
    assert_eq!(crash_free.wins, 1_724);
    let crashing = Simulation::new(4_096, 7).run_with_crashes(&rule(), 1.0, 0.25);
    assert_eq!(crashing.wins, 2_677);
}

#[test]
fn opaque_engine_reports_are_pinned() {
    // Stream v4 moved opaque rules onto the same lanes, so the hidden
    // rule reproduces the hinted fixtures. Fixture version: stream v4.
    let crash_free = Simulation::new(4_096, 7).run(&Opaque(rule()), 1.0);
    assert_eq!(crash_free.wins, 1_724);
    let crashing = Simulation::new(4_096, 7).run_with_crashes(&Opaque(rule()), 1.0, 0.25);
    assert_eq!(crashing.wins, 2_677);
}

#[test]
fn chaos_replay_is_bit_identical_on_the_lane_stream() {
    // Every batch's draws are a pure function of (seed, batch), so
    // re-executed work after injected faults cannot drift — on the
    // pooled hinted path and on the scoped-thread opaque path alike.
    let fault_free = Simulation::new(30_000, 5)
        .with_threads(3)
        .with_batch_size(2_000)
        .run_with_crashes(&rule(), 1.0, 0.25);
    let plan = || {
        ChaosPlan::new(77)
            .inject(1, FaultKind::WorkerPanic)
            .inject(4, FaultKind::PoisonedRefill)
            .with_worker_exits(1)
    };
    let chaotic = Simulation::new(30_000, 5)
        .with_threads(3)
        .with_batch_size(2_000)
        .with_chaos(plan())
        .run_with_crashes(&rule(), 1.0, 0.25);
    assert_eq!(chaotic, fault_free);
    let opaque = Simulation::new(30_000, 5)
        .with_threads(3)
        .with_batch_size(2_000)
        .with_chaos(plan())
        .run_with_crashes(&Opaque(rule()), 1.0, 0.25);
    assert_eq!(opaque, fault_free);
}

#[test]
fn resume_sweep_replays_stream_v4_bit_identically() {
    // The checkpoint records RNG_STREAM_VERSION = 4; resuming it
    // replays the same counter-addressed draws and reproduces the
    // uninterrupted sweep exactly.
    let dir = std::env::temp_dir().join("nocomm-stream-v4-resume-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("ckpt.json");
    std::fs::remove_file(&path).ok();
    let swept = sweep_threshold_checkpointed(3, 1.0, 5, 8_000, 13, &path).unwrap();
    assert_eq!(resume_sweep(&path).unwrap(), swept);
    assert_eq!(sweep_threshold(3, 1.0, 5, 8_000, 13).unwrap(), swept);
    std::fs::remove_dir_all(&dir).ok();
}
