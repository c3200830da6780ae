//! Property tests for the overload-resilience primitives: arbitrary
//! operation sequences replayed twice must leave bit-identical observable
//! state, and the auditor invariants (token conservation, legal breaker
//! walks) must hold after every single step — not just at the end of a
//! run. These are the unit-level halves of the engine's byte-identity
//! guarantees in `tests/determinism.rs`.

use mlp_model::ServiceId;
use mlp_sched::{BreakerBank, BreakerState, BrownoutController, RetryBudget};
use mlp_sim::SimTime;
use proptest::prelude::*;

/// A breaker bank twitchy enough that random sequences actually walk the
/// whole state machine (trip, cool down, probe, recover): 4 samples, a
/// 50% failure rate, 5 ms open, 2 probes.
fn twitchy_bank() -> BreakerBank {
    BreakerBank::new(4, 0.5, 5.0, 2)
}

/// One scripted breaker-bank operation. Times are deltas so the replayed
/// clock is always monotone, as it is in the simulator.
#[derive(Debug, Clone, Copy)]
enum BankOp {
    Failure(u32, u64),
    Success(u32, u64),
    Tick(u64),
    Gate(u32),
}

fn bank_op() -> impl Strategy<Value = BankOp> {
    prop_oneof![
        (0u32..3, 0u64..20_000).prop_map(|(s, dt)| BankOp::Failure(s, dt)),
        (0u32..3, 0u64..20_000).prop_map(|(s, dt)| BankOp::Success(s, dt)),
        (0u64..20_000).prop_map(BankOp::Tick),
        (0u32..3).prop_map(BankOp::Gate),
    ]
}

/// Replays one op sequence and returns every observable output: gate
/// verdicts, tick-reported transitions, the full transition log, final
/// per-service states, and the trip counter. Panics (failing the case)
/// if any step leaves the bank in an illegal state.
#[allow(clippy::type_complexity)]
fn run_bank(
    ops: &[BankOp],
) -> (
    Vec<Result<(), u32>>,
    Vec<Vec<(u32, u64)>>,
    Vec<(u32, u64, BreakerState, BreakerState)>,
    Vec<BreakerState>,
    u64,
) {
    let mut bank = twitchy_bank();
    let mut now = 0u64;
    let mut gates = Vec::new();
    let mut ticked = Vec::new();
    for &op in ops {
        match op {
            BankOp::Failure(s, dt) => {
                now += dt;
                bank.record_failure(ServiceId(s), SimTime(now));
            }
            BankOp::Success(s, dt) => {
                now += dt;
                bank.record_success(ServiceId(s), SimTime(now));
            }
            BankOp::Tick(dt) => {
                now += dt;
                let moved = bank.tick(SimTime(now));
                ticked.push(moved.iter().map(|t| (t.service.0, t.at.0)).collect::<Vec<_>>());
            }
            BankOp::Gate(s) => {
                gates.push(bank.gate([ServiceId(s)].into_iter()).map_err(|svc| svc.0));
            }
        }
        // The legality invariant is a step invariant, not an end-of-run
        // one: every prefix of a real run is itself a real run.
        if let Err(why) = bank.check_legal() {
            panic!("illegal breaker walk: {why}");
        }
    }
    let log =
        bank.transitions().iter().map(|t| (t.service.0, t.at.0, t.from, t.to)).collect::<Vec<_>>();
    let states = (0..3).map(|s| bank.state(ServiceId(s))).collect::<Vec<_>>();
    (gates, ticked, log, states, bank.opens())
}

proptest! {
    /// The retry budget is exactly conserving after every operation and
    /// replays bit-identically: two walks over the same (dt, take)
    /// schedule agree on every grant/deny verdict and on the final
    /// micro-token ledger down to the f64 bit pattern.
    #[test]
    fn retry_budget_conserves_and_replays(
        burst in 0.0f64..50.0,
        rate in 0.0f64..100.0,
        steps in proptest::collection::vec((0u64..5_000_000, any::<bool>()), 1..200),
    ) {
        let run = |steps: &[(u64, bool)]| {
            let mut b = RetryBudget::new(burst, rate);
            let mut now = 0u64;
            let mut verdicts = Vec::new();
            for &(dt, take) in steps {
                now += dt;
                if take {
                    verdicts.push(b.try_take(SimTime(now)));
                }
                prop_assert!(b.conservation_holds(), "conservation broken at t={now}");
            }
            (verdicts, b.tokens_available().to_bits(), b.granted(), b.denied())
        };
        let a = run(&steps);
        let b = run(&steps);
        prop_assert_eq!(a, b);
    }

    /// Grants can never exceed the published bound for the elapsed
    /// horizon — the bound the benchmark gate holds runs against.
    #[test]
    fn retry_budget_grants_stay_under_bound(
        burst in 0.0f64..20.0,
        rate in 0.0f64..50.0,
        steps in proptest::collection::vec(0u64..2_000_000, 1..200),
    ) {
        let mut b = RetryBudget::new(burst, rate);
        let mut now = 0u64;
        for &dt in &steps {
            now += dt;
            b.try_take(SimTime(now));
        }
        let horizon_s = now as f64 / 1e6;
        // +1 absorbs the fractional token the f64 horizon may round up.
        prop_assert!(
            b.granted() <= b.grant_bound(horizon_s) + 1,
            "granted {} over bound {}",
            b.granted(),
            b.grant_bound(horizon_s)
        );
    }

    /// Breaker banks walk only legal edges under arbitrary interleavings
    /// of outcomes, cooldown ticks, and admission gates — and the entire
    /// observable history replays bit-identically.
    #[test]
    fn breaker_bank_is_legal_and_replayable(
        ops in proptest::collection::vec(bank_op(), 1..300),
    ) {
        let a = run_bank(&ops);
        let b = run_bank(&ops);
        prop_assert_eq!(a, b);
    }

    /// The brownout controller replays bit-identically, never leaves the
    /// tier range 0..=3, reports only real moves (`from != to`), and its
    /// peak-pressure gauge is the running max of the inputs.
    #[test]
    fn brownout_controller_replays_and_stays_in_range(
        pressures in proptest::collection::vec(0.0f64..1.5, 1..300),
    ) {
        let run = |ps: &[f64]| {
            let mut ctl = BrownoutController::new([0.5, 0.75, 0.9], 0.1);
            let mut moves = Vec::new();
            for &p in ps {
                if let Some((from, to)) = ctl.on_tick(p) {
                    prop_assert!(from != to, "self-loop reported as a move");
                    moves.push((from, to));
                }
                prop_assert!(ctl.tier() <= 3, "tier {} out of range", ctl.tier());
            }
            (moves, ctl.tier(), ctl.transitions(), ctl.peak_pressure().to_bits())
        };
        let a = run(&pressures);
        let b = run(&pressures);
        prop_assert_eq!(a.clone(), b);
        let peak = pressures.iter().cloned().fold(0.0f64, f64::max);
        prop_assert_eq!(a.3, peak.to_bits());
        prop_assert_eq!(a.2, a.0.len() as u64);
    }
}
