//! Overload resilience: admission control, retry budgets, circuit
//! breakers, and brownout degradation tiers.
//!
//! Everything here is a *pure, deterministic mechanism* — the engine owns
//! one [`OverloadRuntime`] per run (only when overload is enabled) and
//! feeds it scalar signals (queue depth, in-flight count, failures); the
//! mechanisms answer with verdicts and record every state change for the
//! invariant auditor. The runtime owns its own RNG fork, drawn from only
//! for retry-backoff jitter, so overload-off runs remain byte-identical to
//! the seed outputs.
//!
//! Degradation ladder under pressure (DESIGN.md §15): admission gates shed
//! the requests that could never meet their deadline, the retry budget
//! caps global re-execution work, per-service circuit breakers stop
//! feeding known-failing services, and brownout tiers degrade *quality*
//! (suppress resource stretch, shed optional DAG branches, tighten
//! admission) before the system sheds whole feasible requests.
//!
//! A run chooses only whether the subsystem and its resilience ladder are
//! on, the flash-crowd surge and the admission queue cap
//! ([`OverloadConfig`]). The mechanisms' thresholds — admission slack,
//! retry budget, breaker and brownout tunings — are the constants below,
//! one value each (the table in DESIGN.md §15).

use mlp_model::{RequestTypeId, ServiceId};
use mlp_sim::{SimRng, SimTime};
use mlp_trace::RequestId;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};

/// Micro-token scale for the retry budget: integer units make the
/// conservation identity (`available + consumed == capacity + refilled`)
/// exact, with no float drift for the auditor to chase.
pub const TOKEN_UNIT: u64 = 1_000_000;

/// Admission: admit only if `ADMISSION_SLACK × ideal_critical_path` still
/// fits before the deadline (1.0 = exact feasibility).
pub const ADMISSION_SLACK: f64 = 1.0;
/// Retry budget: sustained token refill rate (retries per second,
/// cluster-wide).
pub const RETRY_RATE_PER_S: f64 = 50.0;
/// Retry budget: bucket capacity (burst size, in tokens).
pub const RETRY_BURST: f64 = 100.0;
/// Base backoff for budgeted retries, ms; jittered ±50% and doubled per
/// attempt.
const RETRY_BASE_BACKOFF_MS: f64 = 2.0;
/// Breaker: observations needed before a trip decision.
const BREAKER_MIN_SAMPLES: u32 = 20;
/// Breaker: recent failure-rate threshold that opens the circuit.
const BREAKER_FAILURE_RATE: f64 = 0.5;
/// Breaker: how long an open circuit waits before probing, ms.
const BREAKER_OPEN_MS: f64 = 1_000.0;
/// Breaker: successful probes required to close from half-open.
const BREAKER_HALF_OPEN_PROBES: u32 = 3;
/// Brownout: pressure thresholds entering tiers 1, 2 and 3.
const TIER_PRESSURE: [f64; 3] = [0.5, 0.75, 0.9];
/// Brownout: pressure must fall this far below a tier's entry threshold
/// before the tier is left (flap damping).
const TIER_HYSTERESIS: f64 = 0.1;

/// What a run sets of the overload subsystem: the gates, the flash-crowd
/// surge and the queue cap. `Copy` with scalar fields so it can ride
/// inside the engine's experiment config; the engine turns the surge
/// fields into a workload `RateSchedule`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OverloadConfig {
    /// Master gate. `false` ⇒ no surge, no mechanisms, no RNG fork: the
    /// run is byte-identical to one that predates this subsystem.
    pub enabled: bool,
    /// Resilience mechanisms (admission/budget/breakers/brownout) active.
    /// `enabled && !resilience` applies the traffic surge alone — the
    /// baseline-under-flash-crowd configuration of `fig_overload`.
    pub resilience: bool,
    /// Peak offered-load multiplier of the flash crowd (1.0 = no surge).
    pub surge_multiplier: f64,
    /// When the flash crowd starts, seconds into the run.
    pub surge_start_s: f64,
    /// How long the flash crowd lasts, seconds.
    pub surge_duration_s: f64,
    /// Linear ramp on each edge of the surge, seconds.
    pub surge_ramp_s: f64,
    /// Admission: shed new arrivals once this many requests wait unplanned.
    pub max_queue_depth: u32,
}

impl OverloadConfig {
    /// Subsystem fully off — the default for every pre-existing config.
    pub fn disabled() -> Self {
        OverloadConfig {
            enabled: false,
            resilience: false,
            surge_multiplier: 1.0,
            surge_start_s: 0.0,
            surge_duration_s: 0.0,
            surge_ramp_s: 0.0,
            max_queue_depth: 512,
        }
    }

    /// A flash crowd at `multiplier`× base load with the full resilience
    /// ladder engaged (the v-MLP arm of `fig_overload`).
    pub fn flash_crowd(multiplier: f64, start_s: f64, duration_s: f64) -> Self {
        OverloadConfig {
            enabled: true,
            resilience: true,
            surge_multiplier: multiplier,
            surge_start_s: start_s,
            surge_duration_s: duration_s,
            surge_ramp_s: (0.1 * duration_s).min(5.0),
            ..Self::disabled()
        }
    }

    /// The same flash crowd with every resilience mechanism off — what a
    /// baseline scheduler faces (the collapse arm of `fig_overload`).
    pub fn surge_only(multiplier: f64, start_s: f64, duration_s: f64) -> Self {
        OverloadConfig { resilience: false, ..Self::flash_crowd(multiplier, start_s, duration_s) }
    }

    /// Structural validation, reported through the engine's
    /// `Error::InvalidConfig`.
    pub fn validate(&self) -> Result<(), String> {
        if !self.enabled {
            return Ok(());
        }
        let finite_pos = |v: f64| v > 0.0 && v.is_finite();
        if !finite_pos(self.surge_multiplier) {
            return Err(format!(
                "overload.surge_multiplier must be positive, got {}",
                self.surge_multiplier
            ));
        }
        if self.surge_multiplier > 1.0 && !finite_pos(self.surge_duration_s) {
            return Err(format!(
                "overload.surge_duration_s must be positive when surging, got {}",
                self.surge_duration_s
            ));
        }
        if self.surge_start_s < 0.0 || self.surge_ramp_s < 0.0 {
            return Err("overload surge start/ramp must be non-negative".into());
        }
        if self.max_queue_depth == 0 {
            return Err("overload.max_queue_depth must be at least 1".into());
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Retry budget
// ---------------------------------------------------------------------------

/// Global retry token bucket in integer micro-tokens.
///
/// Refill is an exact function of elapsed sim time from the bucket's
/// origin (no per-call rounding drift), so two runs that ask at the same
/// sim times see the same tokens — and the auditor can check conservation:
/// `available + consumed == capacity + refilled` at every instant.
#[derive(Debug, Clone)]
pub struct RetryBudget {
    capacity_u: u64,
    available_u: u64,
    rate_u_per_s: u64,
    origin: SimTime,
    entitled_u: u64,
    consumed_u: u64,
    refilled_u: u64,
    denied: u64,
}

impl RetryBudget {
    /// A bucket holding `burst` tokens, refilling at `rate_per_s`.
    pub fn new(burst: f64, rate_per_s: f64) -> Self {
        let capacity_u = (burst.max(0.0) * TOKEN_UNIT as f64) as u64;
        RetryBudget {
            capacity_u,
            available_u: capacity_u,
            rate_u_per_s: (rate_per_s.max(0.0) * TOKEN_UNIT as f64) as u64,
            origin: SimTime::ZERO,
            entitled_u: 0,
            consumed_u: 0,
            refilled_u: 0,
            denied: 0,
        }
    }

    fn refill(&mut self, now: SimTime) {
        let elapsed_us = now.since(self.origin).as_micros();
        let entitled = (elapsed_us as u128 * self.rate_u_per_s as u128 / 1_000_000) as u64;
        let delta = entitled.saturating_sub(self.entitled_u);
        self.entitled_u = entitled;
        let room = self.capacity_u - self.available_u;
        let add = delta.min(room);
        self.available_u += add;
        self.refilled_u += add;
    }

    /// Takes one retry token if available. Deterministic in `now`.
    pub fn try_take(&mut self, now: SimTime) -> bool {
        self.refill(now);
        if self.available_u >= TOKEN_UNIT {
            self.available_u -= TOKEN_UNIT;
            self.consumed_u += TOKEN_UNIT;
            true
        } else {
            self.denied += 1;
            false
        }
    }

    /// Whole tokens currently available.
    pub fn tokens_available(&self) -> f64 {
        self.available_u as f64 / TOKEN_UNIT as f64
    }

    /// Retries granted so far.
    pub fn granted(&self) -> u64 {
        self.consumed_u / TOKEN_UNIT
    }

    /// Retries denied so far.
    pub fn denied(&self) -> u64 {
        self.denied
    }

    /// The hard bound on grants up to `horizon_s`: burst + refill.
    pub fn grant_bound(&self, horizon_s: f64) -> u64 {
        (self.capacity_u + (horizon_s.max(0.0) * self.rate_u_per_s as f64) as u64) / TOKEN_UNIT
    }

    /// Auditor check (c): micro-token conservation. The identity is exact
    /// by construction; a violation means double-spend or phantom refill.
    pub fn conservation_holds(&self) -> bool {
        self.available_u <= self.capacity_u
            && self.refilled_u <= self.entitled_u
            && self.available_u + self.consumed_u == self.capacity_u + self.refilled_u
    }
}

// ---------------------------------------------------------------------------
// Circuit breakers
// ---------------------------------------------------------------------------

/// Circuit state (the classic three-state machine).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum BreakerState {
    /// Traffic flows; outcomes are counted.
    Closed,
    /// Traffic to the service is rejected until the cool-down elapses.
    Open,
    /// A limited number of probe requests test recovery.
    HalfOpen,
}

/// One recorded state change, kept for the auditor's legality replay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakerTransition {
    /// The service whose circuit moved.
    pub service: ServiceId,
    /// When it moved.
    pub at: SimTime,
    /// State before.
    pub from: BreakerState,
    /// State after.
    pub to: BreakerState,
}

#[derive(Debug, Clone)]
struct Breaker {
    state: BreakerState,
    successes: u32,
    failures: u32,
    opened_at: SimTime,
    probes_left: u32,
    probe_successes: u32,
}

impl Breaker {
    fn new() -> Self {
        Breaker {
            state: BreakerState::Closed,
            successes: 0,
            failures: 0,
            opened_at: SimTime::ZERO,
            probes_left: 0,
            probe_successes: 0,
        }
    }
}

/// All per-service breakers plus the shared transition log.
#[derive(Debug, Clone)]
pub struct BreakerBank {
    min_samples: u32,
    failure_rate: f64,
    open_ms: f64,
    half_open_probes: u32,
    breakers: BTreeMap<ServiceId, Breaker>,
    transitions: Vec<BreakerTransition>,
    opens: u64,
}

impl BreakerBank {
    /// A bank that trips a circuit once `failure_rate` of at least
    /// `min_samples` recent outcomes failed, probes it after `open_ms`, and
    /// closes it after `half_open_probes` successful probes.
    pub fn new(min_samples: u32, failure_rate: f64, open_ms: f64, half_open_probes: u32) -> Self {
        BreakerBank {
            min_samples: min_samples.max(1),
            failure_rate,
            open_ms,
            half_open_probes: half_open_probes.max(1),
            breakers: BTreeMap::new(),
            transitions: Vec::new(),
            opens: 0,
        }
    }

    fn transition(&mut self, service: ServiceId, at: SimTime, to: BreakerState) {
        let b = self.breakers.get_mut(&service).expect("breaker exists");
        let from = b.state;
        b.state = to;
        if to == BreakerState::Open {
            b.opened_at = at;
            b.successes = 0;
            b.failures = 0;
            self.opens += 1;
        }
        if to == BreakerState::HalfOpen {
            b.probes_left = self.half_open_probes;
            b.probe_successes = 0;
        }
        if to == BreakerState::Closed {
            b.successes = 0;
            b.failures = 0;
        }
        self.transitions.push(BreakerTransition { service, at, from, to });
    }

    fn entry(&mut self, service: ServiceId) -> &mut Breaker {
        self.breakers.entry(service).or_insert_with(Breaker::new)
    }

    /// Records a failed span (or an overload shed attributed to the
    /// service) and trips the circuit when the recent failure rate
    /// crosses the threshold.
    pub fn record_failure(&mut self, service: ServiceId, now: SimTime) {
        let min_samples = self.min_samples;
        let threshold = self.failure_rate;
        let b = self.entry(service);
        match b.state {
            BreakerState::Open => {}
            BreakerState::HalfOpen => self.transition(service, now, BreakerState::Open),
            BreakerState::Closed => {
                b.failures += 1;
                Self::decay(b, min_samples);
                let total = b.successes + b.failures;
                if total >= min_samples && f64::from(b.failures) >= threshold * f64::from(total) {
                    self.transition(service, now, BreakerState::Open);
                }
            }
        }
    }

    /// Records a successful span.
    pub fn record_success(&mut self, service: ServiceId, now: SimTime) {
        let min_samples = self.min_samples;
        let probes = self.half_open_probes;
        let b = self.entry(service);
        match b.state {
            BreakerState::Open => {}
            BreakerState::HalfOpen => {
                b.probe_successes += 1;
                if b.probe_successes >= probes {
                    self.transition(service, now, BreakerState::Closed);
                }
            }
            BreakerState::Closed => {
                b.successes += 1;
                Self::decay(b, min_samples);
            }
        }
    }

    /// Halves both counters once the window grows stale, so the trip
    /// decision tracks *recent* failure rate without a timestamp ring.
    fn decay(b: &mut Breaker, min_samples: u32) {
        if b.successes + b.failures > 4 * min_samples {
            b.successes /= 2;
            b.failures /= 2;
        }
    }

    /// Advances time-based transitions (Open → HalfOpen after the
    /// cool-down). Called once per telemetry tick.
    pub fn tick(&mut self, now: SimTime) -> Vec<BreakerTransition> {
        let before = self.transitions.len();
        let due: Vec<ServiceId> = self
            .breakers
            .iter()
            .filter(|(_, b)| {
                b.state == BreakerState::Open
                    && now.since(b.opened_at).as_millis_f64() >= self.open_ms
            })
            .map(|(&s, _)| s)
            .collect();
        for s in due {
            self.transition(s, now, BreakerState::HalfOpen);
        }
        self.transitions[before..].to_vec()
    }

    /// Gate for a request whose DAG spans `services`: rejected if any
    /// circuit is open (or half-open with no probe slots left); otherwise
    /// admitted, consuming one probe slot per half-open service touched.
    pub fn gate(&mut self, services: impl Iterator<Item = ServiceId>) -> Result<(), ServiceId> {
        let mut probed: Vec<ServiceId> = Vec::new();
        for s in services {
            match self.breakers.get(&s) {
                None => {}
                Some(b) => match b.state {
                    BreakerState::Closed => {}
                    BreakerState::Open => return Err(s),
                    BreakerState::HalfOpen => {
                        if b.probes_left == 0 {
                            return Err(s);
                        }
                        probed.push(s);
                    }
                },
            }
        }
        for s in probed {
            self.entry(s).probes_left -= 1;
        }
        Ok(())
    }

    /// Current state of a service's circuit (Closed if never touched).
    pub fn state(&self, service: ServiceId) -> BreakerState {
        self.breakers.get(&service).map_or(BreakerState::Closed, |b| b.state)
    }

    /// Count of circuits currently not Closed.
    pub fn open_count(&self) -> usize {
        self.breakers.values().filter(|b| b.state != BreakerState::Closed).count()
    }

    /// Total Open trips so far.
    pub fn opens(&self) -> u64 {
        self.opens
    }

    /// The full transition log, time-ordered per service.
    pub fn transitions(&self) -> &[BreakerTransition] {
        &self.transitions
    }

    /// Auditor check (b): replay the transition log. Every move must be
    /// one of Closed→Open, Open→HalfOpen, HalfOpen→Open, HalfOpen→Closed;
    /// per service the chain must start at Closed, stay continuous, and be
    /// time-ordered.
    pub fn check_legal(&self) -> Result<(), String> {
        let mut last: BTreeMap<ServiceId, (SimTime, BreakerState)> = BTreeMap::new();
        for t in &self.transitions {
            let legal = matches!(
                (t.from, t.to),
                (BreakerState::Closed, BreakerState::Open)
                    | (BreakerState::Open, BreakerState::HalfOpen)
                    | (BreakerState::HalfOpen, BreakerState::Open)
                    | (BreakerState::HalfOpen, BreakerState::Closed)
            );
            if !legal {
                return Err(format!(
                    "illegal breaker transition {:?} -> {:?} for service {:?}",
                    t.from, t.to, t.service
                ));
            }
            match last.get(&t.service) {
                None => {
                    if t.from != BreakerState::Closed {
                        return Err(format!(
                            "service {:?} first transition starts at {:?}, not Closed",
                            t.service, t.from
                        ));
                    }
                }
                Some(&(at, state)) => {
                    if t.from != state {
                        return Err(format!(
                            "service {:?} transition chain broken: {:?} -> {:?} after {:?}",
                            t.service, t.from, t.to, state
                        ));
                    }
                    if t.at < at {
                        return Err(format!(
                            "service {:?} transitions out of time order",
                            t.service
                        ));
                    }
                }
            }
            last.insert(t.service, (t.at, t.to));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Brownout tiers
// ---------------------------------------------------------------------------

/// Graceful-degradation ladder driven by the cluster pressure signal.
///
/// * **Tier 0** — normal operation.
/// * **Tier 1** — suppress resource-stretch healing (stop spending idle
///   headroom on latency polish).
/// * **Tier 2** — additionally shed optional DAG branches (side leaves) of
///   admitted requests.
/// * **Tier 3** — additionally halve the admission queue cap.
///
/// Tiers rise as soon as pressure crosses a threshold and fall only after
/// pressure drops `hysteresis` below it, so the ladder cannot flap on a
/// noisy signal.
#[derive(Debug, Clone)]
pub struct BrownoutController {
    enter: [f64; 3],
    hysteresis: f64,
    tier: u8,
    peak_pressure: f64,
    transitions: u64,
}

impl BrownoutController {
    /// A controller entering tiers 1..3 at the increasing pressures
    /// `enter` and leaving each `hysteresis` below its entry.
    pub fn new(enter: [f64; 3], hysteresis: f64) -> Self {
        BrownoutController { enter, hysteresis, tier: 0, peak_pressure: 0.0, transitions: 0 }
    }

    /// Feeds one pressure sample; returns `Some((from, to))` on a tier
    /// change.
    pub fn on_tick(&mut self, pressure: f64) -> Option<(u8, u8)> {
        self.peak_pressure = self.peak_pressure.max(pressure);
        let mut target = 0u8;
        for (k, &th) in self.enter.iter().enumerate() {
            if pressure >= th {
                target = k as u8 + 1;
            }
        }
        let from = self.tier;
        if target > self.tier {
            self.tier = target;
        } else {
            while self.tier > target
                && pressure < self.enter[self.tier as usize - 1] - self.hysteresis
            {
                self.tier -= 1;
            }
        }
        if self.tier != from {
            self.transitions += 1;
            Some((from, self.tier))
        } else {
            None
        }
    }

    /// The tier currently in force.
    pub fn tier(&self) -> u8 {
        self.tier
    }

    /// Highest pressure sample seen.
    pub fn peak_pressure(&self) -> f64 {
        self.peak_pressure
    }

    /// Number of tier changes so far.
    pub fn transitions(&self) -> u64 {
        self.transitions
    }
}

/// The deterministic cluster-pressure signal in `[0, 1]`: a blend of
/// scheduler queue backlog (the leading indicator) and in-flight load
/// relative to nominal capacity (the lagging one).
pub fn pressure_signal(
    queue_depth: usize,
    max_queue_depth: u32,
    in_flight: usize,
    nominal_in_flight: usize,
) -> f64 {
    let q = queue_depth as f64 / f64::from(max_queue_depth.max(1));
    let l = in_flight as f64 / nominal_in_flight.max(1) as f64;
    (0.7 * q.min(1.0) + 0.3 * l.min(1.0)).clamp(0.0, 1.0)
}

// ---------------------------------------------------------------------------
// Admission
// ---------------------------------------------------------------------------

/// What the admission gate decided for one arrival.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AdmissionVerdict {
    /// Admitted; `slack_ms` is the deadline headroom beyond the ideal
    /// critical path.
    Admit {
        /// Deadline headroom beyond `slack × ideal_cp`, ms.
        slack_ms: f64,
    },
    /// Shed: the waiting queue is at (tier-adjusted) capacity.
    RejectQueueFull {
        /// Queue depth observed at the gate.
        depth: usize,
    },
    /// Shed: even the ideal critical path cannot meet the deadline.
    RejectInfeasible {
        /// Missing headroom, ms (positive = how late it would be).
        late_ms: f64,
    },
    /// Shed: a service in the request's DAG has an open circuit.
    RejectBreaker {
        /// The open service.
        service: ServiceId,
    },
}

/// One admitted request, logged so the auditor can re-derive feasibility
/// from the catalog and confirm `admitted ⇒ feasible at admission time`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionRecord {
    /// The admitted request.
    pub request: RequestId,
    /// Its type (lets the auditor recompute the ideal critical path).
    pub rtype: RequestTypeId,
    /// Gate time.
    pub at: SimTime,
    /// Ideal critical-path estimate used by the gate, ms.
    pub ideal_cp_ms: f64,
    /// Absolute deadline.
    pub deadline: SimTime,
}

// ---------------------------------------------------------------------------
// Runtime
// ---------------------------------------------------------------------------

/// Cap on the admission log the auditor replays (oldest entries drop
/// first; the drop count is kept so the auditor knows its view is a
/// suffix).
const ADMISSION_LOG_CAPACITY: usize = 65_536;

/// Per-run state of the overload subsystem. Built by the engine only when
/// `OverloadConfig::enabled`; owns the RNG fork for backoff jitter.
#[derive(Debug)]
pub struct OverloadRuntime {
    /// The config in force.
    pub cfg: OverloadConfig,
    /// Global retry token bucket.
    pub budget: RetryBudget,
    /// Per-service circuit breakers.
    pub breakers: BreakerBank,
    /// Degradation-tier controller.
    pub brownout: BrownoutController,
    rng: SimRng,
    /// Requests admitted through the gate.
    pub admitted: u64,
    /// Sheds by cause: queue cap, deadline infeasibility, open breaker.
    pub shed_queue: u64,
    /// Sheds because the ideal critical path missed the deadline.
    pub shed_infeasible: u64,
    /// Sheds because a DAG service's circuit was open.
    pub shed_breaker: u64,
    /// Optional DAG branches skipped under brownout tier ≥ 2.
    pub branch_sheds: u64,
    /// Admission log for auditor check (a): the newest
    /// `ADMISSION_LOG_CAPACITY` admits, oldest first.
    pub admission_log: VecDeque<AdmissionRecord>,
    /// Admission records dropped once the log hit its cap.
    pub admission_log_dropped: u64,
}

impl OverloadRuntime {
    /// Builds the runtime. `rng` must be a dedicated fork (the engine uses
    /// fork 3 of the root seed) so jitter draws never perturb the arrival
    /// or execution streams.
    pub fn new(cfg: OverloadConfig, rng: SimRng) -> Self {
        OverloadRuntime {
            cfg,
            budget: RetryBudget::new(RETRY_BURST, RETRY_RATE_PER_S),
            breakers: BreakerBank::new(
                BREAKER_MIN_SAMPLES,
                BREAKER_FAILURE_RATE,
                BREAKER_OPEN_MS,
                BREAKER_HALF_OPEN_PROBES,
            ),
            brownout: BrownoutController::new(TIER_PRESSURE, TIER_HYSTERESIS),
            rng,
            admitted: 0,
            shed_queue: 0,
            shed_infeasible: 0,
            shed_breaker: 0,
            branch_sheds: 0,
            admission_log: VecDeque::new(),
            admission_log_dropped: 0,
        }
    }

    /// Queue cap currently in force (tier 3 halves it).
    pub fn effective_queue_cap(&self) -> u32 {
        if self.brownout.tier() >= 3 {
            (self.cfg.max_queue_depth / 2).max(1)
        } else {
            self.cfg.max_queue_depth
        }
    }

    /// The enqueue-time admission gate. `services` iterates the request
    /// DAG's services for the breaker check; `ideal_cp_ms` is the
    /// zero-contention critical path of the request type.
    #[allow(clippy::too_many_arguments)] // one verdict needs the whole arrival picture
    pub fn admission(
        &mut self,
        now: SimTime,
        request: RequestId,
        rtype: RequestTypeId,
        queue_depth: usize,
        ideal_cp_ms: f64,
        deadline: SimTime,
        services: impl Iterator<Item = ServiceId>,
    ) -> AdmissionVerdict {
        if !self.cfg.resilience {
            self.admitted += 1;
            return AdmissionVerdict::Admit { slack_ms: f64::INFINITY };
        }
        if queue_depth >= self.effective_queue_cap() as usize {
            self.shed_queue += 1;
            return AdmissionVerdict::RejectQueueFull { depth: queue_depth };
        }
        let needed_ms = ADMISSION_SLACK * ideal_cp_ms;
        let remaining_ms = deadline.since(now.min(deadline)).as_millis_f64();
        if now >= deadline || needed_ms > remaining_ms {
            self.shed_infeasible += 1;
            return AdmissionVerdict::RejectInfeasible { late_ms: needed_ms - remaining_ms };
        }
        if let Err(service) = self.breakers.gate(services) {
            self.shed_breaker += 1;
            return AdmissionVerdict::RejectBreaker { service };
        }
        self.admitted += 1;
        if self.admission_log.len() >= ADMISSION_LOG_CAPACITY {
            self.admission_log.pop_front();
            self.admission_log_dropped += 1;
        }
        self.admission_log.push_back(AdmissionRecord {
            request,
            rtype,
            at: now,
            ideal_cp_ms,
            deadline,
        });
        AdmissionVerdict::Admit { slack_ms: remaining_ms - needed_ms }
    }

    /// Asks the global budget for one retry token. With resilience off the
    /// budget is bypassed untouched (legacy unbounded behavior).
    pub fn try_retry_token(&mut self, now: SimTime) -> bool {
        if !self.cfg.resilience {
            return true;
        }
        self.budget.try_take(now)
    }

    /// Seeded-jitter exponential backoff for a budgeted retry: base × 2^attempt,
    /// scaled by a uniform factor in [0.5, 1.5). The only RNG consumer in
    /// the subsystem.
    pub fn retry_backoff_ms(&mut self, attempt: u32) -> f64 {
        let base = RETRY_BASE_BACKOFF_MS * f64::from(1u32 << attempt.min(6));
        let jitter: f64 = self.rng.rng().gen_range(0.5..1.5);
        base * jitter
    }

    /// Per-tick update: advances breaker cool-downs and the brownout tier.
    /// Returns (tier change, new breaker transitions) for audit records.
    pub fn on_tick(
        &mut self,
        now: SimTime,
        pressure: f64,
    ) -> (Option<(u8, u8)>, Vec<BreakerTransition>) {
        if !self.cfg.resilience {
            return (None, Vec::new());
        }
        let breaker_moves = self.breakers.tick(now);
        let tier_move = self.brownout.on_tick(pressure);
        (tier_move, breaker_moves)
    }

    /// Whether tier ≥ 1 currently suppresses stretch healing.
    pub fn suppress_stretch(&self) -> bool {
        self.cfg.resilience && self.brownout.tier() >= 1
    }

    /// Whether tier ≥ 2 currently sheds optional DAG branches.
    pub fn shed_optional_branches(&self) -> bool {
        self.cfg.resilience && self.brownout.tier() >= 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlp_sim::SimDuration;

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    #[test]
    fn config_presets_validate() {
        assert!(OverloadConfig::disabled().validate().is_ok());
        assert!(OverloadConfig::flash_crowd(3.0, 10.0, 20.0).validate().is_ok());
        assert!(OverloadConfig::surge_only(5.0, 10.0, 20.0).validate().is_ok());
        let mut bad = OverloadConfig::flash_crowd(3.0, 10.0, 20.0);
        bad.surge_multiplier = -1.0;
        assert!(bad.validate().is_err());
        bad = OverloadConfig::flash_crowd(3.0, 10.0, 20.0);
        bad.surge_ramp_s = -1.0;
        assert!(bad.validate().is_err());
        bad = OverloadConfig::flash_crowd(3.0, 10.0, 20.0);
        bad.max_queue_depth = 0;
        assert!(bad.validate().is_err());
        // A disabled config is valid whatever junk it carries.
        bad.enabled = false;
        assert!(bad.validate().is_ok());
    }

    #[test]
    fn retry_budget_enforces_burst_and_refill() {
        let mut b = RetryBudget::new(3.0, 2.0);
        assert!(b.try_take(ms(0)));
        assert!(b.try_take(ms(0)));
        assert!(b.try_take(ms(0)));
        assert!(!b.try_take(ms(0)), "burst exhausted");
        assert_eq!(b.denied(), 1);
        // 1 second refills 2 tokens.
        assert!(b.try_take(ms(1000)));
        assert!(b.try_take(ms(1000)));
        assert!(!b.try_take(ms(1000)));
        assert_eq!(b.granted(), 5);
        assert!(b.conservation_holds());
    }

    #[test]
    fn retry_budget_conserves_micro_tokens_exactly() {
        let mut b = RetryBudget::new(10.0, 3.7);
        let mut t = 0u64;
        for step in 1..500u64 {
            t += step % 37;
            b.try_take(ms(t));
            assert!(b.conservation_holds(), "conservation broken at t={t}");
        }
        assert!(b.granted() > 0);
        assert!(b.granted() <= b.grant_bound(t as f64 / 1000.0));
    }

    #[test]
    fn retry_budget_is_bit_reproducible() {
        let run = || {
            let mut b = RetryBudget::new(5.0, 1.3);
            (0..200u64).map(|i| b.try_take(ms(i * 117))).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    fn paper_bank() -> BreakerBank {
        BreakerBank::new(
            BREAKER_MIN_SAMPLES,
            BREAKER_FAILURE_RATE,
            BREAKER_OPEN_MS,
            BREAKER_HALF_OPEN_PROBES,
        )
    }

    fn trip(bank: &mut BreakerBank, svc: ServiceId, now: SimTime) {
        for _ in 0..40 {
            bank.record_failure(svc, now);
        }
        assert_eq!(bank.state(svc), BreakerState::Open);
    }

    #[test]
    fn breaker_full_cycle_is_legal() {
        let mut bank = paper_bank();
        let svc = ServiceId(4);
        // Mostly-successful traffic keeps the circuit closed.
        for _ in 0..100 {
            bank.record_success(svc, ms(1));
        }
        bank.record_failure(svc, ms(2));
        assert_eq!(bank.state(svc), BreakerState::Closed);
        // A failure burst trips it.
        trip(&mut bank, svc, ms(10));
        assert!(bank.gate([svc].into_iter()).is_err(), "open circuit rejects");
        // Cool-down: the tick moves it to HalfOpen.
        assert!(bank.tick(ms(500)).is_empty(), "not yet");
        let moves = bank.tick(ms(1200));
        assert_eq!(moves.len(), 1);
        assert_eq!(bank.state(svc), BreakerState::HalfOpen);
        // Probes flow (limited), successes close it.
        for _ in 0..BREAKER_HALF_OPEN_PROBES {
            assert!(bank.gate([svc].into_iter()).is_ok());
            bank.record_success(svc, ms(1300));
        }
        assert_eq!(bank.state(svc), BreakerState::Closed);
        assert_eq!(bank.opens(), 1);
        bank.check_legal().expect("cycle must replay as legal");
    }

    #[test]
    fn half_open_failure_reopens() {
        let mut bank = paper_bank();
        let svc = ServiceId(9);
        trip(&mut bank, svc, ms(10));
        bank.tick(ms(2000));
        assert_eq!(bank.state(svc), BreakerState::HalfOpen);
        bank.record_failure(svc, ms(2001));
        assert_eq!(bank.state(svc), BreakerState::Open);
        assert_eq!(bank.opens(), 2);
        // Probe slots exhaust: with all probes consumed and the circuit
        // still HalfOpen, further traffic is rejected.
        bank.tick(ms(4000));
        for _ in 0..BREAKER_HALF_OPEN_PROBES {
            assert!(bank.gate([svc].into_iter()).is_ok());
        }
        assert!(bank.gate([svc].into_iter()).is_err());
        bank.check_legal().expect("legal");
    }

    #[test]
    fn brownout_tiers_rise_fast_and_fall_with_hysteresis() {
        let mut b = BrownoutController::new(TIER_PRESSURE, TIER_HYSTERESIS);
        assert_eq!(b.on_tick(0.3), None);
        assert_eq!(b.on_tick(0.6), Some((0, 1)));
        assert_eq!(b.on_tick(0.95), Some((1, 3)), "tiers can jump");
        // Pressure just below the threshold: hysteresis holds the tier.
        assert_eq!(b.on_tick(0.85), None);
        assert_eq!(b.tier(), 3);
        // Well below: steps down as far as hysteresis allows (0.62 holds
        // tier 1 but is under the 0.65 tier-2 hold threshold).
        assert_eq!(b.on_tick(0.62), Some((3, 1)));
        assert_eq!(b.on_tick(0.1), Some((1, 0)));
        assert_eq!(b.transitions(), 4);
        assert!((b.peak_pressure() - 0.95).abs() < 1e-12);
    }

    #[test]
    fn pressure_signal_is_bounded_and_monotone() {
        assert_eq!(pressure_signal(0, 100, 0, 50), 0.0);
        assert_eq!(pressure_signal(1000, 100, 1000, 50), 1.0);
        let low = pressure_signal(10, 100, 5, 50);
        let high = pressure_signal(60, 100, 30, 50);
        assert!(low < high);
        assert!((0.0..=1.0).contains(&low) && (0.0..=1.0).contains(&high));
    }

    fn gate(
        rt: &mut OverloadRuntime,
        id: u64,
        now: SimTime,
        queue: usize,
        cp_ms: f64,
        deadline: SimTime,
    ) -> AdmissionVerdict {
        rt.admission(
            now,
            RequestId(id),
            RequestTypeId(0),
            queue,
            cp_ms,
            deadline,
            [ServiceId(1)].into_iter(),
        )
    }

    #[test]
    fn admission_gate_sheds_by_cause() {
        let cfg =
            OverloadConfig { max_queue_depth: 4, ..OverloadConfig::flash_crowd(3.0, 0.0, 10.0) };
        let mut rt = OverloadRuntime::new(cfg, SimRng::new(1).fork(3));
        // Feasible and under cap: admitted.
        let v = gate(&mut rt, 1, ms(0), 0, 20.0, ms(100));
        assert!(matches!(v, AdmissionVerdict::Admit { slack_ms } if slack_ms > 0.0));
        // Queue full.
        let v = gate(&mut rt, 2, ms(0), 4, 20.0, ms(100));
        assert_eq!(v, AdmissionVerdict::RejectQueueFull { depth: 4 });
        // Deadline-infeasible.
        let v = gate(&mut rt, 3, ms(90), 0, 20.0, ms(100));
        assert!(matches!(v, AdmissionVerdict::RejectInfeasible { late_ms } if late_ms > 0.0));
        // Open breaker on a DAG service.
        for _ in 0..40 {
            rt.breakers.record_failure(ServiceId(1), ms(50));
        }
        let v = gate(&mut rt, 4, ms(50), 0, 20.0, ms(200));
        assert_eq!(v, AdmissionVerdict::RejectBreaker { service: ServiceId(1) });
        assert_eq!(rt.admitted, 1);
        assert_eq!(rt.shed_queue + rt.shed_infeasible + rt.shed_breaker, 3);
        assert_eq!(rt.admission_log.len(), 1, "only admits are logged");
    }

    #[test]
    fn tier3_halves_the_queue_cap() {
        let cfg =
            OverloadConfig { max_queue_depth: 10, ..OverloadConfig::flash_crowd(3.0, 0.0, 10.0) };
        let mut rt = OverloadRuntime::new(cfg, SimRng::new(1).fork(3));
        assert_eq!(rt.effective_queue_cap(), 10);
        rt.brownout.on_tick(0.95);
        assert_eq!(rt.effective_queue_cap(), 5);
        let v = gate(&mut rt, 1, ms(0), 6, 5.0, ms(1000));
        assert!(matches!(v, AdmissionVerdict::RejectQueueFull { .. }));
    }

    #[test]
    fn resilience_off_bypasses_every_mechanism() {
        let cfg = OverloadConfig::surge_only(3.0, 0.0, 10.0);
        let mut rt = OverloadRuntime::new(cfg, SimRng::new(1).fork(3));
        // Hopeless deadline, saturated queue: still admitted.
        let v = gate(&mut rt, 1, ms(500), 10_000, 1e9, ms(0));
        assert!(matches!(v, AdmissionVerdict::Admit { .. }));
        // Budget bypassed untouched.
        for i in 0..1000 {
            assert!(rt.try_retry_token(ms(i)));
        }
        assert_eq!(rt.budget.granted(), 0);
        assert!(!rt.suppress_stretch());
        assert!(!rt.shed_optional_branches());
        let (tier, moves) = rt.on_tick(ms(1), 1.0);
        assert!(tier.is_none() && moves.is_empty());
    }

    #[test]
    fn backoff_is_jittered_exponential_and_seeded() {
        let cfg = OverloadConfig::flash_crowd(3.0, 0.0, 10.0);
        let mut a = OverloadRuntime::new(cfg, SimRng::new(7).fork(3));
        let mut b = OverloadRuntime::new(cfg, SimRng::new(7).fork(3));
        let xs: Vec<f64> = (0..8).map(|k| a.retry_backoff_ms(k)).collect();
        let ys: Vec<f64> = (0..8).map(|k| b.retry_backoff_ms(k)).collect();
        assert_eq!(xs, ys, "same fork ⇒ same jitter sequence");
        for (k, &x) in xs.iter().enumerate() {
            let base = RETRY_BASE_BACKOFF_MS * f64::from(1u32 << (k as u32).min(6));
            assert!(x >= 0.5 * base && x < 1.5 * base, "attempt {k}: {x} out of band");
        }
        let _ = SimDuration::from_millis_f64(xs[0]); // backoffs feed SimDuration
    }

    #[test]
    fn admission_log_is_bounded() {
        let cfg = OverloadConfig {
            max_queue_depth: u32::MAX,
            ..OverloadConfig::flash_crowd(2.0, 0.0, 5.0)
        };
        let mut rt = OverloadRuntime::new(cfg, SimRng::new(1).fork(3));
        for i in 0..(ADMISSION_LOG_CAPACITY as u64 + 10) {
            let v = gate(&mut rt, i, ms(0), 0, 1.0, ms(10_000));
            assert!(matches!(v, AdmissionVerdict::Admit { .. }));
        }
        assert_eq!(rt.admission_log.len(), ADMISSION_LOG_CAPACITY);
        assert_eq!(rt.admission_log_dropped, 10);
        // The oldest records went first: what remains is the newest
        // `ADMISSION_LOG_CAPACITY` admits, in admission order.
        let ids: Vec<u64> = rt.admission_log.iter().map(|r| r.request.0).collect();
        let newest: Vec<u64> = (10..ADMISSION_LOG_CAPACITY as u64 + 10).collect();
        assert_eq!(ids, newest);
    }
}
