#![warn(missing_docs)]

//! Deterministic fault injection for the simulated object store.
//!
//! The paper's durability claims ("None ... metadata will be lost when
//! components die; local survives recoverable node failures; global
//! survives everything") are only testable if failures are *programmable*:
//! the chaos suite must drive the same failure schedule every run. This
//! crate provides that schedule:
//!
//! * [`FaultConfig`] — the declarative plan: a seed, per-million-op
//!   probabilities for transient errors / torn writes / bit flips, OSD
//!   outage windows in virtual time, and slow-OSD windows that degrade the
//!   cost model.
//! * [`FaultPlan`] — the seeded decision engine. Every decision derives
//!   from `(seed, op-index)` via SplitMix64, never from wall-clock state,
//!   so the same seed + config yields byte-identical outcomes.
//! * [`FaultyStore`] — an [`ObjectStore`] wrapper that consults the plan
//!   on every operation and injects `EAGAIN`-style [`RadosError::Transient`]
//!   errors, torn (partial) appends to journal stripe objects, and silent
//!   CRC-detectable bit flips in journal stripe writes.
//! * [`RetryPolicy`] — bounded retries with exponential backoff *in
//!   virtual time*, used by `journal::store_io` and `mds::persist` to
//!   absorb transient faults ([`with_retry`] where nobody bills the backoff).
//!
//! Fault taxonomy and what recovers from each:
//!
//! | fault              | injected as                                    | recovered by            |
//! |--------------------|------------------------------------------------|-------------------------|
//! | transient `EAGAIN` | `Err(Transient)` before any effect             | retry + backoff         |
//! | torn stripe write  | partial append, then `Transient`               | truncate-and-retry      |
//! | bit flip           | silent corruption, CRC catches later           | `recover_journal`'s cut |
//! | OSD outage window  | `Unavailable` while the store's clock is in it | replicas / window end   |
//! | slow OSD window    | cost-model latency multiplier                  | nothing (just slower)   |

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use bytes::Bytes;
use cudele_obs::timeline::Series;
use cudele_obs::{Counter, Registry};
use cudele_rados::{ObjectId, ObjectStat, ObjectStore, PoolId, RadosError, Result};
use cudele_sim::{CostModel, Nanos};

/// SplitMix64: the one-shot mixer every fault decision derives from.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// One scheduled OSD outage: the OSD is down for `[from, until)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OsdOutage {
    /// The OSD index.
    pub osd: usize,
    /// Window start (inclusive), virtual time.
    pub from: Nanos,
    /// Window end (exclusive), virtual time.
    pub until: Nanos,
}

/// One slow-OSD window: object-store operations inside `[from, until)`
/// take `factor` times longer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlowWindow {
    /// Window start (inclusive), virtual time.
    pub from: Nanos,
    /// Window end (exclusive), virtual time.
    pub until: Nanos,
    /// Latency multiplier (>= 1.0).
    pub factor: f64,
}

/// The declarative fault plan. Same config + seed ⇒ identical injected
/// faults, independent of thread timing or wall clock.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultConfig {
    /// Seed for every probabilistic decision.
    pub seed: u64,
    /// Probability (parts per million of ops) of a transient `EAGAIN`.
    pub eagain_ppm: u32,
    /// Probability (ppm of journal-stripe appends) of a torn write: a
    /// prefix of the data lands, then the op fails `Transient`.
    pub torn_write_ppm: u32,
    /// Probability (ppm of journal-stripe writes) of a silent single-bit
    /// flip in the written data (caught later by the frame CRC).
    pub bitflip_ppm: u32,
    /// Scheduled OSD outage windows.
    pub outages: Vec<OsdOutage>,
    /// Slow-OSD windows degrading object-store latency/bandwidth.
    pub slow: Vec<SlowWindow>,
    /// Virtual instants at which the active MDS crashes (consumed by
    /// failover-capable harnesses: the beacon grace then expires and a
    /// standby takes over at a bumped epoch). Sorted ascending.
    pub mds_crashes: Vec<Nanos>,
    /// Probability (ppm of speculatively issued client ops) that the op's
    /// ack comes back as a NACK, invalidating the speculation: the client
    /// must roll back the dependent suffix and replay it with its replay
    /// tokens. Consumed by the speculation layer, not the object store.
    pub spec_abort_ppm: u32,
}

/// Parses a duration like `10ms`, `2s`, `500us`, `100ns`, or a bare
/// nanosecond count. One past `u64::MAX` nanoseconds is an error.
fn parse_duration(s: &str) -> std::result::Result<Nanos, String> {
    let (digits, mult) = if let Some(d) = s.strip_suffix("ms") {
        (d, 1_000_000)
    } else if let Some(d) = s.strip_suffix("us") {
        (d, 1_000)
    } else if let Some(d) = s.strip_suffix("ns") {
        (d, 1)
    } else if let Some(d) = s.strip_suffix('s') {
        (d, 1_000_000_000)
    } else {
        (s, 1)
    };
    let n = digits
        .parse::<u64>()
        .map_err(|_| format!("bad duration {s:?} (use e.g. 10ms, 2s, 500us)"))?;
    n.checked_mul(mult)
        .map(Nanos)
        .ok_or_else(|| format!("duration {s:?} overflows 2^64 ns"))
}

fn parse_window(s: &str) -> std::result::Result<(Nanos, Nanos), String> {
    let (from, until) = s
        .split_once("..")
        .ok_or_else(|| format!("bad window {s:?} (use FROM..UNTIL)"))?;
    Ok((parse_duration(from)?, parse_duration(until)?))
}

impl FaultConfig {
    /// Parses a `--faults` spec: comma-separated `key=value` pairs.
    ///
    /// ```text
    /// seed=42,eagain_ppm=20000,torn_ppm=10000,bitflip_ppm=50,
    /// osd_outage=1@10ms..20ms,slow=2.5@0ms..5ms,mds-crash@10ms
    /// ```
    ///
    /// `osd_outage`, `slow`, and MDS crashes may repeat. Durations accept
    /// `ns`, `us`, `ms`, and `s` suffixes (bare numbers are nanoseconds).
    /// A `*_ppm` rate is at most 1 000 000, and a slow factor is finite and
    /// at least 1.
    /// An MDS crash is written `mds-crash@T` (or `mds_crash=T`): the
    /// active MDS fails at virtual instant `T` and a failover-capable
    /// harness drives detection and standby takeover from there.
    pub fn parse(spec: &str) -> std::result::Result<FaultConfig, String> {
        let mut cfg = FaultConfig::default();
        for part in spec.split(',').filter(|p| !p.trim().is_empty()) {
            let part = part.trim();
            if let Some(at) = part.strip_prefix("mds-crash@") {
                cfg.mds_crashes.push(parse_duration(at)?);
                cfg.mds_crashes.sort();
                continue;
            }
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("bad --faults item {part:?} (use key=value)"))?;
            let (key, value) = (key.trim(), value.trim());
            let int = |what: &str| {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("bad {what}: {value:?}"))
            };
            let ppm = |what: &str| match value.parse::<u32>() {
                Ok(n) if n <= 1_000_000 => Ok(n),
                _ => Err(format!("bad {what}: {value:?} (0..=1000000)")),
            };
            match key {
                "seed" => cfg.seed = int("seed")?,
                "eagain_ppm" => cfg.eagain_ppm = ppm("eagain_ppm")?,
                "torn_ppm" | "torn_write_ppm" => cfg.torn_write_ppm = ppm("torn_ppm")?,
                "bitflip_ppm" => cfg.bitflip_ppm = ppm("bitflip_ppm")?,
                "spec_abort_ppm" => cfg.spec_abort_ppm = ppm("spec_abort_ppm")?,
                "osd_outage" => {
                    let (osd, window) = value
                        .split_once('@')
                        .ok_or_else(|| format!("bad osd_outage {value:?} (use OSD@FROM..UNTIL)"))?;
                    let osd = osd
                        .parse::<usize>()
                        .map_err(|_| format!("bad OSD index {osd:?}"))?;
                    let (from, until) = parse_window(window)?;
                    cfg.outages.push(OsdOutage { osd, from, until });
                }
                "slow" => {
                    let (factor, window) = value
                        .split_once('@')
                        .ok_or_else(|| format!("bad slow {value:?} (use FACTOR@FROM..UNTIL)"))?;
                    let factor = factor
                        .parse::<f64>()
                        .ok()
                        .filter(|f| f.is_finite() && *f >= 1.0)
                        .ok_or_else(|| format!("bad slow factor {factor:?} (finite, >= 1)"))?;
                    let (from, until) = parse_window(window)?;
                    cfg.slow.push(SlowWindow {
                        from,
                        until,
                        factor,
                    });
                }
                "mds_crash" => {
                    cfg.mds_crashes.push(parse_duration(value)?);
                    cfg.mds_crashes.sort();
                }
                other => return Err(format!("unknown --faults key {other:?}")),
            }
        }
        Ok(cfg)
    }

    /// The largest slow-window factor (1.0 when no windows are scheduled)
    /// — what a harness feeds into
    /// [`CostModel::with_object_store_slowdown`].
    pub fn peak_slowdown(&self) -> f64 {
        self.slow
            .iter()
            .map(|w| w.factor)
            .fold(1.0f64, f64::max)
            .max(1.0)
    }
}

// Distinct salts keep the per-op sub-draws independent.
const SALT_EAGAIN: u64 = 0x45_41_47_41_49_4e; // "EAGAIN"
const SALT_TORN: u64 = 0x54_4f_52_4e; // "TORN"
const SALT_TORN_CUT: u64 = 0x43_55_54; // "CUT"
const SALT_BITFLIP: u64 = 0x46_4c_49_50; // "FLIP"
const SALT_BIT_POS: u64 = 0x50_4f_53; // "POS"
const SALT_SPEC_ABORT: u64 = 0x53_50_45_43; // "SPEC"

/// The seeded decision engine behind a [`FaultyStore`]. Each store
/// operation consumes one op index; every decision about that operation is
/// a pure function of `(seed, op-index, salt)`.
#[derive(Debug)]
pub struct FaultPlan {
    config: FaultConfig,
    ops: AtomicU64,
}

impl FaultPlan {
    /// A plan executing `config`.
    pub fn new(config: FaultConfig) -> FaultPlan {
        FaultPlan {
            config,
            ops: AtomicU64::new(0),
        }
    }

    /// The plan's configuration.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// Claims the next op index (each store operation consumes one).
    fn next_op(&self) -> u64 {
        self.ops.fetch_add(1, Ordering::Relaxed)
    }

    fn draw(&self, salt: u64, op: u64) -> u64 {
        splitmix64(self.config.seed ^ splitmix64(salt) ^ op.wrapping_mul(0x2545f4914f6cdd1d))
    }

    fn hit(&self, salt: u64, op: u64, ppm: u32) -> bool {
        ppm > 0 && self.draw(salt, op) % 1_000_000 < ppm as u64
    }

    /// Whether the speculative op with sequence number `seq` gets a
    /// fault-injected NACK instead of an ack. Unlike store faults this
    /// draw is keyed by the client-side sequence number, not the shared
    /// op counter, so the decision is independent of how many store
    /// operations ran before the op was issued — the same seed aborts the
    /// same speculations at any thread count.
    pub fn spec_abort(&self, seq: u64) -> bool {
        self.hit(SALT_SPEC_ABORT, seq, self.config.spec_abort_ppm)
    }

    /// The latency multiplier active at virtual instant `at` (1.0 outside
    /// every slow window; the max factor when windows overlap).
    pub fn latency_multiplier(&self, at: Nanos) -> f64 {
        self.config
            .slow
            .iter()
            .filter(|w| w.from <= at && at < w.until)
            .map(|w| w.factor)
            .fold(1.0f64, f64::max)
    }
}

/// Bounded retry with exponential backoff, charged to the *virtual* clock:
/// callers accumulate [`RetryPolicy::backoff`] into their time accounting
/// instead of sleeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the first failure (so an op is attempted at most
    /// `max_retries + 1` times).
    pub max_retries: u32,
    /// Backoff before the first retry; doubles each subsequent retry.
    pub base_backoff: Nanos,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_retries: 8,
            base_backoff: Nanos::from_micros(100),
        }
    }
}

impl RetryPolicy {
    /// Virtual-time backoff before retry number `attempt` (0-based),
    /// capped at 100 ms so a full budget stays bounded.
    pub fn backoff(&self, attempt: u32) -> Nanos {
        let ns = self.base_backoff.as_nanos().saturating_shl(attempt.min(20));
        Nanos(ns.min(Nanos::from_millis(100).as_nanos()))
    }

    /// Runs `f`, retrying on [`RadosError::Transient`] up to the budget.
    /// `retries` and `backoff` accumulate what the loop consumed (the
    /// caller charges `backoff` to its virtual clock), and `retried` sees
    /// each retry as the backoff accumulated before it and its own pause —
    /// where a traced caller draws it. Non-transient errors and budget
    /// exhaustion pass the error through.
    pub fn run<T>(
        &self,
        retries: &mut u64,
        backoff: &mut Nanos,
        mut retried: impl FnMut(Nanos, Nanos),
        mut f: impl FnMut() -> Result<T>,
    ) -> Result<T> {
        let mut attempt = 0;
        loop {
            match f() {
                Err(RadosError::Transient(_)) if attempt < self.max_retries => {
                    let pause = self.backoff(attempt);
                    retried(*backoff, pause);
                    *retries += 1;
                    *backoff += pause;
                    attempt += 1;
                }
                r => return r,
            }
        }
    }
}

/// Retries `f` on transient object-store errors with the default policy,
/// discarding the retry and backoff accounting — for callers with no
/// virtual clock to charge (journal readers, the image flush and load, the
/// checkpoint compactor). A flaky OSD must not look like a damaged object;
/// non-transient errors (fencing above all) pass through.
pub fn with_retry<T>(f: impl FnMut() -> Result<T>) -> Result<T> {
    let (mut retries, mut backoff) = (0, Nanos::ZERO);
    RetryPolicy::default().run(&mut retries, &mut backoff, |_, _| {}, f)
}

/// `u64::saturating_shl` is unstable; a `u64` shifted past 63 saturates.
trait SaturatingShl {
    fn saturating_shl(self, rhs: u32) -> u64;
}

impl SaturatingShl for u64 {
    fn saturating_shl(self, rhs: u32) -> u64 {
        if rhs >= 64 || self.leading_zeros() < rhs {
            u64::MAX
        } else {
            self << rhs
        }
    }
}

cudele_obs::handles! {
    /// Counters mirrored into an attached registry under
    /// `faults.injected.*`, with their windowed series.
    #[derive(Debug)]
    struct FaultObs(reg: &Registry) {
        eagain: Counter = reg.counter("faults.injected.eagain"),
        torn: Counter = reg.counter("faults.injected.torn_writes"),
        bitflips: Counter = reg.counter("faults.injected.bitflips"),
        tl_eagain: Series = reg.timeline().series("faults.injected.eagain"),
        tl_torn: Series = reg.timeline().series("faults.injected.torn_writes"),
        tl_bitflips: Series = reg.timeline().series("faults.injected.bitflips"),
    }
}

/// Whether an object name is a journal stripe (`<ino:x>.<seq:08x>`, as
/// opposed to dirfrags, which carry a `_head` suffix, or header objects).
fn is_journal_stripe(name: &str) -> bool {
    let Some((ino, seq)) = name.split_once('.') else {
        return false;
    };
    !ino.is_empty()
        && seq.len() == 8
        && ino.bytes().all(|b| b.is_ascii_hexdigit())
        && seq.bytes().all(|b| b.is_ascii_hexdigit())
}

/// An [`ObjectStore`] wrapper that injects the plan's faults.
///
/// * Every fallible operation may fail with a transient
///   [`RadosError::Transient`] *before* touching the inner store.
/// * Appends to journal stripe objects may be **torn**: a prefix of the
///   data lands, then the call fails `Transient`. The journal appends a
///   run of frames at a time, so the prefix may be whole frames followed
///   by a partial one. (`write_full` is atomic per object, as in RADOS —
///   tearing models a partial append.)
/// * Appends to journal stripe objects may suffer a **silent bit flip**:
///   the call succeeds, and the per-frame CRC catches the damage at read
///   time — cutting it away is `journal::recover_journal`'s job.
///   (`write_full` is never corrupted: it is the atomic primitive repair
///   paths restore known-good bytes with.)
/// * `exists`/`list` are fault-free (they model cluster-map lookups).
///
/// OSD outage windows and slow windows are *not* enforced here — outages
/// live in [`cudele_rados::InMemoryStore::schedule_outage`] and slow
/// windows in the cost model; harnesses install both from the same
/// [`FaultConfig`]. The wrapper keeps no clock: the `faults.injected.*`
/// series are stamped with the inner store's ([`ObjectStore::now`]), which
/// the serving MDS sets, and [`ObjectStore::set_now`] is forwarded there.
pub struct FaultyStore<S: ObjectStore> {
    inner: Arc<S>,
    plan: Arc<FaultPlan>,
    injected_eagain: AtomicU64,
    injected_torn: AtomicU64,
    injected_bitflips: AtomicU64,
    obs: RwLock<Option<FaultObs>>,
}

impl<S: ObjectStore> FaultyStore<S> {
    /// Wraps `inner`, consulting `plan` on every operation.
    pub fn new(inner: Arc<S>, plan: Arc<FaultPlan>) -> FaultyStore<S> {
        FaultyStore {
            inner,
            plan,
            injected_eagain: AtomicU64::new(0),
            injected_torn: AtomicU64::new(0),
            injected_bitflips: AtomicU64::new(0),
            obs: RwLock::new(None),
        }
    }

    /// The wrapped store.
    pub fn inner(&self) -> &Arc<S> {
        &self.inner
    }

    /// The fault plan.
    pub fn plan(&self) -> &Arc<FaultPlan> {
        &self.plan
    }

    /// (transient errors, torn writes, bit flips) injected so far.
    pub fn injected(&self) -> (u64, u64, u64) {
        (
            self.injected_eagain.load(Ordering::Relaxed),
            self.injected_torn.load(Ordering::Relaxed),
            self.injected_bitflips.load(Ordering::Relaxed),
        )
    }

    /// Decides a transient failure for op `op`; returns the error to inject.
    fn eagain(&self, id: &ObjectId, op: u64) -> Result<()> {
        if self.plan.hit(SALT_EAGAIN, op, self.plan.config.eagain_ppm) {
            self.injected_eagain.fetch_add(1, Ordering::Relaxed);
            if let Some(o) = self.obs.read().unwrap().as_ref() {
                o.eagain.inc();
                o.tl_eagain.add(self.inner.now(), 1);
            }
            return Err(RadosError::Transient(id.clone()));
        }
        Ok(())
    }

    /// Flips one deterministic bit of `data` if the plan says so.
    fn maybe_bitflip(&self, id: &ObjectId, op: u64, data: &[u8]) -> Option<Vec<u8>> {
        if data.is_empty()
            || !is_journal_stripe(&id.name)
            || !self
                .plan
                .hit(SALT_BITFLIP, op, self.plan.config.bitflip_ppm)
        {
            return None;
        }
        let bit = self.plan.draw(SALT_BIT_POS, op) as usize % (data.len() * 8);
        let mut flipped = data.to_vec();
        flipped[bit / 8] ^= 1 << (bit % 8);
        self.injected_bitflips.fetch_add(1, Ordering::Relaxed);
        if let Some(o) = self.obs.read().unwrap().as_ref() {
            o.bitflips.inc();
            o.tl_bitflips.add(self.inner.now(), 1);
        }
        Some(flipped)
    }
}

impl<S: ObjectStore> ObjectStore for FaultyStore<S> {
    fn write_full(&self, id: &ObjectId, data: &[u8]) -> Result<u64> {
        let op = self.plan.next_op();
        self.eagain(id, op)?;
        // No tearing or flipping: single-object write_full is atomic in
        // RADOS, and repair paths rely on it to restore known-good bytes.
        self.inner.write_full(id, data)
    }

    fn cas_write_full(&self, id: &ObjectId, expected: u64, data: &[u8]) -> Result<u64> {
        let op = self.plan.next_op();
        self.eagain(id, op)?;
        self.inner.cas_write_full(id, expected, data)
    }

    fn append(&self, id: &ObjectId, data: &[u8]) -> Result<u64> {
        let op = self.plan.next_op();
        self.eagain(id, op)?;
        if !data.is_empty()
            && is_journal_stripe(&id.name)
            && self
                .plan
                .hit(SALT_TORN, op, self.plan.config.torn_write_ppm)
        {
            // Torn write: a prefix lands, the caller sees a retryable
            // failure, and the stripe is left with a partial frame.
            let cut = self.plan.draw(SALT_TORN_CUT, op) as usize % data.len();
            if cut > 0 {
                self.inner.append(id, &data[..cut])?;
            }
            self.injected_torn.fetch_add(1, Ordering::Relaxed);
            if let Some(o) = self.obs.read().unwrap().as_ref() {
                o.torn.inc();
                o.tl_torn.add(self.inner.now(), 1);
            }
            return Err(RadosError::Transient(id.clone()));
        }
        match self.maybe_bitflip(id, op, data) {
            Some(flipped) => self.inner.append(id, &flipped),
            None => self.inner.append(id, data),
        }
    }

    fn read(&self, id: &ObjectId) -> Result<Bytes> {
        let op = self.plan.next_op();
        self.eagain(id, op)?;
        self.inner.read(id)
    }

    fn stat(&self, id: &ObjectId) -> Result<ObjectStat> {
        let op = self.plan.next_op();
        self.eagain(id, op)?;
        self.inner.stat(id)
    }

    fn remove(&self, id: &ObjectId) -> Result<()> {
        let op = self.plan.next_op();
        self.eagain(id, op)?;
        self.inner.remove(id)
    }

    fn exists(&self, id: &ObjectId) -> bool {
        self.inner.exists(id)
    }

    fn list(&self, pool: PoolId, prefix: &str) -> Vec<ObjectId> {
        self.inner.list(pool, prefix)
    }

    fn omap_set(&self, id: &ObjectId, key: &str, value: &[u8]) -> Result<u64> {
        let op = self.plan.next_op();
        self.eagain(id, op)?;
        self.inner.omap_set(id, key, value)
    }

    fn omap_get(&self, id: &ObjectId, key: &str) -> Result<Option<Bytes>> {
        let op = self.plan.next_op();
        self.eagain(id, op)?;
        self.inner.omap_get(id, key)
    }

    fn omap_remove(&self, id: &ObjectId, key: &str) -> Result<bool> {
        let op = self.plan.next_op();
        self.eagain(id, op)?;
        self.inner.omap_remove(id, key)
    }

    fn omap_list(&self, id: &ObjectId) -> Result<Vec<(String, Bytes)>> {
        let op = self.plan.next_op();
        self.eagain(id, op)?;
        self.inner.omap_list(id)
    }

    fn attach_obs(&self, reg: &Registry) {
        self.inner.attach_obs(reg);
        *self.obs.write().unwrap() = Some(FaultObs::new(reg));
    }

    fn now(&self) -> Nanos {
        self.inner.now()
    }

    fn set_now(&self, now: Nanos) {
        self.inner.set_now(now);
    }
}

/// Convenience: wraps `inner` under a fresh plan for `config`, installing
/// the config's outage windows on the inner store, and returns the cost
/// model degraded by the config's peak slow-window factor.
pub fn wire_faults(
    inner: Arc<cudele_rados::InMemoryStore>,
    config: FaultConfig,
    cost: &CostModel,
) -> (Arc<FaultyStore<cudele_rados::InMemoryStore>>, CostModel) {
    for o in &config.outages {
        inner.schedule_outage(o.osd, o.from, o.until);
    }
    let degraded = cost.with_object_store_slowdown(config.peak_slowdown());
    let plan = Arc::new(FaultPlan::new(config));
    (Arc::new(FaultyStore::new(inner, plan)), degraded)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cudele_rados::InMemoryStore;

    fn stripe(seq: u64) -> ObjectId {
        ObjectId::journal_stripe(PoolId::METADATA, 0x300, seq)
    }

    fn faulty(config: FaultConfig) -> FaultyStore<InMemoryStore> {
        FaultyStore::new(
            Arc::new(InMemoryStore::paper_default()),
            Arc::new(FaultPlan::new(config)),
        )
    }

    #[test]
    fn parse_full_spec() {
        let cfg = FaultConfig::parse(
            "seed=42,eagain_ppm=20000,torn_ppm=10000,bitflip_ppm=50,\
             osd_outage=1@10ms..20ms,slow=2.5@0ms..5ms,slow=4@1s..2s",
        )
        .unwrap();
        assert_eq!(cfg.seed, 42);
        assert_eq!(cfg.eagain_ppm, 20_000);
        assert_eq!(cfg.torn_write_ppm, 10_000);
        assert_eq!(cfg.bitflip_ppm, 50);
        assert_eq!(
            cfg.outages,
            vec![OsdOutage {
                osd: 1,
                from: Nanos::from_millis(10),
                until: Nanos::from_millis(20),
            }]
        );
        assert_eq!(cfg.slow.len(), 2);
        assert_eq!(cfg.peak_slowdown(), 4.0);
        assert!(FaultConfig::parse("").unwrap() == FaultConfig::default());
        assert!(FaultConfig::parse("bogus=1").is_err());
        assert!(FaultConfig::parse("seed").is_err());
        assert!(FaultConfig::parse("osd_outage=1@10ms").is_err());
    }

    #[test]
    fn spec_abort_is_deterministic_and_gated() {
        let on = FaultPlan::new(FaultConfig {
            seed: 9,
            spec_abort_ppm: 200_000,
            ..FaultConfig::default()
        });
        let hits: Vec<u64> = (0..2_000).filter(|&s| on.spec_abort(s)).collect();
        assert!(!hits.is_empty(), "200k ppm over 2000 seqs must fire");
        let again = FaultPlan::new(FaultConfig {
            seed: 9,
            spec_abort_ppm: 200_000,
            ..FaultConfig::default()
        });
        let rerun: Vec<u64> = (0..2_000).filter(|&s| again.spec_abort(s)).collect();
        assert_eq!(hits, rerun, "same seed must abort the same speculations");

        let off = FaultPlan::new(FaultConfig::default());
        assert!((0..2_000).all(|s| !off.spec_abort(s)));
        let cfg = FaultConfig::parse("seed=9,spec_abort_ppm=200000").unwrap();
        assert_eq!(cfg.spec_abort_ppm, 200_000);
    }

    #[test]
    fn parse_mds_crash_schedules() {
        // Both spellings, arriving out of order, end up sorted.
        let cfg = FaultConfig::parse("mds-crash@20ms,mds_crash=5ms,mds-crash@10ms").unwrap();
        assert_eq!(
            cfg.mds_crashes,
            vec![
                Nanos::from_millis(5),
                Nanos::from_millis(10),
                Nanos::from_millis(20),
            ]
        );
        assert!(FaultConfig::parse("mds-crash@nonsense").is_err());
    }

    #[test]
    fn a_duration_past_u64_nanos_is_an_error() {
        // 99 999 999 999 999 s is ~1e23 ns, far past 2^64.
        assert!(FaultConfig::parse("mds-crash@99999999999999s").is_err());
        assert!(FaultConfig::parse("osd_outage=0@0ms..18446744073710ms").is_err());
        let max = FaultConfig::parse("mds-crash@18446744073709551615").unwrap();
        assert_eq!(max.mds_crashes, vec![Nanos(u64::MAX)]);
    }

    #[test]
    fn a_ppm_rate_is_at_most_a_million() {
        // 2^32 + 1 must not truncate to 1, and the plan draws against a million.
        assert!(FaultConfig::parse("eagain_ppm=4294967297").is_err());
        for key in ["eagain_ppm", "torn_ppm", "bitflip_ppm", "spec_abort_ppm"] {
            assert!(
                FaultConfig::parse(&format!("{key}=2000000")).is_err(),
                "{key}"
            );
        }
        let all = FaultConfig::parse("eagain_ppm=1000000,torn_write_ppm=0").unwrap();
        assert_eq!((all.eagain_ppm, all.torn_write_ppm), (1_000_000, 0));
    }

    #[test]
    fn a_slow_factor_is_finite_and_at_least_one() {
        for factor in ["inf", "NaN", "0.5", "-2"] {
            let spec = format!("slow={factor}@0ms..1ms");
            assert!(FaultConfig::parse(&spec).is_err(), "{spec}");
        }
        let cfg = FaultConfig::parse("slow=1@0ms..1ms").unwrap();
        assert_eq!(cfg.peak_slowdown(), 1.0);
    }

    #[test]
    fn plan_is_deterministic() {
        let cfg = FaultConfig {
            seed: 7,
            eagain_ppm: 100_000,
            torn_write_ppm: 100_000,
            bitflip_ppm: 100_000,
            ..FaultConfig::default()
        };
        let a = FaultPlan::new(cfg.clone());
        let b = FaultPlan::new(cfg);
        for op in 0..10_000 {
            assert_eq!(
                a.hit(SALT_EAGAIN, op, 100_000),
                b.hit(SALT_EAGAIN, op, 100_000)
            );
            assert_eq!(a.draw(SALT_TORN_CUT, op), b.draw(SALT_TORN_CUT, op));
        }
    }

    #[test]
    fn eagain_rate_tracks_ppm() {
        let fs = faulty(FaultConfig {
            seed: 1,
            eagain_ppm: 200_000, // 20%
            ..FaultConfig::default()
        });
        let mut failures = 0;
        for i in 0..1_000 {
            let id = ObjectId::new(PoolId::METADATA, format!("o{i}"));
            if fs.write_full(&id, b"x").is_err() {
                failures += 1;
            }
        }
        assert!((150..250).contains(&failures), "{failures} EAGAINs");
        assert_eq!(fs.injected().0, failures);
    }

    #[test]
    fn torn_append_leaves_prefix_and_fails_transient() {
        let fs = faulty(FaultConfig {
            seed: 3,
            torn_write_ppm: 1_000_000, // always torn
            ..FaultConfig::default()
        });
        let data = [7u8; 64];
        let err = fs.append(&stripe(0), &data).unwrap_err();
        assert!(matches!(err, RadosError::Transient(_)));
        let on_disk = fs.inner().read(&stripe(0)).map(|b| b.len()).unwrap_or(0);
        assert!(on_disk < data.len(), "prefix only, got {on_disk}");
        // Non-stripe objects are never torn.
        fs.append(&ObjectId::new(PoolId::METADATA, "300_header"), &data)
            .unwrap();
    }

    #[test]
    fn bitflip_corrupts_exactly_one_bit_silently() {
        let fs = faulty(FaultConfig {
            seed: 5,
            bitflip_ppm: 1_000_000, // always flip
            ..FaultConfig::default()
        });
        let data = vec![0u8; 128];
        fs.append(&stripe(1), &data).unwrap();
        let stored = fs.read(&stripe(1)).unwrap();
        let flipped_bits: u32 = stored.iter().map(|b| b.count_ones()).sum();
        assert_eq!(flipped_bits, 1, "exactly one bit flipped");
        assert_eq!(fs.injected().2, 1);
        // write_full is the atomic repair primitive: never corrupted.
        fs.write_full(&stripe(2), &data).unwrap();
        assert!(fs.read(&stripe(2)).unwrap().iter().all(|&b| b == 0));
    }

    #[test]
    fn retry_policy_absorbs_transients_within_budget() {
        let policy = RetryPolicy::default();
        let mut retries = 0;
        let mut backoff = Nanos::ZERO;
        let mut failures_left = 3;
        let id = ObjectId::new(PoolId::METADATA, "x");
        let mut seen = Vec::new();
        let retried = |before, pause| seen.push((before, pause));
        let out = policy.run(&mut retries, &mut backoff, retried, || {
            if failures_left > 0 {
                failures_left -= 1;
                Err(RadosError::Transient(id.clone()))
            } else {
                Ok(42)
            }
        });
        assert_eq!(out.unwrap(), 42);
        assert_eq!(retries, 3);
        // 100us + 200us + 400us of exponential backoff, each retry seen
        // with the backoff accumulated before it.
        assert_eq!(backoff, Nanos::from_micros(700));
        let us = Nanos::from_micros;
        assert_eq!(
            seen,
            [(us(0), us(100)), (us(100), us(200)), (us(300), us(400))]
        );

        // Budget exhaustion surfaces the transient error.
        let mut retries = 0;
        let mut backoff = Nanos::ZERO;
        let out: Result<()> = policy.run(
            &mut retries,
            &mut backoff,
            |_, _| {},
            || Err(RadosError::Transient(id.clone())),
        );
        assert!(matches!(out, Err(RadosError::Transient(_))));
        assert_eq!(retries, policy.max_retries as u64);
    }

    #[test]
    fn backoff_is_exponential_and_capped() {
        let p = RetryPolicy::default();
        assert_eq!(p.backoff(0), Nanos::from_micros(100));
        assert_eq!(p.backoff(1), Nanos::from_micros(200));
        assert_eq!(p.backoff(3), Nanos::from_micros(800));
        assert_eq!(p.backoff(30), Nanos::from_millis(100)); // cap
    }

    #[test]
    fn latency_multiplier_windows() {
        let plan = FaultPlan::new(FaultConfig {
            slow: vec![
                SlowWindow {
                    from: Nanos::from_millis(10),
                    until: Nanos::from_millis(20),
                    factor: 3.0,
                },
                SlowWindow {
                    from: Nanos::from_millis(15),
                    until: Nanos::from_millis(30),
                    factor: 2.0,
                },
            ],
            ..FaultConfig::default()
        });
        assert_eq!(plan.latency_multiplier(Nanos::ZERO), 1.0);
        assert_eq!(plan.latency_multiplier(Nanos::from_millis(12)), 3.0);
        assert_eq!(plan.latency_multiplier(Nanos::from_millis(16)), 3.0); // overlap: max
        assert_eq!(plan.latency_multiplier(Nanos::from_millis(25)), 2.0);
        assert_eq!(plan.latency_multiplier(Nanos::from_millis(30)), 1.0);
    }

    #[test]
    fn stripe_name_matching() {
        assert!(is_journal_stripe("200.00000001"));
        assert!(is_journal_stripe("10000001.0000000a"));
        assert!(!is_journal_stripe("200_header"));
        assert!(!is_journal_stripe("10000000000.00000000_head"));
        assert!(!is_journal_stripe("root_inode"));
        assert!(!is_journal_stripe("backtraces"));
    }

    #[test]
    fn attached_registry_counts_injections() {
        let fs = faulty(FaultConfig {
            seed: 9,
            eagain_ppm: 1_000_000,
            ..FaultConfig::default()
        });
        let reg = Registry::new();
        fs.attach_obs(&reg);
        let _ = fs.write_full(&ObjectId::new(PoolId::METADATA, "o"), b"x");
        assert_eq!(reg.counter_value("faults.injected.eagain"), Some(1));
    }

    #[test]
    fn wire_faults_installs_outages_and_degrades_cost() {
        let inner = Arc::new(InMemoryStore::paper_default());
        let cfg = FaultConfig::parse("seed=1,osd_outage=0@0ms..10ms,slow=2@0ms..1s").unwrap();
        let cm = CostModel::calibrated();
        let (fs, degraded) = wire_faults(inner, cfg, &cm);
        assert!(!fs.inner().osds_up()[0]);
        assert_eq!(degraded.object_op_latency, cm.object_op_latency.scale(2.0));
        fs.inner().set_now(Nanos::from_millis(10));
        assert!(fs.inner().osds_up()[0]);
    }
}
