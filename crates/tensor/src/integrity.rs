//! Silent-data-corruption (SDC) defense: weight checksums, activation
//! range guards, and in-place recovery.
//!
//! Edge devices at thermal/power limits suffer DRAM bit flips that
//! silently corrupt resident model weights and in-flight activations —
//! and a wrong answer is worse than a slow one. This module layers a
//! defense on top of [`PreparedExecutor`]:
//!
//! * **Checksums** — [`Executor::prepare`](crate::Executor::prepare)
//!   records a lane-parallel FNV-style checksum of every node's cached
//!   parameter bits;
//!   [`GuardedExecutor`] re-verifies them on a configurable cadence and
//!   repairs mismatched nodes in place by re-materializing just that
//!   node's parameters from the pristine weight store (weights are a pure
//!   function of seed and node name, so repair restores the exact
//!   original bits — including pruning and precision lowering).
//! * **Activation guards** — a clean calibration pass records each node's
//!   output min/max envelope; at inference time any non-finite value is
//!   fatal immediately, and values escaping the slack-widened envelope
//!   trip the guard. On a trip the executor scrubs the weights and
//!   retries the inference once; a second trip surfaces as the typed
//!   [`ExecError::Corrupted`] outcome instead of serving a wrong answer.
//!
//! Everything here is deterministic: checksums are pure functions of the
//! parameter bits, envelopes are pure functions of the calibration
//! inputs, and because executor outputs are byte-identical across thread
//! counts and kernel tiers, guard verdicts are too. Recovery work is
//! reported in deterministic units (counts and bytes), never wall-clock.

use crate::{ExecError, PreparedExecutor, Tensor};
use std::fmt;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x1000_0000_01b3;

/// Lane-parallel FNV-style digest over the bit patterns of `words`,
/// mixed with the slice length so reshufflings between parts cannot
/// collide.
///
/// Eight independent xor-multiply chains each consume a pair of `f32`
/// bit patterns per step, then fold into one digest. Every step xors
/// data into the state and multiplies by an odd constant — both
/// injective on `u64` — so a *single* flipped bit anywhere in `words`
/// is guaranteed (not just probabilistically likely) to change the
/// digest. The lanes exist purely for speed: one chain of dependent
/// 64-bit multiplies is bound by the multiplier's latency, while eight
/// interleaved chains overlap. On x86_64 the chains stay on scalar
/// 64-bit multiplies and the next KiB is prefetched (see `fold_f32`):
/// on a 2-vCPU AVX-512 Xeon VM a 588 KiB frame in cache hashes in about
/// 31 µs (19 GB/s) and a 46.8 MB weight buffer in 2.6–3.9 ms
/// (12–18 GB/s), about twice the rate of the vector-multiply form the
/// compiler would otherwise pick. That is cheap enough to verify every
/// frame at every pipeline hop and to re-verify every model weight
/// before an inference.
pub fn checksum_f32(words: &[f32]) -> u64 {
    fold_f32(FNV_OFFSET, words)
}

/// Chains [`checksum_f32`] across several slices (a node's weights, bias
/// and batch-norm parts) into one digest.
pub fn checksum_parts(parts: &[&[f32]]) -> u64 {
    parts.iter().fold(FNV_OFFSET, |h, p| fold_f32(h, p))
}

const HASH_LANES: usize = 8;

/// How far ahead of the hashed cache line `fold_f32` prefetches, in
/// `u64` words (1 KiB).
#[cfg(target_arch = "x86_64")]
const PREFETCH_WORDS: usize = 128;

fn fold_f32(h: u64, words: &[f32]) -> u64 {
    // Diverge the lanes from the incoming chain state so the digest
    // still depends on part order when chained by `checksum_parts`.
    let mut lanes = [h; HASH_LANES];
    for (i, lane) in lanes.iter_mut().enumerate() {
        *lane = (*lane ^ (i as u64 + 1)).wrapping_mul(FNV_PRIME);
    }
    let pairs = words.len() / 2;
    let rounds = pairs / HASH_LANES;
    // SAFETY: `rounds * HASH_LANES` u64 reads cover exactly
    // `rounds * HASH_LANES * 2 <= words.len()` f32 words, all in bounds;
    // `read_unaligned` has no alignment requirement. The prefetch address
    // is formed with `wrapping_add` and never dereferenced (a prefetch
    // past the end of the slice cannot fault). The digest is a function
    // of the raw bytes (native byte order), which is all the in-process
    // verify-against-baseline contract needs.
    unsafe {
        let mut p = words.as_ptr().cast::<u64>();
        for _ in 0..rounds {
            #[cfg(target_arch = "x86_64")]
            {
                use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
                _mm_prefetch::<_MM_HINT_T0>(p.wrapping_add(PREFETCH_WORDS).cast::<i8>());
            }
            for (i, lane) in lanes.iter_mut().enumerate() {
                *lane = scalar((*lane ^ p.add(i).read_unaligned()).wrapping_mul(FNV_PRIME));
            }
            p = p.add(HASH_LANES);
        }
    }
    let mut out = h;
    for lane in lanes {
        out = (out ^ lane).wrapping_mul(FNV_PRIME);
    }
    for w in &words[rounds * HASH_LANES * 2..] {
        out = (out ^ w.to_bits() as u64).wrapping_mul(FNV_PRIME);
    }
    (out ^ words.len() as u64).wrapping_mul(FNV_PRIME)
}

/// Keeps one lane's state in a general-purpose register.
///
/// Left alone, LLVM packs the eight lane chains of `fold_f32` into one
/// 512-bit `vpmullq` chain whose ~15-cycle latency caps the hash at
/// about 9 GB/s. An `asm!` comment that takes and returns the value in
/// a `reg` stops that packing: the lanes stay eight independent scalar
/// `imul` chains of 3-cycle latency. It emits no instruction and does
/// not change the value, so the digest is the same on every target.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn scalar(mut x: u64) -> u64 {
    // SAFETY: the template is an assembler comment; it reads and writes
    // only `x`.
    unsafe {
        core::arch::asm!("/* {0} */", inout(reg) x, options(pure, nomem, nostack, preserves_flags));
    }
    x
}

#[cfg(not(target_arch = "x86_64"))]
#[inline(always)]
fn scalar(x: u64) -> u64 {
    x
}

/// A node's clean activation range, recorded during calibration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Envelope {
    /// Smallest value seen in clean runs.
    pub lo: f32,
    /// Largest value seen in clean runs.
    pub hi: f32,
}

impl Envelope {
    /// The envelope widened by `slack` times its span on each side (with
    /// a small absolute floor so degenerate constant activations still
    /// get a tolerance band).
    pub fn widened(self, slack: f32) -> Envelope {
        let span = (self.hi - self.lo).max(1e-3);
        Envelope {
            lo: self.lo - slack * span,
            hi: self.hi + slack * span,
        }
    }

    fn absorb(&mut self, lo: f32, hi: f32) {
        self.lo = self.lo.min(lo);
        self.hi = self.hi.max(hi);
    }
}

/// Detection knobs of the [`GuardedExecutor`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GuardConfig {
    /// Verify weight checksums (and repair mismatches) every `cadence`
    /// inferences; `1` scrubs before every run, `0` never scrubs.
    pub cadence: u64,
    /// Fraction of each calibrated envelope's span added as tolerance on
    /// both sides before a value counts as out-of-range.
    pub slack: f32,
    /// Retry a tripped inference once (after a forced scrub) before
    /// reporting it corrupted.
    pub retry: bool,
}

impl Default for GuardConfig {
    fn default() -> GuardConfig {
        GuardConfig {
            // Cadence 4 amortizes the scrub's full-weight memory sweep
            // below the <3% overhead budget (the batch-8 CifarNet bench
            // tracks it); cadence 1 buys scrub-before-every-run coverage
            // for roughly one extra percent. The envelope guards run
            // every inference regardless and are effectively free.
            cadence: 4,
            slack: 0.5,
            retry: true,
        }
    }
}

impl GuardConfig {
    /// Returns the config with the given scrub cadence.
    pub fn with_cadence(mut self, cadence: u64) -> GuardConfig {
        self.cadence = cadence;
        self
    }

    /// Returns the config with the given envelope slack.
    pub fn with_slack(mut self, slack: f32) -> GuardConfig {
        self.slack = slack;
        self
    }

    /// Returns the config with retry-on-trip switched on or off.
    pub fn with_retry(mut self, retry: bool) -> GuardConfig {
        self.retry = retry;
        self
    }
}

/// Which activation guard tripped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GuardTrip {
    /// A NaN or infinity appeared in a node output (always fatal).
    NonFinite,
    /// A finite value escaped the node's slack-widened clean envelope.
    OutOfEnvelope,
}

impl fmt::Display for GuardTrip {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GuardTrip::NonFinite => write!(f, "non-finite"),
            GuardTrip::OutOfEnvelope => write!(f, "out-of-envelope"),
        }
    }
}

/// Deterministic counters of everything the defense layer did. All units
/// are counts or bytes — never wall-clock — so reports stay byte-stable
/// across machines and thread counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GuardStats {
    /// Inferences attempted through the guarded path.
    pub inferences: u64,
    /// Checksum verification sweeps performed.
    pub scrubs: u64,
    /// Nodes found with parameters differing from the baseline.
    pub checksum_mismatches: u64,
    /// Nodes repaired in place by re-materialization.
    pub repairs: u64,
    /// Total parameter bytes rewritten by repairs (the deterministic
    /// recovery-cost metric).
    pub repaired_bytes: u64,
    /// Activation-guard trips (non-finite or out-of-envelope).
    pub guard_trips: u64,
    /// Tripped inferences retried after a forced scrub.
    pub retries: u64,
    /// Retries whose re-run came back clean.
    pub recovered: u64,
    /// Inferences reported as [`ExecError::Corrupted`] to the caller.
    pub corrupted_outputs: u64,
}

/// One step of the defense layer's lifecycle, for byte-stable logs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntegrityEventKind {
    /// A node's parameter checksum no longer matched the baseline.
    ChecksumMismatch,
    /// The node's parameters were re-materialized in place.
    Repaired {
        /// Parameter bytes rewritten.
        bytes: usize,
    },
    /// An activation guard tripped on the node's output.
    GuardTrip {
        /// Which guard tripped.
        trip: GuardTrip,
    },
    /// The inference was retried after a forced scrub.
    Retried,
    /// The retry came back clean.
    Recovered,
    /// The retry tripped again; the inference was reported corrupted.
    CorruptedOutput,
}

/// One timestep-free entry of the integrity event log: what happened, at
/// which node, during which inference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntegrityEvent {
    /// 1-based guarded-inference counter when the event fired.
    pub inference: u64,
    /// Graph node index the event concerns.
    pub node: usize,
    /// What happened.
    pub kind: IntegrityEventKind,
}

impl fmt::Display for IntegrityEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[i{:>6} n{:>3}] ", self.inference, self.node)?;
        match self.kind {
            IntegrityEventKind::ChecksumMismatch => write!(f, "checksum-mismatch"),
            IntegrityEventKind::Repaired { bytes } => write!(f, "repaired bytes={bytes}"),
            IntegrityEventKind::GuardTrip { trip } => write!(f, "guard-trip {trip}"),
            IntegrityEventKind::Retried => write!(f, "retried"),
            IntegrityEventKind::Recovered => write!(f, "recovered"),
            IntegrityEventKind::CorruptedOutput => write!(f, "corrupted-output"),
        }
    }
}

/// A [`PreparedExecutor`] wrapped in the SDC defense layer: cadence-based
/// weight scrubbing, per-node activation guards, and retry-once recovery.
///
/// Build one from a prepared executor, [`calibrate`](Self::calibrate) it
/// on a few clean inputs (optional — NaN/Inf guards work uncalibrated),
/// then call [`run`](Self::run) per inference.
#[derive(Debug)]
pub struct GuardedExecutor<'g> {
    inner: PreparedExecutor<'g>,
    cfg: GuardConfig,
    envelopes: Vec<Option<Envelope>>,
    stats: GuardStats,
    events: Vec<IntegrityEvent>,
}

impl<'g> GuardedExecutor<'g> {
    /// Wraps `inner` with the given guard configuration.
    pub fn new(inner: PreparedExecutor<'g>, cfg: GuardConfig) -> GuardedExecutor<'g> {
        let n = inner.node_count();
        GuardedExecutor {
            inner,
            cfg,
            envelopes: vec![None; n],
            stats: GuardStats::default(),
            events: Vec::new(),
        }
    }

    /// Records each node's clean activation min/max over `inputs`,
    /// replacing any previous calibration. Inputs must be known-clean:
    /// the envelope *is* the definition of normal.
    ///
    /// # Errors
    ///
    /// Same as [`PreparedExecutor::run`].
    pub fn calibrate(&mut self, inputs: &[&Tensor]) -> Result<(), ExecError> {
        let mut envelopes: Vec<Option<Envelope>> = vec![None; self.inner.node_count()];
        for input in inputs {
            let inner = &self.inner;
            inner.run_observed(input, &mut |idx, t| {
                let (lo, hi) = min_max(t.data());
                match &mut envelopes[idx] {
                    Some(env) => env.absorb(lo, hi),
                    slot => *slot = Some(Envelope { lo, hi }),
                }
                Ok(())
            })?;
        }
        self.envelopes = envelopes;
        Ok(())
    }

    /// Whether [`calibrate`](Self::calibrate) has produced envelopes.
    pub fn calibrated(&self) -> bool {
        self.envelopes.iter().any(Option::is_some)
    }

    /// Runs one guarded inference: scrub on cadence, execute with
    /// activation guards, retry once after a forced scrub if a guard
    /// trips.
    ///
    /// # Errors
    ///
    /// Same as [`PreparedExecutor::run`], plus [`ExecError::Corrupted`]
    /// when the guards tripped and recovery did not produce a clean run.
    pub fn run(&mut self, input: &Tensor) -> Result<Tensor, ExecError> {
        self.run_injected(input, &mut |_, _, _| {})
    }

    /// Like [`run`](Self::run), but invoking `inject(attempt, node, out)`
    /// on every node output before the guards inspect it — the hook fault
    /// campaigns use to flip activation bits. `attempt` is `0` for the
    /// first pass and `1` for the post-scrub retry, so transient
    /// injectors can key their draws on it (a persistent fault that
    /// ignores `attempt` re-corrupts the retry and surfaces as
    /// [`ExecError::Corrupted`]).
    ///
    /// # Errors
    ///
    /// Same as [`GuardedExecutor::run`].
    pub fn run_injected(
        &mut self,
        input: &Tensor,
        inject: &mut dyn FnMut(u32, usize, &mut Tensor),
    ) -> Result<Tensor, ExecError> {
        if self.cfg.cadence > 0 && self.stats.inferences.is_multiple_of(self.cfg.cadence) {
            self.scrub()?;
        }
        self.stats.inferences += 1;
        match self.attempt(input, 0, inject) {
            Err(ExecError::Corrupted { .. }) if self.cfg.retry => {
                // Weight corruption may be what pushed the activations out
                // of range: repair before the one retry.
                self.scrub()?;
                self.stats.retries += 1;
                self.push_event(0, IntegrityEventKind::Retried);
                match self.attempt(input, 1, inject) {
                    Ok(out) => {
                        self.stats.recovered += 1;
                        self.push_event(0, IntegrityEventKind::Recovered);
                        Ok(out)
                    }
                    Err(e2 @ ExecError::Corrupted { .. }) => {
                        self.stats.corrupted_outputs += 1;
                        self.push_event(0, IntegrityEventKind::CorruptedOutput);
                        Err(e2)
                    }
                    Err(e2) => Err(e2),
                }
            }
            Err(e @ ExecError::Corrupted { .. }) => {
                self.stats.corrupted_outputs += 1;
                self.push_event(0, IntegrityEventKind::CorruptedOutput);
                Err(e)
            }
            other => other,
        }
    }

    /// Forces a checksum sweep now, repairing every mismatched node in
    /// place. Returns the number of nodes repaired.
    ///
    /// # Errors
    ///
    /// Same as [`PreparedExecutor::repair_node`].
    pub fn scrub(&mut self) -> Result<usize, ExecError> {
        self.stats.scrubs += 1;
        let corrupted = self.inner.verify_params();
        for &idx in &corrupted {
            self.stats.checksum_mismatches += 1;
            self.push_event(idx, IntegrityEventKind::ChecksumMismatch);
            let bytes = self.inner.repair_node(idx)?;
            self.stats.repairs += 1;
            self.stats.repaired_bytes += bytes as u64;
            self.push_event(idx, IntegrityEventKind::Repaired { bytes });
        }
        Ok(corrupted.len())
    }

    fn attempt(
        &mut self,
        input: &Tensor,
        attempt: u32,
        inject: &mut dyn FnMut(u32, usize, &mut Tensor),
    ) -> Result<Tensor, ExecError> {
        let inner = &self.inner;
        let envelopes = &self.envelopes;
        let slack = self.cfg.slack;
        let mut tripped: Option<(usize, GuardTrip)> = None;
        let res = inner.run_observed(input, &mut |idx, t| {
            inject(attempt, idx, t);
            if let Some(trip) = check_node(envelopes, slack, idx, t) {
                tripped = Some((idx, trip));
                return Err(ExecError::Corrupted {
                    node: inner.node_name(idx).to_string(),
                    reason: trip.to_string(),
                });
            }
            Ok(())
        });
        if let Some((idx, trip)) = tripped {
            self.stats.guard_trips += 1;
            self.push_event(idx, IntegrityEventKind::GuardTrip { trip });
        }
        res.map(|(t, _)| t)
    }

    fn push_event(&mut self, node: usize, kind: IntegrityEventKind) {
        self.events.push(IntegrityEvent {
            inference: self.stats.inferences,
            node,
            kind,
        });
    }

    /// The deterministic defense counters accumulated so far.
    pub fn stats(&self) -> GuardStats {
        self.stats
    }

    /// The integrity event log accumulated so far, in firing order.
    pub fn events(&self) -> &[IntegrityEvent] {
        &self.events
    }

    /// The wrapped prepared executor (e.g. for injecting weight faults
    /// through [`PreparedExecutor::corrupt_param_bit`]).
    pub fn inner_mut(&mut self) -> &mut PreparedExecutor<'g> {
        &mut self.inner
    }

    /// Shared view of the wrapped prepared executor.
    pub fn inner(&self) -> &PreparedExecutor<'g> {
        &self.inner
    }

    /// Unwraps the defense layer, returning the prepared executor.
    pub fn into_inner(self) -> PreparedExecutor<'g> {
        self.inner
    }
}

const SCAN_LANES: usize = 8;
const EXP_MASK: u32 = 0x7f80_0000;

/// One pass over `data`: min, max, and whether any value is non-finite.
///
/// The guards sweep every node output of every inference, so this runs
/// on the widest vector path the host offers (AVX2 where detected, a
/// lane-parallel portable loop otherwise). Both paths return identical
/// verdicts: the non-finite flag is an exact integer exponent-mask test,
/// and when it is clear every value is finite, where vector and scalar
/// min/max agree exactly (no rounding, no NaN ambiguity).
fn scan(data: &[f32]) -> (f32, f32, bool) {
    #[cfg(target_arch = "x86_64")]
    {
        if crate::simd::simd_available() {
            // SAFETY: AVX2 presence was just runtime-checked.
            return unsafe { scan_avx2(data) };
        }
    }
    scan_portable(data)
}

/// Portable fallback: lane-wise compare-selects instead of `f32::min`'s
/// NaN bookkeeping, and an exponent-mask accumulator instead of an
/// early `is_finite` return (NaN compares false against everything, so
/// a NaN never displaces a lane accumulator — the mask is what catches
/// it).
fn scan_portable(data: &[f32]) -> (f32, f32, bool) {
    let mut lo = [f32::INFINITY; SCAN_LANES];
    let mut hi = [f32::NEG_INFINITY; SCAN_LANES];
    let mut bad = [0u32; SCAN_LANES];
    let mut chunks = data.chunks_exact(SCAN_LANES);
    for chunk in &mut chunks {
        for i in 0..SCAN_LANES {
            let v = chunk[i];
            bad[i] |= u32::from(v.to_bits() & EXP_MASK == EXP_MASK);
            lo[i] = if v < lo[i] { v } else { lo[i] };
            hi[i] = if v > hi[i] { v } else { hi[i] };
        }
    }
    let (mut lo, mut hi) = (lo.iter().copied().fold(f32::INFINITY, f32::min), {
        hi.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    });
    let mut nonfinite = bad.iter().any(|&b| b != 0);
    for &v in chunks.remainder() {
        nonfinite |= v.to_bits() & EXP_MASK == EXP_MASK;
        lo = if v < lo { v } else { lo };
        hi = if v > hi { v } else { hi };
    }
    (lo, hi, nonfinite)
}

/// AVX2 scan: 8-lane min/max plus an integer all-ones-exponent test per
/// load. `vminps`/`vmaxps` NaN semantics (a NaN operand can displace an
/// accumulator lane) don't matter here: any NaN also sets the non-finite
/// mask, and a set mask means lo/hi are never consulted.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn scan_avx2(data: &[f32]) -> (f32, f32, bool) {
    use core::arch::x86_64::*;
    let mut lo8 = _mm256_set1_ps(f32::INFINITY);
    let mut hi8 = _mm256_set1_ps(f32::NEG_INFINITY);
    let mut bad8 = _mm256_setzero_si256();
    let exp = _mm256_set1_epi32(EXP_MASK as i32);
    let n = data.len();
    let mut i = 0;
    while i + 8 <= n {
        let v = _mm256_loadu_ps(data.as_ptr().add(i));
        lo8 = _mm256_min_ps(lo8, v);
        hi8 = _mm256_max_ps(hi8, v);
        let m = _mm256_and_si256(_mm256_castps_si256(v), exp);
        bad8 = _mm256_or_si256(bad8, _mm256_cmpeq_epi32(m, exp));
        i += 8;
    }
    let mut lo_l = [0.0f32; 8];
    let mut hi_l = [0.0f32; 8];
    _mm256_storeu_ps(lo_l.as_mut_ptr(), lo8);
    _mm256_storeu_ps(hi_l.as_mut_ptr(), hi8);
    let mut lo = lo_l.iter().copied().fold(f32::INFINITY, f32::min);
    let mut hi = hi_l.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut nonfinite = _mm256_movemask_epi8(bad8) != 0;
    for &v in &data[i..] {
        nonfinite |= v.to_bits() & EXP_MASK == EXP_MASK;
        lo = if v < lo { v } else { lo };
        hi = if v > hi { v } else { hi };
    }
    (lo, hi, nonfinite)
}

fn min_max(data: &[f32]) -> (f32, f32) {
    let (lo, hi, _) = scan(data);
    (lo, hi)
}

fn check_node(
    envelopes: &[Option<Envelope>],
    slack: f32,
    idx: usize,
    t: &Tensor,
) -> Option<GuardTrip> {
    let (lo, hi, nonfinite) = scan(t.data());
    if nonfinite {
        return Some(GuardTrip::NonFinite);
    }
    if let Some(env) = envelopes.get(idx).copied().flatten() {
        let w = env.widened(slack);
        if lo < w.lo || hi > w.hi {
            return Some(GuardTrip::OutOfEnvelope);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Executor;
    use edgebench_graph::{ActivationKind, Graph, GraphBuilder};
    use proptest::prelude::*;

    fn tiny_graph() -> Graph {
        let mut b = GraphBuilder::new("tiny");
        let x = b.input([1, 3, 8, 8]);
        let c = b.conv2d(x, 4, (3, 3), (1, 1), (1, 1)).unwrap();
        let r = b.activation(c, ActivationKind::Relu).unwrap();
        let f = b.flatten(r).unwrap();
        let d = b.dense(f, 10).unwrap();
        let s = b.softmax(d).unwrap();
        b.build(s).unwrap()
    }

    #[test]
    fn checksum_is_sensitive_to_every_bit() {
        let data = vec![0.5f32, -1.25, 3.0];
        let base = checksum_f32(&data);
        for elem in 0..data.len() {
            for bit in 0..32u8 {
                let mut flipped = data.clone();
                flipped[elem] = f32::from_bits(flipped[elem].to_bits() ^ (1 << bit));
                assert_ne!(checksum_f32(&flipped), base, "elem {elem} bit {bit}");
            }
        }
    }

    /// The digest as the plain eight-lane loop, with no register barrier
    /// and no prefetch: `fold_f32` must match it bit for bit.
    fn checksum_reference(h: u64, words: &[f32]) -> u64 {
        let mut lanes = [h; HASH_LANES];
        for (i, lane) in lanes.iter_mut().enumerate() {
            *lane = (*lane ^ (i as u64 + 1)).wrapping_mul(FNV_PRIME);
        }
        let pairs = words.len() / 2;
        let rounds = pairs / HASH_LANES;
        // SAFETY: as in `fold_f32`, every read is in bounds.
        unsafe {
            let mut p = words.as_ptr().cast::<u64>();
            for _ in 0..rounds {
                for (i, lane) in lanes.iter_mut().enumerate() {
                    *lane = (*lane ^ p.add(i).read_unaligned()).wrapping_mul(FNV_PRIME);
                }
                p = p.add(HASH_LANES);
            }
        }
        let mut out = h;
        for lane in lanes {
            out = (out ^ lane).wrapping_mul(FNV_PRIME);
        }
        for w in &words[rounds * HASH_LANES * 2..] {
            out = (out ^ w.to_bits() as u64).wrapping_mul(FNV_PRIME);
        }
        (out ^ words.len() as u64).wrapping_mul(FNV_PRIME)
    }

    /// One `f32` of the property below: a random bit pattern, a NaN with
    /// a payload, a signed zero, a subnormal or an infinity.
    fn word(kind: usize, bits: usize) -> f32 {
        let bits = bits as u32;
        let sign = bits & 0x8000_0000;
        let frac = bits & 0x007f_ffff;
        f32::from_bits(match kind {
            1 => sign | 0x7f80_0000 | frac.max(1),
            2 => sign,
            3 => sign | frac,
            4 => sign | 0x7f80_0000,
            _ => bits,
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        #[test]
        fn checksum_matches_reference(case in (
            prop::collection::vec((0usize..8, 0usize..(1 << 32)), 0..301),
            1usize..=4,
            0usize..(1 << 32),
        )) {
            let (draws, n_parts, cuts) = case;
            let data: Vec<f32> = draws.iter().map(|&(k, b)| word(k, b)).collect();
            let got = checksum_f32(&data);
            prop_assert_eq!(got, checksum_reference(FNV_OFFSET, &data));
            // Chain the same words as 1-4 parts cut at drawn points, so
            // parts start at odd and unaligned offsets too.
            let mut ends: Vec<usize> = (1..n_parts)
                .map(|i| (cuts >> (8 * i)) % (data.len() + 1))
                .collect();
            ends.push(data.len());
            ends.sort_unstable();
            let mut parts = Vec::new();
            let mut start = 0;
            for end in ends {
                parts.push(&data[start..end]);
                start = end;
            }
            let want = parts
                .iter()
                .fold(FNV_OFFSET, |h, p| checksum_reference(h, p));
            prop_assert_eq!(checksum_parts(&parts), want);
        }
    }

    #[test]
    fn checksum_matches_reference_on_a_multi_mib_buffer() {
        // 3 MiB plus an odd tail, hashed whole and from an unaligned start.
        let n = 3 * (1 << 18) + 13;
        let data: Vec<f32> = (0..n as u32)
            .map(|i| f32::from_bits(i.wrapping_mul(0x9e37_79b9) ^ (i >> 7)))
            .collect();
        assert_eq!(checksum_f32(&data), checksum_reference(FNV_OFFSET, &data));
        assert_eq!(
            checksum_f32(&data[1..]),
            checksum_reference(FNV_OFFSET, &data[1..])
        );
    }

    #[test]
    fn checksum_of_a_fixed_vector_is_pinned() {
        // Stored weight checksums and the pinned model outputs depend on
        // the digest never moving.
        let data: Vec<f32> = (0..1000u32)
            .map(|i| f32::from_bits(i.wrapping_mul(0x9e37_79b9)))
            .collect();
        assert_eq!(checksum_f32(&data), 0xc782_7b95_2731_7567);
    }

    #[test]
    fn checksum_distinguishes_part_boundaries() {
        let a = [1.0f32, 2.0];
        let b = [3.0f32];
        let c = [1.0f32];
        let d = [2.0f32, 3.0];
        assert_ne!(checksum_parts(&[&a, &b]), checksum_parts(&[&c, &d]));
    }

    #[test]
    fn flip_then_verify_then_repair_round_trips() {
        let g = tiny_graph();
        let x = Tensor::random([1, 3, 8, 8], 3);
        let mut prepared = Executor::new(&g).with_seed(5).prepare().unwrap();
        let clean = prepared.run(&x).unwrap();
        assert!(prepared.verify_params().is_empty());

        // Find a parameterized node and flip one weight bit.
        let node = (0..prepared.node_count())
            .find(|&i| prepared.param_elems(i) > 0)
            .unwrap();
        assert!(prepared.corrupt_param_bit(node, 0, 30));
        assert_eq!(prepared.verify_params(), vec![node]);

        let bytes = prepared.repair_node(node).unwrap();
        assert!(bytes > 0);
        assert!(prepared.verify_params().is_empty());
        assert_eq!(prepared.run(&x).unwrap(), clean);
    }

    #[test]
    fn guarded_run_matches_unguarded_when_clean() {
        let g = tiny_graph();
        let x = Tensor::random([1, 3, 8, 8], 3);
        let clean = Executor::new(&g).with_seed(5).run(&x).unwrap();
        let prepared = Executor::new(&g).with_seed(5).prepare().unwrap();
        let mut guarded = GuardedExecutor::new(prepared, GuardConfig::default().with_cadence(1));
        guarded.calibrate(&[&x]).unwrap();
        assert!(guarded.calibrated());
        for _ in 0..3 {
            assert_eq!(guarded.run(&x).unwrap(), clean);
        }
        let s = guarded.stats();
        assert_eq!(s.inferences, 3);
        assert_eq!(s.guard_trips, 0);
        assert_eq!(s.checksum_mismatches, 0);
        assert!(s.scrubs >= 3, "cadence 1 scrubs before every run");
    }

    #[test]
    fn weight_flip_is_repaired_on_cadence_and_output_stays_clean() {
        let g = tiny_graph();
        let x = Tensor::random([1, 3, 8, 8], 3);
        let prepared = Executor::new(&g).with_seed(5).prepare().unwrap();
        let mut guarded = GuardedExecutor::new(prepared, GuardConfig::default().with_cadence(1));
        guarded.calibrate(&[&x]).unwrap();
        let clean = guarded.run(&x).unwrap();

        let node = (0..guarded.inner().node_count())
            .find(|&i| guarded.inner().param_elems(i) > 0)
            .unwrap();
        assert!(guarded.inner_mut().corrupt_param_bit(node, 1, 27));
        // Cadence-1 scrub repairs the flip before the next run executes.
        assert_eq!(guarded.run(&x).unwrap(), clean);
        let s = guarded.stats();
        assert_eq!(s.checksum_mismatches, 1);
        assert_eq!(s.repairs, 1);
        assert!(s.repaired_bytes > 0);
        assert_eq!(s.corrupted_outputs, 0);
    }

    #[test]
    fn transient_nan_injection_trips_guard_and_recovers_via_retry() {
        let g = tiny_graph();
        let x = Tensor::random([1, 3, 8, 8], 3);
        let prepared = Executor::new(&g).with_seed(5).prepare().unwrap();
        let mut guarded = GuardedExecutor::new(prepared, GuardConfig::default());
        guarded.calibrate(&[&x]).unwrap();
        let clean = guarded.run(&x).unwrap();

        // Transient: corrupt only attempt 0; the retry runs clean.
        let out = guarded
            .run_injected(&x, &mut |attempt, idx, t| {
                if attempt == 0 && idx == 2 {
                    t.data_mut()[0] = f32::NAN;
                }
            })
            .unwrap();
        assert_eq!(out, clean);
        let s = guarded.stats();
        assert_eq!(s.guard_trips, 1);
        assert_eq!(s.retries, 1);
        assert_eq!(s.recovered, 1);
        assert_eq!(s.corrupted_outputs, 0);
    }

    #[test]
    fn persistent_corruption_is_reported_as_typed_outcome() {
        let g = tiny_graph();
        let x = Tensor::random([1, 3, 8, 8], 3);
        let prepared = Executor::new(&g).with_seed(5).prepare().unwrap();
        let mut guarded = GuardedExecutor::new(prepared, GuardConfig::default());
        guarded.calibrate(&[&x]).unwrap();

        // Persistent (stuck-at) fault: corrupts every attempt.
        let err = guarded
            .run_injected(&x, &mut |_, idx, t| {
                if idx == 2 {
                    t.data_mut()[0] = f32::INFINITY;
                }
            })
            .unwrap_err();
        assert!(matches!(err, ExecError::Corrupted { .. }));
        let s = guarded.stats();
        assert_eq!(s.guard_trips, 2);
        assert_eq!(s.retries, 1);
        assert_eq!(s.recovered, 0);
        assert_eq!(s.corrupted_outputs, 1);
    }

    #[test]
    fn out_of_envelope_values_trip_calibrated_guards() {
        let g = tiny_graph();
        let x = Tensor::random([1, 3, 8, 8], 3);
        let prepared = Executor::new(&g).with_seed(5).prepare().unwrap();
        let mut guarded = GuardedExecutor::new(prepared, GuardConfig::default().with_retry(false));
        guarded.calibrate(&[&x]).unwrap();

        let err = guarded
            .run_injected(&x, &mut |_, idx, t| {
                if idx == 1 {
                    // Far outside any conv output's clean range, but finite.
                    t.data_mut()[0] = 1e20;
                }
            })
            .unwrap_err();
        assert!(matches!(err, ExecError::Corrupted { .. }));
        assert_eq!(guarded.stats().guard_trips, 1);
        assert_eq!(guarded.stats().retries, 0);
    }

    #[test]
    fn events_render_stably() {
        let e = IntegrityEvent {
            inference: 4,
            node: 2,
            kind: IntegrityEventKind::Repaired { bytes: 512 },
        };
        assert_eq!(e.to_string(), "[i     4 n  2] repaired bytes=512");
        let t = IntegrityEvent {
            inference: 12,
            node: 0,
            kind: IntegrityEventKind::GuardTrip {
                trip: GuardTrip::NonFinite,
            },
        };
        assert_eq!(t.to_string(), "[i    12 n  0] guard-trip non-finite");
    }
}
