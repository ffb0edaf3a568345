//! The public/private ratio estimator (§VI, equations 1–9 of the paper).
//!
//! Croupiers (public nodes) count the shuffle requests they receive from public and private
//! senders per round. Over a sliding window of `α` rounds those counts yield a *local*
//! estimate `Eᵢ = Cᵤᵢ / (Cᵤᵢ + Cᵥᵢ)` (equation 6). Local estimates are piggy-backed on
//! shuffle messages and cached by every node for up to `γ` rounds; the node-level estimate
//! of ω averages the cached estimates (plus the node's own, if it is public — equations
//! 8 and 9).

use std::collections::VecDeque;

use croupier_simulator::{InlineVec, NatClass, NodeId};
use rand::rngs::SmallRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Serialized size of one piggy-backed estimate, in bytes: two bytes of node identifier,
/// one byte each for the public and private request counts and one byte of timestamp —
/// exactly the encoding the paper charges 5 bytes for (§VII, protocol overhead).
pub const ESTIMATE_WIRE_BYTES: usize = 5;

/// Inline capacity of [`EstimateBatch`]: the paper's default share size (10) plus the
/// sender's own estimate, with one slot of headroom. Larger share configurations spill to
/// the heap transparently.
pub const ESTIMATE_INLINE_CAPACITY: usize = 12;

/// A bounded list of piggy-backed ratio estimates as carried in shuffle messages.
pub type EstimateBatch = InlineVec<EstimateRecord, ESTIMATE_INLINE_CAPACITY>;

/// Number of low bits of [`EstimateRecord`]'s packed word holding the origin identifier;
/// the remaining 24 high bits hold the age.
const ORIGIN_BITS: u32 = 40;
/// Mask selecting the origin-identifier bits.
const ORIGIN_MASK: u64 = (1 << ORIGIN_BITS) - 1;
/// The largest age an estimate record can carry (ages saturate here instead of wrapping).
const RECORD_AGE_MAX: u32 = (1u64 << (64 - ORIGIN_BITS)) as u32 - 1;

/// A ratio estimate produced by one croupier, as carried in shuffle messages.
///
/// The origin identifier and the age are bit-packed into one `u64` (origin in bits
/// `0..40`, age in bits `40..64`), shrinking the record from 24 padded bytes to 16 — at
/// a million nodes the pooled [`EstimateBatch`]es and per-node caches built from these
/// records are a first-order memory term. The ratio stays a full `f64`: it feeds float
/// averaging whose outputs the figure tests pin byte-identical, so its precision cannot
/// be reduced. Fields are reached through [`origin`](EstimateRecord::origin) and
/// [`age`](EstimateRecord::age).
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct EstimateRecord {
    /// Origin identifier (low 40 bits) and age (high 24 bits).
    packed: u64,
    /// The estimated public/private ratio (equation 6).
    pub ratio: f64,
}

impl EstimateRecord {
    /// Creates a fresh estimate record.
    ///
    /// # Panics
    ///
    /// Panics if the origin identifier does not fit the packed layout's 40 id bits.
    pub fn new(origin: NodeId, ratio: f64) -> Self {
        EstimateRecord::with_age(origin, ratio, 0)
    }

    /// Creates an estimate record with an explicit age (saturated to the packed field's
    /// 24-bit range).
    ///
    /// # Panics
    ///
    /// Panics if the origin identifier does not fit the packed layout's 40 id bits.
    pub fn with_age(origin: NodeId, ratio: f64, age: u32) -> Self {
        let id = origin.as_u64();
        assert!(
            id <= ORIGIN_MASK,
            "origin id {id} exceeds the estimate record's 40-bit address space"
        );
        EstimateRecord {
            packed: id | ((age.min(RECORD_AGE_MAX) as u64) << ORIGIN_BITS),
            ratio,
        }
    }

    /// The public node that produced the estimate.
    pub const fn origin(self) -> NodeId {
        NodeId::new(self.packed & ORIGIN_MASK)
    }

    /// Rounds elapsed since the estimate was produced.
    pub const fn age(self) -> u32 {
        (self.packed >> ORIGIN_BITS) as u32
    }
}

#[derive(Clone, Copy, Debug)]
struct CachedEstimate {
    ratio: f64,
    age: u32,
}

/// The per-node state of the distributed ratio-estimation algorithm.
///
/// # Examples
///
/// ```
/// use croupier::RatioEstimator;
/// use croupier_simulator::{NatClass, NodeId};
///
/// // A croupier that receives one public and four private requests per round converges to
/// // a local estimate of 0.2.
/// let mut est = RatioEstimator::new(NatClass::Public, 25, 50);
/// for _ in 0..30 {
///     est.record_request(NatClass::Public);
///     for _ in 0..4 {
///         est.record_request(NatClass::Private);
///     }
///     est.advance_round();
/// }
/// assert!((est.local_estimate().unwrap() - 0.2).abs() < 1e-9);
/// ```
#[derive(Clone, Debug)]
pub struct RatioEstimator {
    class: NatClass,
    alpha: usize,
    gamma: u32,
    current_public_hits: u32,
    current_private_hits: u32,
    history: VecDeque<(u32, u32)>,
    local_estimate: Option<f64>,
    // Sorted by origin id. Ascending-id iteration keeps whole simulation runs bit-for-bit
    // reproducible for a fixed seed (this replaced a BTreeMap with the same iteration
    // order); a flat sorted vector additionally makes the per-round cache maintenance
    // allocation-free once its capacity has warmed up, where the tree allocated and freed
    // a node per insert/expiry. `share` samples it in place: this cache is the estimator's
    // only per-node state that grows with the public population.
    neighbour_estimates: Vec<(NodeId, CachedEstimate)>,
}

impl RatioEstimator {
    /// Creates an estimator for a node of class `class` with a local history of `alpha`
    /// rounds and a neighbour history of `gamma` rounds.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is zero.
    pub fn new(class: NatClass, alpha: usize, gamma: u32) -> Self {
        assert!(alpha > 0, "alpha (local history) must be positive");
        RatioEstimator {
            class,
            alpha,
            gamma,
            current_public_hits: 0,
            current_private_hits: 0,
            history: VecDeque::with_capacity(alpha + 1),
            local_estimate: None,
            neighbour_estimates: Vec::new(),
        }
    }

    /// The node class this estimator was created for.
    pub fn class(&self) -> NatClass {
        self.class
    }

    /// Records the receipt of one shuffle request from a sender of class `sender`.
    ///
    /// Only croupiers (public nodes) receive shuffle requests; calling this on a private
    /// node's estimator is harmless but has no effect on its estimate, which never uses a
    /// local component (equation 9).
    pub fn record_request(&mut self, sender: NatClass) {
        match sender {
            NatClass::Public => self.current_public_hits += 1,
            NatClass::Private => self.current_private_hits += 1,
        }
    }

    /// Advances the estimator by one gossip round, following the order of Algorithm 2:
    /// cached neighbour estimates age (and expire after `γ` rounds), the local estimate is
    /// recomputed from the hit history of the last `α` rounds, and the current round's hit
    /// counters are pushed into the history.
    pub fn advance_round(&mut self) {
        // Age and expire neighbour estimates (in place; the sorted order is unaffected).
        for (_, cached) in self.neighbour_estimates.iter_mut() {
            cached.age = cached.age.saturating_add(1);
        }
        let gamma = self.gamma;
        self.neighbour_estimates
            .retain(|(_, cached)| cached.age <= gamma);

        // Croupiers recompute their local estimate from the hit history (equation 6,
        // evaluated before the current round's counters are appended, as in Algorithm 2).
        if self.class.is_public() {
            if let Some(ratio) = self.hits_ratio() {
                self.local_estimate = Some(ratio);
            }
        }

        // Append the current round's counters and trim the window to α rounds.
        self.history
            .push_back((self.current_public_hits, self.current_private_hits));
        while self.history.len() > self.alpha {
            self.history.pop_front();
        }
        self.current_public_hits = 0;
        self.current_private_hits = 0;
    }

    /// The ratio of public hits to total hits over the current history window (the paper's
    /// `CalcHitsRatio`), or `None` if no request has been received in the window.
    pub fn hits_ratio(&self) -> Option<f64> {
        let (public, private) = self.history.iter().fold((0u64, 0u64), |(p, v), (cu, cv)| {
            (p + *cu as u64, v + *cv as u64)
        });
        let total = public + private;
        if total == 0 {
            None
        } else {
            Some(public as f64 / total as f64)
        }
    }

    /// The node's own (local) estimate `Eᵢ`, if it has received any requests yet. Always
    /// `None` for private nodes.
    pub fn local_estimate(&self) -> Option<f64> {
        self.local_estimate
    }

    /// Ingests ratio estimates received from a peer, keeping for every origin the freshest
    /// record and discarding records older than `γ` or produced by `self_node`.
    pub fn ingest(&mut self, records: &[EstimateRecord], self_node: NodeId) {
        for record in records {
            if record.origin() == self_node || record.age() > self.gamma {
                continue;
            }
            if !record.ratio.is_finite() || !(0.0..=1.0).contains(&record.ratio) {
                continue;
            }
            let fresh = CachedEstimate {
                ratio: record.ratio,
                age: record.age(),
            };
            match self
                .neighbour_estimates
                .binary_search_by_key(&record.origin(), |(origin, _)| *origin)
            {
                Ok(i) => {
                    if self.neighbour_estimates[i].1.age > record.age() {
                        self.neighbour_estimates[i].1 = fresh;
                    }
                }
                Err(i) => self.neighbour_estimates.insert(i, (record.origin(), fresh)),
            }
        }
    }

    /// Returns up to `count` cached neighbour estimates chosen uniformly at random, plus the
    /// node's own estimate (fresh, age zero) if it has one — the payload piggy-backed on a
    /// shuffle message.
    ///
    /// Floyd's algorithm draws the subset in place: one `gen_range` per shared record and
    /// none when `count` covers the cache, so the cost does not grow with the cache. The
    /// payload is inline and allocates nothing at the default share size.
    pub fn share(&self, count: usize, self_node: NodeId, rng: &mut SmallRng) -> EstimateBatch {
        let cache = &self.neighbour_estimates;
        let draw = count < cache.len();
        let count = count.min(cache.len());
        let mut records = EstimateBatch::new();
        // Floyd: take a uniform t in 0..=j, or j if t is already in the batch (origins are
        // unique). Without `draw`, t = j takes the whole cache in ascending order.
        for j in cache.len() - count..cache.len() {
            let t = if draw { rng.gen_range(0..=j) } else { j };
            let taken = records.iter().any(|r| r.origin() == cache[t].0);
            let (origin, cached) = cache[if taken { j } else { t }];
            records.push(EstimateRecord::with_age(origin, cached.ratio, cached.age));
        }
        if let Some(own) = self.local_estimate {
            if self.class.is_public() {
                records.push(EstimateRecord::new(self_node, own));
            }
        }
        records
    }

    /// The node-level estimate of ω (equations 8 and 9): the average of the cached
    /// neighbour estimates, including the node's own local estimate if it is a croupier.
    ///
    /// Returns `None` while the node has not collected any estimate yet.
    pub fn estimate(&self) -> Option<f64> {
        let mut sum: f64 = self.neighbour_estimates.iter().map(|(_, c)| c.ratio).sum();
        let mut count = self.neighbour_estimates.len();
        if self.class.is_public() {
            if let Some(own) = self.local_estimate {
                sum += own;
                count += 1;
            }
        }
        if count == 0 {
            None
        } else {
            Some(sum / count as f64)
        }
    }

    /// Number of cached neighbour estimates.
    pub fn cached_count(&self) -> usize {
        self.neighbour_estimates.len()
    }

    /// The α (local history) parameter.
    pub fn alpha(&self) -> usize {
        self.alpha
    }

    /// The γ (neighbour history) parameter.
    pub fn gamma(&self) -> u32 {
        self.gamma
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(9)
    }

    #[test]
    fn local_estimate_tracks_hit_ratio() {
        let mut est = RatioEstimator::new(NatClass::Public, 10, 20);
        for _ in 0..5 {
            est.record_request(NatClass::Public);
            est.record_request(NatClass::Private);
            est.record_request(NatClass::Private);
            est.record_request(NatClass::Private);
            est.advance_round();
        }
        assert!((est.local_estimate().unwrap() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn local_estimate_uses_only_the_alpha_window() {
        let mut est = RatioEstimator::new(NatClass::Public, 3, 20);
        // Three rounds of only-public requests ...
        for _ in 0..3 {
            est.record_request(NatClass::Public);
            est.advance_round();
        }
        // ... then four rounds of only-private requests push the public rounds out of the
        // window entirely.
        for _ in 0..4 {
            est.record_request(NatClass::Private);
            est.advance_round();
        }
        assert!((est.local_estimate().unwrap() - 0.0).abs() < 1e-9);
        assert_eq!(est.hits_ratio(), Some(0.0));
    }

    #[test]
    fn local_estimate_survives_quiet_rounds() {
        let mut est = RatioEstimator::new(NatClass::Public, 2, 20);
        est.record_request(NatClass::Public);
        est.advance_round();
        // Rounds with no requests at all: the previous estimate is retained rather than
        // replaced by an undefined 0/0 ratio.
        est.advance_round();
        est.advance_round();
        assert_eq!(est.local_estimate(), Some(1.0));
    }

    #[test]
    fn private_nodes_never_have_a_local_estimate() {
        let mut est = RatioEstimator::new(NatClass::Private, 10, 20);
        est.record_request(NatClass::Public);
        est.advance_round();
        assert_eq!(est.local_estimate(), None);
    }

    #[test]
    fn estimate_averages_neighbours_and_self() {
        let mut est = RatioEstimator::new(NatClass::Public, 5, 20);
        // Local estimate becomes 0.5.
        est.record_request(NatClass::Public);
        est.record_request(NatClass::Private);
        est.advance_round();
        est.advance_round();
        est.ingest(
            &[
                EstimateRecord::new(NodeId::new(1), 0.2),
                EstimateRecord::new(NodeId::new(2), 0.3),
            ],
            NodeId::new(0),
        );
        // Equation 8: (0.2 + 0.3 + 0.5) / 3.
        let e = est.estimate().unwrap();
        assert!((e - 1.0 / 3.0).abs() < 1e-9, "estimate was {e}");
    }

    #[test]
    fn private_estimate_averages_only_neighbours() {
        let mut est = RatioEstimator::new(NatClass::Private, 5, 20);
        assert_eq!(est.estimate(), None);
        est.ingest(
            &[
                EstimateRecord::new(NodeId::new(1), 0.2),
                EstimateRecord::new(NodeId::new(2), 0.4),
            ],
            NodeId::new(0),
        );
        assert!((est.estimate().unwrap() - 0.3).abs() < 1e-9);
    }

    #[test]
    fn ingest_keeps_the_freshest_record_per_origin() {
        let mut est = RatioEstimator::new(NatClass::Private, 5, 20);
        est.ingest(
            &[EstimateRecord::with_age(NodeId::new(1), 0.9, 10)],
            NodeId::new(0),
        );
        est.ingest(
            &[EstimateRecord::with_age(NodeId::new(1), 0.1, 2)],
            NodeId::new(0),
        );
        assert!((est.estimate().unwrap() - 0.1).abs() < 1e-9);
        // An older record does not overwrite the fresher one.
        est.ingest(
            &[EstimateRecord::with_age(NodeId::new(1), 0.9, 15)],
            NodeId::new(0),
        );
        assert!((est.estimate().unwrap() - 0.1).abs() < 1e-9);
    }

    #[test]
    fn ingest_rejects_own_stale_and_invalid_records() {
        let mut est = RatioEstimator::new(NatClass::Private, 5, 10);
        est.ingest(
            &[
                EstimateRecord::new(NodeId::new(0), 0.5),          // self
                EstimateRecord::with_age(NodeId::new(1), 0.5, 11), // too old
                EstimateRecord::new(NodeId::new(2), f64::NAN),     // invalid
                EstimateRecord::new(NodeId::new(3), 1.5),          // out of range
            ],
            NodeId::new(0),
        );
        assert_eq!(est.cached_count(), 0);
        assert_eq!(est.estimate(), None);
    }

    #[test]
    fn neighbour_estimates_expire_after_gamma_rounds() {
        let mut est = RatioEstimator::new(NatClass::Private, 5, 3);
        est.ingest(&[EstimateRecord::new(NodeId::new(1), 0.4)], NodeId::new(0));
        for _ in 0..3 {
            est.advance_round();
        }
        assert_eq!(est.cached_count(), 1);
        est.advance_round();
        assert_eq!(est.cached_count(), 0);
        assert_eq!(est.estimate(), None);
    }

    #[test]
    fn share_bounds_the_payload_and_appends_own_estimate() {
        let mut est = RatioEstimator::new(NatClass::Public, 5, 50);
        for i in 1..=20u64 {
            est.ingest(&[EstimateRecord::new(NodeId::new(i), 0.5)], NodeId::new(0));
        }
        est.record_request(NatClass::Public);
        est.advance_round();
        // The local estimate is computed from the history *before* the current round's
        // counters are appended (Algorithm 2), so a second round is needed for the first
        // round's hit to become visible.
        est.advance_round();
        let mut r = rng();
        let shared = est.share(10, NodeId::new(0), &mut r);
        assert_eq!(shared.len(), 11, "10 cached + the node's own estimate");
        assert!(shared
            .iter()
            .any(|rec| rec.origin() == NodeId::new(0) && rec.age() == 0));
    }

    /// An estimator of class `class` caching one estimate from each of origins `1..=cached`,
    /// with a local estimate when `with_local` (public nodes only).
    fn estimator_with_cache(class: NatClass, cached: u64, with_local: bool) -> RatioEstimator {
        let mut est = RatioEstimator::new(class, 5, 50);
        if with_local {
            est.record_request(NatClass::Public);
            est.advance_round();
            est.advance_round();
        }
        let records: Vec<EstimateRecord> = (1..=cached)
            .map(|i| EstimateRecord::new(NodeId::new(i), 0.25))
            .collect();
        est.ingest(&records, NodeId::new(0));
        est
    }

    #[test]
    fn share_draws_distinct_cached_origins_plus_own_estimate_on_public_nodes() {
        let me = NodeId::new(0);
        let mut r = rng();
        for (class, with_local) in [
            (NatClass::Public, true),
            (NatClass::Public, false),
            (NatClass::Private, false),
        ] {
            let own = usize::from(with_local);
            for cached in [0u64, 3, 10, 11, 50, 800] {
                let est = estimator_with_cache(class, cached, with_local);
                for count in [0usize, 1, 10, 50] {
                    let shared = est.share(count, me, &mut r);
                    let drawn = count.min(cached as usize);
                    assert_eq!(shared.len(), drawn + own, "{class:?} {cached} {count}");
                    let mut origins: Vec<NodeId> =
                        shared[..drawn].iter().map(|rec| rec.origin()).collect();
                    origins.sort();
                    origins.dedup();
                    assert_eq!(origins.len(), drawn, "duplicate origin in {shared:?}");
                    assert!(origins.iter().all(|o| (1..=cached).contains(&o.as_u64())));
                    if with_local {
                        assert_eq!(shared[drawn].origin(), me);
                        assert_eq!(shared[drawn].age(), 0);
                    }
                }
            }
        }
    }

    #[test]
    fn share_makes_no_draw_when_the_cache_fits() {
        let est = estimator_with_cache(NatClass::Public, 10, true);
        let mut r = rng();
        let untouched = r.clone();
        for count in [10, 11, 100] {
            let shared = est.share(count, NodeId::new(0), &mut r);
            assert_eq!(shared.len(), 11);
        }
        assert_eq!(
            r, untouched,
            "share drew from the RNG although the cache fit"
        );
        est.share(9, NodeId::new(0), &mut r);
        assert_ne!(r, untouched, "a partial share must draw");
    }

    #[test]
    fn share_picks_every_cached_origin_uniformly() {
        const CACHED: u64 = 100;
        const SHARES: u64 = 20_000;
        const COUNT: usize = 10;
        // Upper 0.1 % point of the χ² distribution with CACHED - 1 = 99 degrees of freedom.
        const CHI2_99_P001: f64 = 148.23;
        let est = estimator_with_cache(NatClass::Private, CACHED, false);
        let mut r = rng();
        let mut hits = vec![0u64; CACHED as usize + 1];
        for _ in 0..SHARES {
            for rec in est.share(COUNT, NodeId::new(0), &mut r).iter() {
                hits[rec.origin().as_u64() as usize] += 1;
            }
        }
        let expected = (SHARES * COUNT as u64) as f64 / CACHED as f64;
        let chi2: f64 = hits[1..]
            .iter()
            .map(|&h| (h as f64 - expected).powi(2) / expected)
            .sum();
        assert!(
            chi2 < CHI2_99_P001,
            "χ² = {chi2:.1} over {CACHED} origins exceeds {CHI2_99_P001}: {hits:?}"
        );
    }

    #[test]
    fn share_without_local_estimate_is_only_cached_records() {
        let est = RatioEstimator::new(NatClass::Private, 5, 50);
        let mut r = rng();
        assert!(est.share(10, NodeId::new(0), &mut r).is_empty());
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn zero_alpha_is_rejected() {
        RatioEstimator::new(NatClass::Public, 0, 10);
    }

    #[test]
    fn accessors_report_parameters() {
        let est = RatioEstimator::new(NatClass::Public, 25, 50);
        assert_eq!(est.alpha(), 25);
        assert_eq!(est.gamma(), 50);
        assert_eq!(est.class(), NatClass::Public);
    }
}
