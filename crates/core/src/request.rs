//! The request strategy (paper §2.4, §3.3.2).
//!
//! A receiver keeps, per sender, the list of blocks that sender has
//! advertised and the receiver still needs, plus a global map of requests
//! currently outstanding anywhere. When a request slot opens towards a
//! sender, the strategy orders that sender's candidates and picks the head of
//! the list:
//!
//! * **first-encountered** — discovery order (the strawman; leads to low
//!   block diversity);
//! * **random** — uniformly random order;
//! * **rarest** — fewest advertising senders first, deterministic tie-break;
//! * **rarest-random** — fewest advertising senders first, ties broken
//!   uniformly at random (Bullet′'s default).
//!
//! A block is requested from at most one sender at a time; requests that stay
//! outstanding past a generous timeout are released so another sender can
//! provide the block (the paper notes that cancelling in-flight blocks is
//! impractical, so the timeout is insurance against pathological stalls, not
//! an optimisation).
//!
//! **Cost and RNG contract.** [`RequestManager::select_requests`] makes one
//! pass over the sender's discovery-ordered candidates and keeps the best
//! `count` in a bounded buffer: O(candidates · count) comparisons with
//! `count` usually 1–3, no sort and no allocation beyond the returned
//! `Vec`. `random` and `rarest-random` draw exactly one `u64` per unrequested
//! candidate, in discovery order; `first-encountered` and `rarest` draw
//! none. Per-sender outstanding counts are kept incrementally, so
//! [`RequestManager::outstanding_to`] does not scan the in-flight map.
//! Changing the candidate order, the keys or the number of draws changes
//! every run's output and needs a deliberate re-baseline of the pinned
//! digests in `tests/determinism.rs`.

use std::collections::BTreeMap;

use desim::{SimDuration, SimTime};
use dissem_codec::{BlockBitmap, BlockId};
use netsim::NodeId;
use rand::rngs::StdRng;
use rand::Rng;

use crate::config::RequestStrategy;

/// Per-sender availability bookkeeping.
#[derive(Debug, Clone)]
struct SenderAvailability {
    /// Blocks in the order their availability was discovered (what preserves
    /// the first-encountered semantics and the RNG-keyed candidate order).
    order: Vec<BlockId>,
    /// Membership bitmap for O(1) lookups and word-level counting.
    bits: BlockBitmap,
    /// Number of `in_flight` entries addressed to this sender.
    outstanding: usize,
}

impl SenderAvailability {
    fn new(block_space: u32) -> Self {
        SenderAvailability {
            order: Vec::new(),
            bits: BlockBitmap::new(block_space),
            outstanding: 0,
        }
    }
}

/// A selection key, smaller first: `(rarity, tie-break)`. `random` uses a
/// rarity of 0, `rarest` the block index as its tie-break, and
/// `first-encountered` the constant `(0, 0)`, so discovery order decides.
type Key = (u32, u64);

/// A request currently outstanding to some sender.
#[derive(Debug, Clone, Copy)]
struct InFlight {
    to: NodeId,
    since: SimTime,
}

/// Receiver-side request state across all senders.
#[derive(Debug, Clone)]
pub struct RequestManager {
    strategy: RequestStrategy,
    /// Number of senders currently advertising each block.
    rarity: Vec<u32>,
    available: BTreeMap<NodeId, SenderAvailability>,
    in_flight: BTreeMap<BlockId, InFlight>,
    /// Bitmap mirror of `in_flight`'s keys, for O(1) membership tests and
    /// word-level candidate counting.
    in_flight_bits: BlockBitmap,
    /// Reused top-k buffer of `select_requests`, ascending by key.
    best: Vec<(Key, BlockId)>,
}

impl RequestManager {
    /// Creates a manager for a block space of `block_space` ids.
    pub fn new(strategy: RequestStrategy, block_space: u32) -> Self {
        RequestManager {
            strategy,
            rarity: vec![0; block_space as usize],
            available: BTreeMap::new(),
            in_flight: BTreeMap::new(),
            in_flight_bits: BlockBitmap::new(block_space),
            best: Vec::new(),
        }
    }

    fn block_space(&self) -> u32 {
        self.rarity.len() as u32
    }

    /// The configured strategy.
    pub fn strategy(&self) -> RequestStrategy {
        self.strategy
    }

    /// Registers a new sender with no known availability yet.
    pub fn add_sender(&mut self, peer: NodeId) {
        let space = self.block_space();
        self.available
            .entry(peer)
            .or_insert_with(|| SenderAvailability::new(space));
    }

    /// Returns true if `peer` is a registered sender.
    pub fn has_sender(&self, peer: NodeId) -> bool {
        self.available.contains_key(&peer)
    }

    /// Removes a sender; its advertised blocks stop counting towards rarity
    /// and any requests outstanding to it are released. Returns the released
    /// blocks.
    pub fn remove_sender(&mut self, peer: NodeId) -> Vec<BlockId> {
        if let Some(av) = self.available.remove(&peer) {
            for b in av.bits.iter() {
                let r = &mut self.rarity[b.index()];
                *r = r.saturating_sub(1);
            }
        }
        let released: Vec<BlockId> = self
            .in_flight
            .iter()
            .filter(|(_, f)| f.to == peer)
            .map(|(b, _)| *b)
            .collect();
        for b in &released {
            self.in_flight.remove(b);
            self.in_flight_bits.remove(*b);
        }
        released
    }

    /// Records that `peer` advertised `blocks`. Blocks the receiver already
    /// holds are ignored.
    pub fn on_advertised(&mut self, peer: NodeId, blocks: &[BlockId], have: &BlockBitmap) {
        let space = self.block_space();
        let entry = self
            .available
            .entry(peer)
            .or_insert_with(|| SenderAvailability::new(space));
        for &b in blocks {
            if have.contains(b) || b.index() >= self.rarity.len() {
                continue;
            }
            if entry.bits.insert(b) {
                entry.order.push(b);
                self.rarity[b.index()] += 1;
            }
        }
    }

    /// Records a block arrival (from anywhere): clears its outstanding entry
    /// and drops it from every sender's candidate list.
    pub fn on_block_received(&mut self, block: BlockId) {
        if let Some(f) = self.in_flight.remove(&block) {
            self.in_flight_bits.remove(block);
            self.note_released(f.to);
        }
        for av in self.available.values_mut() {
            if av.bits.remove(block) {
                let r = &mut self.rarity[block.index()];
                *r = r.saturating_sub(1);
            }
        }
        // `order` vectors are compacted lazily during selection.
    }

    /// Number of blocks `peer` has advertised that we still need and have not
    /// requested anywhere (an estimate of how soon we will run out of
    /// candidates for this sender).
    pub fn useful_candidates(&self, peer: NodeId, have: &BlockBitmap) -> usize {
        // Word-level: |advertised & !have & !in_flight|, a few cache lines
        // instead of a per-block set walk.
        self.available
            .get(&peer)
            .map(|av| {
                av.bits
                    .words()
                    .iter()
                    .enumerate()
                    .map(|(i, &a)| {
                        let h = have.words().get(i).copied().unwrap_or(0);
                        let f = self.in_flight_bits.words().get(i).copied().unwrap_or(0);
                        (a & !h & !f).count_ones() as usize
                    })
                    .sum()
            })
            .unwrap_or(0)
    }

    /// Number of requests currently outstanding to `peer`.
    pub fn outstanding_to(&self, peer: NodeId) -> usize {
        self.available.get(&peer).map_or(0, |av| av.outstanding)
    }

    /// Total number of requests outstanding anywhere.
    pub fn outstanding_total(&self) -> usize {
        self.in_flight.len()
    }

    /// Chooses up to `count` blocks to request from `peer`, marks them
    /// outstanding and returns them in request order.
    pub fn select_requests(
        &mut self,
        peer: NodeId,
        count: usize,
        have: &BlockBitmap,
        now: SimTime,
        rng: &mut StdRng,
    ) -> Vec<BlockId> {
        if count == 0 {
            return Vec::new();
        }
        let Some(av) = self.available.get_mut(&peer) else {
            return Vec::new();
        };
        // Compact: drop blocks we already have or that left the set.
        let bits = &av.bits;
        av.order.retain(|b| bits.contains(*b) && !have.contains(*b));

        let strategy = self.strategy;
        let rarity = &self.rarity;
        let best = &mut self.best;
        best.clear();
        for b in av.order.iter().copied() {
            if self.in_flight_bits.contains(b) {
                continue;
            }
            let key = match strategy {
                RequestStrategy::FirstEncountered => (0, 0),
                RequestStrategy::Random => (0, rng.gen::<u64>()),
                RequestStrategy::Rarest => (rarity[b.index()], u64::from(b.0)),
                RequestStrategy::RarestRandom => (rarity[b.index()], rng.gen::<u64>()),
            };
            keep_best(best, count, key, b);
        }
        let chosen: Vec<BlockId> = best.iter().map(|&(_, b)| b).collect();

        av.outstanding += chosen.len();
        for &b in &chosen {
            self.in_flight.insert(
                b,
                InFlight {
                    to: peer,
                    since: now,
                },
            );
            self.in_flight_bits.insert(b);
        }
        chosen
    }

    /// Releases requests that have been outstanding longer than `timeout`, so
    /// the blocks become eligible for re-requesting from other senders.
    /// Returns `(sender, block)` pairs for the released requests.
    pub fn release_stale(&mut self, now: SimTime, timeout: SimDuration) -> Vec<(NodeId, BlockId)> {
        let mut released = Vec::new();
        self.in_flight.retain(|&block, f| {
            if now.saturating_since(f.since) >= timeout {
                released.push((f.to, block));
                false
            } else {
                true
            }
        });
        for &(peer, b) in &released {
            self.in_flight_bits.remove(b);
            self.note_released(peer);
        }
        released
    }

    /// Decrements `peer`'s outstanding count after one of its requests left
    /// `in_flight` (`remove_sender` drops the whole entry instead).
    fn note_released(&mut self, peer: NodeId) {
        if let Some(av) = self.available.get_mut(&peer) {
            av.outstanding -= 1;
        }
    }
}

/// Offers `(key, block)` to `best`, which holds at most `count` entries in
/// ascending key order: the smallest keys seen so far, earlier offers first
/// among equal keys (so the result equals a stable sort followed by
/// `take(count)`).
fn keep_best(best: &mut Vec<(Key, BlockId)>, count: usize, key: Key, block: BlockId) {
    if best.len() == count {
        match best.last() {
            Some(&(worst, _)) if key < worst => {
                best.pop();
            }
            _ => return,
        }
    }
    let at = best.partition_point(|&(k, _)| k <= key);
    best.insert(at, (key, block));
}

#[cfg(test)]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    fn ids(v: &[u32]) -> Vec<BlockId> {
        v.iter().copied().map(BlockId).collect()
    }

    #[test]
    fn first_encountered_respects_discovery_order() {
        let mut rm = RequestManager::new(RequestStrategy::FirstEncountered, 100);
        let have = BlockBitmap::new(100);
        rm.add_sender(NodeId(1));
        rm.on_advertised(NodeId(1), &ids(&[5, 3, 9]), &have);
        rm.on_advertised(NodeId(1), &ids(&[1]), &have);
        let got = rm.select_requests(NodeId(1), 3, &have, SimTime::ZERO, &mut rng());
        assert_eq!(got, ids(&[5, 3, 9]));
    }

    #[test]
    fn rarest_prefers_under_replicated_blocks() {
        let mut rm = RequestManager::new(RequestStrategy::Rarest, 100);
        let have = BlockBitmap::new(100);
        for p in 1..=3u32 {
            rm.add_sender(NodeId(p));
        }
        // Block 7 is advertised by all three peers; block 8 by two; block 9 by one.
        rm.on_advertised(NodeId(1), &ids(&[7, 8, 9]), &have);
        rm.on_advertised(NodeId(2), &ids(&[7, 8]), &have);
        rm.on_advertised(NodeId(3), &ids(&[7]), &have);
        let got = rm.select_requests(NodeId(1), 3, &have, SimTime::ZERO, &mut rng());
        assert_eq!(got, ids(&[9, 8, 7]));
    }

    #[test]
    fn rarest_random_breaks_ties_randomly_but_respects_rarity() {
        let mut rm = RequestManager::new(RequestStrategy::RarestRandom, 1000);
        let have = BlockBitmap::new(1000);
        rm.add_sender(NodeId(1));
        rm.add_sender(NodeId(2));
        // 50 blocks with rarity 2, one block (999) with rarity 1.
        let common: Vec<u32> = (0..50).collect();
        rm.on_advertised(NodeId(1), &ids(&common), &have);
        rm.on_advertised(NodeId(2), &ids(&common), &have);
        rm.on_advertised(NodeId(1), &ids(&[999]), &have);
        let got = rm.select_requests(NodeId(1), 1, &have, SimTime::ZERO, &mut rng());
        assert_eq!(got, ids(&[999]), "the uniquely rare block goes first");

        // Tie-break randomness: two fresh managers with different RNG seeds
        // pick different heads among equally-rare blocks.
        let pick = |seed: u64| -> BlockId {
            let mut rm = RequestManager::new(RequestStrategy::RarestRandom, 1000);
            let have = BlockBitmap::new(1000);
            rm.add_sender(NodeId(1));
            rm.on_advertised(NodeId(1), &ids(&common), &have);
            let mut r = StdRng::seed_from_u64(seed);
            rm.select_requests(NodeId(1), 1, &have, SimTime::ZERO, &mut r)[0]
        };
        let picks: std::collections::HashSet<u32> = (0..20).map(|s| pick(s).0).collect();
        assert!(
            picks.len() > 3,
            "random tie-break should spread choices, got {picks:?}"
        );
    }

    #[test]
    fn blocks_are_not_double_requested_across_senders() {
        let mut rm = RequestManager::new(RequestStrategy::FirstEncountered, 10);
        let have = BlockBitmap::new(10);
        rm.add_sender(NodeId(1));
        rm.add_sender(NodeId(2));
        rm.on_advertised(NodeId(1), &ids(&[0, 1, 2]), &have);
        rm.on_advertised(NodeId(2), &ids(&[0, 1, 2]), &have);
        let a = rm.select_requests(NodeId(1), 2, &have, SimTime::ZERO, &mut rng());
        let b = rm.select_requests(NodeId(2), 3, &have, SimTime::ZERO, &mut rng());
        assert_eq!(a, ids(&[0, 1]));
        assert_eq!(
            b,
            ids(&[2]),
            "blocks outstanding to peer 1 must not be re-requested"
        );
        assert_eq!(rm.outstanding_to(NodeId(1)), 2);
        assert_eq!(rm.outstanding_to(NodeId(2)), 1);
        assert_eq!(rm.outstanding_total(), 3);
    }

    #[test]
    fn received_and_already_held_blocks_are_skipped() {
        let mut rm = RequestManager::new(RequestStrategy::FirstEncountered, 10);
        let mut have = BlockBitmap::new(10);
        have.insert(BlockId(0));
        rm.add_sender(NodeId(1));
        rm.on_advertised(NodeId(1), &ids(&[0, 1, 2]), &have);
        rm.on_block_received(BlockId(1));
        let mut have2 = have.clone();
        have2.insert(BlockId(1));
        let got = rm.select_requests(NodeId(1), 5, &have2, SimTime::ZERO, &mut rng());
        assert_eq!(got, ids(&[2]));
    }

    #[test]
    fn removing_a_sender_releases_its_outstanding_requests() {
        let mut rm = RequestManager::new(RequestStrategy::FirstEncountered, 10);
        let have = BlockBitmap::new(10);
        rm.add_sender(NodeId(1));
        rm.add_sender(NodeId(2));
        rm.on_advertised(NodeId(1), &ids(&[0, 1]), &have);
        rm.on_advertised(NodeId(2), &ids(&[0, 1]), &have);
        let _ = rm.select_requests(NodeId(1), 2, &have, SimTime::ZERO, &mut rng());
        let released = rm.remove_sender(NodeId(1));
        assert_eq!(released.len(), 2);
        assert_eq!(rm.outstanding_total(), 0);
        // Blocks can now be requested from the other sender.
        let got = rm.select_requests(NodeId(2), 2, &have, SimTime::ZERO, &mut rng());
        assert_eq!(got.len(), 2);
        assert!(!rm.has_sender(NodeId(1)));
    }

    #[test]
    fn stale_requests_are_released_after_timeout() {
        let mut rm = RequestManager::new(RequestStrategy::FirstEncountered, 10);
        let have = BlockBitmap::new(10);
        rm.add_sender(NodeId(1));
        rm.on_advertised(NodeId(1), &ids(&[0]), &have);
        let _ = rm.select_requests(NodeId(1), 1, &have, SimTime::ZERO, &mut rng());
        let none = rm.release_stale(SimTime::from_secs_f64(5.0), SimDuration::from_secs(30));
        assert!(none.is_empty());
        let released = rm.release_stale(SimTime::from_secs_f64(31.0), SimDuration::from_secs(30));
        assert_eq!(released, vec![(NodeId(1), BlockId(0))]);
        assert_eq!(rm.outstanding_total(), 0);
    }

    #[test]
    fn useful_candidates_counts_unrequested_needed_blocks() {
        let mut rm = RequestManager::new(RequestStrategy::FirstEncountered, 10);
        let have = BlockBitmap::new(10);
        rm.add_sender(NodeId(1));
        rm.on_advertised(NodeId(1), &ids(&[0, 1, 2, 3]), &have);
        assert_eq!(rm.useful_candidates(NodeId(1), &have), 4);
        let _ = rm.select_requests(NodeId(1), 2, &have, SimTime::ZERO, &mut rng());
        assert_eq!(rm.useful_candidates(NodeId(1), &have), 2);
    }

    #[test]
    fn out_of_range_advertisements_are_ignored() {
        let mut rm = RequestManager::new(RequestStrategy::FirstEncountered, 4);
        let have = BlockBitmap::new(4);
        rm.add_sender(NodeId(1));
        rm.on_advertised(NodeId(1), &ids(&[2, 9]), &have);
        let got = rm.select_requests(NodeId(1), 5, &have, SimTime::ZERO, &mut rng());
        assert_eq!(got, ids(&[2]));
    }
}
