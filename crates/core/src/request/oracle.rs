//! Model-based equivalence oracle for [`RequestManager::select_requests`].
//!
//! The selection keeps the best `count` candidates in a bounded buffer and
//! the per-sender outstanding counts incrementally. The oracle is the
//! straightforward form it replaced: collect every unrequested candidate,
//! key it, `sort_unstable`, `take(count)`, and count outstanding requests by
//! scanning `in_flight`. Two managers, each with its own identically seeded
//! RNG, replay random interleavings of every mutating call under all four
//! strategies; after each step they must have chosen the same blocks, left
//! their RNGs in the same state (same number of draws), and kept every
//! per-sender count equal to a recount of `in_flight`.

use proptest::prelude::*;
use rand::SeedableRng;

use super::*;

/// Block space of the managers under test. Advertised ids range a little
/// past it, so the out-of-range filter is exercised too.
const SPACE: u32 = 40;
const PEERS: u32 = 4;
/// `release_stale` timeout, in steps (one step = one second).
const TIMEOUT_STEPS: u64 = 6;

impl RequestManager {
    /// The selection as it was before top-k: collect, key, sort, take.
    fn select_requests_by_sort(
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
        let bits = &av.bits;
        av.order.retain(|b| bits.contains(*b) && !have.contains(*b));
        let candidates: Vec<BlockId> = av
            .order
            .iter()
            .copied()
            .filter(|b| !self.in_flight_bits.contains(*b))
            .collect();
        let chosen: Vec<BlockId> = match self.strategy {
            RequestStrategy::FirstEncountered => candidates.into_iter().take(count).collect(),
            RequestStrategy::Random => {
                let mut keyed: Vec<(u64, BlockId)> = candidates
                    .into_iter()
                    .map(|b| (rng.gen::<u64>(), b))
                    .collect();
                keyed.sort_unstable_by_key(|(k, _)| *k);
                keyed.into_iter().take(count).map(|(_, b)| b).collect()
            }
            RequestStrategy::Rarest => {
                let mut keyed: Vec<(u32, u32, BlockId)> = candidates
                    .into_iter()
                    .map(|b| (self.rarity[b.index()], b.0, b))
                    .collect();
                keyed.sort_unstable_by_key(|(r, idx, _)| (*r, *idx));
                keyed.into_iter().take(count).map(|(_, _, b)| b).collect()
            }
            RequestStrategy::RarestRandom => {
                let mut keyed: Vec<(u32, u64, BlockId)> = candidates
                    .into_iter()
                    .map(|b| (self.rarity[b.index()], rng.gen::<u64>(), b))
                    .collect();
                keyed.sort_unstable_by_key(|(r, k, _)| (*r, *k));
                keyed.into_iter().take(count).map(|(_, _, b)| b).collect()
            }
        };
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

    /// Asserts the incremental bookkeeping against a recount of `in_flight`.
    fn assert_counts_match_recount(&self) {
        for p in 0..PEERS {
            let peer = NodeId(p);
            let recount = self.in_flight.values().filter(|f| f.to == peer).count();
            assert_eq!(
                self.outstanding_to(peer),
                recount,
                "outstanding_to({peer:?})"
            );
        }
        assert_eq!(self.outstanding_total(), self.in_flight.len());
        let bits: Vec<BlockId> = self.in_flight_bits.iter().collect();
        let keys: Vec<BlockId> = self.in_flight.keys().copied().collect();
        assert_eq!(bits, keys, "in_flight_bits mirrors in_flight");
    }
}

/// One generated call: `kind` picks it (0 add_sender, 1 on_advertised,
/// 2 on_block_received, 3 select_requests, 4 remove_sender,
/// 5 release_stale), `peer` its sender, `arg` its block ids (eight bytes,
/// each one id) and `count` its request count.
type Op = (u8, u32, u64, usize);

fn block_ids(arg: u64) -> Vec<BlockId> {
    (0..8)
        .map(|i| BlockId(((arg >> (8 * i)) & 0xff) as u32 % (SPACE + 4)))
        .collect()
}

fn replay(strategy: RequestStrategy, seed: u64, ops: &[Op]) {
    let mut fast = RequestManager::new(strategy, SPACE);
    let mut slow = RequestManager::new(strategy, SPACE);
    let mut fast_rng = StdRng::seed_from_u64(seed);
    let mut slow_rng = StdRng::seed_from_u64(seed);
    let mut have = BlockBitmap::new(SPACE);
    let timeout = SimDuration::from_secs(TIMEOUT_STEPS);

    for (step, &(kind, p, arg, count)) in ops.iter().enumerate() {
        let peer = NodeId(p);
        let now = SimTime::from_secs_f64(step as f64);
        match kind {
            0 => {
                fast.add_sender(peer);
                slow.add_sender(peer);
            }
            1 => {
                let blocks = block_ids(arg);
                fast.on_advertised(peer, &blocks, &have);
                slow.on_advertised(peer, &blocks, &have);
            }
            2 => {
                let block = BlockId((arg % u64::from(SPACE)) as u32);
                fast.on_block_received(block);
                slow.on_block_received(block);
                have.insert(block);
            }
            3 => {
                let got = fast.select_requests(peer, count, &have, now, &mut fast_rng);
                let want = slow.select_requests_by_sort(peer, count, &have, now, &mut slow_rng);
                assert_eq!(got, want, "{strategy:?} step {step}: chosen blocks");
            }
            4 => assert_eq!(
                fast.remove_sender(peer),
                slow.remove_sender(peer),
                "{strategy:?} step {step}: released blocks"
            ),
            _ => assert_eq!(
                fast.release_stale(now, timeout),
                slow.release_stale(now, timeout),
                "{strategy:?} step {step}: stale releases"
            ),
        }
        assert_eq!(
            fast_rng, slow_rng,
            "{strategy:?} step {step}: RNG draws diverged"
        );
        fast.assert_counts_match_recount();
        slow.assert_counts_match_recount();
    }
}

const STRATEGIES: [RequestStrategy; 4] = [
    RequestStrategy::FirstEncountered,
    RequestStrategy::Random,
    RequestStrategy::Rarest,
    RequestStrategy::RarestRandom,
];

proptest! {
    /// Any interleaving of the manager's mutating calls leaves top-k
    /// selection and the sort-and-take model choosing the same blocks with
    /// the same RNG consumption, under every strategy.
    #[test]
    fn top_k_selection_matches_sort_and_take(
        ops in collection::vec((0u8..6, 0u32..PEERS, any::<u64>(), 0usize..5), 1..200),
        seed in any::<u64>(),
    ) {
        for strategy in STRATEGIES {
            replay(strategy, seed, &ops);
        }
    }

    /// Selection-heavy interleavings with wide windows: most steps request,
    /// so candidate lists drain and `count` often exceeds what is left.
    #[test]
    fn request_heavy_interleavings_match_sort_and_take(
        ops in collection::vec((0u8..4, 0u32..PEERS, any::<u64>(), 0usize..12), 1..200),
        seed in any::<u64>(),
    ) {
        for strategy in STRATEGIES {
            replay(strategy, seed, &ops);
        }
    }
}
