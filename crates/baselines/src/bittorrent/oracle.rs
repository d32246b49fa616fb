//! Model-based equivalence oracle for [`PiecePicker`].
//!
//! The picker keeps per-piece availability incrementally and ranks only the
//! pieces still missing. The oracle is the form it replaced: piece sets and
//! request sets in `BTreeSet`s, availability recounted over every neighbour
//! for every candidate piece, every held piece keyed and sorted, and the
//! wanted blocks of each piece collected into a `Vec`. Both sides replay the
//! same random sequence of handshake bitfields, `Have`s, chokes, unchokes,
//! block arrivals, peer failures and keepalive refills, each with its own
//! identically seeded RNG. After every step they must have requested the
//! same blocks, left their RNGs in the same state, and agree on the held
//! blocks, the blocks in flight, each neighbour's outstanding requests and
//! every piece's availability, which must also equal a recount over the
//! picker's neighbours.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};

use dissem_codec::{BlockBitmap, BlockId};
use netsim::NodeId;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::picker::{Arrival, PeerPieces, PiecePicker};

/// Blocks in the file: five pieces of 8 and a short sixth piece of 5.
const BLOCKS: u32 = 45;
const PIECE_BLOCKS: u32 = 8;
const PIECES: u32 = BLOCKS.div_ceil(PIECE_BLOCKS);
const PEERS: u32 = 5;
/// Outstanding requests per neighbour.
const WINDOW: usize = 5;

/// Per-neighbour state of the reference.
#[derive(Default)]
struct RefNeighbour {
    has_pieces: BTreeSet<u32>,
    outstanding: BTreeSet<BlockId>,
}

/// The piece state and selection as they were before the picker.
struct Reference {
    have: BlockBitmap,
    piece_missing: Vec<u32>,
    neighbours: BTreeMap<NodeId, RefNeighbour>,
    in_flight: BTreeSet<BlockId>,
}

impl Reference {
    fn new() -> Self {
        Reference {
            have: BlockBitmap::new(BLOCKS),
            piece_missing: (0..PIECES)
                .map(|p| PIECE_BLOCKS.min(BLOCKS - p * PIECE_BLOCKS))
                .collect(),
            neighbours: BTreeMap::new(),
            in_flight: BTreeSet::new(),
        }
    }

    fn piece_rarity(&self, piece: u32) -> usize {
        self.neighbours
            .values()
            .filter(|n| n.has_pieces.contains(&piece))
            .count()
    }

    fn wanted_blocks_of_piece(&self, piece: u32) -> Vec<BlockId> {
        let start = piece * PIECE_BLOCKS;
        let end = (start + PIECE_BLOCKS).min(BLOCKS);
        (start..end)
            .map(BlockId)
            .filter(|b| !self.have.contains(*b) && !self.in_flight.contains(b))
            .collect()
    }

    /// Returns true if any noted piece is still missing here.
    fn note_pieces(&mut self, peer: NodeId, pieces: &[u32]) -> bool {
        let mut interesting = false;
        if let Some(n) = self.neighbours.get_mut(&peer) {
            for &p in pieces {
                n.has_pieces.insert(p);
                interesting |= self.piece_missing[p as usize] > 0;
            }
        }
        interesting
    }

    fn choke(&mut self, peer: NodeId) {
        if let Some(n) = self.neighbours.get_mut(&peer) {
            for b in std::mem::take(&mut n.outstanding) {
                self.in_flight.remove(&b);
            }
        }
    }

    fn on_block(&mut self, from: NodeId, block: BlockId) -> Arrival {
        let duplicate = self.have.contains(block);
        self.in_flight.remove(&block);
        if let Some(n) = self.neighbours.get_mut(&from) {
            n.outstanding.remove(&block);
        }
        if duplicate {
            return Arrival::Duplicate;
        }
        self.have.insert(block);
        let missing = &mut self.piece_missing[(block.0 / PIECE_BLOCKS) as usize];
        *missing = missing.saturating_sub(1);
        if *missing == 0 {
            Arrival::Completed(block.0 / PIECE_BLOCKS)
        } else {
            Arrival::New
        }
    }

    fn peer_failed(&mut self, peer: NodeId) {
        if let Some(n) = self.neighbours.remove(&peer) {
            for b in n.outstanding {
                self.in_flight.remove(&b);
            }
        }
    }

    /// Recount, key every held piece, sort, then collect blocks per piece.
    fn pick(&mut self, peer: NodeId, rng: &mut StdRng) -> Vec<BlockId> {
        if self.have.is_full() {
            return Vec::new();
        }
        let Some(n) = self.neighbours.get(&peer) else {
            return Vec::new();
        };
        if n.outstanding.len() >= WINDOW {
            return Vec::new();
        }
        let want = WINDOW - n.outstanding.len();
        let mut pieces: Vec<(bool, usize, u64, u32)> = n
            .has_pieces
            .iter()
            .map(|&p| (false, 0, rng.gen::<u64>(), p))
            .collect();
        for entry in &mut pieces {
            let piece = entry.3;
            let total = PIECE_BLOCKS.min(BLOCKS - piece * PIECE_BLOCKS);
            entry.0 = self.piece_missing[piece as usize] == total;
            entry.1 = self.piece_rarity(piece);
        }
        pieces.sort_unstable_by_key(|(untouched, r, t, _)| (*untouched, *r, *t));
        let mut chosen = Vec::new();
        for (_, _, _, piece) in pieces {
            if chosen.len() >= want {
                break;
            }
            for b in self.wanted_blocks_of_piece(piece) {
                if chosen.len() >= want {
                    break;
                }
                chosen.push(b);
            }
        }
        let n = self.neighbours.get_mut(&peer).expect("checked above");
        for &b in &chosen {
            n.outstanding.insert(b);
            self.in_flight.insert(b);
        }
        chosen
    }
}

/// The picker under test plus the neighbour map a node keeps beside it.
struct Fast {
    picker: PiecePicker,
    neighbours: BTreeMap<NodeId, PeerPieces>,
}

impl Fast {
    fn note_pieces(&mut self, peer: NodeId, pieces: &[u32]) -> bool {
        let mut interesting = false;
        if let Some(n) = self.neighbours.get_mut(&peer) {
            for &p in pieces {
                interesting |= self.picker.note_piece(n, p);
            }
        }
        interesting
    }

    fn pick(&mut self, peer: NodeId, rng: &mut StdRng) -> Vec<BlockId> {
        match self.neighbours.get_mut(&peer) {
            Some(n) => self.picker.pick(n, WINDOW, rng),
            None => Vec::new(),
        }
    }
}

/// Both sides, their RNGs, and which neighbours are choking us (the node
/// keeps that flag outside the picker).
struct Pair {
    fast: Fast,
    slow: Reference,
    fast_rng: StdRng,
    slow_rng: StdRng,
    choking: BTreeSet<NodeId>,
}

impl Pair {
    /// A request refill towards `peer`, as the node issues it.
    fn refill(&mut self, peer: NodeId, step: usize) {
        if self.choking.contains(&peer) {
            return;
        }
        let got = self.fast.pick(peer, &mut self.fast_rng);
        let want = self.slow.pick(peer, &mut self.slow_rng);
        assert_eq!(got, want, "step {step}: blocks requested from {peer:?}");
    }

    fn refill_all(&mut self, step: usize) {
        let peers: Vec<NodeId> = self.slow.neighbours.keys().copied().collect();
        for peer in peers {
            self.refill(peer, step);
        }
    }

    fn connect(&mut self, peer: NodeId) {
        if let Entry::Vacant(slot) = self.slow.neighbours.entry(peer) {
            slot.insert(RefNeighbour::default());
            let fresh = self.fast.picker.new_peer();
            self.fast.neighbours.insert(peer, fresh);
            self.choking.insert(peer);
        }
    }

    fn note(&mut self, peer: NodeId, pieces: &[u32], step: usize) {
        let interesting = self.fast.note_pieces(peer, pieces);
        assert_eq!(
            interesting,
            self.slow.note_pieces(peer, pieces),
            "step {step}: interest in {peer:?}"
        );
        if interesting {
            self.refill(peer, step);
        }
    }

    fn check(&self, step: usize) {
        assert_eq!(
            self.fast_rng, self.slow_rng,
            "step {step}: RNG draws diverged"
        );
        assert_eq!(
            self.fast.picker.have(),
            &self.slow.have,
            "step {step}: held blocks"
        );
        let in_flight: Vec<BlockId> = self.fast.picker.in_flight().iter().collect();
        let want: Vec<BlockId> = self.slow.in_flight.iter().copied().collect();
        assert_eq!(in_flight, want, "step {step}: blocks in flight");
        assert!(self.fast.neighbours.keys().eq(self.slow.neighbours.keys()));
        for (peer, n) in &self.fast.neighbours {
            let mut outstanding = n.outstanding().to_vec();
            outstanding.sort_unstable();
            let want: Vec<BlockId> = self.slow.neighbours[peer]
                .outstanding
                .iter()
                .copied()
                .collect();
            assert_eq!(outstanding, want, "step {step}: outstanding at {peer:?}");
        }
        for p in 0..PIECES {
            let recount = self.fast.neighbours.values().filter(|n| n.holds(p)).count();
            assert_eq!(
                self.fast.picker.availability(p) as usize,
                recount,
                "step {step}: availability of piece {p} vs recount"
            );
            assert_eq!(
                recount,
                self.slow.piece_rarity(p),
                "step {step}: piece {p} holders"
            );
        }
    }
}

/// One generated event: `kind` picks it (0 connect, 1 handshake bitfield,
/// 2 `Have`, 3 choke, 4 unchoke, 5 block arrival, 6 peer failure,
/// 7 keepalive refill), `peer` the neighbour and `arg` its payload.
type Op = (u8, u32, u64);

fn replay(seed: u64, ops: &[Op]) {
    let mut pair = Pair {
        fast: Fast {
            picker: PiecePicker::new(BLOCKS, PIECE_BLOCKS, false),
            neighbours: BTreeMap::new(),
        },
        slow: Reference::new(),
        fast_rng: StdRng::seed_from_u64(seed),
        slow_rng: StdRng::seed_from_u64(seed),
        choking: BTreeSet::new(),
    };
    for (step, &(kind, p, arg)) in ops.iter().enumerate() {
        let peer = NodeId(p);
        match kind {
            0 => pair.connect(peer),
            1 => {
                // A handshake opens the neighbour, then notes its bitfield.
                pair.connect(peer);
                let pieces: Vec<u32> = (0..PIECES).filter(|i| arg >> i & 1 == 1).collect();
                pair.note(peer, &pieces, step);
            }
            2 => pair.note(peer, &[(arg % u64::from(PIECES)) as u32], step),
            3 => {
                pair.choking.insert(peer);
                if let Some(n) = pair.fast.neighbours.get_mut(&peer) {
                    pair.fast.picker.release(n);
                }
                pair.slow.choke(peer);
            }
            4 => {
                if pair.slow.neighbours.contains_key(&peer) {
                    pair.choking.remove(&peer);
                }
                pair.refill(peer, step);
            }
            5 => {
                // Mostly a block we asked this peer for; otherwise any block
                // (a late delivery, a duplicate, an unrequested one).
                let asked: Vec<BlockId> = pair
                    .slow
                    .neighbours
                    .get(&peer)
                    .map(|n| n.outstanding.iter().copied().collect())
                    .unwrap_or_default();
                let block = if arg % 4 != 0 && !asked.is_empty() {
                    asked[(arg >> 8) as usize % asked.len()]
                } else {
                    BlockId(((arg >> 8) % u64::from(BLOCKS)) as u32)
                };
                let got = pair
                    .fast
                    .picker
                    .on_block(pair.fast.neighbours.get_mut(&peer), block);
                let want = pair.slow.on_block(peer, block);
                assert_eq!(got, want, "step {step}: arrival of {block:?}");
                pair.refill(peer, step);
            }
            6 => {
                if let Some(n) = pair.fast.neighbours.remove(&peer) {
                    pair.fast.picker.forget(n);
                }
                pair.slow.peer_failed(peer);
                pair.choking.remove(&peer);
                pair.refill_all(step);
            }
            _ => pair.refill_all(step),
        }
        pair.check(step);
    }
}

proptest! {
    /// Any sequence of neighbour events leaves the picker and the
    /// recount-and-sort reference requesting the same blocks with the same
    /// RNG draws, and availability equal to a recount.
    #[test]
    fn picker_matches_recount_and_sort(
        ops in collection::vec((0u8..8, 0u32..PEERS, any::<u64>()), 1..300),
        seed in any::<u64>(),
    ) {
        replay(seed, &ops);
    }

    /// Arrival-heavy sequences: most steps deliver blocks to unchoked
    /// neighbours, so pieces complete, the download finishes, and refills
    /// stop drawing.
    #[test]
    fn arrival_heavy_sequences_match_recount_and_sort(
        ops in collection::vec((0usize..10, 0u32..PEERS, any::<u64>()), 1..300),
        seed in any::<u64>(),
    ) {
        // Handshake, unchoke, `Have`, six arrivals, choke.
        const KINDS: [u8; 10] = [1, 4, 2, 5, 5, 5, 5, 5, 5, 3];
        let ops: Vec<Op> = ops.into_iter().map(|(k, p, arg)| (KINDS[k], p, arg)).collect();
        replay(seed, &ops);
    }
}
