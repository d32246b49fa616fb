//! Rarest-first piece selection over incrementally counted availability.
//!
//! [`PiecePicker`] owns a node's piece state: the blocks it holds, the blocks
//! still missing per piece, the blocks requested anywhere, and how many
//! neighbours hold each piece. Each neighbour's side lives in a
//! [`PeerPieces`] the caller keeps beside its own per-neighbour state and
//! passes in. The picker never sees a `Ctx`: it takes the node's RNG as a
//! plain `&mut StdRng`, so the oracle in `oracle.rs` can drive it directly.

use dissem_codec::{BlockBitmap, BlockId};
use rand::rngs::StdRng;
use rand::Rng;

/// A set of piece indices, ascending iteration (a bitset sized to the file).
#[derive(Debug, Clone)]
pub(super) struct PieceSet(BlockBitmap);

impl PieceSet {
    fn new(pieces: u32) -> Self {
        PieceSet(BlockBitmap::new(pieces))
    }

    /// Inserts `piece`; true if it was new. Pieces outside the file are
    /// ignored (they can only come from a peer with another configuration).
    fn insert(&mut self, piece: u32) -> bool {
        piece < self.0.capacity() && self.0.insert(BlockId(piece))
    }

    fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.0.iter().map(|b| b.0)
    }
}

/// What one neighbour holds and what we asked it for.
#[derive(Debug, Clone)]
pub(super) struct PeerPieces {
    /// Pieces the neighbour has completed (from its bitfield and `Have`s).
    has: PieceSet,
    /// Blocks we requested from it and have not yet received from it. At
    /// most the per-peer window; no block appears twice.
    outstanding: Vec<BlockId>,
}

#[cfg(test)]
impl PeerPieces {
    pub(super) fn holds(&self, piece: u32) -> bool {
        self.has.0.contains(BlockId(piece))
    }

    pub(super) fn outstanding(&self) -> &[BlockId] {
        &self.outstanding
    }
}

/// What an arriving block did to the piece state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Arrival {
    /// The block was already held.
    Duplicate,
    /// A new block; its piece is still incomplete.
    New,
    /// A new block that completed this piece.
    Completed(u32),
}

/// A node's piece state and its rarest-first request choice.
#[derive(Debug, Clone)]
pub(super) struct PiecePicker {
    piece_blocks: u32,
    have: BlockBitmap,
    /// Number of blocks still missing from each piece.
    missing: Vec<u32>,
    /// Number of current neighbours holding each piece: raised when a
    /// bitfield or `Have` adds a piece the neighbour did not have yet,
    /// lowered when the neighbour is dropped.
    availability: Vec<u32>,
    /// Blocks requested from any neighbour and not yet received.
    in_flight: BlockBitmap,
    /// Reused ranking buffer: (untouched, availability, tie-break, piece).
    ranked: Vec<(bool, u32, u64, u32)>,
}

impl PiecePicker {
    /// A picker for `num_blocks` blocks in pieces of `piece_blocks`; a seed
    /// starts holding every block.
    pub(super) fn new(num_blocks: u32, piece_blocks: u32, seed: bool) -> Self {
        let pieces = num_blocks.div_ceil(piece_blocks);
        let mut picker = PiecePicker {
            piece_blocks,
            have: BlockBitmap::new(num_blocks),
            missing: vec![0; pieces as usize],
            availability: vec![0; pieces as usize],
            in_flight: BlockBitmap::new(num_blocks),
            ranked: Vec::new(),
        };
        if seed {
            picker.have = BlockBitmap::full(num_blocks);
        } else {
            for p in 0..pieces {
                picker.missing[p as usize] = picker.blocks_of(p).len() as u32;
            }
        }
        picker
    }

    #[cfg(test)]
    pub(super) fn availability(&self, piece: u32) -> u32 {
        self.availability[piece as usize]
    }

    #[cfg(test)]
    pub(super) fn in_flight(&self) -> &BlockBitmap {
        &self.in_flight
    }

    /// Empty per-neighbour state sized to this file's pieces.
    pub(super) fn new_peer(&self) -> PeerPieces {
        PeerPieces {
            has: PieceSet::new(self.missing.len() as u32),
            outstanding: Vec::new(),
        }
    }

    /// The blocks held.
    pub(super) fn have(&self) -> &BlockBitmap {
        &self.have
    }

    /// Blocks of `piece`, clamped to the file's end.
    fn blocks_of(&self, piece: u32) -> std::ops::Range<u32> {
        let start = piece * self.piece_blocks;
        start..(start + self.piece_blocks).min(self.have.capacity())
    }

    /// The piece `block` belongs to.
    pub(super) fn piece_of(&self, block: BlockId) -> u32 {
        block.0 / self.piece_blocks
    }

    /// True if every block of `piece` is held (only these are shared).
    pub(super) fn piece_complete(&self, piece: u32) -> bool {
        self.missing.get(piece as usize) == Some(&0)
    }

    /// Pieces held completely, ascending.
    pub(super) fn bitfield(&self) -> Vec<u32> {
        (0..self.missing.len() as u32)
            .filter(|&p| self.piece_complete(p))
            .collect()
    }

    /// Records that `peer` holds `piece`. Returns true if we still miss
    /// blocks of it (the peer is interesting).
    pub(super) fn note_piece(&mut self, peer: &mut PeerPieces, piece: u32) -> bool {
        if peer.has.insert(piece) {
            self.availability[piece as usize] += 1;
        }
        self.missing.get(piece as usize).is_some_and(|&m| m > 0)
    }

    /// Drops a neighbour: its pieces no longer count towards availability
    /// and its outstanding blocks become requestable again.
    pub(super) fn forget(&mut self, peer: PeerPieces) {
        for p in peer.has.iter() {
            self.availability[p as usize] -= 1;
        }
        for b in peer.outstanding {
            self.in_flight.remove(b);
        }
    }

    /// Abandons every request outstanding at `peer` (it choked us).
    pub(super) fn release(&mut self, peer: &mut PeerPieces) {
        for b in peer.outstanding.drain(..) {
            self.in_flight.remove(b);
        }
    }

    /// Records the arrival of `block` from `from` (`None` if the sender is
    /// not a neighbour).
    pub(super) fn on_block(&mut self, from: Option<&mut PeerPieces>, block: BlockId) -> Arrival {
        self.in_flight.remove(block);
        if let Some(peer) = from {
            if let Some(i) = peer.outstanding.iter().position(|&b| b == block) {
                peer.outstanding.swap_remove(i);
            }
        }
        if !self.have.insert(block) {
            return Arrival::Duplicate;
        }
        let piece = self.piece_of(block);
        let missing = &mut self.missing[piece as usize];
        *missing = missing.saturating_sub(1);
        if *missing == 0 {
            Arrival::Completed(piece)
        } else {
            Arrival::New
        }
    }

    /// Chooses up to `window - outstanding` blocks to request from `peer`,
    /// marks them in flight and outstanding there, and returns them in
    /// request order.
    ///
    /// Partially downloaded pieces come first, so they become shareable;
    /// then pieces rank rarest-first by availability, ties broken by one
    /// random `u64` per piece. The draw contract: nothing is drawn when the
    /// download is done or the window is full; otherwise exactly one draw
    /// per piece `peer` holds, in ascending piece order, *before* pieces we
    /// already hold are dropped (they can yield no block). Blocks are then
    /// taken in ascending order within each ranked piece, skipping those
    /// held or in flight. Cost: O(pieces `peer` holds), plus the sort of
    /// the pieces still missing.
    pub(super) fn pick(
        &mut self,
        peer: &mut PeerPieces,
        window: usize,
        rng: &mut StdRng,
    ) -> Vec<BlockId> {
        let want = window.saturating_sub(peer.outstanding.len());
        if self.have.is_full() || want == 0 {
            return Vec::new();
        }
        self.ranked.clear();
        for p in peer.has.iter() {
            let tie = rng.gen::<u64>();
            let missing = self.missing[p as usize];
            if missing > 0 {
                let untouched = missing == self.blocks_of(p).len() as u32;
                self.ranked
                    .push((untouched, self.availability[p as usize], tie, p));
            }
        }
        self.ranked.sort_unstable();
        let mut chosen = Vec::new();
        'pieces: for &(_, _, _, p) in &self.ranked {
            for b in self.blocks_of(p).map(BlockId) {
                if chosen.len() >= want {
                    break 'pieces;
                }
                if !self.have.contains(b) && !self.in_flight.contains(b) {
                    chosen.push(b);
                }
            }
        }
        for &b in &chosen {
            self.in_flight.insert(b);
            peer.outstanding.push(b);
        }
        chosen
    }
}
