//! A BitTorrent-like baseline (paper §5, compared in Figs 4, 5, 14).
//!
//! This models the BitTorrent the paper compared against: a central tracker
//! (co-located with the seed) hands out random peer lists; peers exchange
//! bitfields and `Have` announcements; upload slots are governed by
//! tit-for-tat choking with a periodically rotated optimistic unchoke; piece
//! selection is strict rarest-first; and — the property the paper calls out —
//! every knob is a hard-coded constant: a fixed number of connections, a
//! fixed number of upload slots and a fixed five outstanding requests per
//! peer, with no adaptation to network conditions.
//!
//! Piece selection lives in the `picker` module. Each node counts, per
//! piece, how many neighbours hold it: the count rises when a bitfield or
//! `Have` adds a piece that neighbour did not have yet and falls when
//! `on_peer_failed` drops the neighbour. A request refill therefore costs
//! O(pieces the peer holds), with no rescan of the other neighbours. Its
//! RNG contract: one `u64` tie-break per piece the peer holds, drawn in
//! ascending piece order before pieces we already hold are filtered out,
//! and no draw at all when the download is done or the peer's request
//! window is full.

#[cfg(test)]
mod oracle;
mod picker;

use std::collections::{BTreeMap, BTreeSet};

use desim::SimDuration;
use dissem_codec::{BlockId, FileSpec};
use netsim::{BlockReceipt, Ctx, NodeId, ProbeStats, Protocol, TimerToken, WireSize};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;

use picker::{Arrival, PeerPieces, PiecePicker};

/// BitTorrent's timer vocabulary (see [`netsim::TimerToken`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BtTimer {
    /// Recompute the choke set.
    Choke,
    /// Rotate the optimistic unchoke.
    Optimistic,
    /// Housekeeping: request refresh, tracker re-announce.
    Keepalive,
}

impl TimerToken for BtTimer {
    fn encode(&self) -> u64 {
        match self {
            BtTimer::Choke => 0,
            BtTimer::Optimistic => 1,
            BtTimer::Keepalive => 2,
        }
    }

    fn decode(bits: u64) -> Self {
        match bits {
            0 => BtTimer::Choke,
            1 => BtTimer::Optimistic,
            2 => BtTimer::Keepalive,
            other => panic!("not a BitTorrent timer token: {other}"),
        }
    }
}

/// Hard-coded BitTorrent constants (the point of the baseline).
#[derive(Debug, Clone)]
pub struct BitTorrentConfig {
    /// The file being distributed.
    pub file: FileSpec,
    /// Maximum number of neighbours to hold connections with.
    pub max_connections: usize,
    /// Number of peers the tracker returns per announce.
    pub tracker_peers: usize,
    /// Number of regular (tit-for-tat) upload slots.
    pub upload_slots: usize,
    /// Fixed number of outstanding requests per peer.
    pub outstanding_per_peer: usize,
    /// Number of 16 KB sub-piece blocks per BitTorrent piece (256 KB pieces).
    /// Data can only be shared onward at piece granularity, which is the
    /// standard BitTorrent behaviour and one of the costs the paper's
    /// comparison includes.
    pub piece_blocks: u32,
    /// Choke-recomputation interval.
    pub choke_interval: SimDuration,
    /// Optimistic-unchoke rotation interval.
    pub optimistic_interval: SimDuration,
}

impl BitTorrentConfig {
    /// The classic defaults.
    pub fn new(file: FileSpec) -> Self {
        BitTorrentConfig {
            file,
            max_connections: 20,
            tracker_peers: 40,
            upload_slots: 4,
            outstanding_per_peer: 5,
            piece_blocks: 16,
            choke_interval: SimDuration::from_secs(10),
            optimistic_interval: SimDuration::from_secs(30),
        }
    }
}

/// BitTorrent control messages.
#[derive(Debug, Clone)]
pub enum BtMsg {
    /// Announce to the tracker and ask for peers.
    TrackerRequest,
    /// Tracker reply: a random subset of known participants.
    TrackerResponse {
        /// The peers to try connecting to.
        peers: Vec<NodeId>,
    },
    /// Open a neighbour relationship; carries the sender's piece bitfield.
    Handshake {
        /// Pieces the initiating peer has completed.
        bitfield: Vec<u32>,
    },
    /// Reply to a handshake with our own piece bitfield.
    HandshakeAck {
        /// Pieces the accepting peer has completed.
        bitfield: Vec<u32>,
    },
    /// Announce completion of one piece to a neighbour.
    Have {
        /// The newly completed piece.
        piece: u32,
    },
    /// We would like to download from the recipient.
    Interested,
    /// We no longer need anything the recipient has.
    NotInterested,
    /// The recipient may no longer request blocks from us.
    Choke,
    /// The recipient may request blocks from us.
    Unchoke,
    /// Request blocks (served only while unchoked).
    Request {
        /// Blocks requested, in order.
        blocks: Vec<BlockId>,
    },
}

impl WireSize for BtMsg {
    fn wire_size(&self) -> usize {
        const HDR: usize = 9;
        match self {
            BtMsg::TrackerRequest
            | BtMsg::Interested
            | BtMsg::NotInterested
            | BtMsg::Choke
            | BtMsg::Unchoke => HDR,
            BtMsg::TrackerResponse { peers } => HDR + 6 * peers.len(),
            BtMsg::Handshake { bitfield } | BtMsg::HandshakeAck { bitfield } => {
                HDR + 4 + bitfield.len().div_ceil(2)
            }
            BtMsg::Have { .. } => HDR + 4,
            BtMsg::Request { blocks } => HDR + 4 * blocks.len(),
        }
    }

    fn kind(&self) -> &'static str {
        match self {
            BtMsg::TrackerRequest => "tracker_request",
            BtMsg::TrackerResponse { .. } => "tracker_response",
            BtMsg::Handshake { .. } => "handshake",
            BtMsg::HandshakeAck { .. } => "handshake_ack",
            BtMsg::Have { .. } => "have",
            BtMsg::Interested => "interested",
            BtMsg::NotInterested => "not_interested",
            BtMsg::Choke => "choke",
            BtMsg::Unchoke => "unchoke",
            BtMsg::Request { .. } => "request",
        }
    }
}

/// Per-neighbour state.
#[derive(Debug, Clone)]
struct Neighbour {
    /// Pieces the neighbour holds and blocks we asked it for.
    pieces: PeerPieces,
    /// We are choking them (they may not request from us).
    am_choking: bool,
    /// They are choking us.
    peer_choking: bool,
    /// We are interested in their data.
    am_interested: bool,
    /// Bytes received from them in the current choke window (tit-for-tat input).
    bytes_from: u64,
    /// Bytes we finished sending to them in the current choke window.
    bytes_to: u64,
}

impl Neighbour {
    fn new(pieces: PeerPieces) -> Self {
        Neighbour {
            pieces,
            am_choking: true,
            peer_choking: true,
            am_interested: false,
            bytes_from: 0,
            bytes_to: 0,
        }
    }
}

/// A BitTorrent participant. Node 0 is the seed and also answers tracker
/// announces.
#[derive(Debug, Clone)]
pub struct BitTorrentNode {
    id: NodeId,
    cfg: BitTorrentConfig,
    /// Held blocks, per-piece progress, requests in flight and availability.
    picker: PiecePicker,
    neighbours: BTreeMap<NodeId, Neighbour>,
    /// Tracker state (only used on node 0): every node that has announced.
    swarm: Vec<NodeId>,
    optimistic: Option<NodeId>,
    /// Download metrics.
    completed_at: Option<f64>,
    arrival_times: Vec<f64>,
    duplicates: u64,
    useful_bytes: u64,
}

impl BitTorrentNode {
    /// Creates a node; node 0 is the seed/tracker.
    pub fn new(id: NodeId, cfg: BitTorrentConfig) -> Self {
        let picker = PiecePicker::new(cfg.file.num_blocks(), cfg.piece_blocks, id == NodeId(0));
        BitTorrentNode {
            id,
            cfg,
            picker,
            neighbours: BTreeMap::new(),
            swarm: Vec::new(),
            optimistic: None,
            completed_at: None,
            arrival_times: Vec::new(),
            duplicates: 0,
            useful_bytes: 0,
        }
    }

    /// True if this node is the initial seed.
    pub fn is_seed(&self) -> bool {
        self.id == NodeId(0)
    }

    /// Completion time in seconds, if the download finished.
    pub fn completed_at(&self) -> Option<f64> {
        self.completed_at
    }

    /// Arrival times of useful blocks (seconds), in arrival order.
    pub fn arrival_times(&self) -> &[f64] {
        &self.arrival_times
    }

    /// Number of duplicate block receipts.
    pub fn duplicates(&self) -> u64 {
        self.duplicates
    }

    /// Number of blocks currently held.
    pub fn blocks_held(&self) -> u32 {
        self.picker.have().count()
    }

    /// Pieces this node has fully downloaded (only these may be shared onward).
    fn bitfield(&self) -> Vec<u32> {
        self.picker.bitfield()
    }

    fn download_done(&self) -> bool {
        self.picker.have().is_full()
    }

    /// Issues rarest-first requests to every neighbour that has unchoked us,
    /// keeping the hard-coded number of requests outstanding per peer.
    fn issue_requests(&mut self, ctx: &mut Ctx<'_, Self>) {
        if self.download_done() {
            return;
        }
        let peers: Vec<NodeId> = self.neighbours.keys().copied().collect();
        for peer in peers {
            self.issue_requests_to(ctx, peer);
        }
    }

    /// Tops `peer`'s request window up with rarest-first blocks (see
    /// [`PiecePicker::pick`]) unless it is choking us.
    fn issue_requests_to(&mut self, ctx: &mut Ctx<'_, Self>, peer: NodeId) {
        let Some(n) = self.neighbours.get_mut(&peer) else {
            return;
        };
        if n.peer_choking {
            return;
        }
        let chosen = self
            .picker
            .pick(&mut n.pieces, self.cfg.outstanding_per_peer, ctx.rng());
        if !chosen.is_empty() {
            ctx.send(peer, BtMsg::Request { blocks: chosen });
        }
    }

    /// Recomputes the choke set: the top uploaders (for a downloader) or top
    /// downloaders (for the seed) get the regular slots; everyone else is
    /// choked except the optimistic unchoke.
    fn recompute_chokes(&mut self, ctx: &mut Ctx<'_, Self>) {
        let mut ranked: Vec<(u64, u64, NodeId)> = {
            let rng: &mut StdRng = ctx.rng();
            self.neighbours
                .iter()
                .map(|(&peer, n)| {
                    let score = if self.is_seed() || self.download_done() {
                        n.bytes_to // Seeds reward fast downloaders.
                    } else {
                        n.bytes_from // Leechers reciprocate good uploaders.
                    };
                    // Random tie-break so idle periods do not always favour the
                    // same (lowest-id) peers.
                    (score, rng.gen::<u64>(), peer)
                })
                .collect()
        };
        ranked.sort_unstable_by_key(|(score, tie, _)| (std::cmp::Reverse(*score), *tie));
        let unchoked: BTreeSet<NodeId> = ranked
            .iter()
            .take(self.cfg.upload_slots)
            .map(|(_, _, p)| *p)
            .chain(self.optimistic)
            .collect();
        let peers: Vec<NodeId> = self.neighbours.keys().copied().collect();
        for peer in peers {
            let n = self
                .neighbours
                .get_mut(&peer)
                .expect("iterating existing keys");
            let should_choke = !unchoked.contains(&peer);
            if n.am_choking != should_choke {
                n.am_choking = should_choke;
                ctx.send(
                    peer,
                    if should_choke {
                        BtMsg::Choke
                    } else {
                        BtMsg::Unchoke
                    },
                );
            }
            // Reset the tit-for-tat window.
            n.bytes_from = 0;
            n.bytes_to = 0;
        }
    }

    fn rotate_optimistic(&mut self, ctx: &mut Ctx<'_, Self>) {
        let choked: Vec<NodeId> = self
            .neighbours
            .iter()
            .filter(|(_, n)| n.am_choking)
            .map(|(&p, _)| p)
            .collect();
        self.optimistic = {
            let rng: &mut StdRng = ctx.rng();
            choked.choose(rng).copied()
        };
        if let Some(peer) = self.optimistic {
            let n = self
                .neighbours
                .get_mut(&peer)
                .expect("chosen from existing");
            if n.am_choking {
                n.am_choking = false;
                ctx.send(peer, BtMsg::Unchoke);
            }
        }
    }

    /// Unchokes `peer` immediately if we still have a free regular slot.
    fn greedy_unchoke(&mut self, ctx: &mut Ctx<'_, Self>, peer: NodeId) {
        let unchoked = self.neighbours.values().filter(|n| !n.am_choking).count();
        if unchoked >= self.cfg.upload_slots {
            return;
        }
        if let Some(n) = self.neighbours.get_mut(&peer) {
            if n.am_choking {
                n.am_choking = false;
                ctx.send(peer, BtMsg::Unchoke);
            }
        }
    }

    fn connect_to(&mut self, ctx: &mut Ctx<'_, Self>, peer: NodeId) {
        if peer == self.id
            || self.neighbours.contains_key(&peer)
            || self.neighbours.len() >= self.cfg.max_connections
        {
            return;
        }
        self.neighbours
            .insert(peer, Neighbour::new(self.picker.new_peer()));
        ctx.send(
            peer,
            BtMsg::Handshake {
                bitfield: self.bitfield(),
            },
        );
    }

    fn note_peer_pieces(&mut self, ctx: &mut Ctx<'_, Self>, peer: NodeId, pieces: &[u32]) {
        let mut becomes_interesting = false;
        if let Some(n) = self.neighbours.get_mut(&peer) {
            for &p in pieces {
                becomes_interesting |= self.picker.note_piece(&mut n.pieces, p);
            }
            if becomes_interesting && !n.am_interested {
                n.am_interested = true;
                ctx.send(peer, BtMsg::Interested);
            }
        }
        if becomes_interesting {
            self.issue_requests_to(ctx, peer);
        }
    }
}

impl Protocol for BitTorrentNode {
    type Msg = BtMsg;
    type Timer = BtTimer;

    fn on_init(&mut self, ctx: &mut Ctx<'_, Self>) {
        if self.is_seed() {
            self.swarm.push(self.id);
        } else {
            ctx.send(NodeId(0), BtMsg::TrackerRequest);
        }
        // The first choke evaluation happens soon after start-up (real clients
        // unchoke interested peers as soon as slots are free); subsequent ones
        // follow the standard 10 s / 30 s cadence.
        ctx.set_timer(SimDuration::from_secs(1), BtTimer::Choke);
        ctx.set_timer(SimDuration::from_secs(5), BtTimer::Optimistic);
        ctx.set_timer(SimDuration::from_secs(2), BtTimer::Keepalive);
    }

    fn on_control(&mut self, ctx: &mut Ctx<'_, Self>, from: NodeId, msg: BtMsg) {
        match msg {
            BtMsg::TrackerRequest => {
                // Only the tracker (node 0) handles announces.
                if !self.is_seed() {
                    return;
                }
                let mut peers = self.swarm.clone();
                {
                    let rng: &mut StdRng = ctx.rng();
                    peers.shuffle(rng);
                }
                peers.truncate(self.cfg.tracker_peers);
                if !self.swarm.contains(&from) {
                    self.swarm.push(from);
                }
                ctx.send(from, BtMsg::TrackerResponse { peers });
            }
            BtMsg::TrackerResponse { peers } => {
                for peer in peers {
                    self.connect_to(ctx, peer);
                }
            }
            BtMsg::Handshake { bitfield } => {
                // Accept the connection (BitTorrent accepts beyond its own
                // initiation cap as long as slots remain).
                if !self.neighbours.contains_key(&from)
                    && self.neighbours.len() < self.cfg.max_connections * 2
                {
                    self.neighbours
                        .insert(from, Neighbour::new(self.picker.new_peer()));
                }
                if self.neighbours.contains_key(&from) {
                    ctx.send(
                        from,
                        BtMsg::HandshakeAck {
                            bitfield: self.bitfield(),
                        },
                    );
                    self.note_peer_pieces(ctx, from, &bitfield);
                    self.greedy_unchoke(ctx, from);
                }
            }
            BtMsg::HandshakeAck { bitfield } => {
                self.note_peer_pieces(ctx, from, &bitfield);
                self.greedy_unchoke(ctx, from);
            }
            BtMsg::Have { piece } => {
                self.note_peer_pieces(ctx, from, &[piece]);
            }
            BtMsg::Interested | BtMsg::NotInterested => {
                // Interest only matters for slot allocation refinements we do
                // not model; recorded implicitly through requests.
            }
            BtMsg::Choke => {
                if let Some(n) = self.neighbours.get_mut(&from) {
                    n.peer_choking = true;
                    // Outstanding requests to a choking peer are abandoned.
                    self.picker.release(&mut n.pieces);
                }
            }
            BtMsg::Unchoke => {
                if let Some(n) = self.neighbours.get_mut(&from) {
                    n.peer_choking = false;
                }
                self.issue_requests_to(ctx, from);
            }
            BtMsg::Request { blocks } => {
                let serve = self
                    .neighbours
                    .get(&from)
                    .map(|n| !n.am_choking)
                    .unwrap_or(false);
                if !serve {
                    return;
                }
                for block in blocks {
                    let piece_complete = self.picker.piece_complete(self.picker.piece_of(block));
                    if piece_complete && self.picker.have().contains(block) {
                        let bytes = u64::from(self.cfg.file.block_size(block));
                        ctx.queue_block(from, block, bytes);
                    }
                }
            }
        }
    }

    fn on_block_received(&mut self, ctx: &mut Ctx<'_, Self>, from: NodeId, receipt: BlockReceipt) {
        let sender = self.neighbours.get_mut(&from).map(|n| {
            n.bytes_from += receipt.bytes;
            &mut n.pieces
        });
        let arrival = self.picker.on_block(sender, receipt.block);
        if arrival == Arrival::Duplicate {
            self.duplicates += 1;
        } else {
            self.arrival_times.push(ctx.now().as_secs_f64());
            self.useful_bytes += receipt.bytes;
            if let Arrival::Completed(piece) = arrival {
                // A completed piece may be announced and shared onward: the
                // classic `Have` flood, one identical message per neighbour.
                ctx.send_to_many(self.neighbours.keys().copied(), &BtMsg::Have { piece });
            }
            if self.download_done() && self.completed_at.is_none() {
                self.completed_at = Some(ctx.now().as_secs_f64());
            }
        }
        self.issue_requests_to(ctx, from);
    }

    fn on_block_sent(&mut self, _ctx: &mut Ctx<'_, Self>, to: NodeId, block: BlockId) {
        let bytes = u64::from(self.cfg.file.block_size(block));
        if let Some(n) = self.neighbours.get_mut(&to) {
            n.bytes_to += bytes;
        }
    }

    fn on_peer_failed(&mut self, ctx: &mut Ctx<'_, Self>, peer: NodeId) {
        // Connection reset: forget the neighbour (its pieces stop counting
        // towards availability) and free its request slots so the blocks
        // become requestable from the survivors.
        if let Some(n) = self.neighbours.remove(&peer) {
            self.picker.forget(n.pieces);
        }
        if self.optimistic == Some(peer) {
            self.optimistic = None;
        }
        // The tracker stops handing out the dead peer.
        self.swarm.retain(|&p| p != peer);
        self.issue_requests(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Self>, timer: BtTimer) {
        match timer {
            BtTimer::Choke => {
                self.recompute_chokes(ctx);
                ctx.set_timer(self.cfg.choke_interval, BtTimer::Choke);
            }
            BtTimer::Optimistic => {
                self.rotate_optimistic(ctx);
                ctx.set_timer(self.cfg.optimistic_interval, BtTimer::Optimistic);
            }
            BtTimer::Keepalive => {
                // Refresh requests (lost opportunities due to choke changes) and
                // re-announce to the tracker if we are starved of neighbours.
                self.issue_requests(ctx);
                if !self.is_seed() && self.neighbours.len() < self.cfg.max_connections / 2 {
                    ctx.send(NodeId(0), BtMsg::TrackerRequest);
                }
                ctx.set_timer(SimDuration::from_secs(2), BtTimer::Keepalive);
            }
        }
    }

    fn is_complete(&self) -> bool {
        self.is_seed() || self.download_done()
    }

    fn probe_stats(&self) -> ProbeStats {
        // The BitTorrent mesh is symmetric: every neighbour is both a
        // potential sender and a potential receiver.
        ProbeStats {
            useful_bytes: self.useful_bytes,
            useful_blocks: self.arrival_times.len() as u64,
            duplicate_blocks: self.duplicates,
            senders: self.neighbours.len(),
            receivers: self.neighbours.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_starts_full_and_leechers_empty() {
        let cfg = BitTorrentConfig::new(FileSpec::new(160 * 1024, 16 * 1024));
        let seed = BitTorrentNode::new(NodeId(0), cfg.clone());
        let leech = BitTorrentNode::new(NodeId(3), cfg);
        assert!(seed.is_seed());
        assert!(seed.is_complete());
        assert_eq!(seed.blocks_held(), 10);
        assert!(!leech.is_complete());
        assert_eq!(leech.blocks_held(), 0);
    }

    #[test]
    fn wire_sizes_are_reasonable() {
        let bf = BtMsg::Handshake {
            bitfield: (0..64).collect(),
        };
        assert_eq!(bf.wire_size(), 9 + 4 + 32);
        let req = BtMsg::Request {
            blocks: vec![BlockId(1), BlockId(2)],
        };
        assert_eq!(req.wire_size(), 9 + 8);
    }

    #[test]
    fn pieces_group_blocks_and_gate_sharing() {
        let cfg = BitTorrentConfig::new(FileSpec::new(512 * 1024, 16 * 1024));
        let seed = BitTorrentNode::new(NodeId(0), cfg.clone());
        // 32 blocks, 16 per piece -> 2 pieces, all complete at the seed.
        assert_eq!(seed.bitfield(), vec![0, 1]);
        let mut leech = BitTorrentNode::new(NodeId(1), cfg);
        assert!(leech.bitfield().is_empty());
        // A leecher asking a holder of piece 1 alone for more than a piece
        // gets exactly that piece's 16 blocks.
        let mut holder = leech.picker.new_peer();
        assert!(leech.picker.note_piece(&mut holder, 1));
        let mut rng = rand::SeedableRng::seed_from_u64(7);
        let chosen = leech.picker.pick(&mut holder, 32, &mut rng);
        assert_eq!(chosen, (16..32).map(BlockId).collect::<Vec<_>>());
    }

    #[test]
    fn defaults_match_bittorrent_constants() {
        let cfg = BitTorrentConfig::new(FileSpec::from_mb_kb(1, 16));
        assert_eq!(cfg.upload_slots, 4);
        assert_eq!(cfg.outstanding_per_peer, 5);
        assert_eq!(cfg.choke_interval, SimDuration::from_secs(10));
        assert_eq!(cfg.optimistic_interval, SimDuration::from_secs(30));
    }
}
