//! A delegating [`Protocol`] wrapper that times every hook from outside the
//! protocol and attributes control messages to the layer that handles them.
//!
//! [`Hooked<P>`] shares `P`'s message and timer types and forwards each
//! hook through [`Ctx::retarget`], the same way `netsim::conformance`'s
//! `Instrumented` does, so a wrapped run records the same commands in the
//! same order as a bare one (the benchmark checks that the canonical reports
//! are byte-identical). All nodes of a run share one [`HookTally`], so the
//! totals survive the service layer replacing nodes between cohorts.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use bullet_prime::Msg;
use dissem_codec::BlockId;
use netsim::{BlockReceipt, Ctx, NodeId, ProbeStats, Protocol};

/// The layer a timed hook call is charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Layer {
    /// `on_block_received`: bitmap update, duplicate check, request refill.
    BlockReceived,
    /// `on_block_sent`: the sender's queue refill.
    BlockSent,
    /// `on_timer`: RanSub epochs and housekeeping.
    Timer,
    /// `PeerRequest`/`PeerAccept`/`PeerReject`/`PeerClose`.
    Peering,
    /// `Diff`/`DiffRequest`.
    Diff,
    /// `BlockRequest`.
    Request,
    /// `RansubCollect`/`RansubDistribute`.
    Ransub,
    /// `TreeAttach` (control-tree repair).
    Tree,
}

impl Layer {
    const COUNT: usize = 8;

    /// The metric prefix of the layer (`<prefix>.calls`, `<prefix>.ns`).
    pub fn name(self) -> &'static str {
        match self {
            Layer::BlockReceived => "core.block_received",
            Layer::BlockSent => "core.block_sent",
            Layer::Timer => "core.timer",
            Layer::Peering => "core.peering",
            Layer::Diff => "core.diff",
            Layer::Request => "core.request",
            Layer::Ransub => "overlay.ransub",
            Layer::Tree => "overlay.tree",
        }
    }
}

/// The layer whose code handles a control message.
fn layer_of(msg: &Msg) -> Layer {
    match msg {
        Msg::RansubCollect { .. } | Msg::RansubDistribute { .. } => Layer::Ransub,
        Msg::PeerRequest { .. } | Msg::PeerAccept { .. } | Msg::PeerReject | Msg::PeerClose => {
            Layer::Peering
        }
        Msg::Diff { .. } | Msg::DiffRequest => Layer::Diff,
        Msg::BlockRequest { .. } => Layer::Request,
        Msg::TreeAttach => Layer::Tree,
    }
}

/// Calls and wall nanoseconds per layer, plus duplicate block arrivals.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HookTally {
    /// Hook calls per layer, indexed by [`Layer`].
    pub calls: [u64; Layer::COUNT],
    /// Wall nanoseconds inside the wrapped hook per layer.
    pub nanos: [u64; Layer::COUNT],
    /// Block arrivals the protocol counted as duplicates.
    pub duplicates: u64,
}

/// The tally every node of one run records into.
pub type SharedTally = Rc<RefCell<HookTally>>;

/// The timing wrapper. See the module documentation.
#[derive(Debug)]
pub struct Hooked<P> {
    inner: P,
    tally: SharedTally,
}

impl<P> Hooked<P> {
    /// Wraps `inner`, recording into `tally`.
    pub fn new(inner: P, tally: &SharedTally) -> Self {
        Hooked {
            inner,
            tally: Rc::clone(tally),
        }
    }

    fn charge(&self, layer: Layer, started: Instant) {
        let nanos = started.elapsed().as_nanos() as u64;
        let mut t = self.tally.borrow_mut();
        t.calls[layer as usize] += 1;
        t.nanos[layer as usize] += nanos;
    }
}

impl<P: Protocol<Msg = Msg>> Protocol for Hooked<P> {
    type Msg = P::Msg;
    type Timer = P::Timer;

    fn on_init(&mut self, ctx: &mut Ctx<'_, Self>) {
        self.inner.on_init(&mut ctx.retarget());
    }

    fn on_control(&mut self, ctx: &mut Ctx<'_, Self>, from: NodeId, msg: Self::Msg) {
        let layer = layer_of(&msg);
        let started = Instant::now();
        self.inner.on_control(&mut ctx.retarget(), from, msg);
        self.charge(layer, started);
    }

    fn on_block_received(&mut self, ctx: &mut Ctx<'_, Self>, from: NodeId, receipt: BlockReceipt) {
        let dups_before = self.inner.probe_stats().duplicate_blocks;
        let started = Instant::now();
        self.inner
            .on_block_received(&mut ctx.retarget(), from, receipt);
        self.charge(Layer::BlockReceived, started);
        let dups = self.inner.probe_stats().duplicate_blocks - dups_before;
        self.tally.borrow_mut().duplicates += dups;
    }

    fn on_block_sent(&mut self, ctx: &mut Ctx<'_, Self>, to: NodeId, block: BlockId) {
        let started = Instant::now();
        self.inner.on_block_sent(&mut ctx.retarget(), to, block);
        self.charge(Layer::BlockSent, started);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Self>, timer: Self::Timer) {
        let started = Instant::now();
        self.inner.on_timer(&mut ctx.retarget(), timer);
        self.charge(Layer::Timer, started);
    }

    fn on_peer_failed(&mut self, ctx: &mut Ctx<'_, Self>, peer: NodeId) {
        self.inner.on_peer_failed(&mut ctx.retarget(), peer);
    }

    fn on_shutdown(&mut self, ctx: &mut Ctx<'_, Self>) {
        self.inner.on_shutdown(&mut ctx.retarget());
    }

    fn is_complete(&self) -> bool {
        self.inner.is_complete()
    }

    fn probe_stats(&self) -> ProbeStats {
        self.inner.probe_stats()
    }
}
