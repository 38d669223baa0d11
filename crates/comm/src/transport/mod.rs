//! The transport fabric: how frames move between ranks that do not share
//! an address space.
//!
//! Every message is an encoded [`wire::Packet`] whichever way it travels;
//! in process the fabric moves it into the destination's mailbox, and this
//! module adds a [`Transport`] seam at the
//! `Fabric::try_send_counted`/`try_recv` choke point with two remote backends:
//!
//! * [`tcp`] — length-prefixed frames over loopback/LAN TCP sockets, one
//!   full-duplex link per rank pair, wired lower-rank-dials-higher.
//! * [`shm`] — append-only frame logs in a shared directory, one file per
//!   directed link, with a polling reader (the co-located-rank backend:
//!   no sockets, survives either end's crash, and the frames are
//!   inspectable on disk post-mortem).
//!
//! Both move [`frame::Frame`]s (versioned, checksummed) and deliver into
//! the ordinary per-rank mailbox through a [`FrameSink`], so matching,
//! FIFO order, poison precedence and the spill lane are shared with the
//! in-process path. Sends and receives *below* the choke point are
//! invisible to fault injection, traffic stats and trace byte attribution
//! — exactly like the mailbox internals they replace — which is what makes
//! `seq_hash` transport-invariant.

pub mod frame;
pub mod shm;
pub mod tcp;
pub mod wire;

use std::sync::atomic::{AtomicU64, Ordering};

use frame::Frame;

/// Which transport a universe (or `rhpl launch`) uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum TransportSel {
    /// Threads in one process sharing mailboxes directly.
    #[default]
    Inproc,
    /// Append-only shared-memory frame logs (co-located processes).
    Shm,
    /// Length-prefixed TCP sockets.
    Tcp,
}

impl TransportSel {
    /// Stable lowercase name ("inproc" / "shm" / "tcp").
    pub fn name(self) -> &'static str {
        match self {
            TransportSel::Inproc => "inproc",
            TransportSel::Shm => "shm",
            TransportSel::Tcp => "tcp",
        }
    }
}

impl std::str::FromStr for TransportSel {
    type Err = ();

    fn from_str(s: &str) -> Result<Self, ()> {
        match s.to_ascii_lowercase().as_str() {
            "inproc" => Ok(TransportSel::Inproc),
            "shm" => Ok(TransportSel::Shm),
            "tcp" => Ok(TransportSel::Tcp),
            _ => Err(()),
        }
    }
}

impl std::fmt::Display for TransportSel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A remote link failed while sending.
#[derive(Clone, Debug)]
pub struct LinkError {
    /// Destination world rank of the failed send.
    pub dst: usize,
    /// Human-readable cause (the underlying I/O error).
    pub detail: String,
}

impl std::fmt::Display for LinkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "link to rank {} down: {}", self.dst, self.detail)
    }
}

impl std::error::Error for LinkError {}

/// Where a transport's receiver threads hand incoming frames. Implemented
/// by the fabric (holding itself weakly, so a dropped fabric makes late
/// deliveries no-ops instead of leaks).
pub trait FrameSink: Send + Sync + 'static {
    /// A mailbox-bound frame arrived. `sum_ok == false` means the payload
    /// failed its checksum: deliver it marked corrupt so the typed receive
    /// reports corruption instead of hanging or mis-decoding.
    fn deliver(&self, frame: Frame, sum_ok: bool);

    /// Peer `from` announced that world rank `dead` died during `phase`.
    fn peer_death(&self, from: usize, dead: usize, phase: &str);

    /// The inbound link from `src` ended. `clean` is true only after a
    /// Goodbye frame; a torn link (EOF, reset, framing damage) is treated
    /// as that rank's death.
    fn link_down(&self, src: usize, clean: bool);
}

/// Per-destination traffic of one rank's outbound links.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LinkStat {
    /// Sending world rank.
    pub src: usize,
    /// Destination world rank.
    pub dst: usize,
    /// Frame bytes written (headers + payloads + trailers).
    pub bytes: u64,
    /// Frames written.
    pub frames: u64,
    /// Nanoseconds spent in blocking send calls.
    pub send_ns: u64,
}

/// A remote byte-moving backend: owns this rank's outbound links and the
/// receiver threads feeding the mailbox through a [`FrameSink`].
pub trait Transport: Send + Sync {
    /// Queues one frame to world rank `dst`. An error means the link is
    /// down (the process died or the stream is torn); the caller poisons
    /// the job with that rank's identity.
    fn send(&self, dst: usize, frame: &Frame) -> Result<(), LinkError>;

    /// Announces a clean shutdown (Goodbye to every live peer), stops the
    /// receiver threads and joins them. Idempotent.
    fn shutdown(&self);

    /// Per-destination traffic snapshot for `BENCH_hpl.json` attribution.
    fn link_stats(&self) -> Vec<LinkStat>;
}

/// Shared per-destination counters both backends update on the send path.
pub(crate) struct LinkCounters {
    src: usize,
    bytes: Vec<AtomicU64>,
    frames: Vec<AtomicU64>,
    send_ns: Vec<AtomicU64>,
}

impl LinkCounters {
    pub(crate) fn new(src: usize, world: usize) -> Self {
        Self {
            src,
            bytes: (0..world).map(|_| AtomicU64::new(0)).collect(),
            frames: (0..world).map(|_| AtomicU64::new(0)).collect(),
            send_ns: (0..world).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    pub(crate) fn note(&self, dst: usize, bytes: usize, ns: u64) {
        if let (Some(b), Some(f), Some(n)) = (
            self.bytes.get(dst),
            self.frames.get(dst),
            self.send_ns.get(dst),
        ) {
            b.fetch_add(bytes as u64, Ordering::Relaxed);
            f.fetch_add(1, Ordering::Relaxed);
            n.fetch_add(ns, Ordering::Relaxed);
        }
    }

    pub(crate) fn snapshot(&self) -> Vec<LinkStat> {
        (0..self.bytes.len())
            .filter(|&d| d != self.src)
            .map(|d| LinkStat {
                src: self.src,
                dst: d,
                bytes: self.bytes[d].load(Ordering::Relaxed),
                frames: self.frames[d].load(Ordering::Relaxed),
                send_ns: self.send_ns[d].load(Ordering::Relaxed),
            })
            .collect()
    }
}

/// Link traffic of the most recent transport-backed universe run in this
/// process, aggregated over ranks at teardown — what `BENCH_hpl.json`
/// reports as per-link attribution. Empty for in-process runs (there are
/// no links to attribute).
pub fn last_run_link_stats() -> Vec<LinkStat> {
    LAST_RUN_LINKS.lock().clone()
}

pub(crate) fn record_run_link_stats(stats: Vec<LinkStat>) {
    *LAST_RUN_LINKS.lock() = stats;
}

static LAST_RUN_LINKS: parking_lot::Mutex<Vec<LinkStat>> = parking_lot::Mutex::new(Vec::new());

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transport_sel_parses_and_prints() {
        for (s, sel) in [
            ("inproc", TransportSel::Inproc),
            ("SHM", TransportSel::Shm),
            ("Tcp", TransportSel::Tcp),
        ] {
            assert_eq!(s.parse::<TransportSel>(), Ok(sel));
            assert_eq!(sel.to_string(), sel.name());
        }
        assert_eq!("mpi".parse::<TransportSel>(), Err(()));
    }

    #[test]
    fn link_counters_attribute_per_destination() {
        let c = LinkCounters::new(1, 3);
        c.note(0, 100, 5);
        c.note(0, 50, 5);
        c.note(2, 8, 1);
        let s = c.snapshot();
        assert_eq!(s.len(), 2, "self link excluded");
        assert_eq!(
            s[0],
            LinkStat {
                src: 1,
                dst: 0,
                bytes: 150,
                frames: 2,
                send_ns: 10
            }
        );
        assert_eq!(s[1].bytes, 8);
    }
}
