//! Shared-memory transport: append-only frame logs in a shared directory.
//!
//! Each directed link `(src, dst)` is one file, `link-SSSS-DDDD.frames`,
//! created and appended by `src` only and consumed by `dst` only — a
//! single-producer/single-consumer log mirroring the mailbox SPSC
//! contract. A rank's poller thread sweeps its inbound links, decoding
//! whole frames as they become visible; a partially written frame (the
//! header promises more bytes than the file holds yet) is simply retried
//! on the next sweep, so readers never see torn frames.
//!
//! This is the co-located backend: no sockets, the logs survive either
//! end's `kill -9` (frames already durable keep flowing to the reader),
//! and a crashed run leaves its traffic on disk for post-mortem
//! inspection. Rank death is announced by Death frames (written by the
//! dying rank's poison broadcast) or, for a SIGKILLed process that could
//! not write one, by the supervisor's control plane — a missing Goodbye
//! alone never tears a link, because the file outlives the writer.

use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use super::frame::{Frame, FrameKind, HEADER_LEN};
use super::{FrameSink, LinkCounters, LinkError, LinkStat, Transport};

/// The log file carrying frames from `src` to `dst`.
pub fn link_path(dir: &Path, src: usize, dst: usize) -> PathBuf {
    dir.join(format!("link-{src:04}-{dst:04}.frames"))
}

/// How long the poller sleeps when a sweep finds nothing new.
const IDLE_SLEEP: Duration = Duration::from_micros(500);

/// One rank's endpoint: outbound log files plus the inbound poller.
pub struct ShmTransport {
    my_rank: usize,
    writers: Vec<Mutex<Option<File>>>,
    counters: LinkCounters,
    stopping: Arc<AtomicBool>,
    poller: Mutex<Option<JoinHandle<()>>>,
}

impl ShmTransport {
    /// Creates this rank's outbound logs under `dir` and starts the
    /// inbound poller feeding `sink`. Every rank of the run must use the
    /// same (per-attempt) directory.
    pub fn start(
        dir: &Path,
        my_rank: usize,
        world: usize,
        sink: Arc<dyn FrameSink>,
    ) -> std::io::Result<Arc<Self>> {
        assert!(my_rank < world, "rank {my_rank} outside world of {world}");
        let mut writers = Vec::with_capacity(world);
        for dst in 0..world {
            if dst == my_rank {
                writers.push(Mutex::new(None));
            } else {
                let file = File::options()
                    .create(true)
                    .append(true)
                    .open(link_path(dir, my_rank, dst))?;
                writers.push(Mutex::new(Some(file)));
            }
        }
        let stopping = Arc::new(AtomicBool::new(false));
        let poller = {
            let dir = dir.to_path_buf();
            let stopping = Arc::clone(&stopping);
            std::thread::Builder::new()
                .name(format!("shm-poll-{my_rank}"))
                .spawn(move || poll_inbound(&dir, my_rank, world, sink, stopping))?
        };
        Ok(Arc::new(Self {
            my_rank,
            writers,
            counters: LinkCounters::new(my_rank, world),
            stopping,
            poller: Mutex::new(Some(poller)),
        }))
    }
}

impl Transport for ShmTransport {
    fn send(&self, dst: usize, frame: &Frame) -> Result<(), LinkError> {
        let slot = self.writers.get(dst).ok_or_else(|| LinkError {
            dst,
            detail: format!("rank {dst} outside the mesh"),
        })?;
        let buf = frame.encode();
        let start = Instant::now();
        let mut guard = slot.lock();
        let file = guard.as_mut().ok_or_else(|| LinkError {
            dst,
            detail: "link closed".to_owned(),
        })?;
        if let Err(e) = file.write_all(&buf) {
            *guard = None;
            return Err(LinkError {
                dst,
                detail: e.to_string(),
            });
        }
        drop(guard);
        self.counters
            .note(dst, buf.len(), start.elapsed().as_nanos() as u64);
        Ok(())
    }

    fn shutdown(&self) {
        if self.stopping.swap(true, Ordering::SeqCst) {
            return;
        }
        let goodbye = Frame {
            kind: FrameKind::Goodbye,
            src: self.my_rank as u32,
            dst: 0,
            tag: 0,
            wire_id: 0,
            payload: Vec::new(),
        };
        let bytes = goodbye.encode();
        for slot in &self.writers {
            let mut guard = slot.lock();
            if let Some(file) = guard.as_mut() {
                let _ = file.write_all(&bytes);
                let _ = file.flush();
            }
            *guard = None;
        }
        if let Some(handle) = self.poller.lock().take() {
            // The poller can run this shutdown itself via a Drop cascade
            // (sink upgrade holding the last fabric Arc) — never self-join.
            if handle.thread().id() != std::thread::current().id() {
                let _ = handle.join();
            }
        }
    }

    fn link_stats(&self) -> Vec<LinkStat> {
        self.counters.snapshot()
    }
}

impl Drop for ShmTransport {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Per-inbound-link poller state.
struct Inbound {
    src: usize,
    file: Option<File>,
    offset: u64,
    done: bool,
}

fn poll_inbound(
    dir: &Path,
    my_rank: usize,
    world: usize,
    sink: Arc<dyn FrameSink>,
    stopping: Arc<AtomicBool>,
) {
    let mut links: Vec<Inbound> = (0..world)
        .filter(|&src| src != my_rank)
        .map(|src| Inbound {
            src,
            file: None,
            offset: 0,
            done: false,
        })
        .collect();
    while !stopping.load(Ordering::SeqCst) {
        let mut progress = false;
        let mut all_done = true;
        for link in &mut links {
            if link.done {
                continue;
            }
            all_done = false;
            if link.file.is_none() {
                // The peer creates this log at its own startup; retry.
                link.file = File::open(link_path(dir, link.src, my_rank)).ok();
            }
            let Some(file) = &link.file else { continue };
            while let Some(buf) = read_frame_at(file, link.offset) {
                link.offset += buf.len() as u64;
                progress = true;
                match Frame::decode_tolerant(&buf) {
                    Ok((frame, _, sum_ok)) => match frame.kind {
                        FrameKind::Data => sink.deliver(frame, sum_ok),
                        FrameKind::Death => {
                            let phase = String::from_utf8_lossy(&frame.payload).into_owned();
                            sink.peer_death(link.src, frame.tag as usize, &phase);
                        }
                        FrameKind::Goodbye => {
                            link.done = true;
                            sink.link_down(link.src, true);
                            break;
                        }
                    },
                    Err(_) => {
                        // Framing damage: this log can never resynchronise.
                        link.done = true;
                        sink.link_down(link.src, false);
                        break;
                    }
                }
            }
        }
        if all_done {
            return;
        }
        if !progress {
            std::thread::sleep(IDLE_SLEEP);
        }
    }
}

/// Reads the complete frame starting at `offset`, or `None` if the log
/// does not yet hold all of its bytes (including framing damage in the
/// header, which a later sweep re-reads and reports via decode).
fn read_frame_at(file: &File, offset: u64) -> Option<Vec<u8>> {
    let mut hdr = [0u8; HEADER_LEN];
    if !read_full_at(file, &mut hdr, offset) {
        return None;
    }
    let total = match Frame::total_len(&hdr) {
        Ok(n) => n,
        // Let decode_tolerant re-derive and report the framing error.
        Err(_) => return Some(hdr.to_vec()),
    };
    let mut buf = vec![0u8; total];
    buf[..HEADER_LEN].copy_from_slice(&hdr);
    if !read_full_at(file, &mut buf[HEADER_LEN..], offset + HEADER_LEN as u64) {
        return None;
    }
    Some(buf)
}

#[cfg(unix)]
fn read_full_at(file: &File, buf: &mut [u8], mut offset: u64) -> bool {
    use std::os::unix::fs::FileExt;
    let mut filled = 0;
    while filled < buf.len() {
        match file.read_at(&mut buf[filled..], offset) {
            Ok(0) => return false,
            Ok(n) => {
                filled += n;
                offset += n as u64;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return false,
        }
    }
    true
}

#[cfg(not(unix))]
fn read_full_at(_file: &File, _buf: &mut [u8], _offset: u64) -> bool {
    // Positioned reads exist only on unix; failing fast beats silently
    // never delivering a frame on an unsupported platform.
    // xtask-allow: no-panic, error-taxonomy — shm transport is unix-only
    unimplemented!("shm transport requires positioned reads (unix)")
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Collect {
        frames: Mutex<Vec<(Frame, bool)>>,
        deaths: Mutex<Vec<(usize, usize, String)>>,
        downs: Mutex<Vec<(usize, bool)>>,
    }

    impl Collect {
        fn new() -> Arc<Self> {
            Arc::new(Self {
                frames: Mutex::new(Vec::new()),
                deaths: Mutex::new(Vec::new()),
                downs: Mutex::new(Vec::new()),
            })
        }
    }

    impl FrameSink for Collect {
        fn deliver(&self, frame: Frame, sum_ok: bool) {
            self.frames.lock().push((frame, sum_ok));
        }
        fn peer_death(&self, from: usize, dead: usize, phase: &str) {
            self.deaths.lock().push((from, dead, phase.to_owned()));
        }
        fn link_down(&self, src: usize, clean: bool) {
            self.downs.lock().push((src, clean));
        }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rhpl-shm-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn wait_for<F: Fn() -> bool>(cond: F) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !cond() {
            assert!(Instant::now() < deadline, "timed out waiting for delivery");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn frames_flow_between_ranks_through_the_log() {
        let dir = tmpdir("flow");
        let s0 = Collect::new();
        let s1 = Collect::new();
        let t0 = ShmTransport::start(&dir, 0, 2, s0.clone() as Arc<dyn FrameSink>).unwrap();
        let t1 = ShmTransport::start(&dir, 1, 2, s1.clone() as Arc<dyn FrameSink>).unwrap();
        let frame = Frame {
            kind: FrameKind::Data,
            src: 0,
            dst: 1,
            tag: 99,
            wire_id: 7,
            payload: vec![5; 4096],
        };
        t0.send(1, &frame).unwrap();
        wait_for(|| !s1.frames.lock().is_empty());
        let got = s1.frames.lock();
        assert_eq!(got[0].0.tag, 99);
        assert_eq!(got[0].0.payload.len(), 4096);
        assert!(got[0].1);
        drop(got);
        t0.shutdown();
        wait_for(|| !s1.downs.lock().is_empty());
        assert_eq!(s1.downs.lock()[0], (0, true));
        t1.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn partially_written_frames_are_never_delivered_torn() {
        let dir = tmpdir("torn");
        let sink = Collect::new();
        let frame = Frame {
            kind: FrameKind::Data,
            src: 1,
            dst: 0,
            tag: 3,
            wire_id: 7,
            payload: vec![7; 256],
        };
        let bytes = frame.encode();
        // Write only half the frame before the reader starts.
        let path = link_path(&dir, 1, 0);
        let mut f = File::create(&path).unwrap();
        f.write_all(&bytes[..bytes.len() / 2]).unwrap();
        f.flush().unwrap();
        let t0 = ShmTransport::start(&dir, 0, 2, sink.clone() as Arc<dyn FrameSink>).unwrap();
        std::thread::sleep(Duration::from_millis(20));
        assert!(
            sink.frames.lock().is_empty(),
            "half a frame must not deliver"
        );
        // Complete it; the poller picks up the whole frame.
        f.write_all(&bytes[bytes.len() / 2..]).unwrap();
        f.flush().unwrap();
        wait_for(|| !sink.frames.lock().is_empty());
        assert_eq!(sink.frames.lock()[0].0.payload, vec![7; 256]);
        t0.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn framing_damage_tears_the_link_down_uncleanly() {
        let dir = tmpdir("damage");
        let sink = Collect::new();
        let path = link_path(&dir, 1, 0);
        let mut f = File::create(&path).unwrap();
        f.write_all(&[0xAAu8; HEADER_LEN + 16]).unwrap();
        f.flush().unwrap();
        let t0 = ShmTransport::start(&dir, 0, 2, sink.clone() as Arc<dyn FrameSink>).unwrap();
        wait_for(|| !sink.downs.lock().is_empty());
        assert_eq!(
            sink.downs.lock()[0],
            (1, false),
            "bad magic is unclean death"
        );
        t0.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
