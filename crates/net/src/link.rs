//! Link bandwidth models (paper §4.4).
//!
//! The end-to-end experiments need transfer times over three hops: sensor →
//! client (100BASE-TX Ethernet), client → server (4G uplink), and server
//! memory → storage (HDD). [`LinkModel`] computes those analytically;
//! [`throttled_pipe`] provides a live in-memory pipe that actually paces
//! writes at the configured bandwidth for wall-clock simulations.

use std::io::{self, Read, Write};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::time::{Duration, Instant};

/// An analytic bandwidth model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkModel {
    /// Usable bandwidth in bits per second.
    pub bits_per_second: f64,
}

impl LinkModel {
    /// A link with the given usable bandwidth.
    pub fn new(bits_per_second: f64) -> LinkModel {
        assert!(bits_per_second > 0.0);
        LinkModel { bits_per_second }
    }

    /// 4G mobile uplink: 8.2 Mbps average (paper §4.4, citing \[41\]).
    pub fn mobile_4g() -> LinkModel {
        LinkModel::new(8.2e6)
    }

    /// 100BASE-TX Ethernet (sensor → client).
    pub fn ethernet_100base_tx() -> LinkModel {
        LinkModel::new(100e6)
    }

    /// Data-centre HDD write path (≥ 500 Mbps, paper §4.4).
    pub fn hdd_write() -> LinkModel {
        LinkModel::new(500e6)
    }

    /// Time to transfer `bytes` over this link.
    pub fn transfer_time(&self, bytes: usize) -> Duration {
        Duration::from_secs_f64(bytes as f64 * 8.0 / self.bits_per_second)
    }

    /// Sustained frame rate achievable for frames of `bytes` each.
    pub fn frames_per_second(&self, bytes: usize) -> f64 {
        if bytes == 0 {
            f64::INFINITY
        } else {
            self.bits_per_second / (bytes as f64 * 8.0)
        }
    }

    /// Bandwidth required to ship `bytes`-sized frames at `fps`, in Mbps —
    /// the paper's "bandwidth requirement" metric (`8·f·|B|`).
    pub fn required_mbps(bytes: usize, fps: f64) -> f64 {
        bytes as f64 * 8.0 * fps / 1e6
    }
}

/// Writer half of a throttled in-memory pipe.
#[derive(Debug)]
pub struct PipeWriter {
    tx: SyncSender<Vec<u8>>,
    model: Option<LinkModel>,
    /// Pacing horizon: the time at which everything written so far has
    /// "arrived" under the bandwidth model.
    horizon: Instant,
}

/// Reader half of a throttled in-memory pipe.
#[derive(Debug)]
pub struct PipeReader {
    rx: Receiver<Vec<u8>>,
    buf: Vec<u8>,
    pos: usize,
}

/// Create an in-memory pipe; with `Some(model)` the writer blocks to pace
/// output at the modelled bandwidth.
pub fn throttled_pipe(model: Option<LinkModel>) -> (PipeWriter, PipeReader) {
    let (tx, rx) = sync_channel(64);
    (PipeWriter { tx, model, horizon: Instant::now() }, PipeReader { rx, buf: Vec::new(), pos: 0 })
}

impl Write for PipeWriter {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        if let Some(model) = self.model {
            let now = Instant::now();
            if self.horizon < now {
                self.horizon = now;
            }
            self.horizon += model.transfer_time(data.len());
            let sleep = self.horizon.saturating_duration_since(now);
            if !sleep.is_zero() {
                std::thread::sleep(sleep);
            }
        }
        self.tx
            .send(data.to_vec())
            .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "reader dropped"))?;
        Ok(data.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Read for PipeReader {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        while self.pos == self.buf.len() {
            match self.rx.recv() {
                Ok(chunk) => {
                    self.buf = chunk;
                    self.pos = 0;
                }
                Err(_) => return Ok(0), // writer dropped: EOF
            }
        }
        let n = (self.buf.len() - self.pos).min(out.len());
        out[..n].copy_from_slice(&self.buf[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_math() {
        let link = LinkModel::mobile_4g();
        // 0.6 Mbit at 8.2 Mbps ≈ 73 ms (the paper's 2 cm city frame).
        let t = link.transfer_time(75_000);
        assert!((t.as_secs_f64() - 0.0732).abs() < 0.001, "{t:?}");
        // 96 Mbit/s of raw LiDAR needs 96 Mbps.
        assert!((LinkModel::required_mbps(1_200_000, 10.0) - 96.0).abs() < 1e-9);
    }

    #[test]
    fn frames_per_second_math() {
        let link = LinkModel::mobile_4g();
        assert!(link.frames_per_second(75_000) > 13.0);
        assert!(link.frames_per_second(1_200_000) < 1.0);
        assert!(link.frames_per_second(0).is_infinite());
    }

    #[test]
    fn unthrottled_pipe_roundtrip() {
        let (mut w, mut r) = throttled_pipe(None);
        let data: Vec<u8> = (0..10_000u32).map(|i| i as u8).collect();
        let handle = {
            let data = data.clone();
            std::thread::spawn(move || {
                w.write_all(&data).unwrap();
            })
        };
        let mut got = Vec::new();
        r.read_to_end(&mut got).unwrap();
        handle.join().unwrap();
        assert_eq!(got, data);
    }

    #[test]
    fn throttled_pipe_paces_writes() {
        // 1 Mbps: 12_500 bytes should take ~100 ms.
        let (mut w, mut r) = throttled_pipe(Some(LinkModel::new(1e6)));
        let start = Instant::now();
        let handle = std::thread::spawn(move || {
            let mut got = Vec::new();
            r.read_to_end(&mut got).unwrap();
            got.len()
        });
        w.write_all(&vec![0u8; 12_500]).unwrap();
        drop(w);
        assert_eq!(handle.join().unwrap(), 12_500);
        let elapsed = start.elapsed();
        assert!(elapsed >= Duration::from_millis(80), "{elapsed:?}");
        assert!(elapsed < Duration::from_millis(500), "{elapsed:?}");
    }
}
