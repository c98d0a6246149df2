//! Per-rank traffic accounting for the machine model.

use crate::FaultStats;

/// Wire-level health counters of a byte-oriented transport.
///
/// All zero for the in-process backend (no sockets underneath); the
/// socket backend fills them so a run's JSON breakdown reports how hard
/// the links had to work to look reliable.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WireStats {
    /// Socket `connect` attempts, including the successful ones.
    pub connect_attempts: u64,
    /// Links re-established after going down mid-run.
    pub reconnects: u64,
    /// Data frames written to a stream.
    pub frames_sent: u64,
    /// Frames queued while a link was down and re-sent after it came
    /// back (same peer incarnation only).
    pub frames_retried: u64,
    /// Frames addressed to a peer already declared dead and dropped at
    /// the sender.
    pub frames_dropped_dead: u64,
    /// Total frame bytes (headers + payloads + CRC trailers) on the wire.
    pub bytes_on_wire: u64,
    /// Inbound frames rejected by the CRC / structural checks.
    pub crc_rejects: u64,
}

impl WireStats {
    /// Did the transport observe any distress at all?
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.reconnects == 0 && self.frames_retried == 0 && self.crc_rejects == 0
    }

    /// One JSON object of the counters (manual serialization, as
    /// elsewhere in the workspace — no serde dependency).
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                r#"{{"connect_attempts":{},"reconnects":{},"frames_sent":{},"#,
                r#""frames_retried":{},"frames_dropped_dead":{},"bytes_on_wire":{},"#,
                r#""crc_rejects":{}}}"#
            ),
            self.connect_attempts,
            self.reconnects,
            self.frames_sent,
            self.frames_retried,
            self.frames_dropped_dead,
            self.bytes_on_wire,
            self.crc_rejects,
        )
    }
}

/// Bytes/messages of one tag class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassVolume {
    /// Payload bytes sent.
    pub bytes: u64,
    /// Messages sent.
    pub msgs: u64,
}

impl ClassVolume {
    /// One JSON object of the pair.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(r#"{{"bytes":{},"msgs":{}}}"#, self.bytes, self.msgs)
    }
}

/// Communication volume broken down by tag class, so a transform's
/// alltoallv traffic is a measured number rather than an inference from
/// totals. Summed over ranks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TagClassVolumes {
    /// Point-to-point sends under user tags (halo exchanges, spill
    /// folds, particle refresh handoffs).
    pub p2p: ClassVolume,
    /// Alltoallv payloads (the FFT transposes and particle refresh).
    pub a2a: ClassVolume,
    /// Control-plane collectives: barrier, broadcast, reduce, gather,
    /// allgather rings.
    pub control: ClassVolume,
}

impl TagClassVolumes {
    /// One JSON object keyed by class.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            r#"{{"p2p":{},"a2a":{},"control":{}}}"#,
            self.p2p.to_json(),
            self.a2a.to_json(),
            self.control.to_json(),
        )
    }
}

/// Communication traffic observed during one [`crate::Machine::run`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrafficStats {
    /// Bytes sent by each rank (payload only).
    pub bytes_sent: Vec<u64>,
    /// Number of messages sent by each rank.
    pub msgs_sent: Vec<u64>,
    /// The same volume broken down by tag class (summed over ranks).
    pub by_class: TagClassVolumes,
    /// Fault-injection events observed during the run (all zero for a
    /// clean run).
    pub faults: FaultStats,
    /// Wire-level transport counters (all zero for the in-process
    /// backend; per-process view for the socket backend).
    pub wire: WireStats,
}

impl TrafficStats {
    /// Total payload bytes moved during the run.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.bytes_sent.iter().sum()
    }

    /// Total message count during the run.
    #[must_use]
    pub fn total_msgs(&self) -> u64 {
        self.msgs_sent.iter().sum()
    }

    /// Maximum bytes sent by any single rank — the communication critical
    /// path under a symmetric network assumption.
    #[must_use]
    pub fn max_rank_bytes(&self) -> u64 {
        self.bytes_sent.iter().copied().max().unwrap_or(0)
    }

    /// Mean bytes per rank.
    #[must_use]
    pub fn mean_rank_bytes(&self) -> f64 {
        if self.bytes_sent.is_empty() {
            0.0
        } else {
            self.total_bytes() as f64 / self.bytes_sent.len() as f64
        }
    }

    /// Load imbalance of the communication volume: max/mean (1.0 = perfect).
    #[must_use]
    pub fn imbalance(&self) -> f64 {
        let mean = self.mean_rank_bytes();
        if mean == 0.0 {
            1.0
        } else {
            self.max_rank_bytes() as f64 / mean
        }
    }

    /// One JSON object: traffic totals plus the wire-health counters,
    /// for run breakdown artifacts.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            r#"{{"total_bytes":{},"total_msgs":{},"imbalance":{:.4},"by_class":{},"wire":{}}}"#,
            self.total_bytes(),
            self.total_msgs(),
            self.imbalance(),
            self.by_class.to_json(),
            self.wire.to_json(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregates() {
        let s = TrafficStats {
            bytes_sent: vec![100, 300],
            msgs_sent: vec![1, 3],
            by_class: TagClassVolumes::default(),
            faults: FaultStats::default(),
            wire: WireStats::default(),
        };
        assert_eq!(s.total_bytes(), 400);
        assert_eq!(s.total_msgs(), 4);
        assert_eq!(s.max_rank_bytes(), 300);
        assert_eq!(s.mean_rank_bytes(), 200.0);
        assert_eq!(s.imbalance(), 1.5);
    }

    #[test]
    fn empty_and_zero() {
        let s = TrafficStats {
            bytes_sent: vec![],
            msgs_sent: vec![],
            by_class: TagClassVolumes::default(),
            faults: FaultStats::default(),
            wire: WireStats::default(),
        };
        assert_eq!(s.total_bytes(), 0);
        assert_eq!(s.imbalance(), 1.0);
        let z = TrafficStats {
            bytes_sent: vec![0, 0],
            msgs_sent: vec![0, 0],
            by_class: TagClassVolumes::default(),
            faults: FaultStats::default(),
            wire: WireStats::default(),
        };
        assert_eq!(z.imbalance(), 1.0);
    }

    #[test]
    fn wire_stats_cleanliness() {
        assert!(WireStats::default().is_clean());
        let distressed = WireStats {
            crc_rejects: 1,
            ..WireStats::default()
        };
        assert!(!distressed.is_clean());
    }
}
