//! Communication accounting.
//!
//! The measured counterpart of the paper's cost analysis: per-directed-link
//! byte and message counters, aggregated into per-party and total views.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::party::PartyId;

/// Counters for one directed link `from → to`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LinkStats {
    /// Number of messages sent over the link.
    pub messages: u64,
    /// Total accounted bytes (payload + framing).
    pub bytes: u64,
}

impl LinkStats {
    /// Records one message of `bytes` accounted size.
    pub fn record(&mut self, bytes: u64) {
        self.messages += 1;
        self.bytes += bytes;
    }
}

/// Sealing-tier counters for one directed link `from → to` (secured
/// transports only): how many AEAD records and inner frames each side of
/// the channel processed, and how the sealed wire image compares to the
/// plaintext it carries. `frames / records` on the seal side is the
/// coalescing factor the link achieved.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SealingStats {
    /// Sealed records produced (AEAD seal invocations).
    pub records_sealed: u64,
    /// Inner envelopes carried by those records.
    pub frames_sealed: u64,
    /// Bytes of batch plaintext sealed (inner envelope encodings).
    pub plaintext_bytes: u64,
    /// Bytes of sealed record payloads produced (header + ciphertext + tag).
    pub sealed_bytes: u64,
    /// Sealed records opened (AEAD open invocations that verified).
    pub records_opened: u64,
    /// Inner envelopes recovered from those records.
    pub frames_opened: u64,
}

impl SealingStats {
    /// Adds `other`'s counters into this one.
    pub fn merge(&mut self, other: &SealingStats) {
        self.records_sealed += other.records_sealed;
        self.frames_sealed += other.frames_sealed;
        self.plaintext_bytes += other.plaintext_bytes;
        self.sealed_bytes += other.sealed_bytes;
        self.records_opened += other.records_opened;
        self.frames_opened += other.frames_opened;
    }

    /// Average envelopes per sealed record (1.0 = no coalescing).
    pub fn frames_per_record(&self) -> f64 {
        if self.records_sealed == 0 {
            0.0
        } else {
            self.frames_sealed as f64 / self.records_sealed as f64
        }
    }
}

/// Per-directed-link sealing statistics of one transport (or an aggregate
/// over several).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SealingReport {
    /// Counters per directed link.
    pub links: BTreeMap<(PartyId, PartyId), SealingStats>,
}

impl SealingReport {
    /// Sums every link's counters.
    pub fn total(&self) -> SealingStats {
        let mut total = SealingStats::default();
        for stats in self.links.values() {
            total.merge(stats);
        }
        total
    }

    /// Merges another report's links into this one (link-wise sum).
    pub fn merge(&mut self, other: &SealingReport) {
        for (&link, stats) in &other.links {
            self.links.entry(link).or_default().merge(stats);
        }
    }

    /// Renders a compact human-readable table.
    pub fn to_table(&self) -> String {
        let mut out = String::from(
            "link                records   frames  f/rec   plaintext      sealed   opened\n",
        );
        for ((from, to), s) in &self.links {
            out.push_str(&format!(
                "{:<8} -> {:<8} {:>7} {:>8} {:>6.2} {:>11} {:>11} {:>8}\n",
                from.to_string(),
                to.to_string(),
                s.records_sealed,
                s.frames_sealed,
                s.frames_per_record(),
                s.plaintext_bytes,
                s.sealed_bytes,
                s.frames_opened,
            ));
        }
        let t = self.total();
        out.push_str(&format!(
            "total               {:>7} {:>8} {:>6.2} {:>11} {:>11} {:>8}\n",
            t.records_sealed,
            t.frames_sealed,
            t.frames_per_record(),
            t.plaintext_bytes,
            t.sealed_bytes,
            t.frames_opened,
        ));
        out
    }
}

/// Condvar statistics of a transport's receive path: how often workers
/// parked waiting for frames and how many of those parks ended in a
/// notification (the rest timed out); benches record both numbers next to
/// throughput.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WaitStats {
    /// Times a receive call parked on the transport's condvar.
    pub blocking_waits: u64,
    /// Parks that ended in a notification rather than a timeout.
    pub wakeups: u64,
}

impl WaitStats {
    /// Adds `other`'s counters into this one.
    pub fn merge(&mut self, other: &WaitStats) {
        self.blocking_waits += other.blocking_waits;
        self.wakeups += other.wakeups;
    }
}

/// Transports that can report receive-path condvar statistics.
///
/// Implemented by the socket transports and the in-memory
/// [`crate::Network`], and forwarded by wrappers like
/// [`Instrumented`](crate::Instrumented), so harnesses ask the top of the
/// stack regardless of how the transport is layered.
pub trait WaitStatsReporter {
    /// Receive-path wait counters, or `None` when the transport does not
    /// track them.
    fn wait_stats(&self) -> Option<WaitStats>;
}

/// Delivery-path statistics of a socket transport: how well the scratch
/// buffer pool recycled allocations, and how the batched wake protocol
/// behaved. On a steady-state run the pool hit rate converges to 1.0 —
/// the delivery machinery performs no per-frame heap allocation of its
/// own.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DeliveryStats {
    /// Scratch buffers served from the decode/unseal pool.
    pub pool_hits: u64,
    /// Scratch buffers freshly allocated because the pool was empty
    /// (start-up warm-up, or bursts deeper than the pool retains).
    pub pool_misses: u64,
    /// Wake rounds: delivered read chunks that signalled waiters once
    /// per touched party instead of once per frame.
    pub batched_wakes: u64,
    /// Individual wake tokens signalled.
    pub wake_signals: u64,
}

impl DeliveryStats {
    /// Adds `other`'s counters into this one.
    pub fn merge(&mut self, other: &DeliveryStats) {
        self.pool_hits += other.pool_hits;
        self.pool_misses += other.pool_misses;
        self.batched_wakes += other.batched_wakes;
        self.wake_signals += other.wake_signals;
    }

    /// Fraction of scratch-buffer requests served by the pool.
    pub fn pool_hit_rate(&self) -> f64 {
        let total = self.pool_hits + self.pool_misses;
        if total == 0 {
            1.0
        } else {
            self.pool_hits as f64 / total as f64
        }
    }
}

/// A snapshot of all communication that has happened on a [`crate::Network`].
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CommReport {
    /// Per directed link statistics.
    pub links: BTreeMap<(PartyId, PartyId), LinkStats>,
}

impl CommReport {
    /// Total bytes across all links.
    pub fn total_bytes(&self) -> u64 {
        self.links.values().map(|l| l.bytes).sum()
    }

    /// Total messages across all links.
    pub fn total_messages(&self) -> u64 {
        self.links.values().map(|l| l.messages).sum()
    }

    /// Bytes sent by `party` (outgoing traffic — the quantity the paper's
    /// per-site cost analysis describes).
    pub fn bytes_sent_by(&self, party: PartyId) -> u64 {
        self.links
            .iter()
            .filter(|((from, _), _)| *from == party)
            .map(|(_, l)| l.bytes)
            .sum()
    }

    /// Bytes received by `party`.
    pub fn bytes_received_by(&self, party: PartyId) -> u64 {
        self.links
            .iter()
            .filter(|((_, to), _)| *to == party)
            .map(|(_, l)| l.bytes)
            .sum()
    }

    /// Bytes on the directed link `from → to`.
    pub fn bytes_on_link(&self, from: PartyId, to: PartyId) -> u64 {
        self.links.get(&(from, to)).map(|l| l.bytes).unwrap_or(0)
    }

    /// Messages on the directed link `from → to`.
    pub fn messages_on_link(&self, from: PartyId, to: PartyId) -> u64 {
        self.links.get(&(from, to)).map(|l| l.messages).unwrap_or(0)
    }

    /// Subtracts a baseline snapshot, yielding the traffic that happened
    /// between the two snapshots.
    pub fn since(&self, baseline: &CommReport) -> CommReport {
        let mut out = CommReport::default();
        for (&link, &stats) in &self.links {
            let base = baseline.links.get(&link).copied().unwrap_or_default();
            out.links.insert(
                link,
                LinkStats {
                    messages: stats.messages - base.messages,
                    bytes: stats.bytes - base.bytes,
                },
            );
        }
        out
    }

    /// Renders a compact human-readable table (used by the experiment
    /// harness).
    pub fn to_table(&self) -> String {
        let mut out = String::from("link                messages        bytes\n");
        for ((from, to), stats) in &self.links {
            out.push_str(&format!(
                "{:<8} -> {:<8} {:>8} {:>12}\n",
                from.to_string(),
                to.to_string(),
                stats.messages,
                stats.bytes
            ));
        }
        out.push_str(&format!(
            "total               {:>8} {:>12}\n",
            self.total_messages(),
            self.total_bytes()
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CommReport {
        let mut r = CommReport::default();
        r.links
            .entry((PartyId::DataHolder(0), PartyId::DataHolder(1)))
            .or_default()
            .record(100);
        r.links
            .entry((PartyId::DataHolder(1), PartyId::ThirdParty))
            .or_default()
            .record(250);
        r.links
            .entry((PartyId::DataHolder(1), PartyId::ThirdParty))
            .or_default()
            .record(50);
        r
    }

    #[test]
    fn totals_and_per_party_views() {
        let r = sample();
        assert_eq!(r.total_bytes(), 400);
        assert_eq!(r.total_messages(), 3);
        assert_eq!(r.bytes_sent_by(PartyId::DataHolder(1)), 300);
        assert_eq!(r.bytes_received_by(PartyId::ThirdParty), 300);
        assert_eq!(r.bytes_sent_by(PartyId::ThirdParty), 0);
        assert_eq!(
            r.bytes_on_link(PartyId::DataHolder(0), PartyId::DataHolder(1)),
            100
        );
        assert_eq!(
            r.messages_on_link(PartyId::DataHolder(1), PartyId::ThirdParty),
            2
        );
        assert_eq!(
            r.bytes_on_link(PartyId::ThirdParty, PartyId::DataHolder(0)),
            0
        );
    }

    #[test]
    fn since_subtracts_baseline() {
        let base = sample();
        let mut later = sample();
        later
            .links
            .entry((PartyId::DataHolder(0), PartyId::DataHolder(1)))
            .or_default()
            .record(77);
        let delta = later.since(&base);
        assert_eq!(delta.total_bytes(), 77);
        assert_eq!(delta.total_messages(), 1);
    }

    #[test]
    fn table_rendering_mentions_all_links() {
        let r = sample();
        let t = r.to_table();
        assert!(t.contains("DH0"));
        assert!(t.contains("TP"));
        assert!(t.contains("total"));
    }
}
