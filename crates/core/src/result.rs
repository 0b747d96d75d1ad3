//! Benchmark results, formatted like the paper's §III-A example output.

use nanobench_store::{ByteReader, ByteWriter};
use std::fmt;

/// Names of the three fixed-function counters, in output order.
pub const FIXED_COUNTER_NAMES: [&str; 3] =
    ["Instructions retired", "Core cycles", "Reference cycles"];

/// Version of [`BenchmarkResult`]'s persistent-store encoding
/// ([`BenchmarkResult::to_store_bytes`]). Bump it whenever the encoding
/// *or the meaning of the encoded values* changes; stored records written
/// under older versions are then never consulted again and their jobs
/// recompute.
pub const RESULT_FORMAT_VERSION: u32 = 1;

/// The result of one benchmark: per-event values, normalized per code
/// repetition.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchmarkResult {
    entries: Vec<(String, f64)>,
}

impl BenchmarkResult {
    /// Creates a result from (event name, value) pairs.
    pub fn new(entries: Vec<(String, f64)>) -> BenchmarkResult {
        BenchmarkResult { entries }
    }

    /// Looks up an event's value by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Number of core cycles per repetition (the most common headline
    /// number).
    pub fn core_cycles(&self) -> Option<f64> {
        self.get("Core cycles")
    }

    /// All entries in output order.
    pub fn entries(&self) -> &[(String, f64)] {
        &self.entries
    }

    /// Iterates over (name, value) pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64)> {
        self.entries.iter().map(|(n, v)| (n.as_str(), *v))
    }

    /// Serializes the result for the persistent store (version
    /// [`RESULT_FORMAT_VERSION`]): entry count, then per entry the
    /// length-prefixed name and the value's IEEE-754 bits, all
    /// little-endian. Bit-exact: `from_store_bytes(to_store_bytes(r))`
    /// compares equal to `r` even for NaN-free float edge cases like
    /// negative zero.
    pub fn to_store_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u32(self.entries.len() as u32);
        for (name, value) in &self.entries {
            w.put_str(name).put_f64(*value);
        }
        w.into_bytes()
    }

    /// Decodes a result from its store encoding. Returns `None` for any
    /// malformed input (a stale or corrupt payload means the job
    /// recomputes — it is never an error).
    pub fn from_store_bytes(bytes: &[u8]) -> Option<BenchmarkResult> {
        let mut r = ByteReader::new(bytes);
        let count = r.take_u32()? as usize;
        let mut entries = Vec::with_capacity(count.min(1024));
        for _ in 0..count {
            let name = r.take_str()?.to_string();
            entries.push((name, r.take_f64()?));
        }
        r.finish(BenchmarkResult::new(entries))
    }
}

impl fmt::Display for BenchmarkResult {
    /// Formats the result exactly like nanoBench's output in §III-A:
    ///
    /// ```text
    /// Instructions retired: 1.00
    /// Core cycles: 4.00
    /// ...
    /// ```
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, value) in &self.entries {
            writeln!(f, "{name}: {value:.2}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_matches_paper_format() {
        let r = BenchmarkResult::new(vec![
            ("Instructions retired".to_string(), 1.0),
            ("Core cycles".to_string(), 4.0),
            ("MEM_LOAD_RETIRED.L1_HIT".to_string(), 0.996),
        ]);
        let text = r.to_string();
        assert!(text.starts_with("Instructions retired: 1.00\nCore cycles: 4.00\n"));
        assert!(text.contains("MEM_LOAD_RETIRED.L1_HIT: 1.00"));
        assert_eq!(r.core_cycles(), Some(4.0));
        assert_eq!(r.get("nope"), None);
    }

    #[test]
    fn store_codec_round_trips_bit_exactly() {
        let r = BenchmarkResult::new(vec![
            ("Instructions retired".to_string(), 1.0),
            ("Core cycles".to_string(), -0.0),
            ("MEM_LOAD_RETIRED.L1_HIT".to_string(), 0.1 + 0.2),
            (String::new(), f64::MAX),
        ]);
        let bytes = r.to_store_bytes();
        let back = BenchmarkResult::from_store_bytes(&bytes).unwrap();
        assert_eq!(back, r);
        // Bit-exactness beyond PartialEq: -0.0 stays -0.0.
        assert_eq!(back.entries()[1].1.to_bits(), (-0.0f64).to_bits());
        let empty = BenchmarkResult::new(Vec::new());
        assert_eq!(
            BenchmarkResult::from_store_bytes(&empty.to_store_bytes()),
            Some(empty)
        );
    }

    #[test]
    fn store_codec_rejects_malformed_payloads() {
        let r = BenchmarkResult::new(vec![("Core cycles".to_string(), 4.0)]);
        let bytes = r.to_store_bytes();
        assert!(BenchmarkResult::from_store_bytes(&[]).is_none());
        assert!(
            BenchmarkResult::from_store_bytes(&bytes[..bytes.len() - 1]).is_none(),
            "truncated"
        );
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(
            BenchmarkResult::from_store_bytes(&extended).is_none(),
            "trailing garbage"
        );
        let mut bad_utf8 = bytes;
        bad_utf8[8] = 0xFF;
        assert!(BenchmarkResult::from_store_bytes(&bad_utf8).is_none());
    }
}
