//! The 128-bit hierarchical Sensor ID.
//!
//! Each MQTT topic maps 1:1 to a SID.  The topic is split into its hierarchy
//! components and each component is hashed into one 16-bit field of the
//! 128-bit value, most-significant field first (paper §4.2).  Because fields
//! are laid out root-first, the numeric order of SIDs follows the hierarchy:
//! all sensors below `/a/b` share the same leading fields, so prefix masks
//! select sub-trees — which is exactly what the storage partitioner exploits.

use std::fmt;

use crate::topic::{self, TopicError};

/// Number of hierarchy levels encoded in a SID.
pub const LEVELS: usize = 8;

/// Bits per hierarchy level field.
pub const LEVEL_BITS: u32 = 16;

/// Errors produced while constructing a [`SensorId`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SidError {
    /// The source topic was invalid.
    Topic(TopicError),
    /// A level index outside `0..LEVELS` was requested.
    LevelOutOfRange(usize),
    /// The topic lives under a hierarchy reserved for the framework's own
    /// self-monitoring sensors (`_dcdb/...`) and cannot be user-published.
    Reserved(String),
    /// A recorded topic ↔ SID pair contradicts one already registered: the
    /// topic has another SID, or the SID another topic.
    Conflict(String),
}

impl fmt::Display for SidError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SidError::Topic(e) => write!(f, "invalid topic: {e}"),
            SidError::LevelOutOfRange(i) => write!(f, "level {i} out of range 0..{LEVELS}"),
            SidError::Reserved(t) => {
                write!(f, "topic {t} is under the reserved self-monitoring hierarchy")
            }
            SidError::Conflict(msg) => write!(f, "conflicting SID record: {msg}"),
        }
    }
}

impl std::error::Error for SidError {}

impl From<TopicError> for SidError {
    fn from(e: TopicError) -> Self {
        SidError::Topic(e)
    }
}

/// A 128-bit hierarchical sensor identifier.
///
/// The value packs up to [`LEVELS`] fields of [`LEVEL_BITS`] bits each; the
/// root hierarchy component occupies the most-significant field.  Unused
/// (deeper) levels are zero.  Field values are derived from the component
/// string with a 16-bit FNV-style hash, with zero reserved to mean "level
/// absent" — the hash is remapped away from zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SensorId(pub u128);

impl SensorId {
    /// The all-zero SID; used as the "null" sentinel.
    pub const NULL: SensorId = SensorId(0);

    /// Build a SID from a topic string.
    ///
    /// # Errors
    /// Returns [`SidError::Topic`] if the topic fails validation.
    pub fn from_topic(topic: &str) -> Result<Self, SidError> {
        topic::is_valid_topic(topic)?;
        let mut v: u128 = 0;
        for (i, comp) in topic::split_levels(topic).iter().enumerate() {
            let h = hash_component(comp);
            v |= (h as u128) << field_shift(i);
        }
        Ok(SensorId(v))
    }

    /// Build a SID directly from per-level field values (testing / tooling).
    ///
    /// # Errors
    /// Returns [`SidError::LevelOutOfRange`] when more than [`LEVELS`] fields
    /// are supplied.
    pub fn from_fields(fields: &[u16]) -> Result<Self, SidError> {
        if fields.len() > LEVELS {
            return Err(SidError::LevelOutOfRange(fields.len() - 1));
        }
        let mut v = 0u128;
        for (i, f) in fields.iter().enumerate() {
            v |= (*f as u128) << field_shift(i);
        }
        Ok(SensorId(v))
    }

    /// Extract the 16-bit field at hierarchy level `level` (0 = root).
    pub fn field(&self, level: usize) -> u16 {
        if level >= LEVELS {
            return 0;
        }
        ((self.0 >> field_shift(level)) & 0xFFFF) as u16
    }

    /// Number of populated hierarchy levels (trailing zero fields excluded).
    pub fn depth(&self) -> usize {
        (0..LEVELS).rev().find(|&i| self.field(i) != 0).map_or(0, |i| i + 1)
    }

    /// The SID truncated to its first `levels` fields — the sub-tree prefix.
    pub fn prefix(&self, levels: usize) -> SensorId {
        let levels = levels.min(LEVELS);
        if levels == 0 {
            return SensorId::NULL;
        }
        let keep_bits = levels as u32 * LEVEL_BITS;
        let mask = if keep_bits >= 128 { u128::MAX } else { !(u128::MAX >> keep_bits) };
        SensorId(self.0 & mask)
    }

    /// True when `self` lies in the sub-tree rooted at `prefix` of the given depth.
    pub fn has_prefix(&self, prefix: SensorId, levels: usize) -> bool {
        self.prefix(levels) == prefix.prefix(levels)
    }

    /// The raw 128-bit value.
    pub fn raw(&self) -> u128 {
        self.0
    }

    /// Hex representation, fixed 32 nibbles, as used in tool output.
    pub fn to_hex(&self) -> String {
        format!("{:032x}", self.0)
    }

    /// Parse the fixed-width hex representation produced by [`Self::to_hex`].
    pub fn from_hex(s: &str) -> Option<Self> {
        u128::from_str_radix(s.trim(), 16).ok().map(SensorId)
    }
}

impl fmt::Display for SensorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

fn field_shift(level: usize) -> u32 {
    128 - LEVEL_BITS * (level as u32 + 1)
}

/// 16-bit FNV-1a over the component bytes, remapped so 0 is never produced.
fn hash_component(comp: &str) -> u16 {
    let mut h: u32 = 0x811c_9dc5;
    for b in comp.bytes() {
        h ^= b as u32;
        h = h.wrapping_mul(0x0100_0193);
    }
    // xor-fold 32 -> 16 bits
    let folded = ((h >> 16) ^ (h & 0xFFFF)) as u16;
    if folded == 0 {
        0xFFFF
    } else {
        folded
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topic_to_sid_is_deterministic() {
        let a = SensorId::from_topic("/lrz/sys/rack/node/power").unwrap();
        let b = SensorId::from_topic("/lrz/sys/rack/node/power").unwrap();
        assert_eq!(a, b);
        assert_ne!(a, SensorId::NULL);
    }

    #[test]
    fn leading_slash_irrelevant() {
        let a = SensorId::from_topic("/a/b/c").unwrap();
        let b = SensorId::from_topic("a/b/c").unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn root_field_is_most_significant() {
        let s = SensorId::from_topic("/a/b").unwrap();
        assert_ne!(s.field(0), 0);
        assert_ne!(s.field(1), 0);
        assert_eq!(s.field(2), 0);
        assert_eq!(s.depth(), 2);
        // root field occupies the top 16 bits
        assert_eq!((s.0 >> 112) as u16, s.field(0));
    }

    #[test]
    fn siblings_share_prefix() {
        let a = SensorId::from_topic("/lrz/sys/rack/node0/power").unwrap();
        let b = SensorId::from_topic("/lrz/sys/rack/node0/temp").unwrap();
        let c = SensorId::from_topic("/lrz/sys/rack/node1/power").unwrap();
        assert_eq!(a.prefix(4), b.prefix(4));
        assert_ne!(a.prefix(4), c.prefix(4));
        assert!(a.has_prefix(b, 4));
        assert!(!a.has_prefix(c, 4));
    }

    #[test]
    fn prefix_depth_edge_cases() {
        let a = SensorId::from_topic("/x/y/z").unwrap();
        assert_eq!(a.prefix(0), SensorId::NULL);
        assert_eq!(a.prefix(LEVELS), a);
        assert_eq!(a.prefix(42), a);
        assert_eq!(SensorId::NULL.depth(), 0);
    }

    #[test]
    fn hex_roundtrip() {
        let a = SensorId::from_topic("/lrz/sys/rack/node0/power").unwrap();
        let h = a.to_hex();
        assert_eq!(h.len(), 32);
        assert_eq!(SensorId::from_hex(&h), Some(a));
        assert_eq!(SensorId::from_hex("zz"), None);
    }

    #[test]
    fn from_fields_respects_limit() {
        let s = SensorId::from_fields(&[1, 2, 3]).unwrap();
        assert_eq!(s.field(0), 1);
        assert_eq!(s.field(1), 2);
        assert_eq!(s.field(2), 3);
        assert_eq!(s.depth(), 3);
        assert!(SensorId::from_fields(&[0; LEVELS + 1]).is_err());
    }

    #[test]
    fn hash_never_zero() {
        for s in ["a", "b", "node0", "power", "x".repeat(100).as_str()] {
            assert_ne!(hash_component(s), 0);
        }
    }

    #[test]
    fn ordering_follows_hierarchy_prefix() {
        // all sensors under one node are contiguous in SID order
        let lo = SensorId::from_topic("/s/r/n0").unwrap().prefix(3);
        let hi = SensorId(lo.0 | (u128::MAX >> (3 * LEVEL_BITS)));
        let inside = SensorId::from_topic("/s/r/n0/cpu3/flops").unwrap();
        assert!(lo <= inside && inside <= hi);
    }
}
